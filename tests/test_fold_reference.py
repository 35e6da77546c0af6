"""The two level folds against plain per-level loops, bit for bit."""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import block_reduce, fold_down, fold_up, upsample

COMBINE = {"sum": np.add, "any": np.logical_or, "min": np.minimum, "max": np.maximum}


def reference_fold_up(terms, n, hi, lo, op):
    """One level at a time, coarsest last: the reduced finer level, then the term."""
    out = {}
    for j in range(hi, lo - 1, -1):
        parts = [block_reduce(out[j + 1], n, j + 1, j, op)] if j + 1 in out else []
        parts += [terms[j]] if j in terms else []
        if parts:
            out[j] = functools.reduce(COMBINE[op], parts)
    return dict(sorted(out.items()))


def reference_fold_down(levels, n, L, op):
    """Every level's array repeated onto the cells and combined there, coarse to fine."""
    out = np.zeros((1 << L,) * n)
    for j, arr in levels:
        out = op(out, upsample(arr, 1 << (L - j)))
    return out


@st.composite
def level_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 7 if n == 1 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # levels drawn with gaps, so some levels have neither a term nor a finer level
    levels = sorted(draw(st.sets(st.integers(0, L), max_size=L + 1)))
    kind = draw(st.sampled_from(["float", "signed", "bool", "int"]))

    def array(j):
        shape = (1 << j,) * n
        if kind == "bool":
            return rng.random(shape) < 0.3
        if kind == "int":
            return rng.integers(0, 4, shape)
        vals = rng.uniform(-1.0 if kind == "signed" else 0.0, 1.0, shape)
        vals[rng.random(shape) < 0.3] = 0.0
        return vals

    return n, L, {j: array(j) for j in levels}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_case(), st.sampled_from(sorted(COMBINE)), st.data())
def test_fold_up_matches_per_level_loop(case, op, data):
    n, L, terms = case
    lo = data.draw(st.integers(0, L))
    got = fold_up(terms, n, L, lo, op)
    ref = reference_fold_up(terms, n, L, lo, op)
    assert list(got) == list(ref) == sorted(got)
    assert all(same_bits(got[j], ref[j]) for j in ref)
    # a level is present exactly when it or a finer level in range has a term
    assert set(got) == {j for j in range(lo, L + 1) if any(i >= j for i in terms)}
    # where the order of combination cannot matter (integer sums, flags for "any"),
    # S_j reduces every deeper term directly
    kinds = {"sum": "bi", "any": "b"}.get(op, "biuf")
    if all(a.dtype.kind in kinds for a in terms.values()):
        for j, s in got.items():
            direct = [block_reduce(terms[i], n, i, j, op) for i in sorted(terms) if i >= j]
            assert np.array_equal(s, functools.reduce(COMBINE[op], direct))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_case(), st.sampled_from(list(COMBINE.values())))
def test_fold_down_matches_flat_loop(case, op):
    n, L, levels = case
    got = fold_down(levels.items(), n, L, op)
    assert same_bits(got, reference_fold_down(levels.items(), n, L, op))


def test_empty_folds():
    assert fold_up({}, 2, 3, 0, "sum") == {}
    for n in (1, 2):
        assert same_bits(fold_down([], n, 3), np.zeros((8,) * n))
