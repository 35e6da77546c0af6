"""The level folds, one-level block reductions and stopping cubes against plain
references, bit for bit."""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import MAX_LEVEL, block_reduce, fold_down, fold_up, maximal, upsample

COMBINE = {"sum": np.add, "any": np.logical_or, "min": np.minimum, "max": np.maximum}


def numpy_reduce(arr, n, j, op):
    """numpy's own reduction of a finer level's array to one value per level-j cube."""
    s = arr.shape[0] >> j
    return getattr(arr.reshape((1 << j, s) * n), op)(axis=tuple(range(1, 2 * n, 2)))


def reference_fold_up(terms, n, hi, lo, op):
    """One level at a time, coarsest last: the reduced finer level, then the term."""
    out = {}
    for j in range(hi, lo - 1, -1):
        parts = [numpy_reduce(out[j + 1], n, j, op)] if j + 1 in out else []
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
    got = fold_up(terms, lo, op)
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
            direct = [numpy_reduce(terms[i], n, j, op) for i in sorted(terms) if i >= j]
            assert np.array_equal(s, functools.reduce(COMBINE[op], direct))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_case(), st.sampled_from(list(COMBINE.values())))
def test_fold_down_matches_flat_loop(case, op):
    n, L, levels = case
    got = fold_down(levels.items(), n, L, op)
    assert same_bits(got, reference_fold_down(levels.items(), n, L, op))


def test_empty_folds():
    assert fold_up({}, 0, "sum") == {}
    for n in (1, 2):
        assert same_bits(fold_down([], n, 3), np.zeros((8,) * n))


@st.composite
def one_level_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, MAX_LEVEL[n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << L,) * n
    if draw(st.booleans()):
        return n, L, rng.random(shape) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    # magnitudes over e^-30 .. e^30 with either sign, signed zeros and ties mixed in
    spread = draw(st.sampled_from([0.0, 1.0, 30.0]))
    vals = np.exp(rng.uniform(-spread, spread, shape)) * rng.choice([-1.0, 1.0], shape)
    vals[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    vals[rng.random(shape) < 0.1] = -0.0
    if draw(st.booleans()):
        vals = np.round(vals, 1)
    return n, L, vals


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_level_case(), st.sampled_from(["sum", "mean", "min", "max", "any"]))
def test_one_level_block_reduce_matches_numpy(case, op):
    n, L, vals = case
    assert same_bits(block_reduce(vals, L - 1, op), numpy_reduce(vals, n, L - 1, op))


def reference_maximal(flags, covered):
    """Per cube: kept when flagged, no flagged cube of a swept level lies above it,
    and its ancestor on covered's level is not covered."""
    c = covered.shape[0].bit_length() - 1
    out = {}
    for j, flag in flags.items():
        keep = np.zeros_like(flag)
        for idx in map(tuple, np.argwhere(flag)):
            above = [flags[i][tuple(x >> (j - i) for x in idx)] for i in flags if i < j]
            keep[idx] = not any(above) and not covered[tuple(x >> (j - c) for x in idx)]
        if keep.any():
            out[j] = keep
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2]), st.data())
def test_maximal_matches_per_cube_rule(n, data):
    L = data.draw(st.integers(0, 6 if n == 1 else 4))
    c = data.draw(st.integers(0, L))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.0, 0.2, 0.6]))
    covered = rng.random((1 << c,) * n) < data.draw(st.sampled_from([0.0, 0.3]))
    # swept levels from covered's level down, with gaps
    levels = sorted(data.draw(st.sets(st.integers(c, L), max_size=L - c + 1)))
    flags = {j: rng.random((1 << j,) * n) < density for j in levels}
    got = maximal(flags, covered)
    ref = reference_maximal(flags, covered)
    assert list(got) == list(ref)
    assert all(same_bits(got[j], ref[j]) for j in ref)
