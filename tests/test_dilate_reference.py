"""Dilate averages from cyclic-window level tables against the mask loops they replaced."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import DyadicCube, dilate, dilate_products
from sparselab.samples import random_carleson, random_function, random_sparse_family, rng_from
from sparselab.sparse import eval_sparse_T
from sparselab.weights import power_weight

from cubes import cubes_at_level


def reference_dilate_row(fs, Q, p0):
    """One cube's row of dilate_products by the per-ring mask loop, kept as the reference."""
    L = fs[0].level
    out = []
    powers = [np.abs(f.values) ** p0 for f in fs]
    for ell in range(Q.level + 1):
        mask = dilate(Q, ell, L)
        prod = 1.0
        for pw in powers:
            prod *= float(pw[mask].mean()) ** (1.0 / p0)
        out.append(prod)
    return out


def reference_eval_sparse_T(obj, k, p0, fs):
    """The per-cube mask loop of eval_sparse_T, kept as the reference."""
    n, L = fs[0].dim, fs[0].level
    items = obj.items() if hasattr(obj, "items") else [(Q, 1.0) for Q in obj.cubes]
    powers = [np.abs(f.values) ** p0 for f in fs]
    out = np.zeros((1 << L,) * n)
    inv = 1.0 / p0
    for Q, alpha in items:
        mask = dilate(Q, k, L)
        coef = alpha
        for pw in powers:
            coef *= float(pw[mask].mean()) ** inv
        out[Q.cell_slices(L)] += coef
    return out


def window_axis(i, j, ell, L):
    """Level-L cells along one axis of the dilate 2^ell Q, as a cyclic window.

    Below the bottom level the window runs on the level-(j+1) grid: width 2
    from 2i at ell = 0, width 2^(ell+1) from 2i + 1 - 2^ell otherwise.  At
    j = L it runs on the cells themselves: the cell at ell = 0, else 2^ell
    cells from i - 2^(ell-1).  A window at least as wide as the torus is
    the whole torus.
    """
    if j < L:
        N = 1 << (j + 1)
        start, width = (2 * i, 2) if ell == 0 else (2 * i + 1 - 2**ell, 2 ** (ell + 1))
    else:
        N = 1 << L
        start, width = (i, 1) if ell == 0 else (i - 2 ** (ell - 1), 2**ell)
    cells = np.zeros(N, dtype=bool)
    cells[(start + np.arange(min(width, N))) % N] = True
    return np.repeat(cells, (1 << L) // N)


def test_dilate_is_a_cyclic_window_exhaustive():
    for n, top in ((1, 6), (2, 4)):
        for L in range(top + 1):
            for j in range(L + 1):
                for Q in cubes_at_level(n, j):
                    for ell in range(j + 2):
                        axes = [window_axis(i, j, ell, L) for i in Q.index]
                        expected = axes[0] if n == 1 else np.logical_and.outer(*axes)
                        assert np.array_equal(dilate(Q, ell, L), expected), (Q, ell, L)


def _inputs(draw, n, L, rng):
    kind = draw(st.sampled_from(["uniform", "near-singular", "half-singular"]))
    if kind == "uniform":
        return random_function(rng, n, L)
    alpha = -n + 0.01 if kind == "near-singular" else -n / 2
    center = tuple(draw(st.sampled_from([0.0, 0.5, 0.3])) for _ in range(n))
    return power_weight(alpha, center=center, n=n, L=L)


@st.composite
def ring_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 7) if n == 1 else st.integers(0, 4))
    j = draw(st.integers(0, L))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    fs = [_inputs(draw, n, L, rng) for _ in range(draw(st.integers(1, 2)))]
    p0 = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return fs, j, p0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring_case())
def test_dilate_products_match_mask_loop(case):
    fs, j, p0 = case
    table = dilate_products(fs, [j], p0)[j]
    assert table.shape == (j + 1,) + (1 << j,) * fs[0].dim
    for Q in cubes_at_level(fs[0].dim, j):
        ref = reference_dilate_row(fs, Q, p0)
        np.testing.assert_allclose(table[(slice(None), *Q.index)], ref, rtol=1e-12, atol=0)


@st.composite
def sparse_T_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(2, 7) if n == 1 else st.integers(2, 4))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lvl = draw(st.integers(0, 2))
        index = tuple(draw(st.integers(0, (1 << lvl) - 1)) for _ in range(n))
        obj = random_carleson(rng, n, L, root=DyadicCube(lvl, index),
                              density=draw(st.floats(0.05, 0.9)))
    else:
        obj = random_sparse_family(rng, n, L)
    fs = [_inputs(draw, n, L, rng) for _ in range(draw(st.integers(1, 2)))]
    return obj, draw(st.integers(0, 3)), draw(st.sampled_from([1.0, 1.5, 2.0])), fs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_T_case())
def test_eval_sparse_T_matches_mask_loop(case):
    obj, k, p0, fs = case
    out = eval_sparse_T(obj, k, p0, fs)
    np.testing.assert_allclose(out.values, reference_eval_sparse_T(obj, k, p0, fs),
                               rtol=1e-12, atol=0)


@st.composite
def level_subset_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 7) if n == 1 else st.integers(0, 4))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    fs = [_inputs(draw, n, L, rng) for _ in range(draw(st.integers(1, 2)))]
    levels = draw(st.lists(st.integers(0, L), min_size=1, unique=True))
    return fs, levels, draw(st.sampled_from([1.0, 1.5, 2.0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(level_subset_case())
def test_dilate_products_level_is_independent_of_the_others_requested(case):
    fs, levels, p0 = case
    tables = dilate_products(fs, levels, p0)
    assert sorted(tables) == sorted(levels)
    for j in levels:
        assert np.array_equal(tables[j], dilate_products(fs, [j], p0)[j]), j
