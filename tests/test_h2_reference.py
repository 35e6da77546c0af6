"""The ring-gather H2 check against the per-pair loop it replaced."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab import kernels
from sparselab.certify import hilbert_h2_fit
from sparselab.grid import DomainError, DyadicCube, dilate
from sparselab.kernels import (
    H2Report,
    KernelSample,
    check_h2,
    hilbert_kernel,
    kernel_from_symbol,
    symbol_cone,
    symbol_sign,
    symbol_smooth_bump,
)

from cubes import ring_mask


def kernel_diff(K, x, xbar, ys):
    """K(x, y...) - K(xbar, y...) on arrays of y cell indices."""
    N = 1 << K.level
    return (K.table[np.ix_(*((x - y) % N for y in ys))]
            - K.table[np.ix_(*((xbar - y) % N for y in ys))])


def reference_check_h2(K, p0, Q, jmax, seed=0):
    """The per-(pair, ring) loop of check_h2, kept as the reference."""
    if p0 < 1:
        raise DomainError("p0 must be >= 1")
    if jmax < 1:
        raise DomainError("need at least one ring")
    if jmax > Q.level:
        raise DomainError(
            f"ring {jmax} of a level-{Q.level} cube is empty on the torus"
        )
    L = K.level
    cells = kernels._half_cube_cells(Q, L)
    pairs = [(int(a), int(b)) for ai, a in enumerate(cells) for b in cells[ai + 1 :]]
    if cells.size > kernels._H2_MAX_PAIRS:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(pairs), size=kernels._H2_MAX_PAIRS, replace=False)
        pairs = [pairs[int(i)] for i in picks]
    vol = 2.0 ** (-L)
    p0c = math.inf if p0 == 1.0 else p0 / (p0 - 1.0)

    ring_cells = []
    for j in range(1, jmax + 1):
        mask = ring_mask(Q, j, L)
        ring_cells.append(np.nonzero(mask.ravel())[0])

    def ring_norm(diff_abs: np.ndarray) -> float:
        if math.isinf(p0c):
            return float(diff_abs.max()) if diff_abs.size else 0.0
        total = float((diff_abs**p0c).sum())
        weight = vol if K.arity == 1 else vol * vol
        return (total * weight) ** (1.0 / p0c)

    b_values = []
    js = list(range(1, jmax + 1))
    if K.arity == 1:
        for yc in ring_cells:
            best = 0.0
            for x, xbar in pairs:
                d = np.abs(kernel_diff(K, x, xbar, (yc,)))
                best = max(best, ring_norm(d))
            b_values.append(best)
    else:
        grouped = {j: 0.0 for j in js}
        for j1, yc1 in zip(js, ring_cells):
            for j2, yc2 in zip(js, ring_cells):
                j0 = max(j1, j2)
                for x, xbar in pairs:
                    d = np.abs(kernel_diff(K, x, xbar, (yc1, yc2)))
                    grouped[j0] = max(grouped[j0], ring_norm(d))
        # rings paired with S_0 = Q itself
        q_cells = np.nonzero(dilate(Q, 0, L).ravel())[0]
        for j, yc in zip(js, ring_cells):
            for x, xbar in pairs:
                d1 = np.abs(kernel_diff(K, x, xbar, (yc, q_cells)))
                d2 = np.abs(kernel_diff(K, x, xbar, (q_cells, yc)))
                grouped[j] = max(grouped[j], ring_norm(d1), ring_norm(d2))
        b_values = [grouped[j] for j in js]

    fit_js = [j for j, b in zip(js, b_values) if b > 0 and j >= 2]
    fit_bs = [b for j, b in zip(js, b_values) if b > 0 and j >= 2]
    if len(fit_js) < 3:
        return H2Report(p0, Q, js, b_values, None, None, len(pairs), True)
    slope, resid = kernels._fit_slope(fit_js, np.log2(fit_bs))
    return H2Report(p0, Q, js, b_values, -slope, resid, len(pairs), False)


P0S = [1.0, 1.25, 1.5, 2.0, 3.0]


def _kernel(kind, arity, L, seed):
    N = 1 << L
    rng = np.random.default_rng(seed)
    shape = (N,) * arity
    if kind == "zero":
        return KernelSample(np.zeros(shape))
    if kind == "random":
        # integer values make ties between cells common
        return KernelSample(rng.integers(-3, 4, shape).astype(float))
    if kind == "complex":
        return KernelSample(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if arity == 1:
        return hilbert_kernel(L) if kind == "hilbert" else kernel_from_symbol(symbol_sign(N))
    sym = symbol_cone(N) if kind == "cone" else symbol_smooth_bump(N)
    return kernel_from_symbol(sym)


@st.composite
def h2_cases(draw, arity):
    if arity == 1:
        L = draw(st.integers(6, 12))
        kind = draw(st.sampled_from(["hilbert", "sign", "random", "complex", "zero"]))
    else:
        L = draw(st.integers(3, 7))
        kind = draw(st.sampled_from(["cone", "bump", "random", "complex", "zero"]))
    # half cubes of up to 512 cells: the reference lists every pair before sampling
    level = draw(st.integers(max(1, L - 10), L - 2))
    index = draw(st.sampled_from([0, 1, (1 << level) - 1]))
    jmax = draw(st.integers(1, min(level, 5 if arity == 1 else 3)))
    p0 = draw(st.sampled_from(P0S))
    # a smaller cap samples the pairs of small half cubes too
    cap = draw(st.sampled_from([kernels._H2_MAX_PAIRS, 5]))
    seed = draw(st.integers(0, 3))
    return _kernel(kind, arity, L, seed), p0, DyadicCube(level, (index,)), jmax, cap, seed


def _both(K, p0, Q, jmax, cap, seed):
    with mock.patch.object(kernels, "_H2_MAX_PAIRS", cap):
        return check_h2(K, p0, Q, jmax, seed=seed), reference_check_h2(K, p0, Q, jmax, seed=seed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(h2_cases(1))
def test_linear_h2_matches_reference(case):
    new, ref = _both(*case)
    assert repr(new.to_dict()) == repr(ref.to_dict())


@settings(max_examples=75, deadline=None, derandomize=True)
@given(h2_cases(2))
def test_bilinear_h2_matches_reference(case):
    new, ref = _both(*case)
    assert new.pairs == ref.pairs
    assert new.degenerate == ref.degenerate
    np.testing.assert_allclose(new.b_values, ref.b_values, rtol=1e-12, atol=0)
    if ref.delta_hat is None:
        assert new.delta_hat is None
    else:
        np.testing.assert_allclose(new.delta_hat, ref.delta_hat, rtol=1e-12, atol=0)


def test_hilbert_fit_matches_reference():
    for p0 in (1.0, 2.0):
        new = hilbert_h2_fit(12, p0)
        ref = reference_check_h2(hilbert_kernel(12), p0, DyadicCube(6, (1,)), 5)
        assert repr(new.to_dict()) == repr(ref.to_dict())
