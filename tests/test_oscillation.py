import math

import numpy as np
import pytest

from sparselab.grid import (
    DimensionError,
    DomainError,
    DyadicCube,
    GridFunction,
    dilate_products,
    rearrangement,
    root_cube,
)
from sparselab.oscillation import (
    LernerDecomposition,
    lerner_decompose,
    local_osc,
    median,
    osc_profile,
)
from sparselab.samples import random_signed_function, rng_from
from sparselab.sparse import verify_sparse

from cubes import contains

R1 = root_cube(1)


# --- oracles -------------------------------------------------------------------


def is_valid_median(f, Q, m):
    block = f.on(Q).ravel()
    return 2 * (block > m).sum() <= block.size and 2 * (block < m).sum() <= block.size


def oracle_local_osc(f, Q, lam):
    """Brute-force minimization with the exact rearrangement.

    The candidate set contains every pairwise midpoint of cell values,
    which is where the minimum of a k-th order statistic of |f - c| sits.
    """
    block = np.sort(f.on(Q), axis=None)
    N = block.size
    k = max(1, math.ceil(lam * N - 1e-12))
    mids = (block[:, None] + block[None, :]) / 2.0
    cs = np.unique(np.concatenate([block, mids.ravel()]))
    best = math.inf
    for c in cs:
        vals = np.sort(np.abs(block - c))[::-1]
        best = min(best, vals[k - 1])
    return best


# --- median ----------------------------------------------------------------------


def test_median_constant():
    f = GridFunction.constant(1, 4, 2.5)
    assert median(f, R1) == 2.5


def test_median_two_halves():
    f = GridFunction.indicator(1, 3, DyadicCube(1, (0,)))
    # both 0 and 1 are valid; smallest is chosen
    assert median(f, R1) == 0.0
    assert is_valid_median(f, R1, 0.0)
    assert is_valid_median(f, R1, 1.0)


def test_median_ramp():
    f = GridFunction(1, 3, np.arange(8) / 8.0)
    m = median(f, R1)
    # brute force over the 8 cell values checking the two level-set bounds
    valid = [v for v in f.values if is_valid_median(f, R1, v)]
    assert m == min(valid) == 3 / 8


def test_median_shift_and_negate():
    rng = rng_from(1)
    f = random_signed_function(rng, 1, 5)
    Q = DyadicCube(1, (1,))
    m = median(f, Q)
    g = GridFunction(1, 5, f.values + 1.75)
    assert median(g, Q) == pytest.approx(m + 1.75)
    h = GridFunction(1, 5, -f.values)
    assert is_valid_median(h, Q, -m)


def test_median_rearrangement_bound():
    # |m_f(Q)| <= (f chi_Q)^*(|Q|/2) on randomized inputs
    rng = rng_from(2)
    for _ in range(50):
        f = random_signed_function(rng, 1, 5)
        for Q in (R1, DyadicCube(2, (3,))):
            m = median(f, Q)
            chi = np.zeros(32)
            chi[Q.cell_slices(5)] = 1.0
            fq = GridFunction(1, 5, f.values * chi)
            assert abs(m) <= rearrangement(fq, Q.volume / 2) + 1e-12


# --- local oscillation --------------------------------------------------------------


def test_local_osc_constant():
    f = GridFunction.constant(1, 4, 3.0)
    for lam in (0.1, 0.5, 0.9):
        assert local_osc(f, R1, lam) == 0.0


def test_local_osc_quarter_indicator():
    f = GridFunction.indicator(1, 4, DyadicCube(2, (0,)))
    assert local_osc(f, R1, 0.5) == 0.0
    assert local_osc(f, R1, 0.5) == pytest.approx(oracle_local_osc(f, R1, 0.5))


def test_local_osc_half_indicator():
    # optimal centring splits the two values: the inf is 1/2, at c = 1/2
    f = GridFunction.indicator(1, 4, DyadicCube(1, (0,)))
    got = local_osc(f, R1, 0.25)
    assert got == pytest.approx(0.5)
    assert got == pytest.approx(oracle_local_osc(f, R1, 0.25))


def test_local_osc_matches_bruteforce_random():
    rng = rng_from(3)
    for _ in range(25):
        f = random_signed_function(rng, 1, 5)
        Q = (R1, DyadicCube(1, (0,)), DyadicCube(2, (2,)))[int(rng.integers(0, 3))]
        lam = float(rng.uniform(0.05, 0.95))
        assert local_osc(f, Q, lam) == pytest.approx(oracle_local_osc(f, Q, lam), abs=1e-12)


def test_local_osc_translation_invariant():
    rng = rng_from(4)
    f = random_signed_function(rng, 1, 5)
    for c in (-2.0, 0.3):
        g = GridFunction(1, 5, f.values + c)
        assert local_osc(g, R1, 0.125) == local_osc(f, R1, 0.125)


def test_local_osc_monotone_in_lambda():
    rng = rng_from(5)
    f = random_signed_function(rng, 1, 6)
    vals = [local_osc(f, R1, lam) for lam in (0.05, 0.1, 0.25, 0.5, 0.75)]
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))


def test_local_osc_rejects_bad_lambda():
    f = GridFunction.constant(1, 3, 1.0)
    with pytest.raises(DomainError):
        local_osc(f, R1, 0.0)
    with pytest.raises(DomainError):
        local_osc(f, R1, 1.0)


# --- decomposition -------------------------------------------------------------------


def test_lerner_constant_gives_empty_family():
    f = GridFunction.constant(1, 6, 4.2)
    dec = lerner_decompose(f, R1)
    assert len(dec.family) == 0
    assert dec.base_median == 4.2
    assert dec.verify(f)


def test_lerner_single_spike():
    vals = np.zeros(256)
    vals[37] = 10.0
    f = GridFunction(1, 8, vals)
    dec = lerner_decompose(f, R1)
    assert dec.verify(f)
    # all family cubes sit on the chain through the spike cell
    for Q in dec.family.cubes:
        lo, hi = Q.cell_slices(8)[0].start, Q.cell_slices(8)[0].stop
        assert lo <= 37 < hi
    assert len(dec.family) >= 1


def test_lerner_randomized():
    rng = rng_from(6)
    for _ in range(50):
        f = random_signed_function(rng, 1, 8)
        dec = lerner_decompose(f, R1)
        assert dec.verify(f)
        assert verify_sparse(dec.family)


def test_lerner_2d():
    rng = rng_from(7)
    for _ in range(10):
        f = random_signed_function(rng, 2, 5)
        dec = lerner_decompose(f, root_cube(2))
        assert dec.verify(f)


def test_lerner_subcube_base():
    rng = rng_from(8)
    f = random_signed_function(rng, 1, 7)
    Q0 = DyadicCube(2, (1,))
    dec = lerner_decompose(f, Q0)
    assert dec.verify(f)
    for Q in dec.family.cubes:
        assert contains(Q0, Q)


def test_lerner_records():
    vals = np.zeros(64)
    vals[5] = 3.0
    f = GridFunction(1, 6, vals)
    dec = lerner_decompose(f, R1)
    recs = dec.to_records()
    assert all("cube" in r and "E" in r and "omega" in r for r in recs)


# --- oscillation profile ----------------------------------------------------------------


def _identity_op(f):
    return f


def test_osc_profile_zero_input():
    f = GridFunction.constant(1, 6, 0.0)
    prof = osc_profile(_identity_op, [f], DyadicCube(2, (1,)), 0.125, 1.0, 1.0)
    assert prof.lhs == 0.0 and prof.rhs == 0.0
    assert prof.degenerate and prof.ratio == 0.0


def test_osc_profile_ring_truncation():
    f = GridFunction.constant(1, 6, 1.0)
    Q = DyadicCube(3, (2,))
    rings = dilate_products([f], [Q.level], 2.0)[Q.level][(slice(None), *Q.index)]
    assert len(rings) == Q.level + 1
    assert all(r == pytest.approx(1.0) for r in rings)
    # one term per ring l = 0..Q.level, each 2^-l times a unit product
    prof = osc_profile(_identity_op, [f], Q, 0.125, 2.0, 1.0)
    assert prof.rhs == pytest.approx(sum(2.0 ** -ell for ell in range(Q.level + 1)))


def test_osc_profile_rejects_mismatched_cube():
    f = GridFunction.constant(2, 3, 1.0)
    with pytest.raises(DimensionError):
        osc_profile(_identity_op, [f], DyadicCube(2, (1,)), 0.125, 1.0, 1.0)
    with pytest.raises(DimensionError):
        osc_profile(_identity_op, [f], DyadicCube(4, (1, 1)), 0.125, 1.0, 1.0)


def test_lerner_decompose_rejects_mismatched_cube():
    with pytest.raises(DimensionError):
        lerner_decompose(GridFunction.constant(2, 3, 1.0), DyadicCube(2, (1,)))


def test_osc_profile_identity_ratio():
    rng = rng_from(9)
    f = GridFunction(1, 6, rng.uniform(0.5, 1.5, 64))
    Q = DyadicCube(2, (1,))
    prof = osc_profile(_identity_op, [f], Q, 0.125, 1.0, 1.0)
    assert prof.rhs > 0
    assert prof.ratio < 1.0  # oscillation is far below the average series


def test_osc_profile_rejects_bad_delta0():
    f = GridFunction.constant(1, 5, 1.0)
    with pytest.raises(DomainError):
        osc_profile(_identity_op, [f], DyadicCube(1, (0,)), 0.125, 1.0, 0.0)


def test_osc_profile_hilbert_far_support():
    from sparselab.kernels import hilbert_transform

    f = GridFunction.indicator(1, 8, DyadicCube(3, (0,)))  # support [0, 1/8)
    Q = DyadicCube(4, (12,))  # [3/4, 13/16), far from the support
    prof = osc_profile(hilbert_transform, [f], Q, 0.125, 1.0, 0.9)
    assert prof.lhs < 0.05
    assert math.isfinite(prof.ratio)


def test_osc_profile_ratio_sup_stable_across_resolution():
    from sparselab.kernels import hilbert_transform

    sups = {}
    for L in (8, 10):
        rng = rng_from(77)
        sup = 0.0
        for _ in range(100):
            f = GridFunction(1, L, rng.uniform(0.0, 1.0, 1 << L))
            lvl = int(rng.integers(2, 5))
            Q = DyadicCube(lvl, (int(rng.integers(0, 1 << lvl)),))
            prof = osc_profile(hilbert_transform, [f], Q, 0.125, 1.0, 0.9)
            if not prof.degenerate:
                sup = max(sup, prof.ratio)
        sups[L] = sup
    assert all(math.isfinite(v) and v > 0 for v in sups.values())
    hi, lo = max(sups.values()), min(sups.values())
    assert hi / lo < 3.0
