import math

import numpy as np
import pytest

from sparselab.grid import DomainError, DyadicCube, GridFunction, root_cube
from sparselab.weights import (
    ConstantReport,
    WeightTuple,
    ap_constant,
    clamp_weight,
    conjugate,
    duality_inequality_check,
    holder_identity_slack,
    multi_ap_constant,
    power_weight,
    rh_constant,
)

from cubes import all_cubes


def two_valued(L=4, a=1.0, b=4.0):
    vals = np.full(1 << L, b)
    vals[: 1 << (L - 1)] = a
    return GridFunction(1, L, vals)


def rand_weight(rng, n=1, L=5):
    size = (1 << L) ** n
    return GridFunction(n, L, np.exp2(rng.uniform(-3, 3, size)))


# --- enumeration oracle ------------------------------------------------------


def oracle_ap(w, p, maxlevel):
    best, wit = -1.0, None
    for Q in all_cubes(w.dim, maxlevel):
        block = w.on(Q).ravel()
        if p == 1:
            val = block.mean() / block.min()
        else:
            val = block.mean() * (block ** (-1 / (p - 1))).mean() ** (p - 1)
        if val > best + 1e-15:
            best, wit = float(val), Q
    return best, wit


def oracle_rh(w, q, maxlevel):
    best = -1.0
    for Q in all_cubes(w.dim, maxlevel):
        block = w.on(Q).ravel()
        if math.isinf(q):
            val = block.max() / block.mean()
        else:
            val = (block**q).mean() ** (1 / q) / block.mean()
        best = max(best, float(val))
    return best


# --- A_p ----------------------------------------------------------------------


def test_ap_constant_weight():
    w = GridFunction.constant(1, 4, 3.0)
    rep = ap_constant(w, 2.0)
    assert rep.value == pytest.approx(1.0)
    assert rep.witness == root_cube(1)


def test_ap_two_valued():
    w = two_valued()
    rep = ap_constant(w, 2.0)
    best, wit = oracle_ap(w, 2.0, 4)
    assert best == pytest.approx(25 / 16)
    assert rep.value == pytest.approx(best)
    assert rep.witness == root_cube(1) == wit


def test_ap_p1():
    w = GridFunction.constant(1, 3, 1.0)
    assert ap_constant(w, 1.0).value == pytest.approx(1.0)
    w2 = two_valued()
    assert ap_constant(w2, 1.0).value == pytest.approx(oracle_ap(w2, 1.0, 4)[0])


def test_ap_rejects_bad_p():
    with pytest.raises(DomainError):
        ap_constant(GridFunction.constant(1, 2, 1.0), 0.9)


def test_ap_matches_oracle_random():
    rng = np.random.default_rng(21)
    w = rand_weight(rng, 1, 4)
    for p in (1.5, 2.0, 3.0):
        assert ap_constant(w, p).value == pytest.approx(oracle_ap(w, p, 4)[0])
    w2 = rand_weight(rng, 2, 3)
    assert ap_constant(w2, 2.0).value == pytest.approx(oracle_ap(w2, 2.0, 3)[0])


def test_ap_scale_invariance():
    rng = np.random.default_rng(22)
    w = rand_weight(rng)
    base = ap_constant(w, 2.0)
    for lam in (0.125, 3.7, 512.0):
        scaled = ap_constant(GridFunction(1, 5, lam * w.values), 2.0)
        assert scaled.value == pytest.approx(base.value, rel=1e-9)
        assert scaled.witness == base.witness


def test_ap_monotone_in_maxlevel():
    rng = np.random.default_rng(23)
    w = rand_weight(rng)
    vals = [ap_constant(w, 2.0, maxlevel=j).value for j in range(6)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(5))


# --- RH_q ----------------------------------------------------------------------


def test_rh_trivial():
    assert rh_constant(GridFunction.constant(1, 3, 1.0), 2.0).value == pytest.approx(1.0)


def test_rh_two_valued():
    w = two_valued()
    rep = rh_constant(w, 2.0)
    assert rep.value == pytest.approx(math.sqrt(8.5) / 2.5)
    assert rep.value == pytest.approx(oracle_rh(w, 2.0, 4))
    assert rep.witness == root_cube(1)


def test_rh_infinity():
    w = two_valued()
    rep = rh_constant(w, math.inf)
    assert rep.value == pytest.approx(1.6)
    assert rep.value == pytest.approx(oracle_rh(w, math.inf, 4))


def test_rh_rejects_bad_q():
    with pytest.raises(DomainError):
        rh_constant(GridFunction.constant(1, 2, 1.0), 1.0)


# --- multiple weights -----------------------------------------------------------


def test_weight_tuple_validation():
    w = GridFunction.constant(1, 4, 1.0)
    t = WeightTuple((w, w), (2.0, 2.0), p0=1.0)
    assert t.p == pytest.approx(1.0)
    assert abs(1 / t.p - sum(1 / p for p in t.exponents)) < 1e-12
    with pytest.raises(DomainError):
        WeightTuple((w, w), (2.0, 2.0), p0=2.0)
    with pytest.raises(DomainError):
        WeightTuple((w,), (1.0,), p0=1.0)


def test_multi_ap_trivial():
    w = GridFunction.constant(1, 4, 1.0)
    t = WeightTuple((w, w), (2.0, 2.0))
    assert multi_ap_constant(t, r=1.0).value == pytest.approx(1.0)


def test_multi_ap_two_valued():
    w1 = two_valued()
    w2 = GridFunction.constant(1, 4, 1.0)
    t = WeightTuple((w1, w2), (2.0, 2.0))
    rep = multi_ap_constant(t, r=1.0)
    # dyadic-interval enumeration oracle
    best = -1.0
    for Q in all_cubes(1, 4):
        nu = np.sqrt(w1.on(Q)).mean()
        d1 = (w1.on(Q) ** -1.0).mean() ** 0.5
        best = max(best, float(nu * d1))
    assert rep.value == pytest.approx(best)
    assert rep.value == pytest.approx(1.5 * 0.625**0.5)
    assert rep.witness == root_cube(1)


def test_multi_ap_scale_invariance():
    rng = np.random.default_rng(31)
    t = WeightTuple((rand_weight(rng), rand_weight(rng)), (2.0, 3.0), p0=1.0)
    base = multi_ap_constant(t, r=1.0)
    for lam in (0.25, 10.0):
        ts = WeightTuple(
            tuple(GridFunction(1, 5, lam * w.values) for w in t.weights), (2.0, 3.0)
        )
        assert multi_ap_constant(ts, r=1.0).value == pytest.approx(base.value, rel=1e-9)


def test_multi_ap_m1_consistency():
    rng = np.random.default_rng(32)
    w = rand_weight(rng)
    for p in (1.5, 2.0, 4.0):
        t = WeightTuple((w,), (p,), p0=1.0)
        a = multi_ap_constant(t, r=1.0).value
        b = ap_constant(w, p).value
        assert abs(a - b) < 1e-12 * max(1.0, b)


def test_multi_ap_rejects_large_r():
    w = GridFunction.constant(1, 4, 1.0)
    t = WeightTuple((w, w), (2.0, 2.0))
    with pytest.raises(DomainError):
        multi_ap_constant(t, r=2.0)


# --- dual weights ----------------------------------------------------------------


def test_dual_weights_trivial():
    w = GridFunction.constant(1, 3, 1.0)
    t = WeightTuple((w, w), (2.0, 2.0), p0=1.0)
    for s in t.dual_weights():
        assert np.allclose(s.values, 1.0)


def test_dual_weights_constant_four():
    w = GridFunction.constant(1, 3, 4.0)
    t = WeightTuple((w,), (2.0,), p0=1.0)
    (s,) = t.dual_weights()
    assert np.allclose(s.values, 0.25)


def test_dual_weights_two_valued():
    w = two_valued()
    t = WeightTuple((w,), (2.0,), p0=1.0)
    (s,) = t.dual_weights()
    # cellwise power oracle: sigma = w^(1-2)
    assert np.allclose(s.values, w.values**-1.0)


@pytest.mark.filterwarnings("ignore:weight cells below")
def test_dual_of_a_floored_zero_cell_is_checked():
    # 1e-300 ^ (1 - p') stays averageable for p >= 2 and leaves the float range below ~1.975
    w = clamp_weight(GridFunction(1, 2, np.array([0.0, 1.0, 1.0, 0.0])))
    assert math.isfinite(ap_constant(w, 2.0).value)
    for p in (1.01, 1.5, 1.97):
        with pytest.raises(DomainError, match="dual weight"):
            ap_constant(w, p)
    with pytest.raises(DomainError, match="dual weight"):
        WeightTuple((w,), (3.0,), p0=2.5).dual_weights()
    with pytest.raises(DomainError, match="dual weight"):
        duality_inequality_check(w, 1.5, 2.5)
    # two adjacent cells of about 1e308: each is finite, their mean is not
    w2 = clamp_weight(GridFunction(1, 2, np.array([0.0, 0.0, 1.0, 1.0])))
    with np.errstate(over="raise"), pytest.raises(DomainError, match="dual weight"):
        ap_constant(w2, 1.974)


def test_holder_identity_per_cube():
    rng = np.random.default_rng(33)
    for _ in range(10):
        t = WeightTuple((rand_weight(rng, 1, 4), rand_weight(rng, 1, 4)), (3.0, 6.0), p0=1.5)
        for Q in [root_cube(1), DyadicCube(2, (1,)), DyadicCube(4, (9,))]:
            assert holder_identity_slack(t, Q).holds


# --- duality inequality -----------------------------------------------------------


def test_duality_trivial():
    w = GridFunction.constant(1, 4, 1.0)
    rep = duality_inequality_check(w, 1.2, 3.0)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)
    assert rep.holds


def test_conjugate_endpoints():
    assert conjugate(1) == math.inf
    assert conjugate(math.inf) == 1.0


def test_duality_two_valued():
    w = two_valued()
    rep = duality_inequality_check(w, 1.2, 3.0)
    # direct evaluation of both sides via the constant scanners
    pp = conjugate(1.2)
    sigma = GridFunction(1, 4, w.values ** (1.0 - pp))
    lhs = ap_constant(sigma, pp / 3.0).value
    rhs = (
        rh_constant(w, conjugate(conjugate(3.0) / 1.2)).value * ap_constant(w, 1.2).value
    ) ** (1 / 0.2)
    assert rep.lhs == pytest.approx(lhs)
    assert rep.rhs == pytest.approx(rhs)
    assert rep.holds


def test_duality_random_trials():
    rng = np.random.default_rng(34)
    for _ in range(100):
        w = GridFunction(1, 4, np.exp2(rng.uniform(-3, 3, 16)))
        rep = duality_inequality_check(w, 1.2, 3.0)
        assert rep.holds


def test_duality_rejects_out_of_range():
    w = GridFunction.constant(1, 3, 1.0)
    with pytest.raises(DomainError):
        duality_inequality_check(w, 1.5, 4.0)  # p >= p0'
    with pytest.raises(DomainError):
        duality_inequality_check(w, 1.2, 1.0)  # p0' infinite


# --- power weights ----------------------------------------------------------------


def test_power_weight_constant():
    w = power_weight(0.0, n=1, L=5)
    assert np.allclose(w.values, 1.0)


def test_power_weight_symmetry():
    w = power_weight(1.0, center=0.0, n=1, L=5)
    v = w.values
    # increasing toward the antipode, symmetric about it
    assert np.all(np.diff(v[:16]) > 0)
    assert np.allclose(v, v[::-1])


def test_power_weight_exact_integral():
    # int_0^1 dist(x,0)^a dx = 2 * (1/2)^(a+1)/(a+1)
    for a in (-0.5, 0.7, 2.0):
        w = power_weight(a, n=1, L=8)
        exact = 2 * 0.5 ** (a + 1) / (a + 1)
        assert w.integral() == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("center", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("a", [0.0, 0.5, -0.5])
def test_power_weight_single_cell_is_the_mean(a, center):
    # one cell: its value is the integral over the circle, whatever the centre
    one = power_weight(a, center=center, n=1, L=0).values[0]
    assert one == pytest.approx(power_weight(a, center=center, n=1, L=1).values.mean(),
                                rel=1e-15)
    assert one == pytest.approx(2 * 0.5 ** (a + 1) / (a + 1), rel=1e-15)


def test_power_weight_ap_grows_with_resolution():
    vals = [ap_constant(power_weight(-0.5, n=1, L=L), 2.0).value for L in (6, 8, 10)]
    assert vals[0] < vals[1] < vals[2]


def test_power_weight_rejects_nonintegrable():
    with pytest.raises(DomainError):
        power_weight(-1.0, n=1, L=5)


@pytest.mark.parametrize("alpha,center,n", [
    (math.nan, None, 1), (math.nan, None, 2),  # were all-NaN weights
    (math.inf, None, 1), (math.inf, None, 2),  # were the 1e-300 floor everywhere
    (0.3, math.inf, 1),  # was NaN after a RuntimeWarning
    (0.3, math.nan, 1), (0.3, (math.nan, 0.0), 2), (0.3, (0.0, -math.inf), 2),
])
def test_power_weight_rejects_non_finite_inputs(alpha, center, n):
    with pytest.raises(DomainError):
        power_weight(alpha, center, n=n, L=3)


def test_power_weight_2d_positive():
    w = power_weight(-0.5, n=2, L=4)
    assert w.dim == 2
    assert np.all(w.values > 0)
    assert np.all(np.isfinite(w.values))


def test_constant_report_json():
    rep = ConstantReport(1.5, DyadicCube(2, (1,)), 4)
    d = rep.to_dict()
    assert d["value"] == 1.5
    assert d["witness"] == {"level": 2, "index": [1]}
    assert d["family"] == "dyadic"
