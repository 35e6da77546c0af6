import math

import numpy as np
import pytest

from sparselab.grid import (
    DimensionError,
    DomainError,
    DyadicCube,
    FormatError,
    GridFunction,
    Inequality,
    average,
    dilate,
    dilate_products,
    format_gfn,
    parse_gfn,
    rearrangement,
    root_cube,
    weak_norm,
    weighted_norm,
)
from sparselab.oscillation import local_osc, median
from sparselab.weights import WeightTuple, holder_identity_slack

from cubes import cubes_at_level, ring_mask


def gf1(vals):
    L = int(math.log2(len(vals)))
    return GridFunction(1, L, vals)


# --- independent oracles -----------------------------------------------------


def oracle_average(f, Q, p0):
    block = np.abs(f.on(Q)).ravel()
    return (sum(x**p0 for x in block) / block.size) ** (1.0 / p0)


def oracle_rearrangement(f, t):
    # sort-and-scan over (value, volume) pairs
    v = f.cell_volume
    pairs = sorted(np.abs(f.values).ravel(), reverse=True)
    acc = 0.0
    for val in pairs:
        acc += v
        if acc >= t - 1e-12:
            return val
    return 0.0


def oracle_dilate_cells(Q, k, L):
    # enumerate cell centers and test per-axis torus distance to the cube center
    n = Q.dim
    side = min(1.0, 2.0 ** (k - Q.level))
    center = [(i + 0.5) * 2.0**-Q.level for i in Q.index]
    N = 1 << L
    cells = set()
    ranges = [range(N)] * n
    import itertools

    for idx in itertools.product(*ranges):
        ok = True
        for c, i in zip(center, idx):
            x = (i + 0.5) / N
            d = abs(x - c)
            d = min(d, 1 - d)
            if d > side / 2:
                ok = False
                break
        if ok:
            cells.add(idx)
    return cells


# --- DyadicCube geometry -----------------------------------------------------


def test_cube_volume_and_side():
    Q = DyadicCube(3, (5,))
    assert Q.cell_slices(5) == (slice(20, 24),)  # side 2^-3: four level-5 cells
    assert Q.volume == 2**-3
    R = DyadicCube(2, (1, 3))
    assert R.volume == 2**-4


# --- average -----------------------------------------------------------------


def test_average_constant():
    f = GridFunction.constant(1, 4, 1.0)
    for Q in [root_cube(1), DyadicCube(2, (3,))]:
        assert average(f, Q, 2.0) == pytest.approx(1.0)


def test_average_half_indicator():
    f = GridFunction.indicator(1, 4, DyadicCube(1, (0,)))
    assert average(f, root_cube(1), 2.0) == pytest.approx(math.sqrt(0.5))


def test_average_quarter_on_half():
    f = GridFunction.indicator(1, 4, DyadicCube(2, (0,)))
    Q = DyadicCube(1, (0,))
    expect = oracle_average(f, Q, 1.0)
    assert expect == pytest.approx(0.5)
    assert average(f, Q, 1.0) == pytest.approx(expect)


def test_average_monotone_in_p0():
    rng = np.random.default_rng(7)
    f = GridFunction(1, 5, rng.uniform(0, 1, 32))
    for Q in [root_cube(1), DyadicCube(2, (1,)), DyadicCube(3, (5,))]:
        vals = [average(f, Q, p) for p in (1.0, 1.5, 2.0, 4.0)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(3))


def test_average_level_mismatch():
    f = GridFunction.constant(1, 2, 1.0)
    with pytest.raises(DimensionError):
        average(f, DyadicCube(3, (0,)), 1.0)
    with pytest.raises(DomainError):
        average(f, root_cube(1), 0.5)


CUBE_READERS = {
    "on": lambda f, Q: f.on(Q),
    "indicator": lambda f, Q: GridFunction.indicator(f.dim, f.level, Q),
    "median": median,
    "local_osc": lambda f, Q: local_osc(f, Q, 0.25),
    "average": lambda f, Q: average(f, Q, 1.0),
    "holder_identity_slack": lambda f, Q: holder_identity_slack(
        WeightTuple((f,), (2.0,), p0=1.0), Q),
}


@pytest.mark.parametrize("name", sorted(CUBE_READERS))
@pytest.mark.parametrize("n, Q", [(2, DyadicCube(1, (0,))), (1, DyadicCube(1, (0, 0)))])
def test_cube_of_another_dimension_rejected(name, n, Q):
    f = GridFunction(n, 3, np.linspace(0.1, 1.0, 8**n))
    with pytest.raises(DimensionError):
        CUBE_READERS[name](f, Q)


# --- dilate ------------------------------------------------------------------


def test_dilate_identity():
    Q = DyadicCube(1, (0,))
    mask = dilate(Q, 0, 4)
    assert mask.sum() == 8
    assert mask[:8].all()


def test_dilate_wrapped():
    Q = DyadicCube(2, (0,))  # [0, 1/4)
    mask = dilate(Q, 1, 3)
    got = {(i,) for i in np.nonzero(mask)[0]}
    assert got == oracle_dilate_cells(Q, 1, 3)
    assert got == {(7,), (0,), (1,), (2,)}


def test_dilate_saturates():
    Q = DyadicCube(1, (0,))
    assert dilate(Q, 3, 4).all()
    assert dilate(Q, 1, 4).all()


def test_dilate_oracle_2d():
    Q = DyadicCube(2, (1, 2))
    mask = dilate(Q, 1, 4)
    got = {tuple(ij) for ij in np.argwhere(mask)}
    assert got == oracle_dilate_cells(Q, 1, 4)


def test_annulus_rings_disjoint():
    Q = DyadicCube(4, (3,))
    L = 7
    seen = np.zeros(1 << L, dtype=int)
    for j in range(5):
        seen += ring_mask(Q, j, L)
    assert seen.max() <= 1
    # past saturation a ring is empty: 2^2 Q of a level-2 cube is the torus
    Q = DyadicCube(2, (1,))
    assert ring_mask(Q, 2, 5).any()
    assert not ring_mask(Q, 3, 5).any()


# --- rearrangement -----------------------------------------------------------


def test_rearrangement_indicator():
    f = GridFunction.indicator(1, 2, DyadicCube(2, (0,)))
    assert rearrangement(f, 0.25) == 1.0
    assert rearrangement(f, 0.26) == 0.0
    assert rearrangement(f, 1.0) == 0.0


def test_rearrangement_constant():
    f = GridFunction.constant(1, 3, 2.5)
    for t in (1e-20, 1e-15, 0.1, 0.5, 1.0):
        assert rearrangement(f, t) == 2.5


def test_rearrangement_step():
    f = gf1([4.0, 2.0, 1.0, 0.0])
    assert rearrangement(f, 0.3) == oracle_rearrangement(f, 0.3) == 2.0
    # below the 1e-12 rounding allowance the k-th largest cell is still the first
    for t in (1e-20, 1e-15):
        assert rearrangement(f, t) == oracle_rearrangement(f, t) == 4.0


def test_rearrangement_matches_oracle_random():
    rng = np.random.default_rng(3)
    f = GridFunction(1, 5, rng.normal(size=32))
    for t in rng.uniform(0.01, 1.0, 25):
        assert rearrangement(f, float(t)) == pytest.approx(oracle_rearrangement(f, t))


def test_rearrangement_equimeasurable():
    rng = np.random.default_rng(11)
    f = GridFunction(1, 6, rng.normal(size=64))
    v = f.cell_volume
    star = np.array([rearrangement(f, (k + 1) * v) for k in range(f.size)])
    for alpha in np.abs(f.values).ravel():
        lhs = (np.abs(f.values) > alpha).sum()
        rhs = (star > alpha).sum()
        assert lhs == rhs


# --- norms -------------------------------------------------------------------


def test_weighted_norm_trivial():
    f = GridFunction.constant(1, 3, 1.0)
    w = GridFunction.constant(1, 3, 1.0)
    for p in (0.5, 1.0, 2.0, 4.0):
        assert weighted_norm(f, p, w) == pytest.approx(1.0)


def test_weighted_norm_half_mass():
    f = GridFunction.indicator(1, 4, DyadicCube(1, (0,)))
    w = GridFunction.constant(1, 4, 2.0)
    assert weighted_norm(f, 1.0, w) == pytest.approx(1.0)


def test_weighted_norm_derived():
    f = GridFunction.indicator(1, 4, DyadicCube(2, (0,)))
    wv = np.ones(16)
    wv[:4] = 4.0
    w = GridFunction(1, 4, wv)
    # direct sum oracle: int |f|^2 w = 4 * 1/4 = 1
    assert weighted_norm(f, 2.0, w) == pytest.approx(1.0)


def test_weighted_norm_rejects_bad_weight():
    f = GridFunction.constant(1, 2, 1.0)
    w = GridFunction(1, 2, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        weighted_norm(f, 2.0, w)


@pytest.mark.parametrize("norm, expected", [
    (lambda f: weighted_norm(f, math.inf), 3.0),
    (lambda f: weighted_norm(f, math.inf, GridFunction.constant(1, 2, 0.5)), 3.0),
    (lambda f: weak_norm(f, math.inf), 3.0),
    (lambda f: rearrangement(f, math.inf), 0.0),
], ids=["weighted", "weighted-w", "weak", "rearrangement"])
def test_infinite_exponent(norm, expected):
    # the sup norm, whatever the positive weight; no mass lies beyond t = 1
    assert norm(gf1([0.25, -3.0, 0.1, 0.2])) == expected


@pytest.mark.parametrize("w, error", [
    (GridFunction(1, 2, [1.0, 0.0, 1.0, 1.0]), DomainError),
    (GridFunction.constant(1, 3, 1.0), DimensionError),
], ids=["zero-cell", "other-grid"])
def test_weighted_sup_norm_rejects_bad_weight(w, error):
    with pytest.raises(error):
        weighted_norm(GridFunction.constant(1, 2, 1.0), math.inf, w)


def test_weak_norm_indicator():
    f = GridFunction.indicator(1, 2, DyadicCube(2, (1,)))
    assert weak_norm(f, 1.0) == pytest.approx(0.25)
    f1 = GridFunction.constant(1, 3, 1.0)
    for q in (0.5, 1.0, 2.0):
        assert weak_norm(f1, q) == pytest.approx(1.0)


def test_weak_norm_step_breakpoint_scan():
    # breakpoint scan oracle: sup_k (k*v)^(1/q) * a_k over sorted values a
    f = gf1([4.0, 2.0, 1.0, 0.0])
    a = [4.0, 2.0, 1.0, 0.0]
    v = 0.25
    oracle = max((v * (k + 1)) ** 0.5 * a[k] for k in range(4))
    assert oracle == pytest.approx(2.0)  # attained at t = 1/4
    assert weak_norm(f, 2.0) == pytest.approx(oracle)


def test_weak_below_strong():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = GridFunction(1, 5, rng.normal(size=32))
        for q in (0.5, 1.0, 2.0):
            assert weak_norm(f, q) <= weighted_norm(f, q) + 1e-12


@pytest.mark.parametrize("scale", [1.0, 2.0**-60, 2.0**60])
@pytest.mark.parametrize("lhs, rhs, verdict", [(1.0 + 2.0**-52, 1.0, True),
                                               (1.0 + 1e-10, 1.0, False), (0.0, 0.0, True)])
def test_inequality_holds_up_to_rounding_at_the_scale_of_rhs(lhs, rhs, verdict, scale):
    # one ulp of rhs passes and 1e-10 relative fails, whatever the magnitude of both sides
    assert Inequality(lhs * scale, rhs * scale).holds is verdict


# --- partition exactness -----------------------------------------------------


def test_partition_exactness():
    rng = np.random.default_rng(13)
    f = GridFunction(2, 4, rng.normal(size=256))
    total = float(f.values.sum() * f.cell_volume)
    for j in range(5):
        parts = [float(f.on(Q).sum()) * f.cell_volume for Q in cubes_at_level(2, j)]
        assert sum(parts) == pytest.approx(total, abs=1e-12)


# --- file format -------------------------------------------------------------


def test_gfn_roundtrip():
    rng = np.random.default_rng(2)
    f = GridFunction(2, 3, rng.normal(size=64))
    g = parse_gfn(format_gfn(f))
    assert g.dim == f.dim and g.level == f.level
    assert np.array_equal(g.values, f.values)


def test_gfn_rejects_wrong_count():
    with pytest.raises(FormatError, match="expected 4 values"):
        parse_gfn("GFN1 1 2\n1 2 3\n")
    with pytest.raises(FormatError, match="found more"):
        parse_gfn("GFN1 1 2\n1 2 3 4 5\n")


def test_gfn_rejects_bad_tokens():
    with pytest.raises(FormatError, match="line 2, field 3"):
        parse_gfn("GFN1 1 2\n1 2 x 4\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_gfn("GFN 1 2\n1 2 3 4\n")


def test_gridfunction_immutable():
    f = GridFunction.constant(1, 2, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(AttributeError):
        f.level = 3


@pytest.mark.parametrize("grids", [[(1, 5), (1, 6)], [(1, 6), (1, 5)], [(1, 4), (2, 4)]])
def test_dilate_products_rejects_a_tuple_on_mixed_grids(grids):
    # the first input's grid used to decide for all: gathered at its windows, or IndexError
    fs = [GridFunction.constant(n, L, 1.0) for n, L in grids]
    with pytest.raises(DimensionError, match="input tuple mixes grids"):
        dilate_products(fs, [2], 1.0)


def test_dilate_products_rejects_an_empty_tuple():
    with pytest.raises(DomainError, match="at least one input"):
        dilate_products([], [2], 1.0)
