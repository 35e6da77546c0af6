"""Level-wise Lerner decomposition, witness assignment and sparsity check
against the per-cube implementations they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.certify import certify_theorem_c
from sparselab.grid import DyadicCube, GridFunction, dilate_products
from sparselab.oscillation import lerner_decompose, local_osc, median
from sparselab.samples import rng_from
from sparselab.sparse import SparsityError, verify_sparse
from sparselab.weights import WeightTuple, power_weight

from cubes import cells, cube_levels, family, witness_family


# --- references: the per-cube code, kept verbatim in behaviour ----------------------


def reference_median(b):
    """Smallest cell value m with max(#{> m}, #{< m}) <= N/2 (b sorted ascending)."""
    N = b.size
    vals = np.unique(b)
    lt = np.searchsorted(b, vals, side="left")
    gt = N - np.searchsorted(b, vals, side="right")
    ok = np.nonzero((2 * lt <= N) & (2 * gt <= N))[0]
    return float(vals[ok[0]])


def reference_osc(b, lam):
    N = b.size
    k = max(1, math.ceil(lam * N - 1e-12))
    if k > N:
        return 0.0
    W = N - k + 1
    return float((b[W - 1 :] - b[:k]).min() / 2.0)


def reference_stopping_cubes(E, Q, n, threshold_num, threshold_den):
    """Maximal strict subcubes S of Q with den * #E(S) >= num * #cells(S), one child at a time."""
    out = []
    stack = [(Q, E)]
    while stack:
        P, block = stack.pop()
        if block.ndim == 1:
            half = block.size // 2
            parts = [(DyadicCube(P.level + 1, (2 * P.index[0],)), block[:half]),
                     (DyadicCube(P.level + 1, (2 * P.index[0] + 1,)), block[half:])]
        else:
            h = block.shape[0] // 2
            i, j = P.index
            lvl = P.level + 1
            parts = [
                (DyadicCube(lvl, (2 * i, 2 * j)), block[:h, :h]),
                (DyadicCube(lvl, (2 * i, 2 * j + 1)), block[:h, h:]),
                (DyadicCube(lvl, (2 * i + 1, 2 * j)), block[h:, :h]),
                (DyadicCube(lvl, (2 * i + 1, 2 * j + 1)), block[h:, h:]),
            ]
        for C, sub in parts:
            cnt = int(sub.sum())
            if cnt == 0:
                continue
            if cnt * threshold_den >= threshold_num * sub.size:
                out.append(C)
            elif sub.size > 1:
                stack.append((C, sub))
    return out


def reference_lerner(f, Q0):
    """The per-cube stack walk: base median, omegas in visiting order."""
    n = f.dim
    lam = 2.0 ** (-(n + 2))
    omegas = {}
    m0 = None
    stack = [Q0]
    while stack:
        Q = stack.pop()
        block = f.on(Q)
        flat = np.sort(block, axis=None)
        med = reference_median(flat)
        if m0 is None:
            m0 = med
        om = reference_osc(flat, lam)
        if om > 0.0:
            omegas[Q] = om
        N = flat.size
        if N == 1:
            continue
        k = max(1, math.ceil(lam * N - 1e-12))
        g = np.abs(block - med)
        t = float(np.partition(g, N - k, axis=None)[N - k])
        E = g > t
        if not E.any():
            continue
        stack.extend(reference_stopping_cubes(E, Q, n, 1, 1 << (n + 1)))
    return m0, omegas


def reference_bound_function(omegas, n, L):
    out = np.zeros((1 << L,) * n)
    for Q, om in omegas.items():
        out[Q.cell_slices(L)] += om
    return 2.0 * out


def reference_greedy_witness(cubes, dim, level):
    cubes = sorted(set(cubes), key=lambda Q: (-Q.level, Q.index))
    owner = np.zeros((1 << level) ** dim, dtype=bool)
    witness = {}
    for Q in cubes:
        flat = cells(Q, level)
        free = flat[~owner[flat]]
        if 2 * free.size < flat.size:
            raise SparsityError(Q, deficit=int(math.ceil(flat.size / 2)) - free.size)
        owner[free] = True
        witness[Q] = free
    return witness


def reference_runs(flat):
    """Sorted flat cell indices as [start, stop) runs, one cube at a time."""
    if flat.size == 0:
        return []
    flat = np.sort(flat)
    breaks = np.nonzero(np.diff(flat) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [flat.size - 1]))
    return [[int(flat[s]), int(flat[e]) + 1] for s, e in zip(starts, stops)]


def reference_records(witness, omegas=None):
    recs = []
    for Q in sorted(witness):
        rec = {"cube": {"level": Q.level, "index": list(Q.index)}, "E": reference_runs(witness[Q])}
        if omegas is not None:
            rec["omega"] = omegas.get(Q, 0.0)
        recs.append(rec)
    return recs


def reference_verify_sparse(S):
    seen = set()
    for Q in S.cubes:
        E = S.witness[Q]
        own = set(int(c) for c in cells(Q, S.level))
        idx = set(int(c) for c in E)
        if len(idx) != E.size:
            return False
        if not idx <= own:
            return False
        if idx & seen:
            return False
        if len(own) > 2 * len(idx):
            return False
        seen |= idx
    return True


# --- strategies ---------------------------------------------------------------------


def _grid(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.sampled_from(range(9) if n == 1 else range(6)))
    return n, L


def _cube(draw, n, L, top=None):
    lvl = draw(st.integers(0, L if top is None else min(top, L)))
    return DyadicCube(lvl, tuple(draw(st.integers(0, (1 << lvl) - 1)) for _ in range(n)))


@st.composite
def lerner_case(draw):
    n, L = _grid(draw)
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << L,) * n
    kind = draw(st.sampled_from(["uniform", "ties", "constant", "spike", "power"]))
    if kind == "uniform":
        vals = rng.uniform(-1.0, 1.0, shape)
    elif kind == "ties":
        vals = rng.integers(0, 4, shape).astype(float)
    elif kind == "constant":
        vals = np.full(shape, rng.uniform(-2.0, 2.0))
    elif kind == "spike":
        vals = np.zeros(shape)
        vals[tuple(rng.integers(0, 1 << L, n))] = rng.uniform(0.5, 10.0)
    else:
        center = tuple(rng.uniform(0.0, 1.0, n))
        vals = power_weight(-n + 0.01, center, n=n, L=L).values
    # base cubes at the root and up to two levels below it
    return GridFunction(n, L, vals), _cube(draw, n, L, top=2)


@st.composite
def cube_set_case(draw):
    n, L = _grid(draw)
    cubes = [_cube(draw, n, L) for _ in range(draw(st.integers(0, 12)))]
    return n, L, cubes


# --- tests --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lerner_case())
def test_lerner_matches_reference_walk(case):
    f, Q0 = case
    dec = lerner_decompose(f, Q0)
    m0, omegas = reference_lerner(f, Q0)
    assert dec.base_median == m0
    assert median(f, Q0) == m0
    assert local_osc(f, Q0, dec.lam) == reference_osc(np.sort(f.on(Q0), axis=None), dec.lam)
    assert dec.omegas == omegas
    ref = reference_greedy_witness(omegas.keys(), f.dim, f.level)
    assert dec.family.cubes == tuple(sorted(ref))
    for Q, w in ref.items():
        assert np.array_equal(dec.family.witness[Q], w)
    assert np.array_equal(dec.bound_function(), reference_bound_function(omegas, f.dim, f.level))
    assert dec.verify(f)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cube_set_case())
def test_greedy_witness_matches_reference_loop(case):
    n, L, cubes = case
    try:
        ref = reference_greedy_witness(cubes, n, L)
    except SparsityError as ref_err:
        with pytest.raises(SparsityError) as err:
            family(cubes, n, L)
        assert (err.value.cube, err.value.deficit) == (ref_err.cube, ref_err.deficit)
        return
    fam = family(cubes, n, L)
    assert fam.cubes == tuple(sorted(ref))
    for Q, w in ref.items():
        assert np.array_equal(fam.witness[Q], w)
        assert fam.witness[Q].dtype == np.int64


def _corrupt(fam, how, rng):
    """A copy of the family with one defect of the given kind (or none if it cannot be made)."""
    L, n = fam.level, fam.dim
    wit = {Q: w.copy() for Q, w in fam.witness.items()}
    Qs = list(wit)
    Q = Qs[int(rng.integers(len(Qs)))]
    w = wit[Q]
    if how == "duplicate":
        wit[Q] = np.append(w, w[int(rng.integers(w.size))])
    elif how == "outside":
        outside = np.setdiff1d(np.arange((1 << L) ** n), cells(Q, L))
        if outside.size == 0:
            return None
        wit[Q] = np.append(w, outside[int(rng.integers(outside.size))])
    elif how == "out_of_range":
        wit[Q] = np.append(w, rng.choice([-1, (1 << L) ** n]))
    elif how == "overlap":
        if len(Qs) < 2:
            return None
        P = next(P for P in Qs if P != Q)
        wit[Q] = np.append(w, wit[P][0])
    elif how == "short":
        wit[Q] = w[: (cells(Q, L).size - 1) // 2]
    return witness_family(n, L, wit)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cube_set_case(), st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "duplicate", "outside", "out_of_range", "overlap", "short"]))
def test_verify_sparse_matches_reference(case, seed, how):
    n, L, cubes = case
    try:
        fam = family(cubes, n, L)
    except SparsityError:
        return
    assert verify_sparse(fam) and reference_verify_sparse(fam)
    if how == "none" or not fam.cubes:
        return
    bad = _corrupt(fam, how, rng_from(seed))
    if bad is None:
        return
    assert verify_sparse(bad) == reference_verify_sparse(bad)
    assert not verify_sparse(bad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cube_set_case(), st.integers(0, 2**32 - 1), st.booleans())
def test_records_match_reference_runs(case, seed, with_omegas):
    n, L, cubes = case
    try:
        fam = family(cubes, n, L)
    except SparsityError:
        return
    rng = rng_from(seed)
    omegas = levels = None
    if with_omegas:
        # some cubes absent, and whole family levels missing from the level arrays
        dropped = {j for j in fam.masks if rng.random() < 0.3}
        omegas = {Q: float(rng.uniform()) for Q in fam.cubes
                  if rng.random() < 0.8 and Q.level not in dropped}
        levels = cube_levels(omegas.items(), n)
    assert repr(fam.to_records(levels)) == repr(reference_records(fam.witness, omegas))
    # a family built from a dict: cells in any order, repeated cells, empty witnesses
    wit = {}
    for Q, w in fam.witness.items():
        w = rng.permutation(w)
        if w.size and rng.random() < 0.3:
            w = np.append(w, w[: int(rng.integers(1, w.size + 1))])
        wit[Q] = w[: int(rng.integers(0, w.size + 1))] if rng.random() < 0.2 else w
    rebuilt = witness_family(n, L, wit)
    assert repr(rebuilt.to_records(levels)) == repr(reference_records(wit, omegas))


def reference_osc_ratio_sup(omegas, fs, p0, delta0):
    """omega(Q) over the ring series of Q, one family cube at a time."""
    series = {}
    for j in {Q.level for Q in omegas}:
        rings = dilate_products(fs, [j], p0)[j]
        series[j] = sum(2.0 ** (-ell * delta0) * v for ell, v in enumerate(rings))
    ratios = [om / s for Q, om in omegas.items() if (s := float(series[Q.level][Q.index])) > 0]
    return max(ratios, default=0.0)


def _first_input(*fs):
    """The operator f -> f_1, whatever the other inputs are."""
    return fs[0]


@st.composite
def theorem_c_case(draw):
    n, L = _grid(draw)
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([1, 2]))
    fs = [GridFunction(n, L, rng.uniform(-1.0, 1.0, (1 << L,) * n)
                       * (rng.random((1 << L,) * n) < draw(st.sampled_from([0.0, 0.3, 1.0]))))
          for _ in range(m)]
    return fs, draw(st.sampled_from([1.0, 1.5])), draw(st.sampled_from([0.25, 1.0, 3.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(theorem_c_case())
def test_osc_ratio_sup_matches_reference(case):
    fs, p0, delta0 = case
    n, L = fs[0].dim, fs[0].level
    t = WeightTuple([GridFunction.constant(n, L, 1.0)] * len(fs), [2.0] * len(fs), p0)
    rec = certify_theorem_c(_first_input, t, fs, delta0)
    omegas = lerner_decompose(fs[0], DyadicCube(0, (0,) * n)).omegas
    assert rec.constants["osc_ratio_sup"] == reference_osc_ratio_sup(omegas, fs, p0, delta0)


def test_decomposition_builds_no_cube(built_cubes):
    rng = rng_from(12)
    f = GridFunction(2, 6, rng.standard_normal((64, 64)))
    Q0 = DyadicCube(0, (0, 0))
    built_cubes.clear()
    dec = lerner_decompose(f, Q0)
    dec.bound_function()
    assert dec.verify(f)
    recs = dec.to_records()
    assert built_cubes == [] and len(recs) > 0
    assert len(dec.omegas) == len(built_cubes) == len(recs)
