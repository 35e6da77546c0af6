"""The level-wise Calderon-Zygmund decomposition and its one-pass-per-level check,
against the DyadicCube frontier walk and the per-cube check they replaced."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.grid import (
    MAX_LEVEL,
    DyadicCube,
    GridFunction,
    cube_levels,
    mask_cubes,
    mean_pyramid,
)
from sparselab.samples import random_function, rng_from
from sparselab.sparse import cz_decompose

from cubes import ancestor, children


# --- references: the per-cube code, kept as it was ----------------------------------------


def reference_cz(fs, lam, p0, m, P):
    """Good and bad cell values, stopping cube lists and short-circuit indices of the
    frontier walk, which visits the children of every non-stopping cube of P."""
    n, L = fs[0].dim, fs[0].level
    thr_pow = lam ** (p0 / m)
    good, bad, stopping, short = [], [], [], []
    for i, f in enumerate(fs):
        power = np.abs(f.values) ** p0
        pyr = mean_pyramid(power, n, L)
        if pyr[P.level][P.index] > thr_pow:
            short.append(i)
            good.append(power)
            bad.append(np.zeros_like(power))
            stopping.append([])
            continue
        cubes = []
        frontier = [P]
        while frontier:
            nxt = []
            for Q in frontier:
                if Q.level == L:
                    continue
                for C in children(Q):
                    if pyr[C.level][C.index] > thr_pow:
                        cubes.append(C)
                    else:
                        nxt.append(C)
            frontier = nxt
        b = np.zeros_like(power)
        for R in cubes:
            sl = R.cell_slices(L)
            b[sl] = power[sl] - power[sl].mean()
        good.append(power - b)
        bad.append(b)
        stopping.append(cubes)
    return good, bad, stopping, short


def reference_verify(dec, stopping, fs):
    """The per-cube check of CZDecomposition.verify, reading the stopping cubes from lists:
    inputs in short_circuit are skipped, and each bound allows 1e-12 times the scale of
    what it compares (the largest |f_i|^p0, the height lam^(p0/m), or the bound)."""
    thr = dec.lam ** (dec.p0 / dec.m)
    n, L = fs[0].dim, fs[0].level
    for i, f in enumerate(fs):
        if i in dec.short_circuit:
            continue
        power = np.abs(f.values) ** dec.p0
        tol = 1e-12 * float(np.max(power))
        b, g = dec.bad[i].values, dec.good[i].values
        if np.any(np.abs(power - (g + b)) > tol):
            return False
        meas = 0.0
        for R in stopping[i]:
            block = b[R.cell_slices(L)]
            if abs(block.mean()) > tol:
                return False
            avg = float(power[R.cell_slices(L)].mean())
            parent = float(power[ancestor(R, 1).cell_slices(L)].mean())
            if not (thr <= avg + 1e-12 * thr and parent <= thr + 1e-12 * thr):
                return False
            meas += R.volume
        outside = np.ones_like(b, dtype=bool)
        for R in stopping[i]:
            outside[R.cell_slices(L)] = False
        if np.any(np.abs(b[outside]) > tol):
            return False
        bound = 2.0 ** (n * dec.p0) * thr
        if np.any(np.abs(g[dec.base.cell_slices(L)]) > bound + 1e-12 * bound):
            return False
        l1 = float(np.abs(g).sum()) * f.cell_volume
        lp = float(power.sum()) * f.cell_volume
        if l1 > lp + 1e-12 * lp:
            return False
        norm_bound = lp / thr
        if meas > norm_bound + 1e-12 * norm_bound:
            return False
    return True


def level_masks(cubes, n):
    return {j: a > 0 for j, a in cube_levels(((Q, 1.0) for Q in cubes), n).items()}


# --- cases ----------------------------------------------------------------------------------


@st.composite
def cz_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, MAX_LEVEL[n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([1, 2]))
    p0 = draw(st.sampled_from([1.0, 1.5, 2.0]))
    shape = (1 << L,) * n
    fs = []
    for _ in range(m):
        # magnitudes spread over e^-s .. e^s, s in {0, 1, 30}, zeros mixed in
        spread = draw(st.sampled_from([0.0, 1.0, 30.0]))
        vals = np.exp(rng.uniform(-spread, spread, shape))
        vals[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
        fs.append(GridFunction(n, L, vals))
    level = draw(st.integers(0, min(2, L - 1)))
    P = DyadicCube(level, tuple(int(i) for i in rng.integers(0, 1 << level, n)))
    # a height between the base average and e^2 times it, so stopping cubes occur
    base = mean_pyramid(np.abs(fs[0].values) ** p0, n, L)[level][P.index]
    thr_pow = max(base, 1e-3) * float(np.exp(rng.uniform(0.0, 2.0)))
    return fs, thr_pow ** (m / p0), p0, m, P, rng


def tamper(dec, ref_stopping, fs, kind, rng):
    """A copy of dec and of the reference lists with one invariant disturbed."""
    n, L = fs[0].dim, fs[0].level
    stopping = [list(c) for c in ref_stopping]
    bad = [g.values for g in dec.bad]
    i = int(rng.choice([k for k, c in enumerate(stopping) if c] or [0]))
    if kind == "shift":
        # a constant on the cells of one stopping cube (or of the base), on either side of
        # the tolerance, which scales with the values
        R = stopping[i][int(rng.integers(len(stopping[i])))] if stopping[i] else dec.base
        b = bad[i].copy()
        b[R.cell_slices(L)] += float(rng.choice([1e-10, 1e-6, 1.0]))
        bad[i] = b
    elif kind == "drop" and stopping[i]:
        del stopping[i][int(rng.integers(len(stopping[i])))]
    elif kind == "add":
        j = int(rng.integers(max(1, dec.base.level + 1), L + 1))
        Q = DyadicCube(j, tuple(int(k) for k in rng.integers(0, 1 << j, n)))
        if Q not in stopping[i]:
            stopping[i].append(Q)
    new = dataclasses.replace(dec, bad=[GridFunction(n, L, b) for b in bad],
                              masks=[level_masks(c, n) for c in stopping])
    return new, stopping


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cz_case(), st.sampled_from(["none", "shift", "drop", "add"]))
def test_cz_matches_frontier_walk_and_per_cube_verify(case, kind):
    fs, lam, p0, m, P, rng = case
    dec = cz_decompose(fs, lam, p0, m, P)
    good, bad, stopping, short = reference_cz(fs, lam, p0, m, P)
    assert dec.short_circuit == short
    for i, f in enumerate(fs):
        # one order for both dimensions: (level, row-major); in one dimension
        # the frontier walk already visits cubes in that order
        cubes = list(mask_cubes(dec.masks[i], f.dim))
        assert cubes == sorted(stopping[i])
        if f.dim == 1:
            assert cubes == stopping[i]
        scale = max(1.0, float(np.max(np.abs(f.values) ** p0)))
        assert np.max(np.abs(dec.good[i].values - good[i])) <= 1e-12 * scale
        assert np.max(np.abs(dec.bad[i].values - bad[i])) <= 1e-12 * scale
    if kind != "none":
        dec, stopping = tamper(dec, stopping, fs, kind, rng)
    assert dec.verify(fs) == reference_verify(dec, stopping, fs)


def test_cz_decompose_and_verify_build_no_cube(built_cubes):
    rng = rng_from(61)
    fs = [random_function(rng, 2, 6), random_function(rng, 2, 6)]
    P = DyadicCube(0, (0, 0))
    built_cubes.clear()
    dec = cz_decompose(fs, 0.6, 1.5, 2, P)
    assert not dec.short_circuit and any(dec.masks)
    assert dec.verify(fs)
    assert built_cubes == []
