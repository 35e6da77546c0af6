"""Medians, local mean oscillation, and the oscillation-based decomposition.

The decomposition writes |f - median(f, Q0)| at every cell below twice the
sum of local oscillations over a sparse family inside Q0.  Its stopping
rule triggers on cells where |f - median| exceeds the oscillation-scale
threshold, at density 2^-(n+1); the dyadic parent of a stopping cube then
carries at most half that density, which pins each median jump below the
threshold and makes the factor-2 bound exact on the discrete grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    GridFunction,
    dilate_products,
)
from .sparse import SparseFamily, greedy_witness, verify_sparse


def _median_from_sorted(b: np.ndarray) -> float:
    """Smallest cell value m with max(#{> m}, #{< m}) <= N/2 (b sorted ascending)."""
    N = b.size
    vals = np.unique(b)
    lt = np.searchsorted(b, vals, side="left")
    gt = N - np.searchsorted(b, vals, side="right")
    ok = np.nonzero((2 * lt <= N) & (2 * gt <= N))[0]
    return float(vals[ok[0]])


def _osc_from_sorted(b: np.ndarray, lam: float) -> float:
    """inf_c (k-th largest of |b - c|) with k = ceil(lam N), by window sweep.

    The objective equals half the width of the narrowest window containing
    N - k + 1 of the sorted values, attained at that window's midpoint.
    """
    N = b.size
    k = max(1, math.ceil(lam * N - 1e-12))
    if k > N:
        return 0.0
    W = N - k + 1
    widths = b[W - 1 :] - b[:k]
    return float(widths.min() / 2.0)


def median(f: GridFunction, Q: DyadicCube) -> float:
    """A median of f on Q: smallest valid cell value (ties broken downward)."""
    if Q.level > f.level:
        raise DimensionError("cube finer than the function resolution")
    return _median_from_sorted(np.sort(f.on(Q), axis=None))


def local_osc(f: GridFunction, Q: DyadicCube, lam: float) -> float:
    """Local mean oscillation inf_c ((f - c) chi_Q)^*(lam |Q|)."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0,1), got {lam}")
    if Q.level > f.level:
        raise DimensionError("cube finer than the function resolution")
    return _osc_from_sorted(np.sort(f.on(Q), axis=None), lam)


@dataclass
class LernerDecomposition:
    base: DyadicCube
    base_median: float
    lam: float
    family: SparseFamily
    omegas: dict[DyadicCube, float]

    def bound_function(self) -> np.ndarray:
        """The cell values of 2 sum_Q omega(Q) chi_Q."""
        L = self.family.level
        n = self.family.dim
        out = np.zeros((1 << L,) * n)
        for Q, om in self.omegas.items():
            out[Q.cell_slices(L)] += om
        return 2.0 * out

    def verify(self, f: GridFunction, tol: float = 1e-9) -> bool:
        lhs = np.abs(f.values - self.base_median)
        rhs = self.bound_function()
        sl = self.base.cell_slices(f.level)
        if np.any(lhs[sl] > rhs[sl] + tol):
            return False
        return verify_sparse(self.family)

    def max_violation(self, f: GridFunction) -> float:
        lhs = np.abs(f.values - self.base_median)
        rhs = self.bound_function()
        sl = self.base.cell_slices(f.level)
        return float(np.max(lhs[sl] - rhs[sl]))

    def to_records(self) -> list[dict]:
        return self.family.to_records(self.omegas)


def _stopping_cubes(E: np.ndarray, Q: DyadicCube, n: int, threshold_num: int,
                    threshold_den: int) -> list[DyadicCube]:
    """Maximal strict subcubes S of Q with den * #E(S) >= num * #cells(S)."""
    out: list[DyadicCube] = []
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


def lerner_decompose(f: GridFunction, Q0: DyadicCube) -> LernerDecomposition:
    """Sparse family S in D(Q0) with |f - m_f(Q0)| <= 2 sum_S omega(f; Q) chi_Q.

    At each visited cube the threshold is the rearrangement of |f - median|
    at fraction 2^-(n+2); stopping children are the maximal subcubes where
    the excess set has density at least 2^-(n+1).  Constant functions come
    back with an empty family.
    """
    if Q0.level > f.level:
        raise DimensionError("base cube finer than the function resolution")
    n, L = f.dim, f.level
    lam = 2.0 ** (-(n + 2))
    omegas: dict[DyadicCube, float] = {}
    m0: float | None = None

    stack = [Q0]
    while stack:
        Q = stack.pop()
        block = f.on(Q)
        flat = np.sort(block, axis=None)
        med = _median_from_sorted(flat)
        if m0 is None:
            m0 = med
        om = _osc_from_sorted(flat, lam)
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
        stack.extend(_stopping_cubes(E, Q, n, 1, 1 << (n + 1)))

    family = greedy_witness(omegas.keys(), n, L)
    assert m0 is not None
    return LernerDecomposition(Q0, m0, lam, family, omegas)


@dataclass
class OscillationProfile:
    """Measured oscillation of an operator output against its ring series."""

    base: DyadicCube
    ring_products: list[float]
    delta0: float
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0 else math.inf

    @property
    def degenerate(self) -> bool:
        return self.rhs == 0.0

    def to_dict(self) -> dict:
        return {
            "cube": {"level": self.base.level, "index": list(self.base.index)},
            "ring_products": self.ring_products,
            "delta0": self.delta0,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": None if self.degenerate and self.lhs > 0 else self.ratio,
        }


def ring_average_products(fs, Q: DyadicCube, p0: float) -> list[float]:
    """prod_i <f_i>_{2^l Q, p0} for l = 0..Q.level (the last dilate saturates)."""
    if Q.dim != fs[0].dim:
        raise DimensionError("cube dimension does not match function dimension")
    return dilate_products(fs, Q.level, p0)[(slice(None), *Q.index)].tolist()


def osc_profile(op, fs, Q: DyadicCube, lam: float, p0: float, delta0: float) -> OscillationProfile:
    """Compare omega_lam(T f; Q) with sum_l 2^(-l delta0) prod_i <f_i>_{2^l Q, p0}.

    The series is truncated at the first saturated dilate; the ratio is the
    measured stand-in for the operator's oscillation constant.
    """
    if delta0 <= 0:
        raise DomainError(f"decay rate delta0 must be positive, got {delta0}")
    u = op.apply(fs)
    lhs = local_osc(u, Q, lam)
    rings = ring_average_products(fs, Q, p0)
    rhs = sum(2.0 ** (-ell * delta0) * v for ell, v in enumerate(rings))
    return OscillationProfile(Q, rings, delta0, lhs, rhs)
