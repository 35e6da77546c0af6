"""Medians, local mean oscillation, and the oscillation-based decomposition.

The decomposition writes |f - median(f, Q0)| at every cell below twice the
sum of local oscillations over a sparse family inside Q0.  Its stopping
rule triggers on cells where |f - median| exceeds the oscillation-scale
threshold, at density 2^-(n+1); the dyadic parent of a stopping cube then
carries at most half that density, which pins each median jump below the
threshold and makes the factor-2 bound exact on the discrete grid.

The decomposition sweeps one dyadic level at a time.  The cubes visited at
a level are equal-sized blocks, so one row-wise sort gives all their
medians and oscillations, one row-wise partition their thresholds, and one
count pyramid of the excess set, masked by the cubes already stopped above,
gives their stopping cubes on every deeper level at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    GridFunction,
    Inequality,
    _rank,
    at_most,
    dilate_products,
    fold_down,
    fold_up,
    maximal,
)
from .sparse import SparseFamily, greedy_witness, verify_sparse


def _median_from_sorted(b: np.ndarray) -> np.ndarray:
    """Row-wise smallest cell value m with max(#{> m}, #{< m}) <= N/2 (rows sorted ascending).

    That is entry (N-1)//2: at most (N-1)//2 values lie below it and at most
    N-1-(N-1)//2 <= N/2 above, while every smaller value has more than N/2 above.
    """
    return b[:, (b.shape[1] - 1) // 2]


def _osc_from_sorted(b: np.ndarray, lam: float) -> np.ndarray:
    """Row-wise inf_c (k-th largest of |b - c|) with k = ceil(lam N), by window sweep.

    The objective equals half the width of the narrowest window containing
    N - k + 1 of the sorted values, attained at that window's midpoint.
    """
    N = b.shape[1]
    k = _rank(lam, N)
    W = N - k + 1
    return (b[:, W - 1 :] - b[:, :k]).min(axis=1) / 2.0


def median(f: GridFunction, Q: DyadicCube) -> float:
    """A median of f on Q: smallest valid cell value (ties broken downward)."""
    return float(_median_from_sorted(np.sort(f.on(Q).reshape(1, -1), axis=1))[0])


def local_osc(f: GridFunction, Q: DyadicCube, lam: float) -> float:
    """Local mean oscillation inf_c ((f - c) chi_Q)^*(lam |Q|)."""
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0,1), got {lam}")
    return float(_osc_from_sorted(np.sort(f.on(Q).reshape(1, -1), axis=1), lam)[0])


@dataclass
class LernerDecomposition:
    """``osc[j][Q.index]`` is omega(f; Q), one array per level holding a family cube,
    zero off the family; ``omegas`` is the cube-keyed view, built on first read."""

    base: DyadicCube
    base_median: float
    lam: float
    family: SparseFamily
    osc: dict[int, np.ndarray]

    @functools.cached_property
    def omegas(self) -> dict[DyadicCube, float]:
        return {Q: float(self.osc[Q.level][Q.index]) for Q in self.family.cubes}

    def bound_function(self) -> np.ndarray:
        """The cell values of 2 sum_Q omega(Q) chi_Q, summed coarse to fine cell by cell."""
        return 2.0 * fold_down(self.osc.items(), self.family.dim, self.family.level)

    def _sides(self, f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
        """|f - median| and the bound function on the base cube's cells."""
        sl = self.base.cell_slices(f.level)
        return np.abs(f.values - self.base_median)[sl], self.bound_function()[sl]

    def verify(self, f: GridFunction) -> bool:
        """The family is sparse and |f - median| <= 2 sum omega chi_Q at every cell of the
        base cube, by ``grid.at_most`` at the scale of the largest |f - median|."""
        lhs, rhs = self._sides(f)
        return at_most(lhs, rhs, np.max(lhs)) and verify_sparse(self.family)

    def max_violation(self, f: GridFunction) -> float:
        lhs, rhs = self._sides(f)
        return float(np.max(lhs - rhs))

    def to_records(self) -> list[dict]:
        return self.family.to_records(self.osc)


def _blocks(arr: np.ndarray, n: int, j: int) -> np.ndarray:
    """View of a level-L cell array as (2^j,)*n level-j cubes, each an (s,)*n block of cells."""
    v = arr.reshape((1 << j, arr.shape[0] >> j) * n)
    return v.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))


def lerner_decompose(f: GridFunction, Q0: DyadicCube) -> LernerDecomposition:
    """Sparse family S in D(Q0) with |f - m_f(Q0)| <= 2 sum_S omega(f; Q) chi_Q.

    At each visited cube the threshold is the rearrangement of |f - median|
    at fraction 2^-(n+2); stopping children are the maximal subcubes where
    the excess set has density at least 2^-(n+1).  Constant functions come
    back with an empty family.
    """
    if Q0.dim != f.dim or Q0.level > f.level:
        raise DimensionError(f"base cube {Q0} does not fit the n={f.dim}, L={f.level} grid")
    n, L = f.dim, f.level
    lam = 2.0 ** (-(n + 2))
    osc: dict[int, np.ndarray] = {}
    visit = {j: np.zeros((1 << j,) * n, dtype=bool) for j in range(Q0.level, L + 1)}
    visit[Q0.level][Q0.index] = True

    for j in range(Q0.level, L + 1):
        here = visit[j]
        if not here.any():
            continue
        N = (1 << (L - j)) ** n
        rows = _blocks(f.values, n, j)[here].reshape(-1, N)
        b = np.sort(rows, axis=1)
        med = _median_from_sorted(b)
        if j == Q0.level:
            m0 = float(med[0])
        om = _osc_from_sorted(b, lam)
        if om.any():
            osc[j] = np.zeros(here.shape)
            osc[j][here] = om
        if N == 1:
            continue
        k = _rank(lam, N)
        g = np.abs(rows - med[:, None])
        t = np.partition(g, N - k, axis=1)[:, N - k]
        E = np.zeros(f.values.shape, dtype=bool)
        _blocks(E, n, j)[here] = (g > t[:, None]).reshape((-1,) + (1 << (L - j),) * n)
        # excess counts of every deeper cube, then the maximal ones of density >= 2^-(n+1)
        cnt = fold_up({L: E}, j + 1, "sum")
        dense = {i: c * (1 << (n + 1)) >= 1 << (n * (L - i)) for i, c in cnt.items()}
        stops = maximal(dense, np.zeros((1 << j,) * n, dtype=bool))
        visit.update((i, visit[i] | s) for i, s in stops.items())

    return LernerDecomposition(Q0, m0, lam, greedy_witness(osc, n, L), osc)


def osc_profile(op, fs, Q: DyadicCube, lam: float, p0: float, delta0: float) -> Inequality:
    """Compare omega_lam(T f; Q) with sum_l 2^(-l delta0) prod_i <f_i>_{2^l Q, p0}, where
    T f is ``op(*fs)``.

    The series runs over l = 0..Q.level, the last dilate saturating; the
    ratio is the measured stand-in for the operator's oscillation constant.
    """
    if delta0 <= 0:
        raise DomainError(f"decay rate delta0 must be positive, got {delta0}")
    lhs = local_osc(op(*fs), Q, lam)
    rings = dilate_products(fs, [Q.level], p0)[Q.level][(slice(None), *Q.index)].tolist()
    rhs = sum(2.0 ** (-ell * delta0) * v for ell, v in enumerate(rings))
    return Inequality(lhs, rhs)
