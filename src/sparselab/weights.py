"""Muckenhoupt and reverse Holder constants, multiple-weight classes, dual weights.

All suprema run over the canonical dyadic family up to a chosen maxlevel;
both sides of every inequality checked here scan the same family, so the
per-cube arguments behind those inequalities stay valid verbatim.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    GridFunction,
    Inequality,
    argmax_cube,
    check_p0,
    fold_up,
    mean_pyramid,
    top_level,
    _match,
)

WEIGHT_FLOOR = 1e-300


def conjugate(p: float) -> float:
    """Holder conjugate p' = p/(p-1); conjugate(1) = inf."""
    if not p >= 1:
        raise DomainError(f"conjugate exponent needs p >= 1, got {p}")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def clamp_weight(f: GridFunction) -> GridFunction:
    """Floor weight cells at 1e-300; warns when any cell was clamped."""
    if np.all(f.values >= WEIGHT_FLOOR):
        return f
    warnings.warn("weight cells below 1e-300 clamped on ingestion", RuntimeWarning)
    return GridFunction(f.dim, f.level, np.maximum(f.values, WEIGHT_FLOOR))


@dataclass(frozen=True)
class ConstantReport:
    """A scanned supremum and its witness: the coarsest, then first row-major, cube
    within 1e-14 relative of it, so rounding cannot pick among equal cubes."""

    value: float
    witness: DyadicCube
    maxlevel: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": {"level": self.witness.level, "index": list(self.witness.index)},
            "family": "dyadic",
            "maxlevel": self.maxlevel,
        }


def _positive(w: GridFunction) -> None:
    if np.any(w.values <= 0):
        raise DomainError("weight must be strictly positive cellwise")


def _dual(w: GridFunction, e: float) -> np.ndarray:
    """The cells of w^e, e < 0, or a DomainError where a cube mean of them could overflow:
    a zero cell, floored to 1e-300, gets there once e < -1.025 (A_p with p < 1.975)."""
    with np.errstate(over="ignore"):
        vals = w.values ** e
    if not vals.max() <= np.finfo(float).max / (1 << w.dim):
        raise DomainError(f"dual weight w^{e:g} leaves the float range: smallest cell {w.values.min():g}")
    return vals


def _supremum(levels, maxlevel: int | None, L: int) -> ConstantReport:
    """The largest per-cube value over levels 0..maxlevel (None: L) and its witness."""
    maxlevel = top_level(maxlevel, L)
    levels = list(itertools.islice(levels, maxlevel + 1))
    value = max(float(v.max()) for v in levels)  # positive, so the band below is its near-ties
    witness = argmax_cube((j, v >= value * (1 - 1e-14)) for j, v in enumerate(levels))[1]
    return ConstantReport(value, witness, maxlevel)


def ap_constant(w: GridFunction, p: float, maxlevel: int | None = None) -> ConstantReport:
    """Muckenhoupt constant sup_Q <w>_Q <w^(-1/(p-1))>_Q^(p-1) over dyadic cubes.

    p = 1 uses the essential-infimum form sup_Q <w>_Q / inf_Q w.
    """
    if not p >= 1:
        raise DomainError(f"A_p constant needs p >= 1, got {p}")
    _positive(w)
    mw = mean_pyramid(w.values)
    if p == 1:
        levels = map(np.divide, mw, fold_up({w.level: w.values}, 0, "min").values())
    else:
        dual = mean_pyramid(_dual(w, -1.0 / (p - 1.0)))
        levels = (a * d ** (p - 1.0) for a, d in zip(mw, dual))
    return _supremum(levels, maxlevel, w.level)


def rh_constant(w: GridFunction, q: float, maxlevel: int | None = None) -> ConstantReport:
    """Reverse Holder constant sup_Q <w^q>_Q^(1/q) / <w>_Q; q = inf uses sup_Q w."""
    if not q > 1:
        raise DomainError(f"RH_q constant needs q > 1, got {q}")
    _positive(w)
    if math.isinf(q):
        top = fold_up({w.level: w.values}, 0, "max").values()
    else:
        top = (a ** (1.0 / q) for a in mean_pyramid(w.values**q))
    return _supremum(map(np.divide, top, mean_pyramid(w.values)), maxlevel, w.level)


class WeightTuple:
    """m weights with exponents (p_1..p_m, p, p_0) and their derived objects.

    Carries nu = prod w_i^(p/p_i) and the dual weights sigma_i = w_i^(1-a_i')
    with a_i = p_i/p_0.  Requires p_0 < min p_i so every a_i exceeds 1.
    nu and the multiple-weight constants are computed once per tuple.
    """

    def __init__(self, weights, exponents, p0: float = 1.0):
        weights = tuple(clamp_weight(w) for w in weights)
        exponents = tuple(float(p) for p in exponents)
        if len(weights) != len(exponents) or not weights:
            raise DimensionError("need one exponent per weight")
        for w in weights[1:]:
            _match(weights[0], w)
        for w in weights:
            _positive(w)
        for p in exponents:
            if not (1.0 < p < math.inf):
                raise DomainError(f"exponents must lie in (1, inf), got {p}")
        check_p0(p0)
        if p0 >= min(exponents):
            raise DomainError(f"p0 = {p0} must be below min p_i = {min(exponents)}")
        self.weights = weights
        self.exponents = exponents
        self.p0 = float(p0)
        self.p = 1.0 / sum(1.0 / p for p in exponents)
        self._nu: GridFunction | None = None
        self._constants: dict[tuple[float, int | None], ConstantReport] = {}

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.weights[0].dim

    @property
    def level(self) -> int:
        return self.weights[0].level

    def a_i(self, r: float | None = None) -> tuple[float, ...]:
        r = self.p0 if r is None else r
        return tuple(p / r for p in self.exponents)

    def nu(self) -> GridFunction:
        if self._nu is None:
            vals = np.ones_like(self.weights[0].values)
            for w, p_i in zip(self.weights, self.exponents):
                vals = vals * w.values ** (self.p / p_i)
            self._nu = GridFunction(self.dim, self.level, vals)
        return self._nu

    def dual_weights(self, r: float | None = None) -> tuple[GridFunction, ...]:
        return tuple(GridFunction(self.dim, self.level, _dual(w, 1.0 - conjugate(a_i)))
                     for w, a_i in zip(self.weights, self.a_i(r)))


def multi_ap_constant(t: WeightTuple, r: float = 1.0, maxlevel: int | None = None) -> ConstantReport:
    """Multiple-weight constant sup_Q <nu>_Q prod_i <w_i^(1-a_i')>_Q^((p/r)/a_i').

    r = 1 gives the plain multilinear class; r = p0 gives the class used by
    the sparse-operator bound, with a_i = p_i/r.  The report is computed
    once per (r, maxlevel) and kept on the tuple.
    """
    if not r >= 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if r >= min(t.exponents):
        raise DomainError(f"r = {r} must be below min p_i = {min(t.exponents)}")
    key = (float(r), maxlevel)
    if key not in t._constants:
        levels = mean_pyramid(t.nu().values)
        for s, ai in zip(t.dual_weights(r), t.a_i(r)):
            e = (t.p / r) / conjugate(ai)
            levels = [acc * d**e for acc, d in zip(levels, mean_pyramid(s.values))]
        t._constants[key] = _supremum(levels, maxlevel, t.level)
    return t._constants[key]


def duality_inequality_check(w: GridFunction, p: float, p0: float) -> Inequality:
    """Check [sigma]_{A_{p'/p0}} <= ([w]_{RH_{(p0'/p)'}} [w]_{A_p})^(1/(p-1)).

    Here sigma = w^(1-p').  Valid for 1 < p < p0'; both sides scan the same
    dyadic family, so the inequality is exact up to rounding.
    """
    if p0 <= 1:
        raise DomainError(f"need p0 > 1 for a finite RH exponent, got {p0}")
    p0c = conjugate(p0)
    if not 1.0 < p < p0c:
        raise DomainError(f"need 1 < p < p0' = {p0c}, got p = {p}")
    _positive(w)
    pp = conjugate(p)
    sigma = GridFunction(w.dim, w.level, _dual(w, 1.0 - pp))
    lhs = ap_constant(sigma, pp / p0).value
    weight_ap = ap_constant(w, p).value
    weight_rh = rh_constant(w, conjugate(p0c / p)).value
    rhs = (weight_rh * weight_ap) ** (1.0 / (p - 1.0))
    return Inequality(lhs, rhs)


def _power_cell_averages_1d(alpha: float, center: float, L: int) -> np.ndarray:
    """Exact cell averages of dist_torus(x, center)^alpha on the circle."""
    N = 1 << L

    def F(t):
        # integral of min(u, 1-u)^alpha over [0, t], 0 <= t <= 1
        t = np.asarray(t, dtype=float)
        lo = np.minimum(t, 0.5)
        out = lo ** (alpha + 1.0) / (alpha + 1.0)
        hi = t > 0.5
        if np.any(hi):
            half = 0.5 ** (alpha + 1.0) / (alpha + 1.0)
            out = np.where(hi, half + (half - (1.0 - t) ** (alpha + 1.0) / (alpha + 1.0)), out)
        return out

    edges = (np.arange(N + 1) / N - center) % 1.0
    u0, u1 = edges[:-1], edges[1:]
    u1 = np.where(u1 == 0.0, 1.0, u1)
    wrapped = u1 <= u0
    plain = F(u1) - F(u0)
    split = (F(1.0) - F(u0)) + F(np.where(wrapped, u1, 0.0))
    return np.where(wrapped, split, plain) * N


_POWER_SUBSAMPLES = 8  # midpoint-rule points per axis and cell of a 2d power weight


def power_weight(alpha: float, center=None, n: int = 1, L: int = 8) -> GridFunction:
    """Cell-averaged power weight dist_torus(x, center)^alpha, alpha > -n.

    In one dimension the cell averages are exact (piecewise closed form);
    in two dimensions they use a midpoint rule with 8^2 points per cell,
    which keeps the weight strictly positive and finite: a centre on one of
    the rule's points is a DomainError when alpha < 0.  The rule is summed one
    y-subsample at a time, so it holds a few (2^L, 2^L) arrays at once; the
    sums are combined in the order numpy's pairwise sum takes over the 64
    points of a cell, so the values are bit for bit those of the mean over a
    (2^L, 2^L, 8, 8) tensor.
    """
    if not -n < alpha < math.inf:
        raise DomainError(f"power weight needs finite alpha > -n = {-n}, got {alpha}")
    if center is None:
        center = (0.0,) * n
    if np.isscalar(center):
        center = (float(center),)
    if len(center) != n:
        raise DimensionError("center must have one coordinate per dimension")
    if not all(math.isfinite(c) for c in center):
        raise DomainError(f"power weight needs a finite center, got {tuple(center)}")
    if n == 1:
        vals = _power_cell_averages_1d(alpha, center[0], L)
        return GridFunction(1, L, np.maximum(vals, WEIGHT_FLOOR))
    N = 1 << L
    ss = _POWER_SUBSAMPLES
    pts = (np.arange(N)[:, None] + (np.arange(ss) + 0.5)[None, :] / ss) / N  # (N, ss)
    dx = np.abs(pts - center[0]) % 1.0
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(pts - center[1]) % 1.0
    dy = np.minimum(dy, 1.0 - dy)
    if alpha < 0 and not dx.all() and not dy.all():
        raise DomainError(f"power weight with alpha = {alpha} < 0 is infinite at its "
                          f"center {tuple(center)}, a point of the midpoint rule at L={L}")
    dx2, dy2 = dx**2, dy**2
    # sums[b] adds the points of y-subsample b in x order
    sums = [sum((dx2[:, None, a] + dy2[None, :, b]) ** (alpha / 2.0) for a in range(ss))
            for b in range(ss)]
    while len(sums) > 1:
        sums = [sums[i] + sums[i + 1] for i in range(0, len(sums), 2)]
    vals = sums[0] / (ss * ss)
    return GridFunction(2, L, np.maximum(vals, WEIGHT_FLOOR))


def holder_identity_slack(t: WeightTuple, Q: DyadicCube) -> Inequality:
    """Per-cube Holder bound: |Q| <= nu(Q)^(1/(ma)) prod sigma_i(Q)^(1/(ma_i')), a = p/p0."""
    vol = Q.volume
    rhs = (float(t.nu().on(Q).mean()) * vol) ** (1.0 / (t.m * (t.p / t.p0)))
    for s, ai in zip(t.dual_weights(), t.a_i()):
        rhs *= (float(s.on(Q).mean()) * vol) ** (1.0 / (t.m * conjugate(ai)))
    return Inequality(vol, rhs)
