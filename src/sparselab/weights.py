"""Muckenhoupt and reverse Holder constants, multiple-weight classes, dual weights.

All suprema run over the canonical dyadic family up to a chosen maxlevel;
both sides of every inequality checked here scan the same family, so the
per-cube arguments behind those inequalities stay valid verbatim.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    GridFunction,
    argmax_cube,
    block_reduce,
    top_level,
    _match,
)

WEIGHT_FLOOR = 1e-300


def conjugate(p: float) -> float:
    """Holder conjugate p' = p/(p-1); conjugate(1) = inf."""
    if p < 1:
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
    """A scanned supremum together with the cube attaining it."""

    value: float
    witness: DyadicCube
    family: str
    maxlevel: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": {"level": self.witness.level, "index": list(self.witness.index)},
            "family": self.family,
            "maxlevel": self.maxlevel,
        }


def _positive(w: GridFunction) -> None:
    if np.any(w.values <= 0):
        raise DomainError("weight must be strictly positive cellwise")


def ap_constant(w: GridFunction, p: float, maxlevel: int | None = None) -> ConstantReport:
    """Muckenhoupt constant sup_Q <w>_Q <w^(-1/(p-1))>_Q^(p-1) over dyadic cubes.

    p = 1 uses the essential-infimum form sup_Q <w>_Q / inf_Q w.
    """
    if p < 1:
        raise DomainError(f"A_p constant needs p >= 1, got {p}")
    _positive(w)
    n, L = w.dim, w.level
    maxlevel = top_level(maxlevel, L)
    per_level = []
    vals = w.values
    dual = None if p == 1 else vals ** (-1.0 / (p - 1.0))
    for j in range(maxlevel + 1):
        mw = block_reduce(vals, n, L, j, "mean")
        if p == 1:
            a = mw / block_reduce(vals, n, L, j, "min")
        else:
            a = mw * block_reduce(dual, n, L, j, "mean") ** (p - 1.0)
        per_level.append(a)
    value, witness = argmax_cube(enumerate(per_level))
    return ConstantReport(value, witness, "dyadic", maxlevel)


def rh_constant(w: GridFunction, q: float, maxlevel: int | None = None) -> ConstantReport:
    """Reverse Holder constant sup_Q <w^q>_Q^(1/q) / <w>_Q; q = inf uses sup_Q w."""
    if q <= 1:
        raise DomainError(f"RH_q constant needs q > 1, got {q}")
    _positive(w)
    n, L = w.dim, w.level
    maxlevel = top_level(maxlevel, L)
    per_level = []
    vals = w.values
    for j in range(maxlevel + 1):
        mw = block_reduce(vals, n, L, j, "mean")
        if math.isinf(q):
            a = block_reduce(vals, n, L, j, "max") / mw
        else:
            a = block_reduce(vals**q, n, L, j, "mean") ** (1.0 / q) / mw
        per_level.append(a)
    value, witness = argmax_cube(enumerate(per_level))
    return ConstantReport(value, witness, "dyadic", maxlevel)


class WeightTuple:
    """m weights with exponents (p_1..p_m, p, p_0) and their derived objects.

    Carries nu = prod w_i^(p/p_i) and the dual weights sigma_i = w_i^(1-a_i')
    with a_i = p_i/p_0.  Requires p_0 < min p_i so every a_i exceeds 1.
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
        if not p0 >= 1.0:
            raise DomainError(f"p0 must be >= 1, got {p0}")
        if p0 >= min(exponents):
            raise DomainError(f"p0 = {p0} must be below min p_i = {min(exponents)}")
        self.weights = weights
        self.exponents = exponents
        self.p0 = float(p0)
        self.p = 1.0 / sum(1.0 / p for p in exponents)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.weights[0].dim

    @property
    def level(self) -> int:
        return self.weights[0].level

    def a(self, r: float | None = None) -> float:
        r = self.p0 if r is None else r
        return self.p / r

    def a_i(self, r: float | None = None) -> tuple[float, ...]:
        r = self.p0 if r is None else r
        return tuple(p / r for p in self.exponents)

    def nu(self) -> GridFunction:
        vals = np.ones_like(self.weights[0].values)
        for w, p_i in zip(self.weights, self.exponents):
            vals = vals * w.values ** (self.p / p_i)
        return GridFunction(self.dim, self.level, vals)

    def dual_weights(self, r: float | None = None) -> tuple[GridFunction, ...]:
        r = self.p0 if r is None else r
        out = []
        for w, a_i in zip(self.weights, self.a_i(r)):
            api = conjugate(a_i)
            out.append(GridFunction(self.dim, self.level, w.values ** (1.0 - api)))
        return tuple(out)


def dual_weights(t: WeightTuple) -> tuple[GridFunction, ...]:
    """sigma_i = w_i^(1 - (p_i/p_0)') cellwise."""
    return t.dual_weights()


def multi_ap_constant(t: WeightTuple, r: float = 1.0, maxlevel: int | None = None) -> ConstantReport:
    """Multiple-weight constant sup_Q <nu>_Q prod_i <w_i^(1-a_i')>_Q^((p/r)/a_i').

    r = 1 gives the plain multilinear class; r = p0 gives the class used by
    the sparse-operator bound, with a_i = p_i/r.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if r >= min(t.exponents):
        raise DomainError(f"r = {r} must be below min p_i = {min(t.exponents)}")
    n, L = t.dim, t.level
    maxlevel = top_level(maxlevel, L)
    a = t.p / r
    a_i = [p / r for p in t.exponents]
    nu_vals = t.nu().values
    duals = [w.values ** (1.0 - conjugate(ai)) for w, ai in zip(t.weights, a_i)]
    per_level = []
    for j in range(maxlevel + 1):
        acc = block_reduce(nu_vals, n, L, j, "mean")
        for d, ai in zip(duals, a_i):
            acc = acc * block_reduce(d, n, L, j, "mean") ** (a / conjugate(ai))
        per_level.append(acc)
    value, witness = argmax_cube(enumerate(per_level))
    return ConstantReport(value, witness, "dyadic", maxlevel)


@dataclass(frozen=True)
class DualityReport:
    lhs: float
    rhs: float
    holds: bool
    sigma_ap: ConstantReport
    weight_ap: ConstantReport
    weight_rh: ConstantReport

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "sigma_ap": self.sigma_ap.to_dict(),
            "weight_ap": self.weight_ap.to_dict(),
            "weight_rh": self.weight_rh.to_dict(),
        }


def duality_inequality_check(
    w: GridFunction, p: float, p0: float, maxlevel: int | None = None
) -> DualityReport:
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
    sigma = GridFunction(w.dim, w.level, w.values ** (1.0 - pp))
    sigma_ap = ap_constant(sigma, pp / p0, maxlevel)
    weight_ap = ap_constant(w, p, maxlevel)
    weight_rh = rh_constant(w, conjugate(p0c / p), maxlevel)
    rhs = (weight_rh.value * weight_ap.value) ** (1.0 / (p - 1.0))
    holds = sigma_ap.value <= rhs * (1.0 + 1e-9)
    return DualityReport(sigma_ap.value, rhs, holds, sigma_ap, weight_ap, weight_rh)


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
    wrapped = u1 < u0
    plain = F(u1) - F(u0)
    split = (F(1.0) - F(u0)) + F(np.where(wrapped, u1, 0.0))
    return np.where(wrapped, split, plain) * N


_POWER_SUBSAMPLES = 8  # midpoint-rule points per axis and cell of a 2d power weight


def power_weight(alpha: float, center=None, n: int = 1, L: int = 8) -> GridFunction:
    """Cell-averaged power weight dist_torus(x, center)^alpha, alpha > -n.

    In one dimension the cell averages are exact (piecewise closed form);
    in two dimensions they use a midpoint rule with 8^2 points per cell,
    which keeps the weight strictly positive and finite.
    """
    if alpha <= -n:
        raise DomainError(f"power weight needs alpha > -n = {-n}, got {alpha}")
    if center is None:
        center = (0.0,) * n
    if np.isscalar(center):
        center = (float(center),)
    if len(center) != n:
        raise DimensionError("center must have one coordinate per dimension")
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
    r2 = dx[:, None, :, None] ** 2 + dy[None, :, None, :] ** 2  # (N, N, ss, ss)
    vals = (r2 ** (alpha / 2.0)).mean(axis=(2, 3))
    return GridFunction(2, L, np.maximum(vals, WEIGHT_FLOOR))


def holder_identity_slack(t: WeightTuple, Q: DyadicCube, r: float | None = None) -> tuple[float, float]:
    """Per-cube Holder bound: |Q| <= nu(Q)^(1/(ma)) prod sigma_i(Q)^(1/(ma_i')).

    Returns (lhs, rhs) as plain numbers with lhs = |Q|.
    """
    r = t.p0 if r is None else r
    n, L = t.dim, t.level
    vol = Q.volume
    a = t.p / r
    m = t.m
    nu_int = float(t.nu().on(Q).mean()) * vol
    rhs = nu_int ** (1.0 / (m * a))
    for w, p_i in zip(t.weights, t.exponents):
        ai = p_i / r
        api = conjugate(ai)
        s_int = float((w.values ** (1.0 - api))[Q.cell_slices(L)].mean()) * vol
        rhs *= s_int ** (1.0 / (m * api))
    return vol, rhs
