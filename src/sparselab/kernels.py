"""Model singular operators: Fourier multipliers, the periodic Hilbert
transform, their kernels, and numerical checkers for symbol regularity and
ring-decay of kernel differences.

Symbols are sampled on the integer frequency lattice [-N/2, N/2) per axis
(math order, index i holds frequency i - N/2).  The unpaired Nyquist bin
-N/2 of an even grid has no mirror image; built-in real symbols zero it so
real inputs map to real outputs exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (DomainError, DimensionError, DyadicCube, GridFunction, _window_start, at_most,
                   check_tuple, dilate)


@dataclass(frozen=True)
class Symbol:
    """Sampled multiplier on the integer frequency lattice, math order."""

    freq_dim: int
    values: np.ndarray = field(compare=False)
    name: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.ndim != self.freq_dim:
            raise DimensionError("symbol array rank must equal freq_dim")
        N = arr.shape[0]
        if any(s != N for s in arr.shape) or N < 1 or N & (N - 1):
            raise DimensionError("symbol must be sampled on a square power-of-two lattice")
        if not np.all(np.isfinite(arr)):
            raise DomainError("symbol values must be finite (bounded symbol)")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    def frequencies(self) -> np.ndarray:
        return _frequencies(self.N)

    def fft_order(self) -> np.ndarray:
        return np.fft.ifftshift(self.values)

    def is_hermitian(self) -> bool:
        """m(-xi) = conj m(xi) on paired bins, real on those with a -N/2 coordinate, by
        ``grid.at_most`` at the scale of the largest real or imaginary part."""
        v, d = self.values, self.freq_dim
        gap = v[(slice(None, 0, -1),) * d] - np.conj(v[(slice(1, None),) * d])
        unpaired = v[np.any(np.indices(v.shape) == 0, axis=0)]
        scale = max(np.max(np.abs(v.real)), np.max(np.abs(v.imag)))
        return all(at_most(np.abs(x), 0.0, scale) for x in (gap.real, gap.imag, unpaired.imag))


def _frequencies(N: int) -> np.ndarray:
    """The frequencies -N/2 .. N/2 - 1 of a lattice of positive power-of-two size N."""
    if N < 1 or N & (N - 1):
        raise DimensionError(f"lattice size must be a positive power of two, got {N}")
    return np.arange(-N // 2, N // 2)


def symbol_from_function(fn, N: int, freq_dim: int = 1, name: str = "") -> Symbol:
    freqs = _frequencies(N)
    vals = np.array([fn(*map(float, xs)) for xs in itertools.product(freqs, repeat=freq_dim)],
                    dtype=complex)
    return Symbol(freq_dim, vals.reshape((freqs.size,) * freq_dim), name)


def symbol_identity(N: int, freq_dim: int = 1) -> Symbol:
    return Symbol(freq_dim, np.ones((_frequencies(N).size,) * freq_dim), "identity")


def symbol_sign(N: int) -> Symbol:
    """-i sign(xi) with the zero and unpaired Nyquist bins set to zero."""
    freqs = _frequencies(N)
    vals = -1j * np.sign(freqs).astype(complex)
    vals[0] = 0.0  # unpaired bin at -N/2
    return Symbol(1, vals, "sign")


def symbol_oscillating(N: int) -> Symbol:
    """|xi|^i = exp(i log |xi|), a bounded oscillating symbol (value 1 at xi = 0)."""
    freqs = _frequencies(N).astype(float)
    out = np.ones(N, dtype=complex)
    nz = freqs != 0
    out[nz] = np.exp(1j * np.log(np.abs(freqs[nz])))
    return Symbol(1, out, "oscillating(tau=1.0)")


def symbol_cone(N: int) -> Symbol:
    """Degree-0 homogeneous cone xi / sqrt(xi^2 + eta^2), 0 at the origin.

    Smooth away from the origin, so its lattice derivatives of order k decay
    like |(xi, eta)|^-k; the l1-normalized variant xi/(|xi|+|eta|) has kinks
    on the axes and fails the order-2 condition there.
    """
    freqs = _frequencies(N).astype(float)
    X, Y = np.meshgrid(freqs, freqs, indexing="ij")
    den = np.sqrt(X**2 + Y**2)
    out = np.zeros_like(X, dtype=complex)
    nz = den > 0
    out[nz] = X[nz] / den[nz]
    return Symbol(2, out, "cone")


def symbol_smooth_bump(N: int, width: float = 0.25) -> Symbol:
    """Rank-2 smooth compactly supported bump exp(-1/(1-r^2)) on r < 1, r = |xi|/(width N/2)."""
    freqs = _frequencies(N).astype(float)
    scale = width * (N / 2)
    r2 = sum(g**2 for g in np.meshgrid(freqs, freqs, indexing="ij")) / scale**2
    out = np.zeros_like(r2, dtype=complex)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return Symbol(2, out / np.abs(out).max(), "bump")


NAMED_SYMBOLS = {
    "identity": symbol_identity,
    "sign": symbol_sign,
    "riesz1d": symbol_sign,
    "cone": symbol_cone,
    "bump": symbol_smooth_bump,
}


# ---------------------------------------------------------------------------
# Multiplier application


def apply_linear_multiplier(m: Symbol, f: GridFunction) -> GridFunction:
    """Diagonal Fourier action: transform, multiply by the symbol, invert.

    Hermitian symbols return the exact real part; other symbols report the
    complex modulus cellwise.
    """
    if m.freq_dim != f.dim:
        raise DimensionError("symbol rank does not match function dimension")
    if m.N != 1 << f.level:
        raise DimensionError("symbol lattice does not match function resolution")
    out = np.fft.ifftn(np.fft.fftn(f.values) * m.fft_order())
    return GridFunction(f.dim, f.level, out.real if m.is_hermitian() else np.abs(out))


def hilbert_transform(f: GridFunction) -> GridFunction:
    """Periodic Hilbert transform via the -i sign(xi) multiplier (n = 1).

    Kills constants and the unpaired Nyquist mode; on the remaining modes
    applying it twice equals -(identity - mean).
    """
    if f.dim != 1:
        raise DimensionError("hilbert_transform is one-dimensional")
    return apply_linear_multiplier(symbol_sign(1 << f.level), f)


def apply_bilinear_multiplier(m: Symbol, f: GridFunction, g: GridFunction) -> GridFunction:
    """Bilinear multiplier on the 1d torus lattice.

    T(f,g)(x) = sum_{xi,eta} m(xi,eta) fhat(xi) ghat(eta) e^(2 pi i (xi+eta) x),
    with unit-normalized coefficients so the constant symbol gives f g: the
    diagonal x = y of the 2d inverse transform of m(xi,eta) fhat(xi) ghat(eta).
    """
    if m.freq_dim != 2:
        raise DimensionError("bilinear multiplier needs a rank-2 symbol")
    _, L = check_tuple([f, g], 1)
    if m.N != 1 << L:
        raise DimensionError("symbol lattice does not match function resolution")
    A = np.fft.ifftshift(m.values) * np.fft.fft(f.values)[:, None] * np.fft.fft(g.values)
    out = np.fft.ifft2(A).diagonal()
    return GridFunction(1, L, out.real if m.is_hermitian() else np.abs(out))


# ---------------------------------------------------------------------------
# Symbol class checkers


def _derivative(sym: Symbol, alpha: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Iterated unit-spacing central differences and the mask of lattice points whose
    stencils stayed inside the lattice: order r along an axis leaves indices r .. N-1-r."""
    vals = np.asarray(sym.values, dtype=complex)
    valid = np.ones(vals.shape, dtype=bool)
    for ax, order in enumerate(alpha):
        for _ in range(order):
            v = np.moveaxis(vals, ax, 0)
            out = np.zeros_like(v)  # the end points, outside the band, stay zero
            out[1:-1] = (v[2:] - v[:-2]) / 2.0
            vals = np.moveaxis(out, 0, ax)
        band = np.zeros(vals.shape[ax], dtype=bool)
        band[order:vals.shape[ax] - order] = True
        valid &= band.reshape([-1 if a == ax else 1 for a in range(vals.ndim)])
    if sum(alpha) > 0:
        valid &= ~np.all(_abs_frequencies(sym) <= sum(alpha), axis=0)
    return vals, valid


def _abs_frequencies(m: Symbol) -> np.ndarray:
    """|xi_a| on the lattice, one grid per frequency axis a, stacked along axis 0."""
    return np.abs(np.stack(np.meshgrid(*[m.frequencies().astype(float)] * m.freq_dim,
                                       indexing="ij")))


def _octaves(values: np.ndarray, radius: np.ndarray, radii, valid: np.ndarray,
             reduce) -> list[float]:
    """reduce(values) over the valid points of each annulus R < radius <= 2R, 0.0 on an
    empty one."""
    out = []
    for R in radii:
        ring = (radius > R) & (radius <= 2 * R) & valid
        out.append(float(reduce(values[ring])) if ring.any() else 0.0)
    return out


def _multi_indices(dim: int, max_order: int):
    return [a for a in itertools.product(range(max_order + 1), repeat=dim)
            if sum(a) <= max_order]


@dataclass
class MslReport:
    s: float
    l: int
    radii: list[int]
    terms: dict[tuple[int, ...], list[float]]
    member: bool

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "l": self.l,
            "radii": self.radii,
            "terms": {str(list(a)): v for a, v in self.terms.items()},
            "member": self.member,
        }


_GROWTH_CAP = 1.75  # per-octave growth above this flags an unbounded symbol


def _too_steep(octaves: list[float]) -> bool:
    """Whether the positive per-octave values, if two or more, grow from the first to
    the last by more than _GROWTH_CAP per octave on average."""
    pos = [v for v in octaves if v > 0]
    return len(pos) >= 2 and (pos[-1] / pos[0]) ** (1.0 / (len(pos) - 1)) > _GROWTH_CAP


def check_msl(m: Symbol, s: float, l: int) -> MslReport:
    """Ring-integrated derivative sums sup_R (R^(s|a|-n) int_{R<|x|<2R} |d^a m|^s)^(1/s).

    Derivatives use unit central differences with the origin excluded from
    their stencils.  The scanned dyadic radii run from 2 to max(2, N/8), so
    N >= 8.  Membership requires every term finite with per-octave growth at
    most 1.75 across them.
    """
    if not 1.0 < s <= 2.0:
        raise DomainError(f"s must lie in (1, 2], got {s}")
    if l < 0:
        raise DomainError("l must be nonnegative")
    d = m.freq_dim
    N = m.N
    radii = [1 << j for j in range(1, max(2, int(math.log2(N)) - 2))]
    if 2 * radii[-1] > N // 2:
        raise DomainError("largest radius exceeds the frequency lattice")
    radius = _abs_frequencies(m).max(0)  # sup-norm radius on the lattice
    terms: dict[tuple[int, ...], list[float]] = {}
    member = True
    for alpha in _multi_indices(d, l):
        deriv, valid = _derivative(m, alpha)
        # powered ring by ring: a value outside every scanned annulus may not overflow
        sums = _octaves(np.abs(deriv), radius, radii, valid, lambda v: np.sum(v**s))
        vals = [(float(R) ** (s * sum(alpha) - d) * t) ** (1.0 / s) for R, t in zip(radii, sums)]
        terms[alpha] = vals
        if _too_steep(vals) or not all(map(math.isfinite, vals)):
            member = False
    return MslReport(s, l, radii, terms, member)


@dataclass
class HormanderReport:
    s: int
    constants: dict[tuple[tuple[int, ...], tuple[int, ...]], float]
    member: bool

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "constants": {f"{list(a)}|{list(b)}": v for (a, b), v in self.constants.items()},
            "member": self.member,
        }


def check_hormander_bilinear(m: Symbol, s: int) -> HormanderReport:
    """Estimate sup (|xi|+|eta|)^(|a|+|b|) |d^a_xi d^b_eta m| for |a|+|b| <= s.

    Uses lattice central differences; the membership flag requires each
    constant to stay bounded across dyadic annuli (per-octave growth at
    most 1.75).
    """
    if m.freq_dim != 2:
        raise DimensionError("bilinear Hormander check needs a rank-2 symbol")
    if s < 0:
        raise DomainError("s must be nonnegative")
    weight = _abs_frequencies(m).sum(0)
    N = m.N
    radii = [1 << j for j in range(1, max(2, int(math.log2(N)) - 1))]
    constants: dict = {}
    member = True
    for a, b in _multi_indices(2, s):
        deriv, valid = _derivative(m, (a, b))
        w = weight ** (a + b) * np.abs(deriv)
        w = np.where(valid & (weight > 0), w, 0.0)
        constants[((a,), (b,))] = float(w.max())
        if _too_steep(_octaves(w, weight, radii, valid, np.max)):
            member = False
    return HormanderReport(s, constants, member)


# ---------------------------------------------------------------------------
# Kernels and the ring-decay condition


class KernelSample:
    """Translation-invariant kernel evaluated on lattice offsets, diagonal masked: one
    table axis of 2^level offsets per input, so the table fixes arity and level."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table)
        side = table.shape[0] if table.ndim else 0
        if table.shape != (side,) * table.ndim or side < 1 or side & (side - 1):
            raise DimensionError(f"kernel table must be square with a power-of-two side, "
                                 f"got shape {table.shape}")
        self.arity = table.ndim
        self.level = side.bit_length() - 1
        self.table = table


def kernel_from_symbol(m: Symbol) -> KernelSample:
    """Inverse-transform table K(x, y...) = mcheck(x - y_1, ..., x - y_m), one y per
    symbol axis, on the symbol's lattice.

    The table is normalized so that integrating K against cell values
    reproduces the multiplier operator exactly on the grid.
    """
    if m.freq_dim not in (1, 2):
        raise DomainError("kernel arity must be 1 or 2")
    table = np.fft.ifftn(m.fft_order()) * m.N**m.freq_dim
    if m.is_hermitian():
        table = table.real
    return KernelSample(table)


def hilbert_kernel(level: int) -> KernelSample:
    """Closed-form periodized Hilbert kernel cot(pi z) on lattice offsets."""
    N = 1 << level
    z = np.arange(N) / N
    z = np.where(z >= 0.5, z - 1.0, z)  # signed displacement in [-1/2, 1/2)
    table = np.zeros(N)
    nz = z != 0.0
    table[nz] = 1.0 / np.tan(np.pi * z[nz])
    return KernelSample(table)


@dataclass
class H2Report:
    """Measured ring norms of kernel differences and the fitted decay rate."""

    p0: float
    base: DyadicCube
    rings: list[int]
    b_values: list[float]
    delta_hat: float | None
    residual: float | None
    pairs: int
    degenerate: bool

    @property
    def delta0(self) -> float | None:
        if self.delta_hat is None:
            return None
        n = len(self.base.index)
        return self.delta_hat - n / self.p0

    def to_dict(self) -> dict:
        return {
            "p0": self.p0,
            "cube": {"level": self.base.level, "index": list(self.base.index)},
            "rings": self.rings,
            "b_values": self.b_values,
            "delta_hat": self.delta_hat,
            "delta0": self.delta0,
            "residual": self.residual,
            "pairs": self.pairs,
            "degenerate": self.degenerate,
        }


def _half_cube_cells(Q: DyadicCube, L: int) -> np.ndarray:
    """Cell indices of the concentric half cube of Q (1d)."""
    if L < Q.level + 2:
        raise DimensionError("need L >= level + 2 to resolve the half cube")
    width = 1 << (L - Q.level - 1)
    (i,) = Q.index
    start = _window_start(i, Q.level, L, width)
    return np.arange(start, start + width, dtype=np.int64)


def _fit_slope(xs, ys) -> tuple[float, float]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm, ym = xs.mean(), ys.mean()
    slope = float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())
    resid = ys - (ym + slope * (xs - xm))
    return slope, float(np.sqrt((resid**2).mean()))


_H2_MAX_PAIRS = 64  # (x, xbar) pairs per fit; larger half cubes are sampled


def _ring_rows(K: KernelSample, cells: np.ndarray, rings) -> np.ndarray:
    """K(x, y_1, ...) for x in cells and y_i in rings[i]: shape (cells, |rings[0]|, ...)."""
    N = 1 << K.level
    m = len(rings)
    return K.table[tuple(
        (cells.reshape((-1,) + (1,) * m) - y.reshape((-1,) + (1,) * (m - 1 - i))) % N
        for i, y in enumerate(rings)
    )]


def check_h2(K: KernelSample, p0: float, Q: DyadicCube, jmax: int,
             seed: int = 0) -> H2Report:
    """Measure B_j = sup_pairs (int_{S_j(Q)} |K(x,.) - K(xbar,.)|^p0' dy)^(1/p0')
    and fit the decay slope of log2 B_j against the ring index.

    p0 = 1 uses the ring supremum in place of the integral.  All (x, xbar)
    pairs from the half cube are used while the half cube holds at most 64
    cells; beyond that a seeded sample of 64 pairs is drawn.  For bilinear
    kernels the ring pairs, S_0 = Q included, are grouped by max(j1, j2).

    Each ring (pair) gathers the kernel rows of all half-cube cells once.
    For a real kernel with every pair used, the p0 = 1 supremum is the
    largest column max - min of those rows; otherwise the pairs are reduced
    one first cell at a time, and the root is taken once, on the largest sum.
    """
    if not math.isfinite(p0) or p0 < 1:
        raise DomainError(f"p0 must be finite and >= 1, got {p0}")
    if jmax < 1:
        raise DomainError("need at least one ring")
    if jmax > Q.level:
        raise DomainError(
            f"ring {jmax} of a level-{Q.level} cube is empty on the torus"
        )
    L = K.level
    cells = _half_cube_cells(Q, L)
    ia, ib = np.triu_indices(cells.size, 1)
    sampled = cells.size > _H2_MAX_PAIRS
    if sampled:
        rng = np.random.default_rng(seed)
        picks = rng.choice(ia.size, size=_H2_MAX_PAIRS, replace=False)
        ia, ib = ia[picks], ib[picks]
    vol = 2.0 ** (-L * K.arity)
    p0c = math.inf if p0 == 1.0 else p0 / (p0 - 1.0)
    # cells of S_0 = Q and of the rings S_j = 2^j Q minus 2^(j-1) Q, ascending;
    # each dilate is built once and serves as one ring's outer and the next one's inner
    hulls = [dilate(Q, j, L) for j in range(jmax + 1)]
    rings = [np.flatnonzero(hulls[0])] + [np.flatnonzero(hulls[j] & ~hulls[j - 1])
                                          for j in range(1, jmax + 1)]

    def ring_norm(rows: np.ndarray) -> float:
        if math.isinf(p0c) and not sampled and np.isrealobj(rows):
            return float((rows.max(0) - rows.min(0)).max())
        top = scaled = 0.0
        for a in np.unique(ia):
            d = np.abs(rows[a] - rows[ib[ia == a]]).reshape(-1, rows[a].size)
            big = float(d.max(initial=0.0))
            if math.isinf(p0c):
                top = max(top, big)
            elif big > 0 and abs(p0c * math.log2(big)) > 900:
                # |d|^p0' would leave the float range: divide by the largest
                # difference before the power, multiply it back after the root
                sums = ((d / big) ** p0c).sum(1)
                scaled = max(scaled, big * (float(sums.max()) * vol) ** (1.0 / p0c))
            else:
                top = max(top, float((d**p0c).sum(1).max()))
        return top if math.isinf(p0c) else max(scaled, (top * vol) ** (1.0 / p0c))

    # ring index tuples with a positive entry, grouped by their largest one
    b_values = [0.0] * jmax
    for jj in itertools.product(range(jmax + 1), repeat=K.arity):
        if max(jj) > 0:
            rows = _ring_rows(K, cells, [rings[j] for j in jj])
            b_values[max(jj) - 1] = max(b_values[max(jj) - 1], ring_norm(rows))

    js = list(range(1, jmax + 1))
    fit_js = [j for j, b in zip(js, b_values) if b > 0 and j >= 2]
    fit_bs = [b for j, b in zip(js, b_values) if b > 0 and j >= 2]
    if len(fit_js) < 3:
        return H2Report(p0, Q, js, b_values, None, None, int(ia.size), True)
    slope, resid = _fit_slope(fit_js, np.log2(fit_bs))
    return H2Report(p0, Q, js, b_values, -slope, resid, int(ia.size), False)
