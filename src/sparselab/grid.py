"""Dyadic geometry on the periodic unit cube [0,1)^n and discretized functions.

Everything in this package works on a single canonical dyadic grid.  A
GridFunction is piecewise constant on the 2^(n*L) lattice cells of a fixed
resolution level L, so integrals over dyadic cubes are exact finite sums and
the inequalities checked elsewhere hold up to floating rounding only.
Dilates of cubes wrap around periodically and saturate to the full torus
once their side length reaches 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_DIMS = (1, 2)
MAX_LEVEL = {1: 12, 2: 8}


class DomainError(ValueError):
    """A parameter lies outside the admissible range of an operation."""


class DimensionError(ValueError):
    """Mismatched dimensions or resolutions."""


class FormatError(ValueError):
    """Malformed input file; the message carries line/column information."""


def _check_dim(n: int) -> None:
    if n not in SUPPORTED_DIMS:
        raise DimensionError(f"dimension {n} not supported (use n in {SUPPORTED_DIMS})")


def check_resolution(n: int, L: int) -> None:
    """Reject a dimension outside SUPPORTED_DIMS or a resolution level outside 0..MAX_LEVEL[n]."""
    _check_dim(n)
    if not 0 <= L <= MAX_LEVEL[n]:
        raise DomainError(f"resolution level {L} out of range 0..{MAX_LEVEL[n]} for n={n}")


@dataclass(frozen=True)
class Inequality:
    """A measured left side against its bound; ``holds`` is ``at_most`` at the scale of rhs."""

    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        """lhs / rhs: 0 when both vanish, inf when only rhs does."""
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0 else math.inf

    @property
    def holds(self) -> bool:
        return at_most(self.lhs, self.rhs, self.rhs)

    @property
    def degenerate(self) -> bool:
        """Both sides vanish, so there is nothing to compare; rhs == 0 < lhs is a violation."""
        return self.lhs == 0.0 and self.rhs == 0.0


def at_most(lhs, rhs, scale) -> bool:
    """lhs <= rhs at every entry up to 1e-12 * scale, the exact checks' one tolerance; scale
    is the magnitude of the quantities compared, so scaling them by 2^s keeps the verdict."""
    return bool(np.all(lhs <= rhs + 1e-12 * scale))


def check_p0(p0: float) -> None:
    """The one p0 rule of the averages: p0 >= 1 (NaN fails it)."""
    if not p0 >= 1:
        raise DomainError(f"p0 must be >= 1, got {p0}")


def top_level(maxlevel: int | None, L: int) -> int:
    """The deepest level a supremum scans: maxlevel capped at L (None means L)."""
    if maxlevel is not None and maxlevel < 0:
        raise DomainError(f"maxlevel must be nonnegative, got {maxlevel}")
    return L if maxlevel is None else min(maxlevel, L)


@dataclass(frozen=True, order=True)
class DyadicCube:
    """The cube 2^(-level) * (index + [0,1)^n) of the canonical dyadic grid."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"cube level must be nonnegative, got {self.level}")
        _check_dim(len(self.index))
        top = 1 << self.level
        for i in self.index:
            if not 0 <= i < top:
                raise DomainError(f"index {self.index} out of range at level {self.level}")

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    def cell_slices(self, L: int) -> tuple[slice, ...]:
        """Slices selecting this cube's cells in a level-L value array."""
        if L < self.level:
            raise DimensionError(f"resolution {L} too coarse for level-{self.level} cube")
        s = 1 << (L - self.level)
        return tuple(slice(i * s, (i + 1) * s) for i in self.index)


def root_cube(n: int) -> DyadicCube:
    _check_dim(n)
    return DyadicCube(0, (0,) * n)


def _cells_of(cube: DyadicCube, n: int, L: int) -> tuple[slice, ...]:
    if cube.dim != n:
        raise DimensionError(f"cube {cube} is not {n}-dimensional")
    return cube.cell_slices(L)


class GridFunction:
    """Real function that is constant on each lattice cell of resolution 2^-L.

    Values are stored row-major; the array is frozen after construction so
    instances can be shared freely across threads.
    """

    __slots__ = ("dim", "level", "values")

    def __init__(self, dim: int, level: int, values):
        check_resolution(dim, level)
        arr = np.asarray(values, dtype=float)
        shape = (1 << level,) * dim
        if arr.size != (1 << level) ** dim:
            raise DimensionError(
                f"expected {(1 << level) ** dim} cell values for n={dim}, L={level}, got {arr.size}"
            )
        arr = arr.reshape(shape).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.dim * self.level)

    @classmethod
    def constant(cls, dim: int, level: int, c: float) -> "GridFunction":
        return cls(dim, level, np.full((1 << level,) * dim, float(c)))

    @classmethod
    def indicator(cls, dim: int, level: int, cube: DyadicCube) -> "GridFunction":
        vals = np.zeros((1 << level,) * dim)
        vals[_cells_of(cube, dim, level)] = 1.0
        return cls(dim, level, vals)

    def on(self, cube: DyadicCube) -> np.ndarray:
        """The block of cell values covered by ``cube``."""
        return self.values[_cells_of(cube, self.dim, self.level)]

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _match(self, other)
            other = other.values
        return GridFunction(self.dim, self.level, self.values * other)


def _match(f: GridFunction, g: GridFunction) -> None:
    if f.dim != g.dim or f.level != g.level:
        raise DimensionError(
            f"grid mismatch: (n={f.dim}, L={f.level}) vs (n={g.dim}, L={g.level})"
        )


def check_tuple(fs, dim: int | None = None) -> tuple[int, int]:
    """The dimension n and level L that every input of a nonempty tuple shares, and which
    equal ``dim`` when it is given."""
    if not fs:
        raise DomainError("need at least one input function")
    n, L = fs[0].dim, fs[0].level
    for f in fs:
        if f.dim != n or f.level != L:
            raise DimensionError("input tuple mixes grids")
    if dim is not None and dim != n:
        raise DimensionError(f"dimension {dim} does not match the functions' dimension {n}")
    return n, L


_COMBINE = {"sum": np.add, "any": np.logical_or, "min": np.minimum, "max": np.maximum}


def _level(arr: np.ndarray) -> int:
    """The level L of a (2^L,)*n level array."""
    return arr.shape[0].bit_length() - 1


def block_reduce(values: np.ndarray, j: int, op: str = "mean") -> np.ndarray:
    """Reduce a level array to one number per level-j cube (op: mean/sum/min/max/any).

    One level below the root halves each axis with the fold's ufuncs, last axis
    first, which is numpy's reduce bit for bit and dtype for dtype (see README);
    the root and deeper reductions are numpy's.
    """
    n, L = values.ndim, _level(values)
    if j > L:
        raise DimensionError(f"cannot reduce to level {j} from resolution {L}")
    v = values.reshape((1 << j, 1 << (L - j)) * n)
    if L - j != 1 or j == 0:
        return getattr(v, op)(axis=tuple(range(1, 2 * n, 2)))
    summing = op in ("sum", "mean")
    if summing and v.dtype == bool:
        v = v.astype(np.int64)
    combine = _COMBINE["sum" if summing else op]
    for ax in range(2 * n - 1, 0, -2):
        head = (slice(None),) * ax
        v = combine(v[head + (0,)], v[head + (1,)])
    if summing:
        v += 0  # numpy's sum starts from +0.0, so a sum of -0.0 is +0.0
    return v / (1 << n) if op == "mean" else v


def upsample(arr: np.ndarray, s: int) -> np.ndarray:
    """Repeat every entry s times along each axis: level-j values onto a level finer by log2(s)."""
    if s == 1:
        return arr
    grown = np.broadcast_to(arr.reshape([d for m in arr.shape for d in (m, 1)]),
                            [d for m in arr.shape for d in (m, s)])
    return grown.reshape([m * s for m in arr.shape])


def fold_up(terms: dict[int, np.ndarray], lo: int, op: str) -> dict[int, np.ndarray]:
    """Fine-to-coarse fold: S_j = block_reduce(S_(j+1), op) combined by op with terms[j].

    The reduction comes first.  Returns {j: S_j} for lo <= j <= max(terms) in
    ascending order, leaving out a level with neither a term nor a finer S.
    """
    out: dict[int, np.ndarray] = {}
    acc = None
    for j in range(max(terms, default=-1), lo - 1, -1):
        if acc is not None:
            acc = block_reduce(acc, j, op)
        if j in terms:
            acc = terms[j] if acc is None else _COMBINE[op](acc, terms[j])
        if acc is not None:
            out[j] = acc
    return dict(reversed(out.items()))


def fold_down(levels, n: int, L: int, op=np.add) -> np.ndarray:
    """Coarse-to-fine fold onto the cells: from a zero root, out = op(upsample(out), arr)
    for each (j, arr) in ascending levels, then upsampled to level L."""
    out, top = np.zeros((1,) * n), 0
    for j, arr in levels:
        out = op(upsample(out, 1 << (j - top)), arr)
        top = j
    return upsample(out, 1 << (L - top))


def maximal(flags: dict[int, np.ndarray], covered: np.ndarray) -> dict[int, np.ndarray]:
    """The flagged cubes of ``flags`` (ascending levels) under no flagged cube and outside
    ``covered``, a cube mask on a level no finer than the first: {j: mask} per level kept."""
    out: dict[int, np.ndarray] = {}
    for j, flag in flags.items():
        covered = upsample(covered, (1 << j) // covered.shape[0])
        stop = flag & ~covered
        if stop.any():
            out[j] = stop
            covered = covered | stop
    return out


def mask_ids(masks: dict[int, np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Level and index (one row) of the flagged cubes, (level, row-major) order."""
    lev = np.repeat(np.array(list(masks), dtype=np.int64),
                    [int(np.count_nonzero(m)) for m in masks.values()])
    idx = np.concatenate([np.zeros((0, n), dtype=np.int64)]
                         + [np.argwhere(m) for m in masks.values()])
    return lev, idx


def mask_cubes(masks: dict[int, np.ndarray], n: int) -> tuple[DyadicCube, ...]:
    """The flagged cubes of level masks, in the order of ``mask_ids``."""
    lev, idx = mask_ids(masks, n)
    return tuple(DyadicCube(j, tuple(i)) for j, i in zip(lev.tolist(), idx.tolist()))


def argmax_cube(levels) -> tuple[float, DyadicCube]:
    """Largest entry over (level, array) pairs and the cube attaining it.

    Ties go to the first maximum in the caller's order of levels, row-major
    within a level.
    """
    tops = []
    for j, arr in levels:
        idx = np.unravel_index(int(np.argmax(arr)), arr.shape)
        tops.append((float(arr[idx]), j, idx))
    value, j, idx = max(tops, key=lambda t: t[0])
    return value, DyadicCube(j, tuple(int(i) for i in idx))


def mean_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """Per-cube means of a level-L array at every level 0..L, bottom-up by ``block_reduce``."""
    cells = np.asarray(values, dtype=float)
    return list(fold_up({_level(cells): cells}, 0, "mean").values())


def average(f: GridFunction, Q: DyadicCube, p0: float) -> float:
    """The local p0-average of f over Q, ((1/|Q|) * int_Q |f|^p0)^(1/p0)."""
    check_p0(p0)
    return float((np.abs(f.on(Q)) ** p0).mean() ** (1.0 / p0))


def _window_start(i, j: int, L: int, width: int):
    """First level-L cell, per axis, of the width-cell window centred on the level-j
    cube with index i.  Floor division keeps, for a bottom-level cube, the cells
    whose centres lie in the window."""
    s = 1 << (L - j)
    return i * s + (s - width) // 2


def dilate(Q: DyadicCube, k: int, L: int) -> np.ndarray:
    """Boolean cell mask of the concentric dilate 2^k Q at resolution L.

    The dilate is a cyclic window of s * 2^k cells per axis, s = 2^(L - Q.level),
    centred on Q: it wraps periodically and saturates to the whole torus once
    its side reaches 1.  A cell belongs to it when the cell's centre does, so
    the mask stays well defined for dilates of bottom-level cubes whose
    boundary cuts through cells.
    """
    if k < 0:
        raise DomainError("dilation order must be nonnegative")
    if L < Q.level:
        raise DimensionError(f"resolution {L} too coarse for a level-{Q.level} cube")
    N = 1 << L
    width = (1 << (L - Q.level)) << k
    cells = np.arange(N)
    axes = [(cells - _window_start(i, Q.level, L, width)) % N < width for i in Q.index]
    return functools.reduce(np.logical_and.outer, axes)


def dilate_products(fs, levels, p0: float) -> dict[int, np.ndarray]:
    """prod_i <f_i>_{2^l Q, p0} for every cube Q of each requested level j and l = 0..j.

    Returns {j: array}, with entry ``[j][l][Q.index]`` the product over the
    cells of ``dilate(Q, l, L)``: a cyclic window of 2^w cells per axis,
    w = L - j + l.  One chain per input serves every level: T_0 = |f|^p0 and
    T_w averages T_(w-1) with its cyclic shift by 2^(w-1) along each axis, so
    T_w at a cell is the mean of the window starting there, and each level
    gathers its windows at the starts of ``_window_start``.  Every term is a
    mean of nonnegative numbers, so nothing cancels near weight singularities
    (prefix-sum differences would), and a level's values do not depend on
    which other levels were requested.
    """
    check_p0(p0)
    n, L = check_tuple(fs)
    levels = sorted(set(levels))
    if levels and levels[-1] > L:
        raise DimensionError(f"resolution {L} too coarse for level-{levels[-1]} cubes")
    inv = 1.0 / p0
    out = {j: np.ones((j + 1,) + (1 << j,) * n) for j in levels}
    for f in fs:
        t = np.abs(f.values) ** p0
        for w in range(L + 1):
            if w:
                for ax in range(n):
                    t = 0.5 * (t + np.roll(t, -(1 << (w - 1)), axis=ax))
            for j in levels:
                ell = w - (L - j)
                if ell >= 0:
                    idx = _window_start(np.arange(1 << j), j, L, 1 << w) % (1 << L)
                    out[j][ell] = out[j][ell] * t[np.ix_(*(idx,) * n)] ** inv
    return out


def _rank(lam: float, N: int) -> int:
    """k = ceil(lam N), at least 1: the rearrangement at lam |Q| is the k-th largest cell."""
    return max(1, math.ceil(lam * N - 1e-12))


def rearrangement(f: GridFunction, t: float) -> float:
    """Decreasing rearrangement f*(t) = inf{a > 0 : |{|f| > a}| < t}."""
    if not t > 0:
        raise DomainError(f"rearrangement needs t > 0, got {t}")
    if t / f.cell_volume - 1e-12 > f.size:  # k > size, tested first: ceil overflows at t = inf
        return 0.0
    k = _rank(t, f.size)
    a = np.abs(f.values).ravel()
    # k-th largest value
    return float(np.partition(a, a.size - k)[a.size - k])


def weighted_norm(f: GridFunction, p: float, w: GridFunction | None = None) -> float:
    """Discrete L^p(w) (quasi)norm; w = None means Lebesgue measure, p = inf the sup norm."""
    if not p > 0:
        raise DomainError(f"norm exponent must be positive, got {p}")
    if w is not None:
        _match(f, w)
        if np.any(w.values <= 0):
            raise DomainError("weight must be strictly positive cellwise")
    if math.isinf(p):
        return float(np.abs(f.values).max())
    vals = np.abs(f.values) ** p
    if w is not None:
        vals = vals * w.values
    return float((vals.sum() * f.cell_volume) ** (1.0 / p))


def weak_norm(f: GridFunction, q: float) -> float:
    """Weak L^q quasinorm sup_t t^(1/q) f*(t), exact on the discrete measure."""
    if not q > 0:
        raise DomainError(f"weak norm exponent must be positive, got {q}")
    a = np.sort(np.abs(f.values), axis=None)[::-1]
    t = np.arange(1, a.size + 1) * f.cell_volume
    return float(np.max(t ** (1.0 / q) * a))


# ---------------------------------------------------------------------------
# GridFunction text format: line 1 "GFN1 <n> <L>", then cell values row-major.


def parse_gfn(text: str) -> GridFunction:
    lines = text.splitlines()
    if not lines:
        raise FormatError("line 1: empty file, expected 'GFN1 <n> <L>' header")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "GFN1":
        raise FormatError("line 1: expected header 'GFN1 <n> <L>'")
    try:
        n, L = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError("line 1: dimension and level must be integers") from None
    _check_dim(n)
    if not 0 <= L <= MAX_LEVEL[n]:
        raise FormatError(f"line 1: level {L} out of range for n={n}")
    expected = (1 << L) ** n
    # the header line holds exactly three tokens, so the rest are the body's
    tokens = text.split()[3:]
    if len(tokens) == expected:
        try:
            arr = np.array(tokens, dtype=float)
        except ValueError:
            arr = None
        if arr is not None and np.isfinite(arr).all():
            return GridFunction(n, L, arr)
    # an anomaly: scan line by line for the message that names it
    values: list[float] = []
    for ln, line in enumerate(lines[1:], start=2):
        for col, tok in enumerate(line.split(), start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise FormatError(f"line {ln}, field {col}: not a number: {tok!r}") from None
            if not math.isfinite(values[-1]):
                raise FormatError(f"line {ln}, field {col}: non-finite value {tok!r}")
            if len(values) > expected:
                raise FormatError(
                    f"line {ln}, field {col}: expected {expected} values, found more"
                )
    if len(values) != expected:
        raise FormatError(
            f"line {len(lines)}: expected {expected} values, found {len(values)}"
        )
    return GridFunction(n, L, values)


def read_text(path) -> str:
    """Text of an ASCII input file; another byte is a FormatError naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise FormatError(f"{path}: line {line}: non-ASCII byte "
                          f"{data[err.start]:#04x}") from None


def read_gfn(path) -> GridFunction:
    return parse_gfn(read_text(path))


def format_gfn(f: GridFunction) -> str:
    rows = f.values.reshape(-1, f.values.shape[-1])
    body = "\n".join(" ".join(repr(float(x)) for x in row) for row in rows)
    return f"GFN1 {f.dim} {f.level}\n{body}\n"


def write_gfn(path, f: GridFunction) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_gfn(f))
