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
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

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
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    def ancestor(self, k: int) -> "DyadicCube":
        """The unique cube of level (level - k) containing this cube."""
        if k < 0:
            raise DomainError("ancestor order must be nonnegative")
        if k > self.level:
            raise DomainError(f"cube of level {self.level} has no ancestor {k} levels up")
        return DyadicCube(self.level - k, tuple(i >> k for i in self.index))

    def children(self) -> Iterator["DyadicCube"]:
        return self.descendants(1)

    def descendants(self, k: int) -> Iterator["DyadicCube"]:
        """All cubes exactly k levels below this one, in index order."""
        span = 1 << k
        for offs in itertools.product(range(span), repeat=self.dim):
            index = tuple(i * span + a for i, a in zip(self.index, offs))
            yield DyadicCube(self.level + k, index)

    def contains(self, other: "DyadicCube") -> bool:
        if other.dim != self.dim or other.level < self.level:
            return False
        k = other.level - self.level
        return tuple(i >> k for i in other.index) == self.index

    def cell_slices(self, L: int) -> tuple[slice, ...]:
        """Slices selecting this cube's cells in a level-L value array."""
        if L < self.level:
            raise DimensionError(f"resolution {L} too coarse for level-{self.level} cube")
        s = 1 << (L - self.level)
        return tuple(slice(i * s, (i + 1) * s) for i in self.index)

    def cell_count(self, L: int) -> int:
        return (1 << (L - self.level)) ** self.dim

    def flat_cells(self, L: int) -> np.ndarray:
        """Flat (row-major) indices of this cube's cells at resolution L."""
        s = 1 << (L - self.level)
        axes = (np.arange(i * s, (i + 1) * s, dtype=np.int64) for i in self.index)
        return functools.reduce(lambda rows, cols: np.add.outer(rows << L, cols).ravel(), axes)

    def center(self) -> tuple[float, ...]:
        return tuple((i + 0.5) * self.side for i in self.index)


def root_cube(n: int) -> DyadicCube:
    _check_dim(n)
    return DyadicCube(0, (0,) * n)


def cubes_at_level(n: int, j: int) -> Iterator[DyadicCube]:
    _check_dim(n)
    for index in itertools.product(range(1 << j), repeat=n):
        yield DyadicCube(j, index)


def all_cubes(n: int, maxlevel: int) -> Iterator[DyadicCube]:
    for j in range(maxlevel + 1):
        yield from cubes_at_level(n, j)


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
        vals[cube.cell_slices(level)] = 1.0
        return cls(dim, level, vals)

    def on(self, cube: DyadicCube) -> np.ndarray:
        """The block of cell values covered by ``cube``."""
        return self.values[cube.cell_slices(self.level)]

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def _wrap(self, arr) -> "GridFunction":
        return GridFunction(self.dim, self.level, arr)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            _match(self, other)
            return self._wrap(self.values + other.values)
        return self._wrap(self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            _match(self, other)
            return self._wrap(self.values - other.values)
        return self._wrap(self.values - other)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _match(self, other)
            return self._wrap(self.values * other.values)
        return self._wrap(self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap(-self.values)

    def __abs__(self):
        return self._wrap(np.abs(self.values))

    def __pow__(self, e):
        return self._wrap(self.values**e)

    def __repr__(self):
        return f"GridFunction(n={self.dim}, L={self.level})"


def _match(f: GridFunction, g: GridFunction) -> None:
    if f.dim != g.dim or f.level != g.level:
        raise DimensionError(
            f"grid mismatch: (n={f.dim}, L={f.level}) vs (n={g.dim}, L={g.level})"
        )


def block_reduce(values: np.ndarray, n: int, L: int, j: int, op: str = "mean") -> np.ndarray:
    """Reduce level-L cell values to one number per level-j cube (op: mean/sum/min/max/any)."""
    if j > L:
        raise DimensionError(f"cannot reduce to level {j} from resolution {L}")
    v = values.reshape((1 << j, 1 << (L - j)) * n)
    return getattr(v, op)(axis=tuple(range(1, 2 * n, 2)))


def upsample(arr: np.ndarray, s: int) -> np.ndarray:
    """Repeat every entry s times along each axis: level-j values onto a level finer by log2(s)."""
    if s == 1:
        return arr
    grown = np.broadcast_to(arr.reshape([d for m in arr.shape for d in (m, 1)]),
                            [d for m in arr.shape for d in (m, s)])
    return grown.reshape([m * s for m in arr.shape])


_COMBINE = {"sum": np.add, "any": np.logical_or, "min": np.minimum, "max": np.maximum}


def fold_up(terms: dict[int, np.ndarray], n: int, hi: int, lo: int,
            op: str) -> dict[int, np.ndarray]:
    """Fine-to-coarse fold: S_j = block_reduce(S_(j+1), op) combined by op with terms[j].

    The reduction comes first.  Returns {j: S_j} for lo <= j <= hi in
    ascending order, leaving out a level with neither a term nor a finer S.
    """
    out: dict[int, np.ndarray] = {}
    acc = None
    for j in range(hi, lo - 1, -1):
        if acc is not None:
            acc = block_reduce(acc, n, j + 1, j, op)
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


def cube_levels(items, n: int) -> dict[int, np.ndarray]:
    """(cube, value) pairs as one array per populated level, in level order, indexed by
    Q.index: zero for cubes not listed, the last value for a repeated cube."""
    out: dict[int, np.ndarray] = {}
    for Q, a in items:
        if Q.dim != n:
            raise DimensionError(f"cube {Q} is not {n}-dimensional")
        if Q.level not in out:
            out[Q.level] = np.zeros((1 << Q.level,) * n)
        out[Q.level][Q.index] = a
    return dict(sorted(out.items()))


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


def mean_pyramid(values: np.ndarray, n: int, L: int) -> list[np.ndarray]:
    """Per-cube means at every level 0..L, computed bottom-up.

    Each level halves the one below it with slice adds, last axis first, and
    carries the same bits as ``block_reduce(..., "mean")``: numpy sums a
    2 x 2 block of a larger array as (a00 + a01) + (a10 + a11).  A lone
    block is summed in storage order instead, so the root step stays on
    ``block_reduce``.
    """
    out: list[np.ndarray] = [None] * (L + 1)  # type: ignore[list-item]
    out[L] = np.asarray(values, dtype=float).reshape((1 << L,) * n)
    for j in range(L - 1, 0, -1):
        v = out[j + 1].reshape((1 << j, 2) * n)
        for ax in range(2 * n - 1, 0, -2):
            head = (slice(None),) * ax
            v = v[head + (0,)] + v[head + (1,)]
        v /= 1 << n
        out[j] = v
    if L:
        out[0] = block_reduce(out[1], n, 1, 0, "mean")
    return out


def average(f: GridFunction, Q: DyadicCube, p0: float) -> float:
    """The local p0-average of f over Q, ((1/|Q|) * int_Q |f|^p0)^(1/p0)."""
    if not p0 >= 1:
        raise DomainError(f"p0 must be >= 1, got {p0}")
    if Q.dim != f.dim:
        raise DimensionError("cube dimension does not match function dimension")
    if Q.level > f.level:
        raise DimensionError(
            f"cube level {Q.level} exceeds function resolution {f.level}"
        )
    block = np.abs(f.on(Q))
    if p0 == 1:
        return float(block.mean())
    return float((block**p0).mean() ** (1.0 / p0))


def dilate(Q: DyadicCube, k: int, L: int) -> np.ndarray:
    """Boolean cell mask of the concentric dilate 2^k Q at resolution L.

    The dilate wraps periodically and saturates to the whole torus once its
    side reaches 1.  A cell belongs to the dilate when its center lies in
    the half-open cube [c - s/2, c + s/2) per axis; whenever the dilate is
    aligned with cell boundaries this is exactly the covered cell set, and
    it stays well defined for dilates of bottom-level cubes whose boundary
    cuts through cells.
    """
    if k < 0:
        raise DomainError("dilation order must be nonnegative")
    n = Q.dim
    N = 1 << L
    shape = (N,) * n
    if L < Q.level:
        raise DimensionError(f"resolution {L} too coarse for a level-{Q.level} cube")
    if k == 0:
        mask = np.zeros(shape, dtype=bool)
        mask[Q.cell_slices(L)] = True
        return mask
    if k >= Q.level:
        return np.ones(shape, dtype=bool)
    half = 2.0 ** (k - Q.level) / 2.0
    centers = (np.arange(N) + 0.5) / N
    axes = []
    for i, c in zip(Q.index, Q.center()):
        rel = (centers - c + 0.5) % 1.0 - 0.5
        axes.append((-half <= rel) & (rel < half))
    return functools.reduce(np.logical_and.outer, axes)


def dilate_products(fs, j: int, p0: float) -> np.ndarray:
    """prod_i <f_i>_{2^l Q, p0} for every level-j cube Q and l = 0..j, as one array.

    Entry ``[l][Q.index]`` is the product over the cells of ``dilate(Q, l, L)``.
    Those cells form a cyclic window of the base level b = min(j + 1, L):
    s * 2^l cells per axis, s = 2^(b - j), starting at s*i + (s - s*2^l) // 2
    for a cube with index i along that axis.  Window means of every
    power-of-two width come from repeated pairwise averaging of cyclic
    shifts, so each term is a mean of nonnegative numbers and nothing
    cancels near weight singularities (prefix-sum differences would).
    """
    n, L = fs[0].dim, fs[0].level
    if j > L:
        raise DimensionError(f"resolution {L} too coarse for level-{j} cubes")
    b = min(j + 1, L)
    s = 1 << (b - j)
    starts = s * np.arange(1 << j)
    inv = 1.0 / p0
    out = np.ones((j + 1,) + (1 << j,) * n)
    for f in fs:
        t = block_reduce(np.abs(f.values) ** p0, n, L, b)
        for e in range(b + 1):
            if e:
                for ax in range(n):
                    t = 0.5 * (t + np.roll(t, -(1 << (e - 1)), axis=ax))
            ell = e - (b - j)
            if ell >= 0:
                idx = (starts + (s - (1 << e)) // 2) % (1 << b)
                out[ell] = out[ell] * t[np.ix_(*(idx,) * n)] ** inv
    return out


@dataclass(frozen=True)
class Annulus:
    """Ring S_j(Q) = 2^j Q \\ 2^(j-1) Q around a base cube (S_0(Q) = Q)."""

    base: DyadicCube
    ring: int

    def __post_init__(self):
        if self.ring < 0:
            raise DomainError("ring index must be nonnegative")

    def is_empty(self) -> bool:
        # the inner dilate already covers the torus
        return self.ring >= 1 and (self.ring - 1) >= self.base.level

    def mask(self, L: int) -> np.ndarray:
        if self.ring == 0:
            return dilate(self.base, 0, L)
        outer = dilate(self.base, self.ring, L)
        inner = dilate(self.base, self.ring - 1, L)
        return outer & ~inner


def rearrangement(f: GridFunction, t: float) -> float:
    """Decreasing rearrangement f*(t) = inf{a > 0 : |{|f| > a}| < t}."""
    if t <= 0:
        raise DomainError(f"rearrangement needs t > 0, got {t}")
    v = f.cell_volume
    k = math.ceil(t / v - 1e-12)
    if k > f.size:
        return 0.0
    a = np.abs(f.values).ravel()
    # k-th largest value
    return float(np.partition(a, a.size - k)[a.size - k])


def weighted_norm(f: GridFunction, p: float, w: GridFunction | None = None) -> float:
    """Discrete L^p(w) (quasi)norm; w = None means Lebesgue measure."""
    if p <= 0:
        raise DomainError(f"norm exponent must be positive, got {p}")
    vals = np.abs(f.values) ** p
    if w is not None:
        _match(f, w)
        if np.any(w.values <= 0):
            raise DomainError("weight must be strictly positive cellwise")
        vals = vals * w.values
    return float((vals.sum() * f.cell_volume) ** (1.0 / p))


def weak_norm(f: GridFunction, q: float) -> float:
    """Weak L^q quasinorm sup_t t^(1/q) f*(t), exact on the discrete measure."""
    if q <= 0:
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
