"""Carleson sequences, sparse families, multilinear sparse operators.

The centrepiece is the constructive domination pipeline: a complexity-k
sparse operator (coefficients alpha_Q with dyadic-ancestor averages) is
sliced into pure-scale pieces, each piece runs a budget-driven selection
walk that emits a sparse family, and the output is compared cellwise
against the complexity-0 operators of the selected families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    GridFunction,
    Inequality,
    _match,
    argmax_cube,
    at_most,
    block_reduce,
    check_tuple,
    cube_levels,
    dilate_products,
    fold_down,
    fold_up,
    mask_cubes,
    mask_ids,
    maximal,
    mean_pyramid,
    top_level,
    upsample,
    weak_norm,
)


class SparsityError(RuntimeError):
    """A cube whose disjoint witness would fall below half its measure."""

    def __init__(self, cube: DyadicCube, deficit: int = 0):
        super().__init__(f"witness smaller than half the cube at {cube} (deficit {deficit} cells)")
        self.cube = cube
        self.deficit = deficit


# ---------------------------------------------------------------------------
# Carleson sequences


class CarlesonSequence:
    """Nonnegative coefficients alpha_Q on dyadic cubes below a root cube.

    ``levels[j][Q.index]`` is alpha_Q: one (2^j,)*n array per populated
    level, in level order, zero off the support.
    """

    def __init__(self, root: DyadicCube, levels: dict[int, np.ndarray]):
        self.root = root
        self.levels: dict[int, np.ndarray] = {}
        for j, arr in sorted(levels.items()):
            arr = np.array(arr, dtype=float)
            outside = arr != 0
            if j >= root.level:
                outside[root.cell_slices(j)] = False
            for bad, what in ((~np.isfinite(arr), "non-finite coefficient"),
                              (arr < 0, "negative coefficient"),
                              (outside, f"coefficient outside the root {root}:")):
                if bad.any():
                    Q = argmax_cube([(j, bad)])[1]
                    raise DomainError(f"{what} {arr[Q.index]} at {Q}")
            if arr.any():
                arr.flags.writeable = False
                self.levels[j] = arr

    @classmethod
    def from_cubes(cls, root: DyadicCube, coeffs) -> "CarlesonSequence":
        """The sequence with the given (cube, coefficient) pairs or cube-keyed mapping."""
        return cls(root, cube_levels(dict(coeffs).items(), root.dim))

    @property
    def dim(self) -> int:
        return self.root.dim

    def items(self) -> list[tuple[DyadicCube, float]]:
        """(cube, coefficient) pairs of the support in (level, row-major) order."""
        return [(DyadicCube(j, tuple(idx)), float(arr[tuple(idx)]))
                for j, arr in self.levels.items() for idx in np.argwhere(arr).tolist()]

    def __len__(self):
        return sum(int(np.count_nonzero(arr)) for arr in self.levels.values())

    def normalized(self) -> "CarlesonSequence":
        """Rescale so the packing supremum equals one (no-op for the zero sequence)."""
        ratio, _ = packing(self)
        if ratio <= 0:
            return self
        return CarlesonSequence(self.root, {j: v * (1.0 / ratio) for j, v in self.levels.items()})


def packing(a: CarlesonSequence) -> tuple[float, DyadicCube]:
    """sup_Q |Q|^-1 sum_{T subset Q} alpha_T |T| and the attaining cube, bottom-up."""
    n, dense = a.dim, a.levels
    if not dense:
        return 0.0, a.root
    # partial packing sums S(Q) accumulated from the deepest level upward;
    # ties go to the deepest cube
    S = fold_up({j: arr * 2.0 ** (-n * j) for j, arr in dense.items()},
                n, max(dense), a.root.level, "sum")
    return argmax_cube((j, S[j] / 2.0 ** (-n * j)) for j in reversed(S))


def verify_carleson(a: CarlesonSequence) -> Inequality:
    """The packing normalization sup <= 1; ``packing`` also names the attaining cube."""
    return Inequality(packing(a)[0], 1.0)


def beta_sequence(a: CarlesonSequence, k: int) -> CarlesonSequence:
    """Push coefficients k generations up: beta_Q = 2^(-nk) sum_{R in D_k(Q)} alpha_R."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return a
    n = a.dim
    factor = 2.0 ** (-n * k)
    return CarlesonSequence(a.root, {
        j - k: factor * block_reduce(arr, n, j, j - k, "sum")
        for j, arr in a.levels.items() if j - k >= a.root.level
    })


# ---------------------------------------------------------------------------
# Sparse families


class SparseFamily:
    """Cubes with pairwise-disjoint witness cell sets E_Q, |Q| <= 2|E_Q|.

    Stored as level arrays: ``masks[j]`` flags the level-j cubes, one bool
    array per populated level, and cube ids run in (level, row-major) order.
    ``cells`` holds the ascending flat witness cells of cube 0, then of cube
    1, and so on, ``sizes[i]`` of them for cube i.  ``cubes`` and ``witness``
    are views built on first use.
    """

    def __init__(self, dim: int, level: int, masks: dict[int, np.ndarray], cells: np.ndarray,
                 sizes: np.ndarray):
        self.dim, self.level, self.masks, self.cells, self.sizes = dim, level, masks, cells, sizes

    def __len__(self):
        return self.sizes.size

    @functools.cached_property
    def cubes(self) -> tuple[DyadicCube, ...]:
        return mask_cubes(self.masks, self.dim)

    @functools.cached_property
    def witness(self) -> dict[DyadicCube, np.ndarray]:
        ends = np.cumsum(self.sizes).tolist()
        return {Q: self.cells[e - s:e] for Q, s, e in zip(self.cubes, self.sizes.tolist(), ends)}

    def to_records(self, omegas: dict[int, np.ndarray] | None = None) -> list[dict]:
        """Per cube its level and index, E_Q as [start, stop) cell runs, and omega if
        given as level arrays ``omegas[j][Q.index]`` (0.0 on a level they lack)."""
        c = self.cells
        owner = np.repeat(np.arange(len(self)), self.sizes)
        # a run starts at every new owner and every gap between consecutive cells
        new = np.ones(c.size, dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (np.diff(c) != 1)
        first = np.flatnonzero(new)
        last = np.append(first[1:], c.size)[:first.size] - 1  # no cells, no runs
        runs = np.stack([c[first], c[last] + 1], axis=1).tolist()
        ends = np.cumsum(np.bincount(owner[first], minlength=len(self))).tolist()
        lev, idx = mask_ids(self.masks, self.dim)
        recs = [{"cube": {"level": j, "index": i}, "E": runs[s:e]}
                for j, i, s, e in zip(lev.tolist(), idx.tolist(), [0] + ends, ends)]
        if omegas is not None:
            om = [omegas[j][m] if j in omegas else np.zeros(np.count_nonzero(m))
                  for j, m in self.masks.items()]
            for rec, w in zip(recs, np.concatenate([np.zeros(0)] + om).tolist()):
                rec["omega"] = w
        return recs


def verify_sparse(S: SparseFamily) -> bool:
    """Exact cell-count check of disjointness, containment and the half bound."""
    n, L = S.dim, S.level
    lev, index = mask_ids(S.masks, S.dim)
    cells = S.cells
    if np.any(lev > L):
        raise DimensionError(f"resolution {L} too coarse for level-{int(lev.max())} cubes")
    if np.any((1 << (L - lev)) ** n > 2 * S.sizes):
        return False
    if np.any((cells < 0) | (cells >= 1 << (n * L))):
        return False
    # a repeated cell is a duplicate inside one E_Q or an overlap between two
    if np.any(np.bincount(cells) > 1):
        return False
    owner = np.repeat(np.arange(len(S)), S.sizes)
    coords = np.unravel_index(cells, (1 << L,) * n)
    return all(np.array_equal(c >> (L - lev[owner]), index[owner, a]) for a, c in enumerate(coords))


def greedy_witness(levels, dim: int, level: int) -> SparseFamily:
    """Assign E_Q = Q minus all family cubes strictly inside Q, deepest first.

    ``levels`` maps a level j to a (2^j,)*dim array whose nonzero entries
    mark the family's level-j cubes.  Every cell goes to the deepest family
    cube containing it.  Raises SparsityError naming the first cube, deepest
    level first and row-major within it, whose leftover cells fall below half
    its measure.
    """
    fam = {j: np.asarray(a) != 0 for j, a in sorted(levels.items())}
    fam = {j: m for j, m in fam.items() if m.any()}
    if fam and max(fam) > level:
        raise DimensionError(f"resolution {level} too coarse for level-{max(fam)} cubes")
    # 1-based cube ids grow with depth: a cell's largest is its deepest family cube's
    starts = np.cumsum([0] + [int(np.count_nonzero(m)) for m in fam.values()]).tolist()
    ids = {j: np.where(m, np.cumsum(m).reshape(m.shape) + c, 0)
           for (j, m), c in zip(fam.items(), starts)}
    owner = fold_down(ids.items(), dim, level, np.maximum).ravel()
    cells = np.flatnonzero(owner)
    lab = owner[cells].astype(np.int64) - 1
    sizes = np.bincount(lab, minlength=starts[-1])
    # ids fit 16 bits up to 65,536 cubes, where numpy's stable sort is a radix sort
    order = np.argsort(lab.astype(np.min_scalar_type(starts[-1])), kind="stable")
    family = SparseFamily(dim, level, fam, cells[order], sizes)
    lev, idx = mask_ids(family.masks, dim)
    cube_cells = (1 << (level - lev)) ** dim
    short = np.flatnonzero(2 * sizes < cube_cells)
    if short.size:
        i = short[np.argmax(lev[short])]
        raise SparsityError(DyadicCube(int(lev[i]), tuple(idx[i].tolist())),
                            deficit=int(math.ceil(cube_cells[i] / 2)) - int(sizes[i]))
    return family


# ---------------------------------------------------------------------------
# Sparse operator evaluation


def _operator_args(obj, k: int, p0: float, fs) -> tuple[dict[int, np.ndarray], int, int, int]:
    """Coefficient level arrays (1 on family cubes), root level, n and L, all checked."""
    if k < 0:
        raise DomainError("complexity k must be nonnegative")
    if not p0 >= 1:
        raise DomainError("p0 must be >= 1")
    if isinstance(obj, CarlesonSequence):
        alpha, rootlvl = obj.levels, obj.root.level
    elif isinstance(obj, SparseFamily):
        alpha, rootlvl = obj.masks, 0
    else:
        raise DimensionError(f"cannot evaluate a sparse operator from {type(obj).__name__}")
    n, L = check_tuple(fs, obj.dim)
    if max(alpha, default=0) > L:
        raise DimensionError(f"resolution {L} too coarse for level-{max(alpha)} cubes")
    return alpha, rootlvl, n, L


def eval_sparse_A(obj, k: int, p0: float, fs) -> GridFunction:
    """Ancestor-type sparse operator sum_Q alpha_Q prod_i <f_i>_{Q^(k),p0} chi_Q.

    Cubes whose k-th ancestor is not contained in the root are skipped.
    """
    alpha, rootlvl, n, L = _operator_args(obj, k, p0, fs)
    top = max((j - k for j in alpha if j - k >= rootlvl), default=0)
    return GridFunction(n, L, _ancestor_sum(alpha, rootlvl, k, _average_pyramids(fs, p0, top),
                                            n, L))


def _average_pyramids(fs, p0: float, top: int) -> list[list[np.ndarray]]:
    """Every input's p0-averages <f_i>_{Q,p0} on levels 0..top: the mean pyramid of |f_i|^p0,
    each level raised to 1/p0 once."""
    inv = 1.0 / p0
    return [[lvl ** inv for lvl in mean_pyramid(np.abs(f.values) ** p0, f.dim, f.level)[:top + 1]]
            for f in fs]


def _ancestor_sum(alpha: dict[int, np.ndarray], rootlvl: int, k: int, pyramids, n: int,
                  L: int) -> np.ndarray:
    """Cell values of the ancestor-type operator from the inputs' average pyramids."""

    def term(j: int, arr: np.ndarray) -> np.ndarray:
        return functools.reduce(lambda t, avg: t * upsample(avg[j - k], 1 << k), pyramids, arr)

    # top-down: every level adds its term onto the sum of the coarser ones
    return fold_down(((j, term(j, arr)) for j, arr in alpha.items() if j - k >= rootlvl), n, L)


def eval_sparse_T(obj, k: int, p0: float, fs) -> GridFunction:
    """Dilate-type sparse operator sum_Q alpha_Q prod_i <f_i>_{2^k Q,p0} chi_Q."""
    alpha, _, n, L = _operator_args(obj, k, p0, fs)
    dil = dilate_products(fs, alpha, p0)
    # coarse to fine, so every cell sums its cubes' terms in level order
    return GridFunction(n, L, fold_down(
        ((j, arr * dil[j][min(k, j)]) for j, arr in alpha.items()), n, L))


# ---------------------------------------------------------------------------
# Scale slicing


def slice_scales(a: CarlesonSequence, k: int) -> list[CarlesonSequence]:
    """Split by scale residue: for 0 <= ell < k, the piece under a cube P ell levels
    below a's root keeps the cubes of P whose depth below P is a positive multiple of k.

    The pieces reassemble the complexity-k operator exactly, cube by cube.
    """
    if k < 1:
        raise DomainError("slicing needs k >= 1")
    pieces = []
    for ell in range(k):
        top = a.root.level + ell
        levels = {j: arr for j, arr in a.levels.items() if j >= top + k and (j - top) % k == 0}
        if not levels:
            continue
        # the level-top cubes P with support below them, row-major
        used = fold_up({j: arr > 0 for j, arr in levels.items()}, a.dim, max(levels), top,
                       "any")[top]
        for idx in np.argwhere(used).tolist():
            P = DyadicCube(top, tuple(idx))
            mine = np.zeros(used.shape, dtype=bool)
            mine[P.index] = True
            pieces.append(CarlesonSequence(P, {
                j: np.where(upsample(mine, 1 << (j - top)), arr, 0.0)
                for j, arr in levels.items()}))
    return pieces


# ---------------------------------------------------------------------------
# Selection of a dominating sparse family


@dataclass
class SelectionResult:
    family: SparseFamily
    cstar: float
    w_hat: float | None  # the measured weak-norm bound; None when cstar was given
    pointwise_constant: float
    covered: bool
    lhs: np.ndarray  # the sliced operator's cellwise values that the selection compared
    rhs: np.ndarray  # the family's cellwise operator that the selection compared

    @property
    def selected(self) -> tuple[DyadicCube, ...]:
        return self.family.cubes

    def report(self) -> dict:
        return {
            "selected": len(self.family),
            "cstar": self.cstar,
            "w_hat": self.w_hat,
            "pointwise_constant": self.pointwise_constant,
            "covered": self.covered,
        }


def measure_weak_norm(a: CarlesonSequence, k: int, p0: float, m: int,
                      trials: int = 8, seed: int = 0) -> float:
    """Empirical lower estimate of the L^p0 x ... x L^p0 -> L^(p0/m,inf) norm.

    Runs seeded random tuples normalized in L^p0 and keeps the running max;
    the estimate never decreases as trials grow.  A selection's default
    ``cstar`` reads only max(1, estimate), which it finds without evaluating
    the operator on a trial whose L^1 bound is below one: when q = p0/m <= 1
    the weak norm is at most the L^1 norm.
    """
    if not p0 >= 1:
        raise DomainError(f"p0 must be >= 1, got {p0}")
    if trials < 1:
        raise DomainError("need at least one trial")
    best = 0.0
    for trial in _weak_trials(a, p0, m, trials, seed):
        best = max(best, _trial_weak_norm(a, k, p0, m, trial))
    return best


def _weak_trials(a: CarlesonSequence, p0: float, m: int, trials: int, seed: int):
    """The estimate's seeded trials: per trial, a list of (vals, vals**p0, ||vals||_p0) for
    the m inputs on the sequence's finest level.  Every input's two arrays are refilled in
    place by the next trial, so one trial's arrays are alive at a time.  A trial with a
    zero input is drawn up to that input and skipped."""
    rng = np.random.default_rng(seed)
    shape = (1 << max(a.levels, default=a.root.level),) * a.dim
    buffers = [(np.empty(shape), np.empty(shape)) for _ in range(m)]
    for _ in range(trials):
        trial = []
        for vals, power in buffers:
            rng.random(out=vals)  # rng.uniform(0.0, 1.0, shape) bit for bit
            np.power(vals, p0, out=power)
            nrm = power.mean() ** (1.0 / p0)
            if nrm == 0:
                break
            trial.append((vals, power, nrm))
        else:
            yield trial


def _trial_weak_norm(a: CarlesonSequence, k: int, p0: float, m: int, trial) -> float:
    """weak_norm of the operator on one trial's normalized inputs vals / nrm."""
    L_res = max(a.levels, default=a.root.level)
    fs = [GridFunction(a.dim, L_res, vals / nrm) for vals, _, nrm in trial]
    return weak_norm(eval_sparse_A(a, k, p0, fs), p0 / m)


def _weak_floor(a: CarlesonSequence, k: int, p0: float, m: int, seed: int) -> float:
    """max(1.0, measure_weak_norm(a, k, p0, m, seed=seed)) bit for bit, over its 8 trials.

    With q = p0/m <= 1, weak_norm's t^(1/q) g*(t) is at most t g*(t) <= ||g||_1
    for t <= 1 (Grafakos, Classical Fourier Analysis, 1.1), so a trial whose
    ||Af||_1 is below one (``at_most``) cannot lift the floor.  The operator is
    evaluated only on the other trials, and on every trial when q > 1.
    """
    n, L_res = a.dim, max(a.levels, default=a.root.level)
    # |Q| alpha_Q summed onto the level of the k-th ancestors Q^(k)
    mass = {j - k: block_reduce(arr, n, j, j - k, "sum") * 2.0 ** (-n * j)
            for j, arr in a.levels.items() if j - k >= a.root.level}
    best = 1.0
    for trial in _weak_trials(a, p0, m, 8, seed):
        if p0 / m <= 1 and not at_most(1.0, _trial_l1(mass, n, L_res, p0, trial), 1.0):
            continue
        best = max(best, _trial_weak_norm(a, k, p0, m, trial))
    return best


def _trial_l1(mass: dict[int, np.ndarray], n: int, L_res: int, p0: float, trial) -> float:
    """||Af||_1 = sum_Q alpha_Q |Q| prod_i <f_i>_{Q^(k),p0} on one trial's normalized
    inputs: per ancestor level, ``mass`` against the product of the inputs' power means,
    raised to 1/p0 once.  Over one cell an input's p0-average is its value."""
    pyramids = [mean_pyramid(power, n, L_res) for _, power, _ in trial]
    total = 0.0
    for lvl, c in mass.items():
        if lvl == L_res:
            prod = functools.reduce(np.multiply, [vals for vals, _, _ in trial])
        else:
            prod = functools.reduce(np.multiply, [pyr[lvl] for pyr in pyramids]) ** (1.0 / p0)
        total += float(np.vdot(c, prod))
    return total / math.prod(nrm for _, _, nrm in trial)


def select_sparse(a: CarlesonSequence, k: int, p0: float, fs,
                  cstar: float | None = None, seed: int = 0) -> SelectionResult:
    """Budget-driven selection of a sparse family dominating the sliced operator.

    Walks the k-generation tree below the root carrying a budget Delta.  A
    cube P is selected when Delta_P < gamma_P * prod_i <f_i>_{P,p0} with
    gamma_P the largest coefficient k generations below P; selection tops
    the budget up by cstar times the local product, and every step down
    pays the child's own coefficient times the product.  The default cstar
    is 2^(2(m+1)) times w_hat, twice the 8-trial weak-norm estimate floored
    at one (which the single-generation averaging operator always attains).
    A trial whose L^1 bound is below one is certified under the floor
    without evaluating the operator; trials are evaluated only when
    q = p0/m > 1 or when the bound reaches one.
    """
    L = _operator_args(a, k, p0, fs)[3]
    return _select(a, k, p0, fs, cstar, seed, _average_pyramids(fs, p0, L))


def _select(a: CarlesonSequence, k: int, p0: float, fs, cstar: float | None, seed: int,
            pyramids) -> SelectionResult:
    """``select_sparse`` on checked arguments and the inputs' p0-average pyramids."""
    n, L = a.dim, len(pyramids[0]) - 1
    for f in fs:
        if np.any(f.values < 0):
            raise DomainError("selection needs nonnegative input functions")
    m = len(fs)
    rl = a.root.level
    if k >= 1:
        for j, arr in a.levels.items():
            if j - rl < k or (j - rl) % k != 0:
                raise DomainError(f"complexity-{k} selection needs support on levels "
                                  f"root+j*k; found {argmax_cube([(j, arr > 0)])[1]}")
    if cstar is None:
        w_hat = 2.0 * _weak_floor(a, k, p0, m, seed)
        cstar = 2.0 ** (2 * (m + 1)) * w_hat
    else:
        w_hat = None
    if not 0 < cstar < math.inf:
        raise DomainError(f"cstar must be positive and finite, got {cstar}")

    step = max(k, 1)
    alpha = a.levels

    # support-at-or-below flags: below the root, the walk visits exactly these cubes
    # (a level with none is absent)
    sab = fold_up({j: arr > 0 for j, arr in alpha.items()}, n, L, rl, "any")

    # one tested level at a time: reach marks the visited cubes, delta their budgets
    hits: dict[int, np.ndarray] = {}
    reach = np.zeros((1 << rl,) * n, dtype=bool)
    reach[a.root.index] = True
    delta = np.zeros((1 << rl,) * n)
    for j in range(rl, L + 1, step):
        if j > rl:
            reach = sab.get(j, False)
        prod = 1.0
        for avg in pyramids:
            prod = prod * avg[j]
        # gamma: block max of the coefficients k levels deeper
        g = block_reduce(alpha[j + k], n, j + k, j, "max") if j + k in alpha else 0.0
        hit = reach & (delta - prod * g < 0.0)
        hits[j] = hit
        if j + step > L:
            break
        base = np.where(hit, delta + cstar * prod, delta)
        # complexity 0 consumes the just-tested coefficient on the way down;
        # complexity k >= 1 pays each arrival cube's own one
        if k == 0:
            delta = upsample(base - g * prod, 2)
        else:
            delta = upsample(base, 1 << k) - alpha.get(j + k, 0.0) * upsample(prod, 1 << k)

    family = greedy_witness(hits, n, L)
    lhs = _ancestor_sum(alpha, rl, k, pyramids, n, L)
    rhs = _ancestor_sum(family.masks, 0, 0, pyramids, n, L)
    pointwise, covered = _cell_ratio(lhs, rhs)
    return SelectionResult(family, float(cstar), w_hat, pointwise, covered, lhs, rhs)


def _cell_ratio(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, bool]:
    """sup of lhs/rhs where rhs > 0, and whether lhs vanishes elsewhere (``at_most``, max lhs)."""
    pos = rhs > 0
    ratio = float(np.max(lhs[pos] / rhs[pos])) if pos.any() else 0.0
    return ratio, at_most(lhs[~pos], 0.0, np.max(lhs, initial=0.0))


@dataclass
class DominationResult:
    """Outcome of ``dominate``; lhs and rhs are the cellwise operator values it compared."""

    pieces: list[CarlesonSequence]
    selections: list[SelectionResult]
    cell_constant: float
    covered: bool
    lhs: np.ndarray
    rhs: np.ndarray

    def report(self) -> dict:
        return {
            "pieces": len(self.pieces),
            "cell_constant": self.cell_constant,
            "covered": self.covered,
            "selections": [s.report() for s in self.selections],
        }


def dominate(a: CarlesonSequence, k: int, p0: float, fs,
             cstar: float | None = None, seed: int = 0) -> DominationResult:
    """Full pipeline: slice by scale residue, select per piece, compare cellwise.

    The reported cell constant is the supremum over cells of the original
    complexity-k operator divided by the sum of the selected families'
    complexity-0 operators.
    """
    _, _, n, L = _operator_args(a, k, p0, fs)
    pieces = slice_scales(a, k) if k else [a]
    # every piece's selection shares one average pyramid per input
    pyramids = _average_pyramids(fs, p0, L)
    selections = [_select(p, k, p0, fs, cstar, seed + 101 * i, pyramids)
                  for i, p in enumerate(pieces)]
    # the pieces reassemble the operator, so their sides add up to the whole
    lhs, rhs = np.zeros((1 << L,) * n), np.zeros((1 << L,) * n)
    for sel in selections:
        lhs += sel.lhs
        rhs += sel.rhs
    cell_c, covered = _cell_ratio(lhs, rhs)
    return DominationResult(pieces, selections, cell_c, covered, lhs, rhs)


# ---------------------------------------------------------------------------
# Carleson embedding


def carleson_embedding_check(a: CarlesonSequence, q: float, ps, fs) -> Inequality:
    """Check (sum_Q alpha_Q (prod <f_i>_Q)^q |Q|)^(1/q) <= prod p_i' ||f_i||_{p_i}."""
    from .weights import conjugate

    if not q > 0:
        raise DomainError(f"need q > 0, got {q}")
    n, L = check_tuple(fs, a.dim)
    ps = tuple(float(p) for p in ps)
    if len(ps) != len(fs):
        raise DomainError("need one exponent per function")
    for p in ps:
        if not p >= 1:
            raise DomainError(f"every exponent p_i must be >= 1, got {p}")
    if abs(1.0 / q - sum(1.0 / p for p in ps)) > 1e-12:
        raise DomainError("exponents must satisfy 1/q = sum 1/p_i")
    for f in fs:
        if np.any(f.values < 0):
            raise DomainError("embedding check needs nonnegative functions")
    pyramids = [mean_pyramid(f.values, n, L) for f in fs]
    total = 0.0
    for j, alpha in a.levels.items():
        prod = 1.0
        for pyr in pyramids:
            prod = prod * pyr[j]
        total += float((alpha * prod**q).sum()) * 2.0 ** (-n * j)
    lhs = total ** (1.0 / q)
    rhs = 1.0
    for f, p in zip(fs, ps):
        rhs *= conjugate(p) * float((f.values**p).mean() ** (1.0 / p))
    return Inequality(lhs, rhs)


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition


@dataclass
class CZDecomposition:
    """A CZ decomposition: ``masks[i]`` holds input i's stopping cubes, one bool
    array per populated level in level order."""

    base: DyadicCube
    lam: float
    p0: float
    m: int
    good: list[GridFunction]
    bad: list[GridFunction]
    masks: list[dict[int, np.ndarray]]
    short_circuit: list[int]

    def verify(self, fs) -> bool:
        """Recheck every invariant of each input outside ``short_circuit``, one pass per
        level of stopping cubes, each by ``grid.at_most`` at the scale of what it compares:
        max |f_i|^p0 for cell values, the height lam^(p0/m) for averages, else the bound."""
        thr = self.lam ** (self.p0 / self.m)  # compare p0-th powers of averages
        n, L = check_tuple(fs)
        for i, f in enumerate(fs):
            if i in self.short_circuit:
                continue
            power = np.abs(f.values) ** self.p0
            b, g = self.bad[i].values, self.good[i].values
            scale = np.max(power)
            inside = fold_down(self.masks[i].items(), n, L, np.logical_or)
            # the height bound holds inside the base cube, below non-stopping ancestors
            bound = 2.0 ** (n * self.p0) * thr
            if not (at_most(np.abs(power - (g + b)), 0.0, scale)
                    and at_most(np.abs(b[np.logical_not(inside)]), 0.0, scale)
                    and at_most(np.abs(g[self.base.cell_slices(L)]), bound, bound)):
                return False
            for j, stop in self.masks[i].items():
                avg = block_reduce(power, n, L, j)[stop]
                parent = upsample(block_reduce(power, n, L, j - 1), 2)[stop]
                if not (at_most(np.abs(block_reduce(b, n, L, j)[stop]), 0.0, scale)
                        and at_most(thr, avg, thr) and at_most(parent, thr, thr)):
                    return False
            l1 = float(np.abs(g).sum()) * f.cell_volume
            lp = float(power.sum()) * f.cell_volume
            meas = sum(np.count_nonzero(s) * 2.0 ** (-n * j) for j, s in self.masks[i].items())
            if not (at_most(l1, lp, lp) and at_most(meas, lp / thr, lp / thr)):
                return False
        return True


def cz_decompose(fs, lam: float, p0: float, m: int, P: DyadicCube) -> CZDecomposition:
    """Stopping-time decomposition of (f_1^p0, ..., f_m^p0) at height lam.

    Stopping cubes are the maximal strict dyadic subcubes R of P with
    <f_i>_{R,p0} above lam^(1/m); each bad part has exact zero mean on its
    cube and the good part stays bounded by the inflated parent average.
    When some <f_i>_{P,p0} already exceeds the height the index is reported
    in short_circuit and no decomposition is attempted for it.  ``grid.maximal``
    finds the stopping cubes on the mean pyramid of |f_i|^p0.
    """
    if lam <= 0:
        raise DomainError(f"level lambda must be positive, got {lam}")
    if not p0 >= 1:
        raise DomainError("p0 must be >= 1")
    if m != len(fs):
        raise DimensionError(f"m = {m} does not match {len(fs)} functions")
    n, L = check_tuple(fs)
    if P.dim != n or P.level > L:
        raise DimensionError(f"base cube {P} does not fit the n={n}, L={L} grid")
    thr_pow = lam ** (p0 / m)  # compare p0-th powers of averages
    outside = cube_levels([(P, 1.0)], n)[P.level] == 0  # the level-P.level cubes but P
    good, bad, masks, short = [], [], [], []
    for i, f in enumerate(fs):
        power = np.abs(f.values) ** p0
        pyr = mean_pyramid(power, n, L)
        if pyr[P.level][P.index] > thr_pow:
            short.append(i)
        stops = {} if i in short else maximal(
            {j: pyr[j] > thr_pow for j in range(P.level + 1, L + 1)}, outside)
        # a cell lies in at most one stopping cube, whose mean is above thr_pow > 0
        means = fold_down(((j, np.where(s, pyr[j], 0.0)) for j, s in stops.items()), n, L)
        b = np.where(means > 0, power - means, 0.0)
        good.append(GridFunction(n, L, power - b))
        bad.append(GridFunction(n, L, b))
        masks.append(stops)
    return CZDecomposition(P, lam, p0, m, good, bad, masks, short)


# ---------------------------------------------------------------------------
# Dyadic maximal functions


def dyadic_maximal(f: GridFunction, p0: float = 1.0, sigma: GridFunction | None = None,
                   maxlevel: int | None = None) -> GridFunction:
    """Cellwise sup over dyadic cubes of local averages.

    Plain mode returns sup_Q <f>_{Q,p0}; with sigma it returns the
    sigma-weighted maximal function sup_Q sigma(Q)^-1 int_Q |f| sigma (p0 stays 1).
    The averages come from the inputs' mean pyramids, and one running
    maximum is carried top-down from the root to level maxlevel.
    """
    n, L = f.dim, f.level
    maxlevel = top_level(maxlevel, L)
    if sigma is not None:
        if p0 != 1:
            raise DomainError(f"p0 is not read with sigma: it must be 1, got {p0}")
        _match(f, sigma)
        if np.any(sigma.values <= 0):
            raise DomainError("sigma must be strictly positive")
        num = mean_pyramid(np.abs(f.values) * sigma.values, n, L)
        levels = [a / s for a, s in zip(num[:maxlevel + 1], mean_pyramid(sigma.values, n, L))]
    else:
        if not p0 >= 1:
            raise DomainError("p0 must be >= 1")
        levels = mean_pyramid(np.abs(f.values) ** p0, n, L)
    out = fold_down(enumerate(levels[:maxlevel + 1]), n, L, np.maximum)
    return GridFunction(n, L, out if sigma is not None else out ** (1.0 / p0))
