"""The level-wise selection walk against the per-cube stack walk it replaced,
and the level-mask sparse family against the cube-list path it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.grid import DyadicCube, block_reduce, cube_levels, mean_pyramid, upsample
from sparselab.samples import random_carleson, random_function, rng_from
from sparselab.sparse import SparsityError, select_sparse, slice_scales

from cubes import descendants, family


def reference_selection(a, k, p0, fs, cstar):
    """The per-cube stack walk of select_sparse, kept as the reference.

    Every cube carries its own budget down a Python stack.  The per-cube
    products are read from the same numpy level arrays the level-wise walk
    uses, so both walks compare identical floating-point numbers.
    """
    n, L = fs[0].dim, fs[0].level
    rl = a.root.level
    step = k if k >= 1 else 1
    alpha = {j: arr for j, arr in a.levels.items() if j <= L}
    pyramids = [mean_pyramid(f.values**p0, n, L) for f in fs]
    inv = 1.0 / p0
    prods = {}
    for j in range(L + 1):
        prod = 1.0
        for pyr in pyramids:
            prod = prod * pyr[j] ** inv
        prods[j] = prod

    sab: dict[int, np.ndarray] = {}
    prev = None
    for j in range(L, rl - 1, -1):
        cur = np.zeros((1 << j,) * n, dtype=bool)
        if j in alpha:
            cur |= alpha[j] > 0
        if prev is not None:
            cur |= block_reduce(prev, n, j + 1, j, "any")
        sab[j] = cur
        prev = cur

    gamma: dict[int, np.ndarray] = {}

    def gamma_at(lvl):
        src = lvl + k
        if src not in alpha:
            return None
        if lvl not in gamma:
            gamma[lvl] = block_reduce(alpha[src], n, src, lvl, "max")
        return gamma[lvl]

    selected = []
    stack = [(a.root, 0.0)]
    while stack:
        P, delta = stack.pop()
        prod = float(prods[P.level][P.index])
        g_arr = gamma_at(P.level)
        g = float(g_arr[P.index]) if g_arr is not None else 0.0
        base = delta
        if delta - prod * g < 0.0:
            selected.append(P)
            base = delta + cstar * prod
        nxt = P.level + step
        if nxt <= L:
            a_arr = alpha.get(nxt)
            ap_own = g if k == 0 else 0.0
            for C in descendants(P, step):
                if not sab[nxt][C.index]:
                    continue
                if k >= 1:
                    ac = float(a_arr[C.index]) if a_arr is not None else 0.0
                else:
                    ac = ap_own
                stack.append((C, base - ac * prod))
    return tuple(sorted(selected))


@st.composite
def selection_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(3, 7) if n == 1 else st.integers(2, 5))
    k = draw(st.integers(0, 3))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 0.9))
    if k == 0:
        # k = 0 selects below any root; pick one at level 0..2
        lvl = draw(st.integers(0, min(2, L)))
        index = tuple(draw(st.integers(0, (1 << lvl) - 1)) for _ in range(n))
        a = random_carleson(rng, n, L, root=DyadicCube(lvl, index), density=density)
    else:
        a = random_carleson(rng, n, L, k_grid=k, density=density)
        # slice pieces with ell >= 1 are rooted below the unit cube
        pieces = slice_scales(a, k)
        if pieces:
            a = pieces[draw(st.integers(0, len(pieces) - 1))]
    m = draw(st.integers(1, 2))
    fs = [random_function(rng, n, L) for _ in range(m)]
    p0 = draw(st.sampled_from([1.0, 1.5, 2.0]))
    cstar = draw(st.none() | st.floats(0.25, 64.0))
    return a, k, p0, fs, cstar


@settings(max_examples=300, deadline=None, derandomize=True)
@given(selection_case())
def test_levelwise_selection_matches_reference_walk(case):
    a, k, p0, fs, cstar = case
    try:
        res = select_sparse(a, k, p0, fs, cstar=cstar)
    except SparsityError as err:
        # a small given cstar may select too densely; the reference fails at the same cube
        assert cstar is not None
        with pytest.raises(SparsityError) as ref_err:
            family(reference_selection(a, k, p0, fs, cstar), a.dim, fs[0].level)
        assert ref_err.value.cube == err.cube
        return
    assert res.selected == reference_selection(a, k, p0, fs, res.cstar)


def chain_pyramid(values, n, L):
    """Per-level means as a chain of block_reduce(..., "mean") calls."""
    out = [np.asarray(values, dtype=float).reshape((1 << L,) * n)]
    for j in range(L - 1, -1, -1):
        out.insert(0, block_reduce(out[0], n, j + 1, j, "mean"))
    return out


def cube_list_witness(cubes, dim, level):
    """greedy_witness over a list of cubes, as it stood before the level masks."""
    found = sorted(set(cubes), key=lambda Q: (Q.level, Q.index))
    fam = {j: a > 0 for j, a in cube_levels(((Q, 1.0) for Q in found), dim).items()}
    owner, first = np.full((1,) * dim, -1, dtype=np.int64), 0
    for j in range(level + 1):
        owner = upsample(owner, 2) if j else owner
        if j in fam:
            owner = np.where(fam[j], first + np.cumsum(fam[j]).reshape(fam[j].shape) - 1, owner)
            first += int(fam[j].sum())
    cells = np.flatnonzero(owner >= 0)
    lab = owner.ravel()[cells]
    sizes = np.bincount(lab, minlength=len(found))
    cube_cells = (1 << (level - np.array([Q.level for Q in found], dtype=np.int64))) ** dim
    short = np.flatnonzero(2 * sizes < cube_cells)
    if short.size:
        i = max(short, key=lambda i: found[i].level)
        raise SparsityError(found[i], deficit=int(math.ceil(cube_cells[i] / 2)) - int(sizes[i]))
    cells = cells[np.argsort(lab, kind="stable")]
    ends = np.cumsum(sizes).tolist()
    return {Q: cells[e - int(size):e] for Q, size, e in zip(found, sizes, ends)}


def chain_eval_A(alpha, rootlvl, k, p0, fs):
    """eval_sparse_A over level arrays with block_reduce-chain pyramids."""
    n, L = fs[0].dim, fs[0].level
    pyramids = [chain_pyramid(np.abs(f.values) ** p0, n, L) for f in fs]
    out, top = np.zeros((1,) * n), 0
    for j in alpha:
        if j - k < rootlvl:
            continue
        term = alpha[j]
        for pyr in pyramids:
            term = term * upsample(pyr[j - k] ** (1.0 / p0), 1 << k)
        out = upsample(out, 1 << (j - top)) + term
        top = j
    return upsample(out, 1 << (L - top))


def cube_list_selection(a, k, p0, fs, cstar):
    """The level-wise walk emitting a DyadicCube list, its cube-list witness
    assignment and both operators, as select_sparse computed them before the
    level masks; kept as the reference."""
    n, L = fs[0].dim, fs[0].level
    rl = a.root.level
    step = max(k, 1)
    alpha = a.levels
    pyramids = [chain_pyramid(f.values**p0, n, L) for f in fs]
    inv = 1.0 / p0
    sab = {}
    prev = None
    for j in range(L, rl - 1, -1):
        cur = np.zeros((1 << j,) * n, dtype=bool)
        if j in alpha:
            cur |= alpha[j] > 0
        if prev is not None:
            cur |= block_reduce(prev, n, j + 1, j, "any")
        sab[j] = cur
        prev = cur
    selected = []
    reach = np.zeros((1 << rl,) * n, dtype=bool)
    reach[a.root.index] = True
    delta = np.zeros((1 << rl,) * n)
    for j in range(rl, L + 1, step):
        if j > rl:
            reach = sab[j]
        prod = 1.0
        for pyr in pyramids:
            prod = prod * pyr[j] ** inv
        g = block_reduce(alpha[j + k], n, j + k, j, "max") if j + k in alpha else 0.0
        hit = reach & (delta - prod * g < 0.0)
        selected.extend(DyadicCube(j, tuple(map(int, idx))) for idx in np.argwhere(hit))
        if j + step > L:
            break
        base = np.where(hit, delta + cstar * prod, delta)
        if k == 0:
            delta = upsample(base - g * prod, 2)
        else:
            delta = upsample(base, 1 << k) - alpha.get(j + k, 0.0) * upsample(prod, 1 << k)
    witness = cube_list_witness(selected, n, L)
    lhs = chain_eval_A(alpha, rl, k, p0, fs)
    rhs = chain_eval_A(cube_levels(((Q, 1.0) for Q in witness), n), 0, 0, p0, fs)
    return tuple(sorted(selected)), witness, lhs, rhs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(selection_case())
def test_level_mask_family_matches_cube_list_path(case):
    a, k, p0, fs, cstar = case
    try:
        res = select_sparse(a, k, p0, fs, cstar=cstar)
    except SparsityError as err:
        assert cstar is not None
        with pytest.raises(SparsityError) as ref_err:
            cube_list_selection(a, k, p0, fs, cstar)
        assert (ref_err.value.cube, ref_err.value.deficit) == (err.cube, err.deficit)
        return
    selected, witness, lhs, rhs = cube_list_selection(a, k, p0, fs, res.cstar)
    assert res.selected == selected == tuple(witness)
    assert len(res.family) == len(selected)
    for Q, w in witness.items():
        assert res.family.witness[Q].tobytes() == w.tobytes()
    assert res.lhs.tobytes() == lhs.tobytes()
    assert res.rhs.tobytes() == rhs.tobytes()
