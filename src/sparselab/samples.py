"""Seeded random inputs for the verification campaigns.

Function samples are i.i.d. uniform on [0,1] per cell; weight samples are
log-uniform on [2^-4, 2^4].  Every consumer records the seed it used, so
any report can be replayed bit for bit.
"""

from __future__ import annotations

import numpy as np

from .grid import DyadicCube, GridFunction, root_cube
from .sparse import CarlesonSequence, SparseFamily, greedy_witness


def rng_from(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_function(rng, n: int, L: int) -> GridFunction:
    return GridFunction(n, L, rng.uniform(0.0, 1.0, (1 << L) ** n))


def random_signed_function(rng, n: int, L: int) -> GridFunction:
    return GridFunction(n, L, rng.normal(0.0, 1.0, (1 << L) ** n))


def random_weight(rng, n: int, L: int) -> GridFunction:
    return GridFunction(n, L, np.exp2(rng.uniform(-4.0, 4.0, (1 << L) ** n)))


def random_carleson(rng, n: int, L: int, root: DyadicCube | None = None,
                    k_grid: int = 0, density: float = 0.2) -> CarlesonSequence:
    """Random normalized Carleson sequence below ``root``.

    With k_grid >= 1 the support is restricted to levels root + j*k_grid,
    j >= 1, matching the ingestion contract of complexity-k selection.
    """
    root = root or root_cube(n)
    rl = root.level
    levels = range(rl + k_grid, L + 1, max(k_grid, 1))
    coeffs: dict[int, np.ndarray] = {}
    for j in levels:
        mask = rng.random((1 << (j - rl),) * n) < density
        coeffs[j] = np.zeros((1 << j,) * n)
        # boolean assignment fills the cells in row-major order, one draw each
        coeffs[j][root.cell_slices(j)][mask] = rng.uniform(0.05, 1.0, int(mask.sum()))
    if levels and not any(arr.any() for arr in coeffs.values()):
        j = levels[-1]
        coeffs[j][tuple(r << (j - rl) for r in root.index)] = 1.0
    return CarlesonSequence(root, coeffs).normalized()


def random_sparse_family(rng, n: int, L: int) -> SparseFamily:
    """Random sparse family built from branch-limited descents.

    Each descent selects its cube and recurses into at most half of the
    children, so the union of selected strict descendants of any selected
    cube covers at most half of it and the greedy witness always succeeds.
    Cubes are (level, index) pairs flagged in one bool mask per level; child
    c of (j, idx) is (j + 1, 2 * idx + unravel_index(c, (2,) * n)), row-major.
    """
    masks: dict[int, np.ndarray] = {}

    def descend(j: int, idx: tuple):
        if rng.random() < 0.85:
            if j not in masks:
                masks[j] = np.zeros((1 << j,) * n, dtype=bool)
            masks[j][idx] = True
        if j >= L or rng.random() < 0.25:
            return
        take = int(rng.integers(1, (1 << (n - 1)) + 1))
        picks = rng.choice(1 << n, size=take, replace=False)
        for c in picks:
            descend(j + 1, tuple(2 * i + b for i, b in zip(idx, np.unravel_index(c, (2,) * n))))

    lvl = int(rng.integers(1, max(2, L - 2)))
    side = 1 << lvl
    count = min(3, side**n)
    # three descents from distinct start cubes at a common level keep the branch budgets disjoint
    picks = rng.choice(side**n, size=count, replace=False)
    for flat in picks:
        descend(lvl, np.unravel_index(flat, (side,) * n))
    return greedy_witness(masks or {0: np.ones((1,) * n, dtype=bool)}, n, L)
