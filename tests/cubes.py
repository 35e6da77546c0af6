"""Per-cube walks of the dyadic grid for the brute-force references in the tests.

The library computes on one array per dyadic level and builds ``DyadicCube``
objects only to read input and to name results.  The references here walk
cube by cube, as the code they check once did.
"""

import functools
import itertools

import numpy as np

from sparselab.grid import DimensionError, DyadicCube, dilate
from sparselab.sparse import CarlesonSequence, SparseFamily, greedy_witness


def cube_levels(items, n):
    """(cube, value) pairs as one array per populated level, in level order, indexed by
    Q.index: zero for cubes not listed, the last value for a repeated cube."""
    out = {}
    for Q, a in items:
        if Q.dim != n:
            raise DimensionError(f"cube {Q} is not {n}-dimensional")
        if Q.level not in out:
            out[Q.level] = np.zeros((1 << Q.level,) * n)
        out[Q.level][Q.index] = a
    return dict(sorted(out.items()))


def from_cubes(root, coeffs):
    """The CarlesonSequence with the given (cube, coefficient) pairs or cube-keyed mapping."""
    return CarlesonSequence(root, cube_levels(dict(coeffs).items(), root.dim))


def descendants(Q, k):
    """All cubes exactly k levels below Q, in row-major index order."""
    span = 1 << k
    return [DyadicCube(Q.level + k, tuple(i * span + a for i, a in zip(Q.index, offs)))
            for offs in itertools.product(range(span), repeat=Q.dim)]


def children(Q):
    return descendants(Q, 1)


def ancestor(Q, k):
    """The cube k levels above Q that contains it."""
    return DyadicCube(Q.level - k, tuple(i >> k for i in Q.index))


def contains(Q, R):
    """Whether the cube R lies inside the cube Q."""
    k = R.level - Q.level
    return R.dim == Q.dim and k >= 0 and tuple(i >> k for i in R.index) == Q.index


def cubes_at_level(n, j):
    return [DyadicCube(j, index) for index in itertools.product(range(1 << j), repeat=n)]


def all_cubes(n, maxlevel):
    return [Q for j in range(maxlevel + 1) for Q in cubes_at_level(n, j)]


def cells(Q, L):
    """Flat (row-major) indices of Q's cells at resolution L, ascending."""
    s = 1 << (L - Q.level)
    axes = (np.arange(i * s, (i + 1) * s, dtype=np.int64) for i in Q.index)
    return functools.reduce(lambda rows, cols: np.add.outer(rows << L, cols).ravel(), axes)


def ring_mask(Q, j, L):
    """Cell mask of the ring S_j(Q) = 2^j Q minus 2^(j-1) Q, with S_0(Q) = Q."""
    return dilate(Q, j, L) & ~dilate(Q, j - 1, L) if j else dilate(Q, 0, L)


def family(cubes, n, L):
    """``greedy_witness`` of a collection of cubes."""
    return greedy_witness(cube_levels(((Q, 1.0) for Q in cubes), n), n, L)


def witness_family(n, L, witness):
    """The SparseFamily with the given {cube: witness cells}, each sorted, in cube order."""
    ws = [np.sort(np.asarray(w, dtype=np.int64)) for _, w in sorted(witness.items())]
    masks = {j: a > 0 for j, a in cube_levels(((Q, 1.0) for Q in witness), n).items()}
    return SparseFamily(n, L, masks, np.concatenate([np.zeros(0, dtype=np.int64)] + ws),
                        np.array([w.size for w in ws], dtype=np.int64))
