"""Level-array Carleson sequences against the cube-keyed dict class they replaced.

The dict-based ``CarlesonSequence`` and the per-cube ``random_carleson``,
``packing``, ``beta_sequence``, ``slice_scales``, ``eval_sparse_T``,
``carleson_embedding_check`` and selection support check are kept here
verbatim as references (renamed, with the class name they construct
changed to the reference class).  Both sides draw from generators seeded
alike, so equal sequences are expected bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.certify import certify_theorem_a
from sparselab.grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    argmax_cube,
    at_most,
    block_reduce,
    dilate_products,
    mean_pyramid,
    root_cube,
)
from sparselab.samples import random_carleson, random_function, rng_from
from sparselab.sparse import (
    CarlesonSequence,
    SparseFamily,
    SparsityError,
    beta_sequence,
    carleson_embedding_check,
    eval_sparse_T,
    packing,
    select_sparse,
    slice_scales,
)
from sparselab.weights import conjugate

from cubes import ancestor, contains


# ---------------------------------------------------------------------------
# References: the per-cube code the level arrays replaced


class RefCarlesonSequence:
    """Nonnegative coefficients alpha_Q on dyadic cubes below a root cube."""

    def __init__(self, root: DyadicCube, coeffs):
        self.root = root
        items = dict(coeffs)
        for Q, a in items.items():
            if not math.isfinite(a):
                raise DomainError(f"non-finite coefficient {a} at {Q}")
            if a < 0:
                raise DomainError(f"negative coefficient {a} at {Q}")
            if not contains(root, Q):
                raise DomainError(f"support cube {Q} lies outside the root {root}")
        self.coeffs = {Q: float(a) for Q, a in sorted(items.items()) if a != 0.0}

    @property
    def dim(self) -> int:
        return self.root.dim

    def items(self):
        return self.coeffs.items()

    def __len__(self):
        return len(self.coeffs)

    def support_levels(self) -> list[int]:
        return sorted({Q.level for Q in self.coeffs})

    def max_level(self) -> int:
        return max((Q.level for Q in self.coeffs), default=self.root.level)

    def dense_levels(self) -> dict[int, np.ndarray]:
        """Coefficients as one dense array per populated level."""
        return _dense_levels(self.items(), self.dim)

    def scaled(self, factor: float) -> "RefCarlesonSequence":
        return RefCarlesonSequence(self.root, {Q: a * factor for Q, a in self.coeffs.items()})

    def normalized(self) -> "RefCarlesonSequence":
        """Rescale so the packing supremum equals one (no-op for the zero sequence)."""
        ratio, _ = reference_packing(self)
        if ratio <= 0:
            return self
        return self.scaled(1.0 / ratio)


def _dense_levels(items, n: int) -> dict[int, np.ndarray]:
    """(cube, coefficient) pairs as one dense array per populated level, indexed by Q.index."""
    out: dict[int, np.ndarray] = {}
    for Q, a in items:
        if Q.level not in out:
            out[Q.level] = np.zeros((1 << Q.level,) * n)
        out[Q.level][Q.index] = a
    return out


def reference_packing(a):
    """sup_Q |Q|^-1 sum_{T subset Q} alpha_T |T| and the attaining cube, bottom-up."""
    n = a.dim
    dense = a.dense_levels()
    if not dense:
        return 0.0, a.root
    S = None
    ratios = []
    for j in range(max(dense), a.root.level - 1, -1):
        vol = 2.0 ** (-n * j)
        cur = np.zeros((1 << j,) * n)
        if S is not None:
            cur += block_reduce(S, n, j + 1, j, "sum")
        if j in dense:
            cur += dense[j] * vol
        ratios.append((j, cur / vol))
        S = cur
    return argmax_cube(ratios)


def reference_random_carleson(rng, n, L, root=None, k_grid=0, density=0.2):
    root = root or root_cube(n)
    rl = root.level
    if k_grid >= 1:
        levels = list(range(rl + k_grid, L + 1, k_grid))
    else:
        levels = list(range(rl, L + 1))
    coeffs: dict[DyadicCube, float] = {}
    for j in levels:
        side = 1 << (j - rl)
        mask = rng.random((side,) * n) < density
        for offs in zip(*np.nonzero(mask)):
            cube = DyadicCube(j, tuple(r * side + int(i) for r, i in zip(root.index, offs)))
            coeffs[cube] = float(rng.uniform(0.05, 1.0))
    if not coeffs and levels:
        j = levels[-1]
        side = 1 << (j - rl)
        idx = tuple(r * side for r in root.index)
        coeffs[DyadicCube(j, idx)] = 1.0
    return RefCarlesonSequence(root, coeffs).normalized()


def reference_beta_sequence(a, k):
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return a
    n = a.dim
    factor = 2.0 ** (-n * k)
    out: dict[DyadicCube, float] = {}
    for R, alpha in a.items():
        if R.level - k < a.root.level:
            continue
        Q = ancestor(R, k)
        out[Q] = out.get(Q, 0.0) + factor * alpha
    return RefCarlesonSequence(a.root, out)


def reference_slice_scales(a, k):
    if k < 1:
        raise DomainError("slicing needs k >= 1")
    rl = a.root.level
    buckets: dict[tuple[int, DyadicCube], dict[DyadicCube, float]] = {}
    for Q, alpha in a.items():
        rel = Q.level - rl
        if rel < k:
            continue
        ell = rel % k
        P = ancestor(Q, Q.level - (rl + ell))
        buckets.setdefault((ell, P), {})[Q] = alpha
    pieces = [
        (ell, P, RefCarlesonSequence(P, coeffs))
        for (ell, P), coeffs in sorted(buckets.items())
    ]
    return [p for p in pieces if len(p[2])]


def _as_items(obj):
    if isinstance(obj, RefCarlesonSequence):
        return obj.items(), obj.root.level, obj.dim
    if isinstance(obj, SparseFamily):
        return [(Q, 1.0) for Q in obj.cubes], 0, obj.dim
    raise DimensionError(f"cannot evaluate a sparse operator from {type(obj).__name__}")


def reference_eval_sparse_T(obj, k, p0, fs):
    items, _, dim = _as_items(obj)
    n, L = fs[0].dim, fs[0].level
    tables: dict[int, np.ndarray] = {}
    out = np.zeros((1 << L,) * n)
    for Q, alpha in items:
        if Q.level not in tables:
            tables[Q.level] = dilate_products(fs, [Q.level], p0)[Q.level]
        out[Q.cell_slices(L)] += alpha * float(tables[Q.level][(min(k, Q.level), *Q.index)])
    return out


def reference_embedding(a, q, ps, fs):
    """(lhs, rhs, holds) of carleson_embedding_check, summed cube by cube."""
    n, L = fs[0].dim, fs[0].level
    pyramids = [mean_pyramid(f.values, n, L) for f in fs]
    total = 0.0
    for Q, alpha in a.items():
        prod = 1.0
        for pyr in pyramids:
            prod *= float(pyr[Q.level][Q.index])
        total += alpha * prod**q * Q.volume
    lhs = total ** (1.0 / q)
    rhs = 1.0
    for f, p in zip(fs, ps):
        rhs *= conjugate(p) * float((f.values**p).mean() ** (1.0 / p))
    return lhs, rhs, at_most(lhs, rhs, rhs)


def reference_support_check(a, k):
    """The per-cube support check at the top of select_sparse."""
    rl = a.root.level
    if k >= 1:
        for Q in a.coeffs:
            rel = Q.level - rl
            if rel < k or rel % k != 0:
                raise DomainError(
                    f"complexity-{k} selection needs support on levels root+j*k; found {Q}"
                )


# ---------------------------------------------------------------------------


def assert_same_sequence(new, ref):
    assert new.root == ref.root
    assert new.items() == list(ref.items())
    assert len(new) == len(ref)
    # exactly the populated levels
    assert list(new.levels) == ref.support_levels()


def outcome(fn):
    """Return value of fn(), or the cube and deficit of the SparsityError it raises."""
    try:
        return fn()
    except SparsityError as err:
        return ("SparsityError", err.cube, err.deficit)


@st.composite
def carleson_case(draw):
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(2, 7) if n == 1 else st.integers(2, 5))
    lvl = draw(st.integers(0, 2))
    root = DyadicCube(lvl, tuple(draw(st.integers(0, (1 << lvl) - 1)) for _ in range(n)))
    k_grid = draw(st.integers(0, 2))
    density = draw(st.floats(0.02, 0.9))
    seed = draw(st.integers(0, 2**32 - 1))
    new_rng, ref_rng = rng_from(seed), rng_from(seed)
    new = random_carleson(new_rng, n, L, root=root, k_grid=k_grid, density=density)
    ref = reference_random_carleson(ref_rng, n, L, root=root, k_grid=k_grid, density=density)
    # both consumed the same draws
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    fs = [random_function(new_rng, n, L) for _ in range(draw(st.integers(1, 2)))]
    k = draw(st.integers(0, 3))
    p0 = draw(st.sampled_from([1.0, 1.5, 2.0]))
    cstar = draw(st.none() | st.floats(0.25, 64.0))
    return new, ref, fs, k, p0, cstar


@settings(max_examples=200, deadline=None, derandomize=True)
@given(carleson_case())
def test_level_arrays_match_reference(case):
    new, ref, fs, k, p0, cstar = case
    assert_same_sequence(new, ref)
    assert packing(new) == reference_packing(ref)

    b = beta_sequence(new, k)
    rb = reference_beta_sequence(ref, k)
    assert [Q for Q, _ in b.items()] == [Q for Q, _ in rb.items()]
    np.testing.assert_allclose([v for _, v in b.items()], [v for _, v in rb.items()],
                               rtol=1e-12, atol=0)
    assert list(b.levels) == rb.support_levels()

    pairs = [(new, ref)]  # what select_sparse sees: the sequence at k = 0, its pieces after
    if k >= 1:
        pieces = slice_scales(new, k)
        ref_pieces = reference_slice_scales(ref, k)
        assert ([(p.root.level - new.root.level, p.root) for p in pieces]
                == [(ell, P) for ell, P, _ in ref_pieces])
        pairs = [(p, rseq) for p, (_, _, rseq) in zip(pieces, ref_pieces)]
        for seq, rseq in pairs:
            assert_same_sequence(seq, rseq)

    np.testing.assert_array_equal(eval_sparse_T(new, k, p0, fs).values,
                                  reference_eval_sparse_T(ref, k, p0, fs))

    ps = (2.0,) * len(fs)
    q = 2.0 / len(fs)
    rep = carleson_embedding_check(new, q, ps, fs)
    lhs, rhs, holds = reference_embedding(ref, q, ps, fs)
    assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
    assert (rep.rhs, rep.holds) == (rhs, holds)

    # the consumers see each level-array sequence exactly as one built from the reference dict
    try:
        reference_support_check(ref, k)
    except DomainError as err:
        with pytest.raises(DomainError) as got:
            select_sparse(new, k, p0, fs, cstar=cstar)
        assert str(got.value) == str(err)
    for seq, rseq in pairs:
        rebuilt = CarlesonSequence.from_cubes(rseq.root, rseq.coeffs)
        assert (outcome(lambda: select_sparse(seq, k, p0, fs, cstar=cstar).selected)
                == outcome(lambda: select_sparse(rebuilt, k, p0, fs, cstar=cstar).selected))
    rebuilt = CarlesonSequence.from_cubes(ref.root, ref.coeffs)
    assert (outcome(lambda: certify_theorem_a(new, k, p0, fs, 2.0, seed=3, cstar=cstar).to_dict())
            == outcome(lambda: certify_theorem_a(rebuilt, k, p0, fs, 2.0, seed=3,
                                                 cstar=cstar).to_dict()))
