import dataclasses
import math

import numpy as np
import pytest

from sparselab.grid import (
    MAX_LEVEL,
    DimensionError,
    DomainError,
    DyadicCube,
    GridFunction,
    average,
    dilate,
    dilate_products,
    mask_cubes,
    mean_pyramid,
    rearrangement,
    root_cube,
    weak_norm,
    weighted_norm,
)
from sparselab.kernels import hilbert_transform
from sparselab.oscillation import osc_profile
from sparselab.samples import (
    random_carleson,
    random_function,
    random_sparse_family,
    random_weight,
    rng_from,
)
from sparselab.sparse import (
    CarlesonSequence,
    SparsityError,
    beta_sequence,
    carleson_embedding_check,
    cz_decompose,
    dominate,
    dyadic_maximal,
    eval_sparse_A,
    eval_sparse_T,
    greedy_witness,
    measure_weak_norm,
    packing,
    select_sparse,
    slice_scales,
    verify_carleson,
    verify_sparse,
)
from sparselab.weights import WeightTuple

from cubes import (all_cubes, ancestor, children, contains, cube_levels, family, from_cubes,
                   ring_mask, witness_family)

R1 = root_cube(1)


def seq(coeffs, root=R1):
    return from_cubes(root, coeffs)


def chain_family(L=4):
    cubes = [DyadicCube(0, (0,)), DyadicCube(1, (0,)), DyadicCube(2, (0,))]
    return family(cubes, 1, L)


# --- packing / verify_carleson -------------------------------------------------


def oracle_packing(a, maxlevel):
    best, worst = -1.0, None
    for Q in all_cubes(a.dim, maxlevel):
        s = sum(alpha * T.volume for T, alpha in a.items() if contains(Q, T))
        r = s / Q.volume
        if r > best + 1e-15:
            best, worst = r, Q
    return best, worst


def test_verify_carleson_delta():
    a = seq({R1: 1.0})
    rep = verify_carleson(a)
    assert rep.holds and packing(a)[1] == R1 and rep.ratio == pytest.approx(1.0)


def test_verify_carleson_overpacked():
    a = seq({R1: 1.0, DyadicCube(1, (0,)): 1.0})
    rep = verify_carleson(a)
    assert not rep.holds
    assert rep.ratio == pytest.approx(1.5)
    assert packing(a)[1] == R1
    b, w = oracle_packing(a, 3)
    assert rep.ratio == pytest.approx(b) and packing(a)[1] == w


def test_verify_carleson_zero():
    assert verify_carleson(seq({})).holds


def test_verify_carleson_rejects_negative():
    with pytest.raises(DomainError):
        seq({R1: -0.5})


@pytest.mark.parametrize("coeffs", [
    {DyadicCube(1, (1,)): 0.5},  # beside the root [0, 1/2)
    {DyadicCube(0, (0,)): 0.5},  # above the root
    {DyadicCube(2, (0, 1)): 0.5},  # another dimension
    {DyadicCube(2, (1,)): math.inf},
])
def test_carleson_rejects_cubes_outside_the_root(coeffs):
    with pytest.raises(ValueError):
        from_cubes(DyadicCube(1, (0,)), coeffs)


def test_packing_matches_oracle_random():
    rng = rng_from(42)
    for _ in range(10):
        a = random_carleson(rng, 1, 4)
        got, wit = packing(a)
        exp, ewit = oracle_packing(a, 4)
        assert got == pytest.approx(exp)
        assert got <= 1.0 + 1e-12  # normalized on construction


# --- sparse family / witness ----------------------------------------------------


def test_verify_sparse_single():
    fam = family([R1], 1, 3)
    assert verify_sparse(fam)
    assert fam.witness[R1].size == 8


def test_verify_sparse_chain_counts():
    fam = chain_family()
    assert verify_sparse(fam)
    # cell-count oracle: E of [0,1) is [1/2,1), E of [0,1/2) is [1/4,1/2)
    assert fam.witness[DyadicCube(0, (0,))].size == 8
    assert fam.witness[DyadicCube(2, (0,))].size == 4


def test_verify_sparse_rejects_small_witness():
    fam = chain_family()
    bad = dict(fam.witness)
    bad[DyadicCube(0, (0,))] = np.array([12], dtype=np.int64)
    assert not verify_sparse(witness_family(1, 4, bad))


def test_verify_sparse_rejects_overlap():
    w = {
        DyadicCube(1, (0,)): np.arange(0, 4, dtype=np.int64),
        DyadicCube(1, (1,)): np.arange(3, 8, dtype=np.int64),
    }
    w[DyadicCube(1, (0,))] = np.arange(0, 4)
    fam = witness_family(1, 3, w)
    assert not verify_sparse(fam)


def test_greedy_witness_failure():
    cubes = [R1, DyadicCube(1, (0,)), DyadicCube(1, (1,))]
    with pytest.raises(SparsityError) as err:
        family(cubes, 1, 4)
    assert err.value.cube == R1


def test_random_families_sparse():
    rng = rng_from(9)
    for _ in range(25):
        fam = random_sparse_family(rng, 1, 6)
        assert verify_sparse(fam)
    for _ in range(10):
        fam = random_sparse_family(rng, 2, 4)
        assert verify_sparse(fam)


def test_random_sparse_family_builds_no_cube(built_cubes):
    rng = rng_from(10)
    for n in (1, 2):
        for L in range(1, MAX_LEVEL[n] + 1):
            assert len(random_sparse_family(rng, n, L)) > 0
    assert built_cubes == []


@pytest.mark.parametrize("n", [1, 2])
def test_random_sparse_family_on_one_cell_is_the_unit_cube(n):
    rng = rng_from(0)
    state = rng.bit_generator.state
    fam = random_sparse_family(rng, n, 0)
    assert list(fam.masks) == [0] and fam.masks[0].all() and verify_sparse(fam)
    # no draw: the stream of a sampler at L >= 1 is unchanged
    assert rng.bit_generator.state == state


def reference_random_sparse_family(rng, n, L):
    """The sampler with its former `n == 1` branch for the children taken."""
    chosen = set()

    def descend(Q):
        if rng.random() < 0.85:
            chosen.add(Q)
        if Q.level >= L or rng.random() < 0.25:
            return
        kids = children(Q)
        take = 1 if n == 1 else int(rng.integers(1, 3))
        for i in rng.choice(len(kids), size=take, replace=False):
            descend(kids[int(i)])

    lvl = int(rng.integers(1, max(2, L - 2)))
    side = 1 << lvl
    for flat in rng.choice(side**n, size=min(3, side**n), replace=False):
        descend(DyadicCube(lvl, tuple(int(i) for i in np.unravel_index(flat, (side,) * n))))
    if not chosen:
        chosen.add(root_cube(n))
    return greedy_witness(cube_levels(((Q, 1.0) for Q in chosen), n), n, L)


@pytest.mark.parametrize("n", [1, 2])
def test_random_sparse_family_matches_branching_reference(n):
    for L in range(1, MAX_LEVEL[n] + 1):
        for seed in range(20):
            rng, ref_rng = rng_from(seed), rng_from(seed)
            got = random_sparse_family(rng, n, L)
            ref = reference_random_sparse_family(ref_rng, n, L)
            assert list(got.masks) == list(ref.masks)
            assert all(np.array_equal(got.masks[j], ref.masks[j]) for j in ref.masks)
            assert np.array_equal(got.cells, ref.cells)
            assert np.array_equal(got.sizes, ref.sizes)
            # the same draws: both generators end in the same state
            assert rng.bit_generator.state == ref_rng.bit_generator.state


# --- sparse operators ------------------------------------------------------------


def oracle_eval_A(items, rootlvl, k, p0, fs):
    n, L = fs[0].dim, fs[0].level
    out = np.zeros((1 << L,) * n)
    for Q, alpha in items:
        if Q.level - k < rootlvl:
            continue
        A = ancestor(Q, k)
        coef = alpha
        for f in fs:
            coef *= average(f, A, p0)
        out[Q.cell_slices(L)] += coef
    return out


def test_eval_sparse_A_unit_family():
    fam = family([R1], 1, 4)
    f = GridFunction.constant(1, 4, 1.0)
    out = eval_sparse_A(fam, 0, 1.0, [f])
    assert np.allclose(out.values, 1.0)


def test_eval_sparse_A_ancestor():
    fam = family([DyadicCube(1, (0,))], 1, 4)
    f = GridFunction.indicator(1, 4, DyadicCube(1, (1,)))
    out = eval_sparse_A(fam, 1, 1.0, [f])
    assert np.allclose(out.values[:8], 0.5)
    assert np.allclose(out.values[8:], 0.0)


def test_eval_sparse_A_bilinear():
    fam = family([R1], 1, 4)
    f = GridFunction.indicator(1, 4, DyadicCube(1, (0,)))
    out = eval_sparse_A(fam, 0, 2.0, [f, f])
    assert np.allclose(out.values, 0.5)


def test_eval_sparse_A_matches_oracle():
    rng = rng_from(5)
    for n, L in ((1, 5), (2, 4)):
        a = random_carleson(rng, n, L)
        fs = [random_function(rng, n, L), random_function(rng, n, L)]
        for k in (0, 1, 2):
            got = eval_sparse_A(a, k, 1.5, fs).values
            exp = oracle_eval_A(list(a.items()), 0, k, 1.5, fs)
            assert np.allclose(got, exp, rtol=1e-12)


def test_eval_sparse_A_sublinear_scaling():
    rng = rng_from(6)
    a = random_carleson(rng, 1, 5)
    f1, f2 = random_function(rng, 1, 5), random_function(rng, 1, 5)
    base = eval_sparse_A(a, 1, 2.0, [f1, f2]).values
    for lam in (-3.0, 0.5):
        scaled = eval_sparse_A(a, 1, 2.0, [f1 * lam, f2]).values
        assert np.allclose(scaled, abs(lam) * base, rtol=1e-12)


def test_eval_sparse_A_monotone_in_p0():
    rng = rng_from(61)
    a = random_carleson(rng, 1, 5)
    fs = [random_function(rng, 1, 5)]
    lo = eval_sparse_A(a, 0, 1.0, fs).values
    hi = eval_sparse_A(a, 0, 2.0, fs).values
    assert np.all(hi >= lo - 1e-12)


def test_eval_sparse_T_matches_A_at_k0():
    rng = rng_from(7)
    a = random_carleson(rng, 1, 5)
    fs = [random_function(rng, 1, 5)]
    t = eval_sparse_T(a, 0, 1.5, fs).values
    s = eval_sparse_A(a, 0, 1.5, fs).values
    assert np.allclose(t, s)


def test_eval_sparse_T_wrap():
    fam = family([DyadicCube(2, (0,))], 1, 5)
    f = GridFunction.indicator(1, 5, DyadicCube(2, (3,)))
    out = eval_sparse_T(fam, 2, 1.0, [f])
    # dilate saturates to the torus, coefficient is the global average
    assert np.allclose(out.values[:8], 0.25)
    mask = dilate(DyadicCube(2, (0,)), 2, 5)
    assert mask.all()


def test_eval_sparse_T_dilate_cells():
    fam = family([DyadicCube(2, (0,))], 1, 5)
    f = GridFunction.indicator(1, 5, DyadicCube(3, (7,)))  # [7/8, 1)
    out = eval_sparse_T(fam, 1, 1.0, [f])
    # 2Q = [7/8, 1) + [0, 3/8), captures the whole support: average 1/4
    assert np.allclose(out.values[:8], 0.25)


# --- slicing ----------------------------------------------------------------------


def test_slice_k1_single_piece():
    a = seq({DyadicCube(2, (1,)): 0.5, DyadicCube(3, (5,)): 0.25})
    pieces = slice_scales(a, 1)
    assert len(pieces) == 1
    assert pieces[0].root.level - a.root.level == 0 and pieces[0].root == R1


def test_slice_reassembly():
    rng = rng_from(8)
    fs = [random_function(rng, 1, 6)]
    a = random_carleson(rng, 1, 6)
    for k in (2, 3):
        pieces = slice_scales(a, k)
        total = np.zeros(1 << 6)
        for p in pieces:
            total += eval_sparse_A(p, k, 1.0, fs).values
        assert np.allclose(total, eval_sparse_A(a, k, 1.0, fs).values, atol=1e-13)


def test_slice_levels_pattern():
    a = seq({DyadicCube(2, (1,)): 0.3, DyadicCube(3, (5,)): 0.2})
    pieces = slice_scales(a, 2)
    ells = sorted(p.root.level - a.root.level for p in pieces)
    assert ells == [0, 1]
    for p in pieces:
        for Q, _ in p.items():
            assert (Q.level - p.root.level) % 2 == 0
            assert Q.level - p.root.level >= 2


def test_slice_empty():
    assert slice_scales(seq({}), 2) == []


# --- selection --------------------------------------------------------------------


def test_select_hand_trace():
    a = seq({R1: 1.0})
    fs = [GridFunction.constant(1, 4, 1.0)]
    res = select_sparse(a, 0, 1.0, fs, cstar=4.0)
    assert res.family.cubes == (R1,)
    assert verify_sparse(res.family)
    assert res.pointwise_constant <= 4.0 + 1e-12


def test_select_zero_functions():
    rng = rng_from(10)
    a = random_carleson(rng, 1, 5)
    fs = [GridFunction.constant(1, 5, 0.0)]
    res = select_sparse(a, 0, 1.0, fs, cstar=4.0)
    assert len(res.family) == 0
    assert res.pointwise_constant == 0.0


def test_select_rejects_negative_f():
    a = seq({R1: 1.0})
    f = GridFunction(1, 4, np.linspace(-1, 1, 16))
    with pytest.raises(DomainError):
        select_sparse(a, 0, 1.0, [f])


@pytest.mark.parametrize("cstar", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("run", [select_sparse, dominate])
def test_select_rejects_cstar_outside_positive_finite(monkeypatch, run, cstar):
    import sparselab.sparse as sparse_mod

    def no_walk(*args):
        raise AssertionError("the selection walk ran")

    monkeypatch.setattr(sparse_mod, "greedy_witness", no_walk)
    a = random_carleson(rng_from(10), 1, 5)
    with pytest.raises(DomainError, match=f"cstar must be positive and finite, got {cstar}"):
        run(a, 0, 1.0, [GridFunction.constant(1, 5, 1.0)], cstar=cstar)


def test_select_rejects_off_grid_support():
    a = seq({DyadicCube(3, (1,)): 0.5})
    fs = [GridFunction.constant(1, 4, 1.0)]
    with pytest.raises(DomainError):
        select_sparse(a, 2, 1.0, fs)


def test_select_randomized_step3():
    # randomized sparsity verification across k, m, p0
    rng = rng_from(11)
    trials = 0
    for k in (0, 1, 2):
        for m in (1, 2):
            for p0 in (1.0, 1.5, 2.0):
                for _ in range(4):
                    a = random_carleson(rng, 1, 6, k_grid=k)
                    fs = [random_function(rng, 1, 6) for _ in range(m)]
                    res = select_sparse(a, k, p0, fs, seed=trials)
                    assert verify_sparse(res.family)
                    assert res.covered
                    trials += 1
    assert trials == 72


def test_select_domination_covers():
    rng = rng_from(12)
    a = random_carleson(rng, 1, 6, k_grid=2)
    fs = [random_function(rng, 1, 6)]
    res = select_sparse(a, 2, 1.0, fs)
    lhs = eval_sparse_A(a, 2, 1.0, fs).values
    rhs = eval_sparse_A(res.family, 0, 1.0, fs).values
    assert np.all(lhs <= res.pointwise_constant * rhs + 1e-12)


def test_reports_count_selected_cubes_without_building_them(built_cubes):
    rng = rng_from(12)
    a = random_carleson(rng, 1, 6, k_grid=2)
    fs = [random_function(rng, 1, 6)]
    sel, dom = select_sparse(a, 2, 1.0, fs), dominate(a, 2, 1.0, fs)
    built_cubes.clear()
    rep, dom_rep = sel.report(), dom.report()
    assert built_cubes == []
    assert rep["selected"] == len(sel.selected) > 0
    assert [s["selected"] for s in dom_rep["selections"]] == [
        len(s.selected) for s in dom.selections]


# --- carleson embedding ------------------------------------------------------------


def test_embedding_trivial():
    a = seq({R1: 1.0})
    f = GridFunction.constant(1, 4, 1.0)
    rep = carleson_embedding_check(a, 2.0, (2.0,), [f])
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.holds


def test_embedding_randomized():
    rng = rng_from(13)
    for _ in range(30):
        a = random_carleson(rng, 1, 5)
        f = random_function(rng, 1, 5)
        rep = carleson_embedding_check(a, 2.0, (2.0,), [f])
        assert rep.holds
    for _ in range(30):
        a = random_carleson(rng, 1, 5)
        f1, f2 = random_function(rng, 1, 5), random_function(rng, 1, 5)
        rep = carleson_embedding_check(a, 1.0, (2.0, 2.0), [f1, f2])
        assert rep.holds


def test_embedding_single_cell_slack():
    rng = rng_from(14)
    a = random_carleson(rng, 1, 5)
    f = GridFunction.indicator(1, 5, DyadicCube(5, (17,)))
    rep = carleson_embedding_check(a, 2.0, (2.0,), [f])
    assert rep.holds
    assert rep.lhs < 0.5 * rep.rhs


def test_embedding_rejects_mismatch():
    a = seq({R1: 1.0})
    f = GridFunction.constant(1, 4, 1.0)
    with pytest.raises(DomainError):
        carleson_embedding_check(a, 2.0, (3.0,), [f])


# --- beta sequence ------------------------------------------------------------------


def test_beta_identity_k0():
    a = seq({DyadicCube(2, (1,)): 0.5})
    assert beta_sequence(a, 0) is a


def test_beta_single_cube():
    R = DyadicCube(2, (1,))
    a = seq({R: 1.0})
    b = beta_sequence(a, 2)
    assert dict(b.items()) == {R1: pytest.approx(2.0**-2)}


def test_beta_preserves_carleson():
    rng = rng_from(15)
    for k in (1, 2):
        for _ in range(10):
            a = random_carleson(rng, 1, 6)
            b = beta_sequence(a, k)
            assert verify_carleson(b).holds


# --- CZ decomposition ----------------------------------------------------------------


def test_cz_example():
    f = GridFunction(1, 4, 4.0 * (np.arange(16) < 4))
    dec = cz_decompose([f], 1.5, 1.0, R1)
    assert dec.short_circuit == []
    assert mask_cubes(dec.masks[0], 1) == (DyadicCube(1, (0,)),)
    b = dec.bad[0].values
    assert np.allclose(b[:8], f.values[:8] - 2.0)
    assert np.allclose(b[8:], 0.0)
    assert np.allclose(dec.good[0].values[:8], 2.0)
    assert dec.verify([f])


def test_cz_zero():
    f = GridFunction.constant(1, 4, 0.0)
    dec = cz_decompose([f], 1.0, 1.0, R1)
    assert mask_cubes(dec.masks[0], 1) == ()
    assert np.allclose(dec.bad[0].values, 0.0)
    assert dec.verify([f])


def test_cz_no_stopping_below_height():
    f = GridFunction.constant(1, 4, 0.5)
    dec = cz_decompose([f], 1.0, 1.0, R1)
    assert mask_cubes(dec.masks[0], 1) == ()
    assert np.allclose(dec.good[0].values, f.values)
    assert dec.verify([f])


def test_cz_short_circuit():
    f = GridFunction.constant(1, 4, 5.0)
    dec = cz_decompose([f], 1.0, 1.0, R1)
    assert dec.short_circuit == [0]


def test_cz_partial_short_circuit_checks_the_other_input():
    # input 0's mean 100 is above the height 1, so only input 1 is decomposed
    fs = [GridFunction.constant(1, 5, 100.0), random_function(rng_from(0), 1, 5)]
    dec = cz_decompose(fs, 1.0, 1.0, R1)
    assert dec.short_circuit == [0]
    assert dec.verify(fs)
    shifted = GridFunction(1, 5, dec.bad[1].values + 5.0)
    assert not dataclasses.replace(dec, bad=[dec.bad[0], shifted]).verify(fs)


def test_cz_invariants_randomized():
    rng = rng_from(16)
    done = 0
    while done < 25:
        f1, f2 = random_function(rng, 1, 6), random_function(rng, 1, 6)
        lam = float(rng.uniform(0.3, 1.5))
        dec = cz_decompose([f1, f2], lam, 1.5, R1)
        if dec.short_circuit:
            continue
        assert dec.verify([f1, f2])
        done += 1


@pytest.mark.parametrize("P", [DyadicCube(5, (0,)), DyadicCube(1, (0, 0))])
def test_cz_rejects_base_cube_off_the_grid(P):
    f = GridFunction.constant(1, 4, 1.0)
    with pytest.raises(DimensionError, match="does not fit"):
        cz_decompose([f], 1.0, 1.0, P)


def test_cz_rejects_bad_lambda():
    f = GridFunction.constant(1, 3, 1.0)
    with pytest.raises(DomainError):
        cz_decompose([f], 0.0, 1.0, R1)


# --- weak norm measurement ------------------------------------------------------------


def test_measure_weak_norm_delta():
    a = seq({R1: 1.0})
    f = GridFunction.constant(1, 4, 1.0)
    out = eval_sparse_A(a, 0, 1.0, [f])
    assert weak_norm(out, 1.0) == pytest.approx(1.0)


def test_measure_weak_norm_contractive_single_family():
    a = seq({R1: 1.0})
    for m in (1, 2):
        val = measure_weak_norm(a, 0, 1.0, m, trials=20, seed=3)
        assert val <= 1.0 + 1e-9
        assert val == pytest.approx(1.0)


def test_measure_weak_norm_monotone_in_trials():
    rng = rng_from(17)
    a = random_carleson(rng, 1, 5)
    v1 = measure_weak_norm(a, 1, 1.0, 1, trials=3, seed=5)
    v2 = measure_weak_norm(a, 1, 1.0, 1, trials=9, seed=5)
    assert v2 >= v1 - 1e-15


def test_measure_weak_norm_deterministic():
    rng = rng_from(18)
    a = random_carleson(rng, 1, 5)
    assert measure_weak_norm(a, 0, 1.5, 2, 5, seed=7) == measure_weak_norm(a, 0, 1.5, 2, 5, seed=7)


def test_default_cstar_evaluates_only_uncertified_trials(monkeypatch):
    import sparselab.sparse as sparse_mod

    # lhs and rhs come from _ancestor_sum, so every counted call is an estimate trial
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_sparse_A(*args)

    monkeypatch.setattr(sparse_mod, "eval_sparse_A", counted)
    rng = rng_from(1)
    a = random_carleson(rng, 2, 6)
    fs = [random_function(rng, 2, 6) for _ in range(2)]
    # q = p0/m = 0.75: every trial's L^1 bound is below one, so none is evaluated
    assert select_sparse(a, 0, 1.5, fs).w_hat == 2.0
    assert len(calls) == 0
    # q = 2 has no L^1 bound: all 8 trials are evaluated
    assert select_sparse(a, 0, 2.0, fs[:1]).w_hat == 2.0
    assert len(calls) == 8


# --- dyadic maximal --------------------------------------------------------------------


def oracle_maximal(f, p0):
    n, L = f.dim, f.level
    out = np.zeros((1 << L,) * n)
    for Q in all_cubes(n, L):
        val = average(f, Q, p0)
        sl = Q.cell_slices(L)
        out[sl] = np.maximum(out[sl], val)
    return out


def test_maximal_constant():
    f = GridFunction.constant(1, 4, 1.0)
    assert np.allclose(dyadic_maximal(f).values, 1.0)


def test_maximal_indicator():
    f = GridFunction.indicator(1, 4, DyadicCube(2, (0,)))
    out = dyadic_maximal(f).values
    assert np.allclose(out[8:], 0.25)
    assert np.allclose(out, oracle_maximal(f, 1.0))


def test_maximal_matches_oracle():
    rng = rng_from(19)
    f = GridFunction(1, 5, rng.uniform(0, 2, 32))
    for p0 in (1.0, 2.0):
        assert np.allclose(dyadic_maximal(f, p0).values, oracle_maximal(f, p0))
    g = GridFunction(2, 3, rng.uniform(0, 2, 64))
    assert np.allclose(dyadic_maximal(g).values, oracle_maximal(g, 1.0))


def test_maximal_weighted_bound():
    rng = rng_from(20)
    for _ in range(40):
        f = GridFunction(1, 6, rng.normal(size=64))
        s = random_weight(rng, 1, 6)
        lhs = weighted_norm(dyadic_maximal(f, sigma=s), 2.0, s)
        rhs = 2.0 * weighted_norm(f, 2.0, s)
        assert lhs <= rhs * (1 + 1e-9)


@pytest.mark.parametrize("sigma", [None, GridFunction.constant(1, 4, 2.0)])
def test_maximal_rejects_negative_maxlevel(sigma):
    f = GridFunction.constant(1, 4, 1.0)
    with pytest.raises(DomainError, match="maxlevel must be nonnegative, got -3"):
        dyadic_maximal(f, sigma=sigma, maxlevel=-3)


@pytest.mark.parametrize("sigma", [GridFunction.constant(2, 2, 1.0),
                                   GridFunction.constant(1, 6, 1.0)])
def test_maximal_rejects_sigma_on_another_grid(sigma):
    f = GridFunction.constant(2, 3, 1.0)
    with pytest.raises(DimensionError, match="grid mismatch"):
        dyadic_maximal(f, sigma=sigma)


def test_maximal_dominates_identity():
    rng = rng_from(201)
    f = GridFunction(1, 5, rng.uniform(0, 1, 32))
    assert np.all(dyadic_maximal(f).values >= np.abs(f.values) - 1e-12)


# --- full domination pipeline ------------------------------------------------------------


def test_dominate_k0():
    rng = rng_from(22)
    a = random_carleson(rng, 1, 5)
    fs = [random_function(rng, 1, 5)]
    res = dominate(a, 0, 1.0, fs)
    assert len(res.pieces) == 1
    assert res.covered
    assert math.isfinite(res.cell_constant)


@pytest.mark.parametrize("k", [0, 2])
def test_dominate_builds_one_pyramid_per_input(monkeypatch, k):
    import sparselab.sparse as sparse_mod

    rng = rng_from(22)
    a = random_carleson(rng, 1, 5)
    fs = [random_function(rng, 1, 5), random_function(rng, 1, 5)]
    built = []

    def counted(values):
        built.append(values.shape)
        return mean_pyramid(values)

    monkeypatch.setattr(sparse_mod, "mean_pyramid", counted)
    res = dominate(a, k, 1.0, fs, cstar=4.0)
    # every selection and the comparison share the pyramids of |f_i|^p0
    assert len(built) == len(fs)
    assert len(res.pieces) >= (1 if k == 0 else 2)
    monkeypatch.undo()
    assert np.array_equal(res.lhs, eval_sparse_A(a, k, 1.0, fs).values)


def test_dominate_lhs_is_the_operator():
    rng = rng_from(26)
    fs = [random_function(rng, 2, 5), random_function(rng, 2, 5)]
    a = random_carleson(rng, 2, 5, density=0.5)
    # levels 3 and 5, one residue mod k under the level-1 roots P: every cell lies in
    # one piece and adds its cubes' terms in the order eval_sparse_A does
    odd = CarlesonSequence(a.root, {j: arr for j, arr in a.levels.items() if j % 2})
    res = dominate(odd, 2, 1.5, fs)
    assert {(p.root.level - odd.root.level, p.root.level) for p in res.pieces} == {(1, 1)}
    assert len(res.pieces) > 1
    assert np.array_equal(res.lhs, eval_sparse_A(odd, 2, 1.5, fs).values)
    # levels 2 to 5, two residues: each cell adds one sum per residue
    res = dominate(a, 2, 1.5, fs)
    assert {p.root.level - a.root.level for p in res.pieces} == {0, 1} and len(res.pieces) > 2
    np.testing.assert_allclose(res.lhs, eval_sparse_A(a, 2, 1.5, fs).values, rtol=1e-12, atol=0)


def test_dominate_k2_random():
    rng = rng_from(23)
    for _ in range(5):
        a = random_carleson(rng, 1, 6, k_grid=2)
        fs = [random_function(rng, 1, 6), random_function(rng, 1, 6)]
        res = dominate(a, 2, 1.0, fs)
        assert res.covered
        for sel in res.selections:
            assert verify_sparse(sel.family)
        lhs = eval_sparse_A(a, 2, 1.0, fs).values
        rhs = sum(eval_sparse_A(s.family, 0, 1.0, fs).values for s in res.selections)
        assert np.all(lhs <= res.cell_constant * rhs + 1e-12)


def test_dominate_zero_input():
    rng = rng_from(24)
    a = random_carleson(rng, 1, 5)
    fs = [GridFunction.constant(1, 5, 0.0)]
    res = dominate(a, 1, 1.0, fs)
    assert res.cell_constant == 0.0


def test_select_and_dominate_2d():
    rng = rng_from(25)
    for k in (0, 1):
        a = random_carleson(rng, 2, 4, k_grid=k)
        fs = [random_function(rng, 2, 4)]
        res = dominate(a, k, 1.5, fs)
        assert res.covered
        for sel in res.selections:
            assert verify_sparse(sel.family)


def test_annulus_2d_disjoint():
    Q = DyadicCube(3, (2, 5))
    L = 5
    seen = np.zeros((1 << L, 1 << L), dtype=int)
    for j in range(5):
        seen += ring_mask(Q, j, L)
    assert (seen == 1).all()


def test_dilate_form_dominated_by_selected_families():
    # single-grid stand-in for the dilate-to-ancestor reduction: the wrapped
    # dilate operator is covered by the selected families, with a measured
    # cell constant recorded here (approx. 2.6 at these seeds)
    rng = rng_from(55)
    worst = 0.0
    for k in (1, 2):
        for _ in range(10):
            a = random_carleson(rng, 1, 8, k_grid=k)
            fs = [random_function(rng, 1, 8)]
            res = dominate(a, k, 1.0, fs)
            lhs = eval_sparse_T(a, k, 1.0, fs).values
            rhs = sum(eval_sparse_A(s.family, 0, 1.0, fs).values for s in res.selections)
            pos = rhs > 0
            assert np.all(lhs[~pos] <= 1e-12)
            worst = max(worst, float((lhs[pos] / rhs[pos]).max()))
    assert math.isfinite(worst)
    assert worst < 6.0


def test_nan_p0_is_rejected():
    # NaN fails every comparison, so each check is written as "not p0 >= 1" or "not p > 0"
    from sparselab.certify import beta_exponent

    rng = rng_from(4)
    a = random_carleson(rng, 1, 5)
    fs = [random_function(rng, 1, 5)]
    nan = float("nan")
    for call in (lambda: eval_sparse_A(a, 0, nan, fs), lambda: eval_sparse_T(a, 0, nan, fs),
                 lambda: select_sparse(a, 0, nan, fs), lambda: dominate(a, 1, nan, fs),
                 lambda: cz_decompose(fs, 1.0, nan, root_cube(1)),
                 lambda: dyadic_maximal(fs[0], nan), lambda: average(fs[0], root_cube(1), nan),
                 # with sigma the maximal function reads no p0, so any p0 but 1 is refused
                 lambda: dyadic_maximal(fs[0], nan, sigma=fs[0]),
                 lambda: dyadic_maximal(fs[0], 2.0, sigma=fs[0]),
                 lambda: beta_exponent((2.0, 3.0), nan), lambda: weighted_norm(fs[0], nan),
                 lambda: weak_norm(fs[0], nan), lambda: rearrangement(fs[0], nan),
                 lambda: carleson_embedding_check(a, 0.0, [2.0], fs),
                 lambda: carleson_embedding_check(a, nan, [2.0], fs),
                 lambda: carleson_embedding_check(a, 1.0, [0.0], fs),
                 lambda: carleson_embedding_check(a, 1.0, [nan], fs),
                 lambda: carleson_embedding_check(a, 1.0, [0.5], fs)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("p0", [0.0, 0.5, float("nan")])
@pytest.mark.parametrize("name", ["measure_weak_norm", "dilate_products", "osc_profile",
                                  "average", "eval_sparse_A", "cz_decompose", "dyadic_maximal",
                                  "WeightTuple"])
def test_p0_below_1_is_rejected(name, p0):
    # p0 = 0 divided by zero, and 0.5 and NaN returned values, before the check; every
    # entry point states the one rule of grid.check_p0 in the same words
    rng = rng_from(4)
    a = random_carleson(rng, 1, 5)
    fs = [random_function(rng, 1, 5)]
    call = {"measure_weak_norm": lambda: measure_weak_norm(a, 0, p0, 1),
            "dilate_products": lambda: dilate_products(fs, [2], p0),
            "osc_profile": lambda: osc_profile(hilbert_transform, fs, DyadicCube(2, (1,)),
                                               0.25, p0, 1.0),
            "average": lambda: average(fs[0], DyadicCube(2, (1,)), p0),
            "eval_sparse_A": lambda: eval_sparse_A(a, 0, p0, fs),
            "cz_decompose": lambda: cz_decompose(fs, 1.0, p0, R1),
            "dyadic_maximal": lambda: dyadic_maximal(fs[0], p0),
            "WeightTuple": lambda: WeightTuple((random_weight(rng, 1, 5),), (2.0,), p0=p0)}[name]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == f"p0 must be >= 1, got {p0}"
