"""Acceptance suite: every criterion runs at its stated trial count and
tolerance and prints a PASS line with its measured numbers."""

import json
import math
import time

import numpy as np
import pytest

from sparselab.certify import (
    beta_exponent,
    certify_theorem_b,
    certify_theorem_c,
    extremal_probe_tuple,
    hilbert_h2_fit,
    power_weight_tuple,
    sweep,
)
from sparselab.grid import DyadicCube, GridFunction, root_cube, weighted_norm
from sparselab.kernels import (
    apply_bilinear_multiplier,
    apply_linear_multiplier,
    check_h2,
    hilbert_kernel,
    hilbert_transform,
    symbol_identity,
)
from sparselab.oscillation import lerner_decompose
from sparselab.samples import (
    random_carleson,
    random_function,
    random_signed_function,
    random_weight,
    rng_from,
)
from sparselab.sparse import (
    carleson_embedding_check,
    cz_decompose,
    dyadic_maximal,
    eval_sparse_A,
    select_sparse,
    verify_sparse,
)
from sparselab.weights import duality_inequality_check

N1, L8 = 1, 8
R1 = root_cube(1)
TOL = 1e-9


def bandlimited(rng, L, cut=4):
    N = 1 << L
    spec = np.zeros(N, dtype=complex)
    m = N // cut
    spec[1:m] = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
    spec[-m + 1 :] = np.conj(spec[1:m][::-1])
    spec[0] = rng.normal()
    return GridFunction(1, L, np.fft.ifft(spec).real)


# -------------------------------------------------------------------------
# Criterion 1: exact-inequality suite, >= 500 seeded trials each, tol 1e-9.


def test_criterion_1a_lerner_formula():
    rng = rng_from(101)
    t0 = time.time()
    worst = -math.inf
    for _ in range(500):
        f = random_signed_function(rng, N1, L8)
        dec = lerner_decompose(f, R1)
        worst = max(worst, dec.max_violation(f))
        assert dec.verify(f)
        assert verify_sparse(dec.family)
    print(f"\nACCEPTANCE 1a Lerner formula: PASS "
          f"(500 trials, max violation {worst:.2e}, {time.time() - t0:.1f}s)")


def test_criterion_1b_selection_sparsity():
    rng = rng_from(102)
    t0 = time.time()
    trials = 0
    combos = [(k, m, p0) for k in (0, 1, 2) for m in (1, 2) for p0 in (1.0, 1.5, 2.0)]
    while trials < 504:
        k, m, p0 = combos[trials % len(combos)]
        a = random_carleson(rng, N1, L8, k_grid=k)
        fs = [random_function(rng, N1, L8) for _ in range(m)]
        res = select_sparse(a, k, p0, fs, seed=trials)  # SparsityError would fail here
        assert verify_sparse(res.family)
        assert res.covered
        trials += 1
    print(f"\nACCEPTANCE 1b selection sparsity: PASS ({trials} trials, "
          f"{time.time() - t0:.1f}s)")


def test_criterion_1c_carleson_embedding():
    rng = rng_from(103)
    t0 = time.time()
    slack = math.inf
    for _ in range(250):
        a = random_carleson(rng, N1, L8)
        f = random_function(rng, N1, L8)
        rep = carleson_embedding_check(a, 2.0, (2.0,), [f])
        assert rep.lhs <= rep.rhs * (1 + TOL)
        slack = min(slack, rep.rhs / max(rep.lhs, 1e-300))
    for _ in range(250):
        a = random_carleson(rng, N1, L8)
        fs = [random_function(rng, N1, L8), random_function(rng, N1, L8)]
        rep = carleson_embedding_check(a, 1.0, (2.0, 2.0), fs)
        assert rep.lhs <= rep.rhs * (1 + TOL)
        slack = min(slack, rep.rhs / max(rep.lhs, 1e-300))
    print(f"\nACCEPTANCE 1c Carleson embedding: PASS (500 trials, "
          f"min slack factor {slack:.2f}, {time.time() - t0:.1f}s)")


def test_criterion_1d_maximal_bound():
    rng = rng_from(104)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        f = random_signed_function(rng, N1, L8)
        s = random_weight(rng, N1, L8)
        lhs = weighted_norm(dyadic_maximal(f, sigma=s), 2.0, s)
        rhs = 2.0 * weighted_norm(f, 2.0, s)
        assert lhs <= rhs * (1 + TOL)
        worst = max(worst, lhs / rhs)
    print(f"\nACCEPTANCE 1d maximal bound: PASS (500 trials, "
          f"worst lhs/rhs {worst:.3f}, {time.time() - t0:.1f}s)")


def test_criterion_1e_duality_inequality():
    # (p, p0') pairs (1.2, 1.5') and (1.5, 4): the second pair is run at
    # p0 = 4/3 so that 1 < p < p0' holds as the inequality requires
    rng = rng_from(105)
    t0 = time.time()
    for p, p0 in ((1.2, 3.0), (1.5, 4.0 / 3.0)):
        for _ in range(250):
            w = random_weight(rng, N1, L8)
            rep = duality_inequality_check(w, p, p0)
            assert rep.holds
            assert rep.lhs <= rep.rhs * (1 + TOL)
    print(f"\nACCEPTANCE 1e duality inequality: PASS (500 trials, "
          f"{time.time() - t0:.1f}s)")


def test_criterion_1f_cz_invariants():
    rng = rng_from(106)
    t0 = time.time()
    done = 0
    while done < 500:
        m = 1 + done % 2
        p0 = (1.0, 1.5, 2.0)[done % 3]
        fs = [random_function(rng, N1, L8) for _ in range(m)]
        lam = float(rng.uniform(0.4, 1.6))
        dec = cz_decompose(fs, lam, p0, m, R1)
        if dec.short_circuit:
            continue
        assert dec.verify(fs)
        done += 1
    print(f"\nACCEPTANCE 1f CZ invariants: PASS (500 trials, {time.time() - t0:.1f}s)")


# -------------------------------------------------------------------------
# Criterion 2: kernel decay fit.


def test_criterion_2_kernel_decay_fit():
    t0 = time.time()
    base = DyadicCube(6, (1,))
    fits = {}
    for L in (9, 10, 11):
        rep = check_h2(hilbert_kernel(L), 2.0, base, 5)
        fits[L] = rep.delta_hat
    main = fits[10]
    assert abs(main - 1.5) <= 0.15
    spread = max(fits.values()) - min(fits.values())
    assert spread <= 0.05
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 kernel decay: PASS (delta_hat(L=10) = {main:.3f}, "
          f"spread {spread:.3f} across L=9..11, {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# Criterion 3: complexity scaling of the domination pipeline.


def test_criterion_3_theorem_a_scaling():
    from sparselab.certify import certify_theorem_a

    rng = rng_from(300)
    t0 = time.time()
    sups = {}
    for k in (0, 1, 2, 3):
        best = 0.0
        for t in range(200):
            a = random_carleson(rng, N1, L8, k_grid=k)
            fs = [random_function(rng, N1, L8)]
            rec = certify_theorem_a(a, k, 1.0, fs, 2.0, seed=1000 * k + t)
            if rec.degenerate:
                continue
            best = max(best, rec.ratio)  # ratio already divided by (k+1)
        sups[k] = best
    bound = 3.0 * sups[0]
    assert all(v <= bound for v in sups.values())
    print(f"\nACCEPTANCE 3 complexity scaling: PASS (sup ratio/(k+1) by k: "
          f"{ {k: round(v, 3) for k, v in sups.items()} }, bound 3x k=0 = {bound:.3f}, "
          f"{time.time() - t0:.1f}s)")


# -------------------------------------------------------------------------
# Criterion 4: sparse-form weighted campaign stability + exponent cross-check.


def _theorem_b_running_sup(p0: float, trials: int, rng_seed: int) -> tuple[float, float]:
    from sparselab.samples import random_sparse_family

    rng = rng_from(rng_seed)
    alphas = np.linspace(-0.9, 0.9, 13)
    tuples = [power_weight_tuple(float(a), (2.0, 2.0), p0, L=L8) for a in alphas]
    sup_at_500 = 0.0
    sup = 0.0
    for t in range(trials):
        wt = tuples[t % len(tuples)]
        fam = random_sparse_family(rng, N1, L8)
        if t < len(tuples):
            fs = extremal_probe_tuple(wt)  # front-load the near-extremizers
        else:
            fs = [random_function(rng, N1, L8) for _ in range(2)]
        rec = certify_theorem_b(fam, wt, fs)
        if not rec.degenerate and math.isfinite(rec.ratio):
            sup = max(sup, rec.ratio)
        if t == 499:
            sup_at_500 = sup
    return sup_at_500, sup


def test_criterion_4_theorem_b_campaign():
    t0 = time.time()
    assert beta_exponent((2.0, 2.0), 1.0) == 2.0
    assert beta_exponent((8.0, 8.0), 2.0) == 1.0
    lines = []
    for p0, seed in ((1.0, 400), (1.5, 401)):
        sup500, sup1000 = _theorem_b_running_sup(p0, 1000, seed)
        assert math.isfinite(sup1000) and sup1000 > 0
        change = (sup1000 - sup500) / sup500
        assert change < 0.10
        lines.append(f"p0={p0}: sup@500 {sup500:.3f} -> sup@1000 {sup1000:.3f} "
                     f"(+{100 * change:.2f}%)")
    print(f"\nACCEPTANCE 4 weighted campaign: PASS ({'; '.join(lines)}; "
          f"beta checks exact, {time.time() - t0:.1f}s)")


# -------------------------------------------------------------------------
# Criterion 5: end-to-end certification of the reference operator.


def test_criterion_5_theorem_c_end_to_end():
    from sparselab.weights import WeightTuple

    t0 = time.time()
    rng = rng_from(500)
    h2 = hilbert_h2_fit(L8, 1.0)
    assert h2.delta0 is not None and h2.delta0 > 0
    ones = WeightTuple((GridFunction.constant(1, L8, 1.0),), (2.0,), p0=1.0)
    ratios = []
    for _ in range(10):
        f = random_function(rng, N1, L8)
        rec = certify_theorem_c(hilbert_transform, ones, [f], h2)
        ratios.append(rec.ratio)
        assert 0.1 <= rec.ratio <= 10.0
    sweep_ratios = []
    for alpha in np.linspace(-0.9, 0.9, 7):
        wt = power_weight_tuple(float(alpha), (2.0,), 1.0, L=L8)
        f = random_function(rng, N1, L8)
        rec = certify_theorem_c(hilbert_transform, wt, [f], h2)
        assert math.isfinite(rec.ratio)
        sweep_ratios.append(rec.ratio)
    print(f"\nACCEPTANCE 5 end-to-end: PASS (flat-weight ratios "
          f"[{min(ratios):.2f}, {max(ratios):.2f}] in [0.1, 10]; power sweep finite, "
          f"{time.time() - t0:.1f}s)")


# -------------------------------------------------------------------------
# Criterion 6: operator identities.


def test_criterion_6_operator_identities():
    rng = rng_from(600)
    worst_id, worst_h2, worst_prod = 0.0, 0.0, 0.0
    for _ in range(20):
        f = GridFunction(1, L8, rng.normal(size=1 << L8))
        out = apply_linear_multiplier(symbol_identity(1 << L8), f)
        worst_id = max(worst_id, float(np.abs(out.values - f.values).max()))

        g = bandlimited(rng, L8)
        h2 = hilbert_transform(hilbert_transform(g))
        target = -(g.values - g.values.mean())
        worst_h2 = max(worst_h2, float(np.abs(h2.values - target).max()))

        u = GridFunction(1, 6, rng.normal(size=64))
        v = GridFunction(1, 6, rng.normal(size=64))
        prod = apply_bilinear_multiplier(symbol_identity(64, 2), u, v)
        worst_prod = max(worst_prod, float(np.abs(prod.values - u.values * v.values).max()))
    assert worst_id <= 1e-12
    assert worst_h2 <= 1e-10
    assert worst_prod <= 1e-12
    print(f"\nACCEPTANCE 6 operator identities: PASS (identity {worst_id:.1e}, "
          f"double Hilbert {worst_h2:.1e}, product {worst_prod:.1e})")


# -------------------------------------------------------------------------
# Criterion 7: determinism of sweeps.


def test_criterion_7_sweep_determinism():
    cfg = {
        "experiment": "theorem-b", "n": 1, "L": 6, "m": 2, "p0": 1.0,
        "p": [2.0, 2.0], "trials": 4, "seed": 7,
        "weight_family": {"type": "power", "alpha_grid": [-0.5, 0.0, 0.5]},
    }
    a = sweep(cfg)
    b = sweep(cfg)
    assert a.ndjson().encode() == b.ndjson().encode()
    assert a.csv().encode() == b.csv().encode()
    print("\nACCEPTANCE 7 determinism: PASS (byte-identical reruns)")
