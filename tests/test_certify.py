import json
import math
from functools import partial

import numpy as np
import pytest

from sparselab.certify import (
    CertificationRecord,
    beta_exponent,
    certify_buckley,
    certify_theorem_a,
    certify_theorem_b,
    certify_theorem_c,
    extremal_probe_tuple,
    hilbert_h2_fit,
    power_weight_tuple,
    sweep,
    validate_config,
)
from sparselab.grid import DomainError, GridFunction, root_cube
from sparselab.kernels import apply_linear_multiplier, hilbert_transform, symbol_identity
from sparselab.samples import random_carleson, random_function, random_sparse_family, rng_from
from sparselab.weights import WeightTuple

from cubes import family

R1 = root_cube(1)


def ones_tuple(m=1, p=(2.0,), p0=1.0, L=6):
    ws = tuple(GridFunction.constant(1, L, 1.0) for _ in range(m))
    return WeightTuple(ws, p, p0=p0)


# --- beta exponent -------------------------------------------------------------


def test_beta_exponent_values():
    assert beta_exponent((2.0, 2.0), 1.0) == pytest.approx(2.0)
    assert beta_exponent((8.0, 8.0), 2.0) == pytest.approx(1.0)
    assert beta_exponent((2.0,), 1.0) == pytest.approx(1.0)


def test_beta_exponent_rejects():
    with pytest.raises(DomainError):
        beta_exponent((2.0, 2.0), 2.0)
    with pytest.raises(DomainError):
        beta_exponent((), 1.0)


# --- theorem B -----------------------------------------------------------------


def test_theorem_b_trivial_ratio_one():
    t = ones_tuple(m=2, p=(2.0, 2.0))
    fam = family([R1], 1, 6)
    fs = [GridFunction.constant(1, 6, 1.0)] * 2
    rec = certify_theorem_b(fam, t, fs)
    assert rec.lhs == pytest.approx(1.0)
    assert rec.rhs == pytest.approx(1.0)
    assert rec.ratio == pytest.approx(1.0)


def test_theorem_b_scaling_invariance():
    rng = rng_from(1)
    t = power_weight_tuple(0.3, (2.0, 2.0), 1.0, L=6)
    fam = random_sparse_family(rng, 1, 6)
    fs = [random_function(rng, 1, 6), random_function(rng, 1, 6)]
    base = certify_theorem_b(fam, t, fs).ratio
    scaled = certify_theorem_b(fam, t, [f * 3.5 for f in fs]).ratio
    assert scaled == pytest.approx(base, rel=1e-9)


def test_theorem_b_power_sweep_bounded():
    rng = rng_from(2)
    sup = 0.0
    for alpha in (-0.3, 0.0, 0.3):
        t = power_weight_tuple(alpha, (2.0, 2.0), 1.0, L=6)
        for _ in range(20):
            fam = random_sparse_family(rng, 1, 6)
            fs = [random_function(rng, 1, 6), random_function(rng, 1, 6)]
            rec = certify_theorem_b(fam, t, fs)
            assert math.isfinite(rec.ratio)
            sup = max(sup, rec.ratio)
    assert 0 < sup < 50


def test_theorem_b_extremal_probe():
    t = power_weight_tuple(0.5, (2.0, 2.0), 1.0, L=6)
    fam = family([R1], 1, 6)
    fs = extremal_probe_tuple(t)
    rec = certify_theorem_b(fam, t, fs)
    assert math.isfinite(rec.ratio)
    assert rec.params["family_size"] == 1


def test_theorem_b_sweep_scans_each_tuple_once(monkeypatch):
    from sparselab import weights

    scans = []
    supremum = weights._supremum

    def counted(*args):
        scans.append(args)
        return supremum(*args)

    monkeypatch.setattr(weights, "_supremum", counted)
    res = sweep({"experiment": "theorem-b", "n": 2, "L": 5, "m": 2, "p0": 1.0,
                 "p": [2.0, 2.0], "trials": 6, "seed": 1,
                 "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.0, 0.3]}})
    # 3 points x 6 trials certify 18 records and probe 3 times, all on 3 weight tuples
    assert len(res.records) == 18
    assert len(scans) == 3


def test_theorem_b_sweep_builds_no_cube_per_trial(built_cubes):
    counts = []
    for trials in (2, 6):
        built_cubes.clear()
        res = sweep({"experiment": "theorem-b", "n": 2, "L": 5, "m": 2, "p0": 1.0,
                     "p": [2.0, 2.0], "trials": trials, "seed": 1,
                     "weight_family": {"type": "power", "alpha_grid": [0.3]}})
        assert len(res.records) == trials
        counts.append(len(built_cubes))
    # the sampled families are level masks: only the point's own cubes are built
    assert counts[0] == counts[1]


def test_theorem_c_sweep_builds_no_cube_per_family_member(built_cubes):
    res = sweep({"experiment": "theorem-c", "n": 1, "L": 12, "m": 1, "p0": 1.0, "p": [2.0],
                 "trials": 2, "seed": 1,
                 "weight_family": {"type": "power", "alpha_grid": [-0.6, 0.0, 0.6]}})
    assert all(r.constants["family_size"] > 0 for r in res.records)
    # the H2 fit's cube, each trial's base cube and each weight tuple's witness
    assert len(built_cubes) <= 1 + 2 * 3 + 3


def test_theorem_b_rejects_negative():
    t = ones_tuple(m=1)
    fam = family([R1], 1, 6)
    f = GridFunction(1, 6, np.linspace(-1, 1, 64))
    with pytest.raises(DomainError):
        certify_theorem_b(fam, t, [f])


# --- theorem A -----------------------------------------------------------------


def test_theorem_a_trivial():
    from sparselab.sparse import CarlesonSequence

    a = CarlesonSequence.from_cubes(R1, {R1: 1.0})
    fs = [GridFunction.constant(1, 5, 1.0)]
    rec = certify_theorem_a(a, 0, 1.0, fs, 2.0)
    assert rec.constants["raw_norm_ratio"] == pytest.approx(1.0)
    assert rec.ratio == pytest.approx(1.0)


def test_theorem_a_zero_input_degenerate():
    rng = rng_from(3)
    a = random_carleson(rng, 1, 5)
    fs = [GridFunction.constant(1, 5, 0.0)]
    rec = certify_theorem_a(a, 1, 1.0, fs, 2.0)
    assert rec.degenerate


def test_theorem_a_ratio_growth_bounded():
    rng = rng_from(4)
    sups = {}
    for k in (0, 1, 2):
        best = 0.0
        for _ in range(10):
            a = random_carleson(rng, 1, 6, k_grid=k)
            fs = [random_function(rng, 1, 6)]
            rec = certify_theorem_a(a, k, 1.0, fs, 2.0, seed=k)
            best = max(best, rec.ratio)
        sups[k] = best
    assert max(sups.values()) <= 3.0 * max(sups[0], 1e-9)


# --- theorem C -----------------------------------------------------------------


def test_theorem_c_identity_operator():
    t = ones_tuple(m=1, p=(2.0,), p0=1.0, L=6)
    op = partial(apply_linear_multiplier, symbol_identity(64))
    rng = rng_from(5)
    f = random_function(rng, 1, 6)
    rec = certify_theorem_c(op, t, [f], 1.0)
    assert rec.ratio == pytest.approx(1.0)


def test_theorem_c_zero_input():
    t = ones_tuple(m=1, p=(2.0,), L=6)
    rec = certify_theorem_c(hilbert_transform, t, [GridFunction.constant(1, 6, 0.0)], 1.0)
    assert rec.lhs == 0.0


def test_theorem_c_hilbert_sanity_band():
    t = ones_tuple(m=1, p=(2.0,), p0=1.0, L=8)
    h2 = hilbert_h2_fit(8, 1.0)
    assert h2.delta0 is not None and h2.delta0 > 0
    rng = rng_from(6)
    for _ in range(5):
        f = random_function(rng, 1, 8)
        rec = certify_theorem_c(hilbert_transform, t, [f], h2)
        assert 0.1 <= rec.ratio <= 10.0


def test_theorem_c_rejects_degenerate_decay():
    t = ones_tuple(m=1, p=(2.0,), L=6)
    f = GridFunction.constant(1, 6, 1.0)
    with pytest.raises(DomainError):
        certify_theorem_c(hilbert_transform, t, [f], 0.0)


# --- Buckley --------------------------------------------------------------------


def test_buckley_trivial():
    w = GridFunction.constant(1, 6, 1.0)
    f = GridFunction.constant(1, 6, 1.0)
    rec = certify_buckley(w, 2.0, f)
    assert rec.lhs == pytest.approx(1.0)
    assert rec.rhs == pytest.approx(1.0)


def test_buckley_alpha_sweep_bounded():
    rng = rng_from(7)
    from sparselab.weights import power_weight

    ratios = []
    for alpha in np.arange(-0.9, 1.0, 0.3):
        w = power_weight(float(alpha), n=1, L=8)
        for _ in range(5):
            f = random_function(rng, 1, 8)
            ratios.append(certify_buckley(w, 2.0, f).ratio)
    assert max(ratios) < 3.0
    assert all(math.isfinite(r) for r in ratios)


def test_buckley_stress_probe():
    # indicator of a small cube near the weight singularity
    from sparselab.grid import DyadicCube
    from sparselab.weights import power_weight

    w = power_weight(-0.8, n=1, L=8)
    f = GridFunction.indicator(1, 8, DyadicCube(6, (0,)))
    rec = certify_buckley(w, 2.0, f)
    assert math.isfinite(rec.ratio)
    assert rec.ratio <= 1.0 + 1e-9  # still below the weighted bound


def test_buckley_rejects_p1():
    w = GridFunction.constant(1, 4, 1.0)
    with pytest.raises(DomainError):
        certify_buckley(w, 1.0, w)


# --- records and sweeps ----------------------------------------------------------


def test_record_key_stable():
    rec = CertificationRecord("buckley", {"p": 2.0}, 1.0, 2.0)
    rec2 = CertificationRecord("buckley", {"p": 2.0}, 5.0, 2.0)
    assert rec.key() == rec2.key()
    d = rec.to_dict()
    assert d["ratio"] == pytest.approx(0.5)


def test_validate_config_rejects_unknown():
    with pytest.raises(DomainError):
        validate_config({"experiment": "buckley", "bogus": 1})
    with pytest.raises(DomainError):
        validate_config({"experiment": "nope"})
    with pytest.raises(DomainError):
        validate_config({"experiment": "buckley", "weight_family": {"type": "power", "x": 1}})


@pytest.mark.parametrize("cfg", [
    {"experiment": "theorem-b", "m": 2, "weight_family": {"alpha_grid": [0.5, 1.0]}},
    {"experiment": "theorem-b", "n": 2, "weight_family": {"alpha_grid": [-2.0]}},
    {"experiment": "theorem-c", "weight_family": {"alpha_grid": [-1.5]}},
    {"experiment": "buckley", "weight_family": {"alpha_grid": [0.5, -1.0]}},
])
def test_power_alphas_outside_the_weights_range(cfg):
    # checked before the first point runs, naming the config field
    with pytest.raises(DomainError, match="'weight_family.alpha_grid'"):
        validate_config(cfg)


def test_sweep_empty_grid():
    # a grid without points is a config error, raised before any trial runs
    cfg = {"experiment": "buckley", "weight_family": {"type": "power", "alpha_grid": []},
           "trials": 2, "seed": 1}
    with pytest.raises(DomainError, match="buckley needs at least one point in config "
                                          "'weight_family.alpha_grid'"):
        sweep(cfg)
    with pytest.raises(DomainError, match="theorem-a needs at least one point in config 'k'"):
        sweep({"experiment": "theorem-a", "k": [], "trials": 2, "seed": 1})


def test_sweep_csv_skips_degenerate_records(monkeypatch):
    # trials 0 and 2 draw the zero function: both sides vanish and the record compares nothing
    from sparselab import samples

    draw, calls = samples.random_function, []

    def zero_on_even(rng, n, L):
        f = draw(rng, n, L)
        calls.append(len(calls))
        return GridFunction.constant(n, L, 0.0) if calls[-1] in (0, 2) else f

    monkeypatch.setattr(samples, "random_function", zero_on_even)
    res = sweep({"experiment": "buckley", "L": 4, "trials": 4, "p": [2.0],
                 "weight_family": {"type": "power", "alpha_grid": [0.3]}})
    records = [r.to_dict() for r in res.records]
    assert [r["degenerate"] for r in records] == [True, False, True, False]
    assert [r["ratio"] is None for r in records] == [True, False, True, False]
    ratios = sorted(r["ratio"] for r in records if r["ratio"] is not None)
    row, = res.summary
    assert row["records"] == 4
    assert row["ratio_max"] == ratios[-1] and row["ratio_median"] == ratios[1]


def test_record_round_trip():
    # one record of each experiment, then a degenerate buckley record (both sides 0)
    rng = rng_from(12)
    fs = [random_function(rng, 1, 6)]
    t = ones_tuple(m=1, p=(2.0,), L=6)
    w = GridFunction.constant(1, 6, 1.0)
    records = [
        certify_theorem_a(random_carleson(rng, 1, 6), 1, 1.0, fs, 2.0, seed=3),
        certify_theorem_b(random_sparse_family(rng, 1, 6), t, fs),
        certify_theorem_c(hilbert_transform, t, fs, 1.0),
        certify_buckley(w, 2.0, fs[0]),
        certify_buckley(w, 2.0, GridFunction.constant(1, 6, 0.0)),
    ]
    assert [r.degenerate for r in records] == [False] * 4 + [True]
    for rec in records:
        back = CertificationRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.to_dict() == rec.to_dict()
        assert back.degenerate == rec.degenerate


def test_sweep_two_points():
    cfg = {"experiment": "buckley", "L": 5, "p": [2.0], "trials": 2, "seed": 3,
           "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.3]}}
    res = sweep(cfg)
    assert len(res.summary) == 2
    assert len(res.records) == 4
    assert res.csv().startswith("experiment,")


def test_sweep_deterministic():
    cfg = {"experiment": "theorem-b", "L": 5, "m": 2, "p": [2.0, 2.0], "p0": 1.0,
           "trials": 3, "seed": 11,
           "weight_family": {"type": "power", "alpha_grid": [0.4]}}
    a = sweep(cfg)
    b = sweep(cfg)
    assert a.ndjson() == b.ndjson()
    assert a.csv() == b.csv()


def test_sweep_resume_skips_done():
    cfg = {"experiment": "buckley", "L": 5, "p": [2.0], "trials": 2, "seed": 3,
           "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.3]}}
    first = sweep(cfg)
    done = {r.key(): r.to_dict() for r in first.records[:2]}
    second = sweep(cfg, done_keys=done)
    assert len(second.records) == len(first.records) - 2


@pytest.mark.parametrize("placement", [{}, {"out": "x"}])
def test_sweep_record_keys_pinned(placement):
    # NDJSON files written by earlier versions resume only while these keys stay put
    cfg = {"experiment": "buckley", "L": 5, "p": [2.0], "trials": 2, "seed": 3,
           "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.3]}, **placement}
    assert [r.key() for r in sweep(cfg).records] == [
        "a81adffcb7f4", "c548730f1477", "22b032b95570", "dd8cd6e98dc3"]


def test_validate_config_canonical_types():
    loose = validate_config({"experiment": "buckley", "p0": 1, "L": 5.0, "p": [2],
                             "weight_family": {"alpha_grid": [0]}})
    exact = validate_config({"experiment": "buckley", "p0": 1.0, "L": 5, "p": [2.0],
                             "weight_family": {"alpha_grid": [0.0]}})
    assert json.dumps(loose, sort_keys=True) == json.dumps(exact, sort_keys=True)
    # where a sweep writes does not enter the record keys
    placed = sweep({**loose, "trials": 1, "out": "elsewhere"})
    assert placed.records[0].key() == sweep({**exact, "trials": 1}).records[0].key()


@pytest.mark.parametrize("config", [
    {"experiment": "theorem-a", "k": 2, "m": 2, "p0": 1.5, "plot": {"out": "p.svg"}},
    {"experiment": "theorem-b", "m": 2, "p": [2, 3], "plot": {"out": "p.svg", "y": "records"},
     "weight_family": {"alpha_grid": [0.3]}},
    {"experiment": "theorem-c", "L": 6, "k": [0], "weight_family": {"type": "constant"}},
    {"experiment": "buckley", "m": 1, "p0": 1, "plot": {"x": "ratio_median", "out": "p.svg"}},
])
def test_validated_config_validates_to_itself(config):
    cfg = validate_config(config)
    assert validate_config(cfg) == cfg
    if "plot" in config:
        assert cfg["plot"] == {"x": "k" if config["experiment"] == "theorem-a" else "alpha",
                               "y": "ratio_max", **config["plot"]}


def test_validate_config_names_every_unread_field():
    with pytest.raises(DomainError, match=r"buckley never reads config \['m', 'p0', 'k'\]"):
        validate_config({"experiment": "buckley", "m": 2, "p0": 1.5, "k": [1]})


def test_validate_config_plot_keys():
    base = {"experiment": "buckley", "weight_family": {"type": "power", "alpha_grid": [0.0]}}
    with pytest.raises(DomainError):
        validate_config({**base, "plot": {"x": "alpha", "zoom": 2, "out": "p.svg"}})
    with pytest.raises(DomainError):
        validate_config({**base, "plot": {"x": "alpha", "y": "ratio_max"}})
    cfg = validate_config({**base, "plot": {"x": "alpha", "y": "ratio_max", "out": "p.svg"}})
    assert cfg["plot"]["out"] == "p.svg"


def test_theorem_c_bilinear_operator():
    from sparselab.kernels import (
        apply_bilinear_multiplier,
        check_h2,
        kernel_from_symbol,
        symbol_smooth_bump,
    )
    from sparselab.grid import DyadicCube

    L = 6
    sym = symbol_smooth_bump(1 << L)
    K = kernel_from_symbol(sym)
    h2 = check_h2(K, 2.0, DyadicCube(4, (3,)), 4)
    assert not h2.degenerate and h2.delta0 > 0
    t = power_weight_tuple(0.3, (3.0, 6.0), 1.5, L=L)
    rng = rng_from(9)
    fs = [random_function(rng, 1, L), random_function(rng, 1, L)]
    rec = certify_theorem_c(partial(apply_bilinear_multiplier, sym), t, fs, h2)
    assert math.isfinite(rec.ratio)
    assert rec.constants["beta"] == beta_exponent((3.0, 6.0), 1.5)


def test_theorem_c_sweep_records_name_the_operator():
    res = sweep({"experiment": "theorem-c", "L": 6, "trials": 2})
    assert [r.params["operator"] for r in res.records] == ["hilbert", "hilbert"]
