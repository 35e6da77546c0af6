import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from sparselab import cli
from sparselab.certify import CertificationRecord, SweepResult, certify_buckley, certify_theorem_a
from sparselab.cli import build_parser, emit_plot, main, read_carleson, read_weight, write_carleson
from sparselab.grid import DomainError, FormatError, GridFunction, read_gfn, root_cube, write_gfn
from sparselab.kernels import Symbol, check_hormander_bilinear, check_msl, symbol_cone
from sparselab.samples import random_carleson, rng_from
from sparselab.sparse import CarlesonSequence
from sparselab.weights import power_weight


@pytest.fixture()
def weight_file(tmp_path):
    vals = np.ones(16)
    vals[8:] = 4.0
    path = tmp_path / "w.gfn"
    write_gfn(path, GridFunction(1, 4, vals))
    return str(path)


@pytest.fixture()
def function_file(tmp_path):
    rng = rng_from(3)
    path = tmp_path / "f.gfn"
    write_gfn(path, GridFunction(1, 6, rng.uniform(0, 1, 64)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- constants ------------------------------------------------------------------


def test_constants_ap(capsys, weight_file):
    code, out, _ = run(capsys, "constants", "--weight", weight_file, "--p", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(25 / 16)
    assert rep["witness"] == {"level": 0, "index": [0]}
    assert rep["seed"] == 0


def test_constants_rh_inf(capsys, weight_file):
    code, out, _ = run(capsys, "constants", "--weight", weight_file, "--rh", "inf")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.6)


def test_constants_multi(capsys, weight_file, tmp_path):
    ones = tmp_path / "ones.gfn"
    write_gfn(ones, GridFunction.constant(1, 4, 1.0))
    code, out, _ = run(
        capsys, "constants", "--weights", weight_file, str(ones), "--p", "2", "2"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.5 * 0.625**0.5)


def test_constants_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "constants", "--weight", str(tmp_path / "nope.gfn"))
    assert code == 2
    assert "error" in err


def test_constants_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.gfn"
    path.write_text("GFN1 1 2\n1 2 zebra 4\n")
    code, _, err = run(capsys, "constants", "--weight", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_constants_non_finite_weight(capsys, tmp_path, token):
    path = tmp_path / "w.gfn"
    path.write_text(f"GFN1 1 2\n1 2 {token} 4\n")
    code, out, err = run(capsys, "constants", "--weight", str(path))
    assert code == 2
    assert out == ""
    assert "line 2, field 3" in err


@pytest.mark.parametrize("to_file", [False, True])
def test_constants_overflowing_weight(capsys, tmp_path, to_file):
    # finite cells whose mean overflows: the overflow itself exits 2, with no warning
    path = tmp_path / "w.gfn"
    path.write_text("GFN1 1 2\n1e308 1e308 1 1\n")
    out_path = tmp_path / "c.json"
    extra = ["--out", str(out_path)] if to_file else []
    code, out, err = run(capsys, "constants", "--weight", str(path), "--p", "2", *extra)
    assert code == 2
    assert out == ""
    assert not out_path.exists()
    assert err == "error: constants: floating-point overflow encountered in add\n"


# --- decompose -------------------------------------------------------------------


def test_decompose(capsys, function_file, tmp_path):
    out_path = tmp_path / "dec.json"
    code, _, _ = run(capsys, "decompose", "--function", function_file, "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["verified"]
    assert all("omega" in r for r in rep["family"])


def test_decompose_builds_only_the_base_cube(capsys, tmp_path, built_cubes):
    path = tmp_path / "f2.gfn"
    write_gfn(path, GridFunction(2, 6, rng_from(9).standard_normal((64, 64))))
    built_cubes.clear()
    code, out, _ = run(capsys, "decompose", "--function", str(path))
    assert code == 0 and json.loads(out)["family"]
    assert [(Q.level, Q.index) for Q in built_cubes] == [(0, (0, 0))]


# --- select / dominate -------------------------------------------------------------


@pytest.fixture()
def alpha_file(tmp_path):
    rng = rng_from(5)
    a = random_carleson(rng, 1, 6, k_grid=2)
    path = tmp_path / "a.seq"
    write_carleson(path, a)
    return str(path)


def test_carleson_roundtrip(tmp_path):
    rng = rng_from(6)
    a = random_carleson(rng, 1, 5)
    path = tmp_path / "r.seq"
    write_carleson(path, a)
    b = read_carleson(path)
    assert dict(b.items()) == pytest.approx(dict(a.items()))


def test_carleson_reader_rejects(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text("2 1\n")
    with pytest.raises(Exception):
        read_carleson(path)


def test_carleson_reader_rejects_repeated_cube(tmp_path):
    path = tmp_path / "dup.seq"
    path.write_text("1 0 0.5\n2 3 0.1\n# a comment\n1 0 0.7\n")
    with pytest.raises(FormatError, match="line 4: repeats the cube of line 1"):
        read_carleson(path)


def test_read_carleson_builds_no_cube_per_line(tmp_path, built_cubes):
    a = random_carleson(rng_from(8), 2, 5)
    path = tmp_path / "a2.seq"
    write_carleson(path, a)
    built_cubes.clear()
    b = read_carleson(path)
    # the lines go straight into level arrays; the one cube built is the root
    assert len(b) == len(a) > 100
    assert [(Q.level, Q.index) for Q in built_cubes] == [(0, (0, 0))]
    assert b.levels.keys() == a.levels.keys()
    assert all(np.array_equal(b.levels[j], a.levels[j]) for j in a.levels)
    path.write_text("3 1 2 0.5\n1 0 1 0.25\n3 1 2 0.5\n")
    with pytest.raises(FormatError, match="line 3: repeats the cube of line 1"):
        read_carleson(path)


@pytest.mark.parametrize("text, message", [
    ("2 1 0.5\n1 5 0.5\n", "line 2: index (5,) out of range at level 1"),
    ("1 0 nan\n", "line 1: non-finite coefficient nan"),
    ("# a comment\n1 0 -1\n", "line 2: negative coefficient -1"),
])
def test_carleson_reader_names_the_line_of_a_bad_value(tmp_path, text, message):
    path = tmp_path / "bad.seq"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(message)):
        read_carleson(path)


def test_select_cli(capsys, alpha_file, function_file):
    code, out, _ = run(
        capsys, "select", "--alpha", alpha_file, "--f", function_file, "--k", "2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verified"]
    assert rep["selected"] >= 1


def test_select_cli_tiny_cstar_fails_witness(capsys, alpha_file, function_file):
    code, _, err = run(
        capsys, "select", "--alpha", alpha_file, "--f", function_file,
        "--k", "2", "--cstar", "1e-6",
    )
    assert code == 3
    assert "witness failed at" in err


@pytest.mark.parametrize("command", ["select", "dominate"])
def test_given_cstar_reports_no_weak_norm(capsys, tmp_path, command):
    seq, f = tmp_path / "s.seq", tmp_path / "f.gfn"
    seq.write_text("1 0 0.5\n")
    f.write_text("GFN1 1 2\n1 2 3 4\n")
    code, out, err = run(capsys, command, "--alpha", str(seq), "--f", str(f),
                         "--k", "0", "--cstar", "100")
    assert code == 0, err
    rep = json.loads(out)
    sel = rep if command == "select" else rep["selections"][0]
    assert sel["cstar"] == 100.0
    assert sel["w_hat"] is None


def test_dominate_cli(capsys, alpha_file, function_file):
    code, out, _ = run(
        capsys, "dominate", "--alpha", alpha_file, "--f", function_file, "--k", "2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["covered"]
    assert math.isfinite(rep["cell_constant"])


def test_dominate_rejects_nan_coefficient(capsys, tmp_path, function_file):
    path = tmp_path / "nan.seq"
    path.write_text("2 1 0.5\n4 3 nan\n")
    code, out, err = run(capsys, "dominate", "--alpha", str(path), "--f", function_file,
                         "--k", "2")
    assert code == 2
    assert out == ""
    assert "non-finite coefficient" in err


@pytest.mark.parametrize("command", ["dominate", "select", "certify-a"])
def test_carleson_level_above_max_level(capsys, tmp_path, function_file, command):
    path = tmp_path / "deep.seq"
    path.write_text("2 1 0.5\n40 0 1.0\n")
    code, out, err = run(capsys, command, "--alpha", str(path), "--f", function_file)
    assert code == 2
    assert out == ""
    assert "line 2: level 40 out of range" in err


# --- one report writer ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["constants", "--weight", "{w}", "--p", "2"],
    ["decompose", "--function", "{f}"],
    ["select", "--alpha", "{a}", "--f", "{f}", "--k", "2"],
    ["dominate", "--alpha", "{a}", "--f", "{f}", "--k", "2"],
    ["certify-a", "--alpha", "{a}", "--f", "{f}"],
    ["certify-buckley", "--weight", "{f}", "--function", "{f}"],
    ["check-symbol", "--symbol", "identity", "--N", "64"],
    ["check-h2", "--kernel", "hilbert", "--L", "8"],
], ids=lambda argv: argv[0])
def test_every_report_carries_its_seed_and_one_text(capsys, tmp_path, weight_file,
                                                    function_file, alpha_file, argv):
    argv = [t.format(w=weight_file, f=function_file, a=alpha_file) for t in argv]
    code, out, err = run(capsys, *argv, "--seed", "7")
    assert code == 0, err
    assert json.loads(out)["seed"] == 7
    path = tmp_path / "report.json"
    code, stdout, err = run(capsys, *argv, "--seed", "7", "--out", str(path))
    assert code == 0, err
    assert stdout == "" and path.read_bytes() == out.encode("ascii")


# --- certification -------------------------------------------------------------------


def test_certify_buckley_direct(capsys, weight_file, function_file, tmp_path):
    f4 = tmp_path / "f4.gfn"
    write_gfn(f4, GridFunction.constant(1, 4, 1.0))
    code, out, _ = run(
        capsys, "certify-buckley", "--weight", weight_file, "--function", str(f4),
        "--p", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["lhs"] <= rep["rhs"] * (1 + 1e-9)


def test_certify_a_weight_is_read(capsys, alpha_file, function_file, tmp_path):
    w = tmp_path / "w6.gfn"
    write_gfn(w, power_weight(-0.5, n=1, L=6))
    argv = ["certify-a", "--alpha", alpha_file, "--f", function_file, "--k", "2", "--seed", "3"]
    code, out, err = run(capsys, *argv, "--weight", str(w))
    assert code == 0, err
    rec = certify_theorem_a(read_carleson(alpha_file), 2, 1.0, [read_gfn(function_file)], 2.0,
                            read_weight(w), seed=3)
    assert json.loads(out) == {**rec.to_dict(), "seed": 3}
    assert json.loads(out)["lhs"] != json.loads(run(capsys, *argv)[1])["lhs"]


def test_certify_buckley_maxlevel_is_read(capsys, function_file, tmp_path):
    # one heavy cell: its small cubes, below level 2, carry the largest A_2 averages
    w = tmp_path / "w6.gfn"
    write_gfn(w, GridFunction(1, 6, np.where(np.arange(64) == 37, 100.0, 1.0)))
    argv = ["certify-buckley", "--weight", str(w), "--function", function_file, "--seed", "3"]
    code, out, err = run(capsys, *argv, "--maxlevel", "2")
    assert code == 0, err
    rec = certify_buckley(read_weight(w), 2.0, read_gfn(function_file), maxlevel=2)
    assert json.loads(out) == {**rec.to_dict(), "seed": 3}
    full = json.loads(run(capsys, *argv)[1])
    assert json.loads(out)["constants"]["ap"] != full["constants"]["ap"]


def test_certify_b_config(capsys, tmp_path):
    cfg = {
        "experiment": "theorem-b",
        "n": 1, "L": 5, "m": 2, "p0": 1.0, "p": [2.0, 2.0], "trials": 3, "seed": 4,
        "weight_family": {"type": "power", "alpha_grid": [0.0, 0.4]},
        "out": str(tmp_path / "tb"),
        "plot": {"x": "alpha", "y": "ratio_max", "out": str(tmp_path / "tb.svg")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    records = [json.loads(l) for l in (tmp_path / "tb.ndjson").read_text().splitlines()]
    assert records and all(r["experiment"] == "theorem-b" for r in records)
    assert (tmp_path / "tb.csv").read_text().startswith("experiment,")
    assert (tmp_path / "tb.svg").read_text().startswith("<svg")


def test_sweep_rejects_unknown_key(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "buckley", "bogus": 1}))
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("trials", [0, -1])
def test_sweep_rejects_nonpositive_trials(capsys, tmp_path, trials):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "s"
    cfg_path.write_text(json.dumps({"experiment": "theorem-a", "L": 4, "trials": trials,
                                    "out": str(out)}))
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "'trials' must be at least 1" in err
    assert stdout == "" and not (tmp_path / "s.ndjson").exists()


def test_sweep_byte_identical(capsys, tmp_path):
    cfg = {
        "experiment": "buckley", "L": 5, "p": [2.0], "trials": 2, "seed": 9,
        "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.3]},
        "out": str(tmp_path / "s1"),
    }
    p1 = tmp_path / "c1.json"
    p1.write_text(json.dumps(cfg))
    assert run(capsys, "sweep", "--config", str(p1))[0] == 0
    first = (tmp_path / "s1.ndjson").read_bytes()
    cfg["out"] = str(tmp_path / "s2")
    p2 = tmp_path / "c2.json"
    p2.write_text(json.dumps(cfg))
    assert run(capsys, "sweep", "--config", str(p2))[0] == 0
    second = (tmp_path / "s2.ndjson").read_bytes()
    assert first == second


@pytest.mark.parametrize("to_file", [False, True])
def test_sweep_non_finite_record(capsys, tmp_path, monkeypatch, to_file):
    # no config is known to produce an infinite constant, so the record is built directly
    rec = CertificationRecord("buckley", {"p": 2.0, "L": 5, "n": 1}, 1.0, 2.0,
                              constants={"ap": math.inf}, seed=9)
    with pytest.raises(DomainError, match="'constants.ap'"):
        SweepResult([rec], []).ndjson()
    monkeypatch.setattr(cli, "sweep", lambda cfg, done_keys=None: SweepResult([rec], []))
    cfg = {"experiment": "buckley", "L": 5, "p": [2.0], "trials": 1, "seed": 9,
           "weight_family": {"type": "power", "alpha_grid": [0.3]}}
    if to_file:
        cfg["out"] = str(tmp_path / "s")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "s.ndjson").exists()
    assert "non-finite value in output field 'constants.ap'" in err


# --- sweep inputs and resume -------------------------------------------------------


# point 0 runs; the extremal probe of alpha = 400 overflows in weighted_norm
OVERFLOW_AT_POINT_1 = {"experiment": "theorem-b", "L": 6, "trials": 1,
                       "weight_family": {"alpha_grid": [0.0, 400.0]}}


@pytest.mark.parametrize("config, argv", [
    ({"experiment": "theorem-a", "n": 2, "L": 40}, None),
    ({"experiment": "buckley", "p": []}, None),
    ({"experiment": "theorem-a", "p0": "x"}, None),
    ({"experiment": "theorem-a", "k": ["a"]}, None),
    ({"experiment": "theorem-a", "k": [-1]}, None),
    ({"experiment": "buckley", "weight_family": {"type": "power", "alpha_grid": "abc"}}, None),
    (["experiment", "buckley"], None),
    ({"experiment": "buckley", "weight_family": []}, None),
    ({"experiment": ["buckley"]}, None),
    ({"experiment": "buckley", "seed": -1}, None),
    ({"experiment": "theorem-c", "L": 6, "m": 2}, None),
    (None, ["check-h2", "--kernel", "hilbert", "--L", "40"]),
    pytest.param("1 0 0.5\n1 0 0.7\n", ["dominate", "--alpha", "IN", "--f", "F"],
                 id="seq-repeated-cube"),
    pytest.param("2 1 0.5\n", ["select", "--alpha", "IN", "--f", "F", "--k", "-1",
                               "--cstar", "4"], id="select-negative-k"),
    pytest.param("2 1 0.5\n", ["select", "--alpha", "IN", "--f", "F", "--p0", "nan"],
                 id="select-nan-p0"),
    pytest.param("2 1 0.5\n", ["dominate", "--alpha", "IN", "--f", "F", "--p0", "nan"],
                 id="dominate-nan-p0"),
    pytest.param("GFN1 2 2\n" + "1 " * 16 + "\n",
                 ["decompose", "--function", "IN", "--level", "2", "--index", "1"],
                 id="decompose-one-index-on-n2"),
    # exponents the experiment would never read
    ({"experiment": "theorem-b", "L": 3, "m": 2, "p": [2, 3, 4], "trials": 1}, None),
    ({"experiment": "buckley", "L": 3, "p": [2, 7], "trials": 1}, None),
    ({"experiment": "theorem-a", "L": 3, "p": [2, 0.5], "trials": 1}, None),
    # the config's seed is a sweep's only seed
    pytest.param({"experiment": "buckley", "L": 3, "trials": 1},
                 ["sweep", "--config", "IN", "--seed", "3"], id="sweep-seed-option"),
    # fields the experiment would never read, unless at their defaults
    ({"experiment": "theorem-b", "L": 3, "trials": 1, "k": [1, 2]}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "p0": 1.5}, None),
    ({"experiment": "theorem-a", "L": 3, "trials": 1,
      "weight_family": {"type": "power", "alpha_grid": [0.0]}}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1,
      "weight_family": {"type": "constant", "alpha_grid": [0.3, 0.6]}}, None),
    # a plot column that the summary lacks fails before the sweep prints its records
    ({"experiment": "buckley", "L": 3, "trials": 1, "plot": {"out": "p.svg", "y": "nope"}},
     None),
    # an empty grid fails before the sweep writes its (empty) outputs
    ({"experiment": "theorem-a", "L": 3, "trials": 1, "k": [], "out": "o"}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "out": "o", "plot": {"out": "p.svg"},
      "weight_family": {"type": "power", "alpha_grid": []}}, None),
    # a cstar that is not positive and finite fails before the selection runs
    pytest.param("2 1 0.5\n", ["select", "--alpha", "IN", "--f", "F", "--cstar", "nan"],
                 id="select-nan-cstar"),
    pytest.param("2 1 0.5\n", ["select", "--alpha", "IN", "--f", "F", "--cstar", "inf"],
                 id="select-inf-cstar"),
    pytest.param("2 1 0.5\n", ["dominate", "--alpha", "IN", "--f", "F", "--cstar", "nan"],
                 id="dominate-nan-cstar"),
    pytest.param("2 1 0.5\n", ["dominate", "--alpha", "IN", "--f", "F", "--cstar", "inf"],
                 id="dominate-inf-cstar"),
    # config checks of every experiment
    ({"L": 3, "trials": 1}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "weight_family": {"type": "nope"}}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "plot": {"out": 3}}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "out": 3}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "p": [1.0]}, None),
    ({"experiment": "theorem-a", "L": 3, "trials": 1, "p": [0.0]}, None),
    ({"experiment": "theorem-a", "L": 3, "trials": 1, "p0": 0.5}, None),
    ({"experiment": "theorem-b", "L": 3, "trials": 1, "m": 2, "p": [2.0, 1.0]}, None),
    # a power weight's exponent at or below -n fails before the first point runs
    ({"experiment": "theorem-b", "n": 1, "m": 2, "L": 3, "trials": 1, "out": "o",
      "weight_family": {"type": "power", "alpha_grid": [0.5, 1.0]}}, None),
    ({"experiment": "buckley", "L": 3, "trials": 1, "out": "o",
      "weight_family": {"type": "power", "alpha_grid": [0.5, -1.0]}}, None),
    # a point that overflows after the first has run
    (OVERFLOW_AT_POINT_1, None),
])
def test_bad_sweep_inputs_exit_2(capsys, tmp_path, monkeypatch, function_file, config, argv):
    # a string config is the text of the input file named IN
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    if argv is None:
        argv = ["sweep", "--config", "IN"]
    try:
        code, out, err = run(capsys, *({"IN": str(path), "F": function_file}.get(a, a)
                                       for a in argv))
    except SystemExit as exc:  # argparse prints its usage, then "<prog>: error: ..."
        code, (out, err) = exc.code, capsys.readouterr()
        err = err[err.index("error: "):]
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "f.gfn"]


@pytest.mark.parametrize("command", ["constants", "dominate", "sweep"])
def test_non_ascii_input_exits_2(capsys, tmp_path, function_file, command):
    path = tmp_path / "bad.in"
    text = {"constants": "GFN1 1 2\n", "dominate": "2 1 0.5\n",
            "sweep": '{"experiment": "buckley"}\n'}[command]
    path.write_bytes(text.encode("ascii") + "# caf\u00e9\n".encode("utf-8"))
    argv = {"constants": ["--weight", str(path)],
            "dominate": ["--alpha", str(path), "--f", function_file],
            "sweep": ["--config", str(path)]}[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {path}: line 2: non-ASCII byte 0xc3" in err


def write_sweep(tmp_path, name, **changes):
    cfg = {"experiment": "theorem-b", "n": 1, "L": 5, "m": 2, "p0": 1.0, "p": [2.0, 2.0],
           "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.0, 0.3]},
           "trials": 2, "seed": 1, "out": str(tmp_path / "tb"), **changes}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def finished_sweep(capsys, tmp_path):
    """A finished theorem-b campaign: its config path and its NDJSON and CSV bytes."""
    path = write_sweep(tmp_path, "cfg.json")
    assert run(capsys, "sweep", "--config", path)[0] == 0
    return path, (tmp_path / "tb.ndjson").read_bytes(), (tmp_path / "tb.csv").read_bytes()


@pytest.fixture()
def point_runs(monkeypatch):
    """The point indices that _run_point is called with, in call order."""
    from sparselab import certify

    calls = []
    real = certify._run_point

    def counted(cfg, point, point_index, h2):
        calls.append(point_index)
        return real(cfg, point, point_index, h2)

    monkeypatch.setattr(certify, "_run_point", counted)
    return calls


def test_resumed_csv_equals_fresh(capsys, tmp_path, finished_sweep):
    path, _, fresh_csv = finished_sweep
    (tmp_path / "tb.csv").unlink()
    assert run(capsys, "sweep", "--config", path, "--resume")[0] == 0
    assert (tmp_path / "tb.csv").read_bytes() == fresh_csv


def test_resume_of_finished_sweep_runs_nothing(capsys, tmp_path, finished_sweep, point_runs):
    path, fresh, _ = finished_sweep
    assert run(capsys, "sweep", "--config", path, "--resume")[0] == 0
    assert point_runs == []
    assert (tmp_path / "tb.ndjson").read_bytes() == fresh


@pytest.mark.parametrize("drop", ["point", "one trial"])
def test_resume_reruns_only_the_missing_point(capsys, tmp_path, finished_sweep, point_runs,
                                              drop):
    path, fresh, fresh_csv = finished_sweep
    lines = fresh.decode().splitlines(keepends=True)
    missing = [ln for ln in lines if json.loads(ln)["params"]["alpha"] == 0.0]
    if drop == "one trial":
        missing = missing[:1]
    (tmp_path / "tb.ndjson").write_text("".join(ln for ln in lines if ln not in missing))
    assert run(capsys, "sweep", "--config", path, "--resume")[0] == 0
    assert point_runs == [1]
    resumed = (tmp_path / "tb.ndjson").read_text().splitlines(keepends=True)
    assert sorted(resumed) == sorted(lines)
    assert (tmp_path / "tb.csv").read_bytes() == fresh_csv


def test_resume_with_another_seed_appends(capsys, tmp_path):
    # buckley params hold nothing drawn from the seed, so only the key can tell the runs apart
    buckley = {"experiment": "buckley", "m": 1, "p": [2.0]}
    seed1 = write_sweep(tmp_path, "seed1.json", **buckley)
    fresh2 = write_sweep(tmp_path, "fresh2.json", **buckley, seed=2, out=str(tmp_path / "s2"))
    resume2 = write_sweep(tmp_path, "resume2.json", **buckley, seed=2)
    assert run(capsys, "sweep", "--config", seed1)[0] == 0
    assert run(capsys, "sweep", "--config", fresh2)[0] == 0
    first = (tmp_path / "tb.ndjson").read_bytes()
    assert run(capsys, "sweep", "--config", resume2, "--resume")[0] == 0
    assert (tmp_path / "tb.ndjson").read_bytes() == first + (tmp_path / "s2.ndjson").read_bytes()


def test_resume_of_sweep_with_degenerate_trial_runs_nothing(capsys, tmp_path, monkeypatch):
    # every second input drawn is zero: trial 2's sides both vanish, and its record is kept
    from sparselab import samples

    draw, calls = samples.random_function, []

    def zero_on_odd(rng, n, L):
        calls.append(len(calls))
        f = draw(rng, n, L)
        return GridFunction.constant(n, L, 0.0) if calls[-1] % 2 else f

    monkeypatch.setattr(samples, "random_function", zero_on_odd)
    path = write_sweep(tmp_path, "cfg.json", L=4, m=1, p=[2.0], trials=3,
                       weight_family={"type": "power", "alpha_grid": [0.3]})
    outputs = [tmp_path / "tb.ndjson", tmp_path / "tb.csv"]
    assert run(capsys, "sweep", "--config", path)[0] == 0
    fresh = [f.read_bytes() for f in outputs]
    records = [json.loads(ln) for ln in fresh[0].splitlines()]
    assert [(r["degenerate"], r["ratio"] is None) for r in records] == [(False, False)] * 2 + [
        (True, True)]
    header, row = fresh[1].decode().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["records"] == "3"
    drawn = len(calls)
    assert run(capsys, "sweep", "--config", path, "--resume")[0] == 0
    assert len(calls) == drawn
    assert [f.read_bytes() for f in outputs] == fresh


# --- symbol / kernel checks ------------------------------------------------------------


def test_check_symbol_cli(capsys):
    code, out, _ = run(capsys, "check-symbol", "--symbol", "identity", "--N", "128")
    assert code == 0
    assert json.loads(out)["member"] is True


def test_check_symbol_bilinear_cli(capsys):
    code, out, _ = run(
        capsys, "check-symbol", "--symbol", "cone", "--bilinear", "--l", "2", "--N", "64"
    )
    assert code == 0
    assert json.loads(out)["member"] is True


def test_sweep_failure_names_its_point(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**OVERFLOW_AT_POINT_1, "out": str(tmp_path / "o")}))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2 and out == ""
    assert err == "error: sweep: floating-point overflow encountered in power " \
                  "at point 1 (alpha = 400.0)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_check_symbol_named_rank_2_symbol(capsys):
    code, out, _ = run(capsys, "check-symbol", "--symbol", "cone", "--N", "64")
    assert code == 0
    assert json.loads(out) == {**check_msl(symbol_cone(64), 2.0, 2).to_dict(), "seed": 0}


def test_check_symbol_bilinear_from_file(capsys, tmp_path):
    path = tmp_path / "m.gfn"
    freqs = np.arange(-8, 8)
    write_gfn(path, GridFunction(2, 4, 1.0 / (1.0 + np.add.outer(freqs**2, freqs**2))))
    code, out, err = run(capsys, "check-symbol", "--symbol", str(path), "--bilinear",
                         "--N", "16")
    assert code == 0, err
    want = check_hormander_bilinear(Symbol(2, read_gfn(path).values), 2).to_dict()
    assert json.loads(out) == {**want, "seed": 0}


def test_check_h2_cli(capsys):
    code, out, _ = run(capsys, "check-h2", "--kernel", "hilbert", "--p0", "2", "--jmax", "5")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["delta_hat"] - 1.5) < 0.15


@pytest.mark.parametrize("p0", ["nan", "inf"])
def test_check_h2_non_finite_p0_exits_2(capsys, p0):
    code, out, err = run(capsys, "check-h2", "--kernel", "hilbert", "--p0", p0, "--L", "8")
    assert code == 2
    assert out == ""
    assert "p0 must be finite" in err


def test_check_h2_p0_just_above_one(capsys):
    # p0' = 10^6: the ring integrals must not overflow on the way to B_j
    with np.errstate(over="raise", invalid="raise"):
        code, out, err = run(capsys, "check-h2", "--kernel", "hilbert", "--p0", "1.000001",
                             "--L", "10")
    assert code == 0, err
    b = json.loads(out)["b_values"]
    assert len(b) == 5 and all(math.isfinite(v) and v > 0 for v in b)
    _, ref, _ = run(capsys, "check-h2", "--kernel", "hilbert", "--p0", "1", "--L", "10")
    # B_j tends to the ring supremum as p0 -> 1
    assert np.allclose(b, json.loads(ref)["b_values"], rtol=1e-4)


@pytest.mark.parametrize("argv", [
    ["check-symbol", "--symbol", "SYM", "--N", "64"],
    ["check-symbol", "--symbol", "SYM"],
    ["check-h2", "--kernel", "symbol:SYM", "--L", "3"],
    ["check-h2", "--kernel", "symbol:SYM", "--L", "8", "--level", "5", "--jmax", "3"],
])
def test_symbol_file_must_match_the_lattice(capsys, tmp_path, argv):
    # a level-7 file holds 128 frequencies; --N (default 256) or 2^--L must say the same
    path = tmp_path / "sym.gfn"
    write_gfn(path, GridFunction(1, 7, 1.0 / (1.0 + np.abs(np.arange(-64, 64)))))
    code, out, err = run(capsys, *(a.replace("SYM", str(path)) for a in argv))
    assert code == 2 and out == ""
    assert f"error: symbol file {path} has side 128" in err


def test_check_h2_unknown_kernel(capsys):
    code, _, err = run(capsys, "check-h2", "--kernel", "mystery")
    assert code == 2


def test_check_h2_rank_2_symbol_exits_2(capsys, tmp_path):
    # a kernel takes its arity from its symbol, and check-h2 fits linear kernels only
    path = tmp_path / "m.gfn"
    path.write_text("GFN1 2 2\n" + "1 " * 16 + "\n")
    code, out, err = run(capsys, "check-h2", "--kernel", f"symbol:{path}", "--L", "2")
    assert code == 2 and out == ""
    assert "rank-1 symbol" in err


# options that the command's mode never reads, each with the option its message names
UNREAD = [
    (["check-symbol", "--bilinear", "--symbol", "cone", "--N", "16", "--s", "5"], "--s"),
    (["constants", "--weights", "W", "--p", "2", "--rh", "abc"], "--rh"),
    (["constants", "--weight", "W", "--p", "2", "--r", "99", "--p0", "99"], "--p0"),
    (["constants", "--weight", "W", "--rh", "inf", "--p", "0.5"], "--p"),
    (["constants", "--weight", "W", "--p", "2", "3"], "--p"),
    (["decompose", "--function", "W", "--index", "9"], "--index"),
    (["constants", "--weight", "W", "--weights", "W"], "--weight"),
]


@pytest.mark.parametrize("argv", [
    ["constants", "--weight", "W", "--maxlevel", "-3"],
    ["constants", "--weight", "W", "--rh", "2", "--maxlevel", "-3"],
    ["constants", "--weights", "W", "W", "--p", "2", "2", "--maxlevel", "-3"],
    ["check-symbol", "--symbol", "sign", "--N", "0"],
    ["check-symbol", "--symbol", "identity", "--N", "-4"],
    ["check-symbol", "--bilinear", "--symbol", "cone", "--N", "0"],
    ["check-symbol", "--bilinear", "--symbol", "sign", "--N", "64"],  # rank 1
    ["constants", "--weight", "W", "--rh", "abc"],
    ["constants"],
    ["constants", "--weight", "."],
    ["constants", "--weight", "W", "--out", "."],
    *(argv for argv, _ in UNREAD),
])
def test_out_of_range_arguments_exit_2(capsys, weight_file, argv):
    code, out, err = run(capsys, *(weight_file if a == "W" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert all(f"{name} " in err for case, name in UNREAD if case == argv)


# --- plotting ----------------------------------------------------------------------


def test_emit_plot_two_points():
    svg = emit_plot([{"x": 0, "y": 1}, {"x": 1, "y": 2}], "x", "y")
    assert svg.count("<polyline") == 1
    assert svg.startswith("<svg")


def test_emit_plot_duplicate_x():
    svg = emit_plot([{"x": 1, "y": 1}, {"x": 1, "y": 3}], "x", "y")
    assert "<polyline" in svg


def test_emit_plot_empty_raises():
    with pytest.raises(DomainError):
        emit_plot([], "x", "y")


def test_emit_plot_monotone_coordinates():
    rows = [{"x": i, "y": i * i} for i in range(5)]
    svg = emit_plot(rows, "x", "y")
    pts = svg.split('points="')[1].split('"')[0].split()
    ys = [float(p.split(",")[1]) for p in pts]
    # svg y axis points downward, so increasing data means decreasing y coords
    assert all(ys[i] > ys[i + 1] for i in range(len(ys) - 1))


def test_gfn_roundtrip_via_cli_files(tmp_path):
    rng = rng_from(8)
    f = GridFunction(2, 3, rng.normal(size=64))
    path = tmp_path / "f2.gfn"
    write_gfn(path, f)
    g = read_gfn(path)
    assert np.array_equal(f.values, g.values)


def test_certify_c_config(capsys, tmp_path):
    cfg = {
        "experiment": "theorem-c",
        "n": 1, "L": 6, "m": 1, "p0": 1.0, "p": [2.0], "trials": 2, "seed": 2,
        "weight_family": {"type": "constant", "alpha_grid": [0.0]},
        "out": str(tmp_path / "tc"),
    }
    cfg_path = tmp_path / "tc.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    records = [json.loads(l) for l in (tmp_path / "tc.ndjson").read_text().splitlines()]
    assert records and all(r["experiment"] == "theorem-c" for r in records)
    assert all(0.01 < r["ratio"] < 100 for r in records)


def test_weight_file_clamped_on_ingestion(capsys, tmp_path):
    vals = np.ones(16)
    vals[3] = 0.0
    path = tmp_path / "wz.gfn"
    write_gfn(path, GridFunction(1, 4, vals))
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(capsys, "constants", "--weight", str(path), "--p", "2")
    assert code == 0
    assert math.isfinite(json.loads(out)["value"])


@pytest.mark.parametrize("cells, args", [
    ("0 1 1 0", ["--weight", "W", "--p", "1.5"]),
    ("0 0 1 1", ["--weight", "W", "--p", "1.974"]),  # finite cells, but their mean overflows
    ("0 1 1 0", ["--weights", "W", "--p", "3", "--r", "2.5", "--p0", "2.5"]),
])
def test_zero_weight_cell_whose_dual_leaves_the_float_range(capsys, tmp_path, cells, args):
    # the floor 1e-300 keeps p >= 2 finite (above); below p ~ 1.975 the dual weight
    # w^(1-p') of a floored cell cannot be averaged, which is a validation error
    path = tmp_path / "w.gfn"
    path.write_text(f"GFN1 1 2\n{cells}\n")
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, "constants", *[str(path) if a == "W" else a for a in args])
    assert code == 2
    assert out == ""
    assert "dual weight" in err and "leaves the float range" in err
    assert "floating-point" not in err


def test_check_symbol_from_file(capsys, tmp_path):
    # custom sampled symbol in grid-function format over the frequency lattice
    freqs = np.arange(-64, 64)
    vals = 1.0 / (1.0 + np.abs(freqs))
    path = tmp_path / "sym.gfn"
    write_gfn(path, GridFunction(1, 7, vals))
    code, out, _ = run(capsys, "check-symbol", "--symbol", str(path), "--N", "128")
    assert code == 0
    assert json.loads(out)["member"] is True


def test_check_symbol_powers_only_the_scanned_annuli(capsys, tmp_path):
    # |xi| = 31 lies outside every annulus of N = 64 (radii up to 2 * 8), so its
    # square, beyond the float range, is never taken
    vals = 1.0 / (1.0 + np.abs(np.arange(-32, 32)))
    vals[-1] = 1e200
    path = tmp_path / "sym.gfn"
    write_gfn(path, GridFunction(1, 6, vals))
    code, out, err = run(capsys, "check-symbol", "--symbol", str(path), "--N", "64", "--l", "1")
    assert code == 0, err
    assert json.loads(out)["member"] is True


def test_check_symbol_riesz1d_alias(capsys):
    code, out, _ = run(capsys, "check-symbol", "--symbol", "riesz1d", "--N", "128")
    assert code == 0
    rep = json.loads(out)
    assert rep["member"] is True


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "cfg.json", "--jobs", "2"],
    ["constants", "--weight", "w.gfn", "--resume"],
    # a sweep writes to its config's out
    ["sweep", "--config", "cfg.json", "--out", "mine"],
    ["certify-b", "--config", "cfg.json", "--out", "mine"],
    ["certify-c", "--config", "cfg.json", "--out", "mine"],
    # sweep alone runs a config; the certify commands certify input files
    ["certify-b", "--config", "cfg.json"],
    ["certify-c", "--config", "cfg.json", "--resume"],
    ["certify-a", "--alpha", "a.seq", "--f", "f.gfn", "--config", "cfg.json"],
    ["certify-buckley", "--weight", "w.gfn", "--function", "f.gfn", "--config", "cfg.json"],
    ["certify-a", "--alpha", "a.seq", "--f", "f.gfn", "--resume"],
    ["certify-buckley", "--weight", "w.gfn", "--function", "f.gfn", "--resume"],
    ["certify-a", "--config", "cfg.json"],
    ["certify-buckley", "--config", "cfg.json"],
])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: " in err or "unrecognized arguments: " in err or "required" in err


def test_sweep_rejects_jobs_key(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "buckley", "L": 4, "jobs": 2}))
    code, _, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2
    assert "unknown config keys: ['jobs']" in err


def test_jobs_environment_is_ignored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPARSELAB_JOBS", "abc")
    assert run(capsys, "check-symbol", "--symbol", "sign", "--N", "64")[0] == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "buckley", "L": 4, "trials": 1}))
    assert run(capsys, "sweep", "--config", str(path))[0] == 0


@pytest.mark.parametrize("L", [0, 3, 5, 6])
def test_theorem_c_needs_level_6(capsys, tmp_path, L):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "theorem-c", "L": L, "trials": 1,
                                "weight_family": {"type": "constant", "alpha_grid": [0.0]}}))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    if L >= 6:
        assert code == 0 and out
    else:
        assert code == 2 and out == ""
        assert "'L'" in err


def test_theorem_b_sweep_on_one_cell(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "theorem-b", "L": 0, "trials": 1, "p": [2.0]}))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 0
    assert [json.loads(line)["params"]["family_size"] for line in out.splitlines()] == [1]


def test_sweep_plot_x_defaults_to_the_point_column(capsys, tmp_path):
    cfg = {"experiment": "theorem-a", "L": 3, "k": [0, 1], "trials": 1,
           "out": str(tmp_path / "ta"), "plot": {"out": str(tmp_path / "ta.svg")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "sweep", "--config", str(path))
    assert code == 0, err
    svg = (tmp_path / "ta.svg").read_text()
    assert ">k</text>" in svg and ">ratio_max</text>" in svg


def test_readme_command_lines_parse():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert argvs and all(argv[0] == "sparselab" for argv in argvs)
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv[1:])  # an option the parser lacks exits 2 here


def test_readme_quick_start_runs(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(math.isfinite(float(v)) for v in printed)
