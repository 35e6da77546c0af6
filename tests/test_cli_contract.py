"""The CLI exit-code contract as a property.

Any argv exits 0, 2 or 3, prints no traceback or numpy floating-point
warning and writes strict JSON, and an output goes non-finite or overflows
only from an input at the edge of the float range.
The argv names generated input files: grid functions, coefficient
sequences and sweep configs.  Half the cases are clean: well-formed files
on one grid and options that the command accepts on it, in one of its
modes (a sweep config or input files, never both), so commands run to
their outputs; in half of those every file value is 1e308, so sums and
products of two values overflow on the way.  The others take their
options from ``build_parser()``'s own actions, at most one value from an
edge pool, and a file may be broken in one of the usual ways.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparselab.cli import build_parser, main

# values an option may take without failing its own checks, by destination or type
GFN = ["A.gfn", "B.gfn"]
GOOD = {"weight": GFN, "weights": GFN, "function": GFN, "f": GFN, "alpha": ["S.seq"],
        "config": ["C.json"], "out": ["out.json"], "rh": ["2", "3", "inf"],
        "symbol": ["sign", "identity", "cone", "bump", "A.gfn"],
        "kernel": ["hilbert", "symbol:A.gfn"], "N": ["4", "8", "16"], "L": ["2", "3", "4"],
        int: ["0", "1", "2", "3", "4"], float: ["1", "1.5", "2", "3", "4", "100"]}
EDGE = ["0", "-1", "nan", "inf", "1e308", "", "\u00e9", "abc", "1.5", "missing.gfn", "S.seq", "."]
# tokens of the inputs that may overflow on the way to an output
EXTREME = ("1e308", "1e+308", "1e-320", "inf", "nan")
# the messages of numpy's floating-point warnings
NUMPY_FP = r"(overflow|invalid value|divide by zero|underflow) encountered"


def _commands() -> dict[str, list[argparse.Action]]:
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


COMMANDS = _commands()


@st.composite
def argvs(draw):
    """A subcommand and some of its options, every value usable except at most one
    from EDGE."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[command]
    edge_at = draw(st.integers(-len(actions) // 2, len(actions) - 1))
    argv = [command]
    for i, action in enumerate(actions):
        if not (action.required or i == edge_at) and draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        pool = st.sampled_from(EDGE if i == edge_at else
                               GOOD.get(action.dest) or GOOD.get(action.type, ["1"]))
        if action.nargs == 0:
            argv.append(flag)
        elif action.nargs == "+":
            argv += [flag] + draw(st.lists(pool, min_size=1, max_size=3))
        else:
            for _ in range(draw(st.integers(1, 2))
                           if isinstance(action, argparse._AppendAction) else 1):
                argv += [flag, draw(pool)]
    return argv


@st.composite
def gfn_texts(draw, grid, big=False):
    """A grid function file: well formed on the (n, L) grid if given, with ordinary
    values or, if big, every cell 1e308; else on any grid, possibly with edge values
    or broken."""
    kind = "ok" if grid else draw(st.sampled_from(["ok"] * 6 + ["count", "level", "empty",
                                                                "token", "ascii"]))
    if kind == "empty":
        return ""
    n, L = grid or _grids(draw)
    if kind == "level":
        return f"GFN1 {n} {13 if n == 1 else 9}\n1\n"
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pool = [1e308] if big else draw(st.sampled_from(
        [[0.25, 1.0, 4.0], [1.0, 2.0, 4.0], [0.0, 1.0]]
        + ([] if grid else [[-1.0, 1.0], [1e308, 1.0], [1e-320, 1.0]])))
    vals = [repr(float(v)) for v in rng.choice(pool, (1 << L) ** n)]
    if kind == "count":
        vals = vals[1:] if draw(st.booleans()) else vals + ["1.0"]
    if kind == "token":
        vals[-1] = draw(st.sampled_from(["abc", "nan", "inf"]))
    text = f"GFN1 {n} {L}\n" + " ".join(vals) + "\n"
    return text + "# café\n" if kind == "ascii" else text


@st.composite
def seq_texts(draw, grid, big=False, step=0):
    """A coefficient sequence file: well formed on the (n, L) grid if given, with
    ordinary values or, if big, every coefficient 1e308, on the levels step, 2 step, ...
    if step; else possibly with edge values or broken."""
    kind = "ok" if grid else draw(st.sampled_from(["ok"] * 5 + ["repeat", "level", "empty",
                                                                "fields", "token"]))
    if kind == "empty":
        return ""
    n, L = grid or (draw(st.sampled_from([1, 2])), 3)
    levels = st.integers(1, L // step).map(lambda i: i * step) if step else st.integers(0, L)
    cubes = draw(st.lists(levels.flatmap(
        lambda j: st.tuples(st.just(j), *[st.integers(0, (1 << j) - 1)] * n)),
        min_size=1, max_size=4, unique=True))
    values = ["1e308"] if big else ["0.5", "1", "2", "4", "0"] + (
        [] if grid else ["-1", "1e308", "nan"])
    rows = [[*map(str, Q), draw(st.sampled_from(values))] for Q in cubes]
    if kind == "repeat":
        rows.append(rows[0][:-1] + ["0.25"])
    if kind == "level":
        rows.append([str(13 if n == 1 else 9)] + ["0"] * n + ["1.0"])
    if kind == "fields":
        rows.append(rows[0] + ["1"])
    if kind == "token":
        rows[0][0] = "x"
    return "".join(" ".join(r) + "\n" for r in rows)


def _grids(draw) -> tuple[int, int]:
    n = draw(st.sampled_from([1, 2]))
    return n, draw(st.integers(0, 4 if n == 1 else 3))


@st.composite
def cases(draw):
    """An argv and the texts of its input files, clean in half the cases."""
    if draw(st.booleans()):
        return draw(clean_cases(draw(st.booleans())))
    files = {"A.gfn": draw(gfn_texts(None)), "B.gfn": draw(gfn_texts(None)),
             "S.seq": draw(seq_texts(None)), "C.json": draw(config_texts())}
    return draw(argvs()), files


# clean values: exponents above 1, and p0 and r below every one of them
EXPONENTS = ["2", "3", "4"]
LOW = ["1", "1.5"]
SEEDS = ["0", "1", "2"]
# the experiment a certify command runs; sweep runs the config's
EXPERIMENTS = {"certify-a": "theorem-a", "certify-b": "theorem-b", "certify-c": "theorem-c",
               "certify-buckley": "buckley", "sweep": None}


@st.composite
def clean_cases(draw, big):
    """A subcommand with options that it accepts on one (n, L) grid and well-formed
    files on that grid, their values ordinary or, if big, all 1e308."""
    n, L = grid = _grids(draw)
    command = draw(st.sampled_from(sorted(COMMANDS)))

    def pick(pool):
        return draw(st.sampled_from(pool))

    def gfns():
        return [x for _ in range(draw(st.integers(1, 2))) for x in ("--f", pick(GFN))]

    step = 0
    mode = pick(["config", "files"]) if command in ("certify-a", "certify-buckley") else None
    if command in EXPERIMENTS and mode != "files":
        opts = ["--config", "C.json"] + (["--resume"] if draw(st.booleans()) else [])
    elif command == "constants":
        shape = pick(["weights", "rh", "ap"])
        if shape == "weights":
            ws = draw(st.lists(st.sampled_from(GFN), min_size=1, max_size=2))
            opts = ["--weights", *ws, "--p", *[pick(EXPONENTS) for _ in ws],
                    "--p0", pick(LOW), "--r", pick(LOW)]
        else:
            opts = ["--weight", pick(GFN)] + (["--rh", pick(GOOD["rh"])] if shape == "rh"
                                               else ["--p", pick(["1", "1.5"] + EXPONENTS)])
        opts += ["--maxlevel", pick(GOOD[int])]
    elif command == "decompose":
        j = draw(st.integers(0, L))
        index = [str(draw(st.integers(0, (1 << j) - 1))) for _ in range(n)]
        opts = ["--function", pick(GFN)] + (["--level", str(j), "--index", *index]
                                            if draw(st.booleans()) else [])
    elif command in ("select", "dominate"):
        # a selection of complexity k >= 1 needs its cubes on the levels k, 2k, ...
        k = draw(st.integers(0, L if command == "select" else 4))
        step = k if command == "select" else 0
        opts = ["--alpha", "S.seq", *gfns(), "--k", str(k), "--p0", pick(LOW)]
        opts += ["--cstar", pick(["1", "100"])] if draw(st.booleans()) else []
    elif command == "certify-a":
        opts = ["--alpha", "S.seq", *gfns(), "--k", pick(GOOD[int]), "--p0", pick(LOW),
                "--p", pick(["0.5", "1"] + EXPONENTS), "--out", "out.json"]
        opts += ["--weight", pick(GFN)] if draw(st.booleans()) else []
    elif command == "certify-buckley":
        opts = ["--weight", pick(GFN), "--function", pick(GFN), "--p", pick(EXPONENTS),
                "--out", "out.json"]
        opts += ["--maxlevel", pick(GOOD[int])] if draw(st.booleans()) else []
    elif command == "check-symbol" and draw(st.booleans()):
        opts = ["--bilinear", "--symbol", pick(["cone", "bump"]), "--N", pick(GOOD["N"]),
                "--l", pick(["0", "1", "2"])]
    elif command == "check-symbol":
        # the radii of the class check need N >= 8; a file's side is its N
        files = ["A.gfn"] if L >= 3 else []
        symbol = pick(["sign", "identity", "riesz1d"] + files)
        N = str(1 << L) if symbol in files else pick(["8", "16"])
        opts = ["--symbol", symbol, "--N", N, "--s", pick(["1.5", "2"]),
                "--l", pick(["0", "1", "2"])]
    else:  # check-h2: a rank-1 file kernel sets L; the half cube needs L >= level + 2
        kernel = pick(["hilbert"] + (["symbol:A.gfn"] if n == 1 and L >= 3 else []))
        Lk = L if kernel != "hilbert" else draw(st.integers(3, 6))
        level = draw(st.integers(1, Lk - 2))
        opts = ["--kernel", kernel, "--L", str(Lk), "--level", str(level),
                "--index", str(draw(st.integers(0, (1 << level) - 1))),
                "--jmax", str(draw(st.integers(1, level))), "--p0", pick(["1", "1.5", "2"])]
    opts += ["--seed", pick(SEEDS)]
    if "--out" in (a.option_strings[0] for a in COMMANDS[command]) and mode is None:
        opts += ["--out", "out.json"] if draw(st.booleans()) else []
    files = {"A.gfn": draw(gfn_texts(grid, big)), "B.gfn": draw(gfn_texts(grid, big)),
             "S.seq": draw(seq_texts(grid, big, step)),
             "C.json": draw(clean_config_texts(EXPERIMENTS.get(command)))}
    return [command, *opts], files


FIELDS = {
    "experiment": ["theorem-a", "theorem-b", "theorem-c", "buckley", "bogus", 3],
    "n": [1, 2, 0, "1", 1.5],
    "L": [2, 3, 4, 13, -1, "4"],
    "m": [1, 2, 0, "2"],
    "p0": [1.0, 1.5, 0.5, "x", float("nan")],
    "p": [[2.0], [3.0, 3.0], [], [1.0], "2", [float("inf")]],
    "k": [[0], [1], [0, 2], [-1], "a", 1],
    "trials": [1, 2, 0, "3", 1.5],
    "seed": [0, 1, -1, "0"],
    "weight_family": [{"type": "power", "alpha_grid": [0.0, 0.3]}, {"type": "constant"},
                      {"type": "x"}, [], {"alpha_grid": "abc"},
                      {"type": "power", "alpha_grid": [1e308]}],
    "out": ["sweep", None, 3, ""],
    "plot": [{"out": "plot.svg"}, {"out": "plot.svg", "y": "nope"}, {}, "x", {"out": 3}],
    "jobs": [2],
}


@st.composite
def clean_config_texts(draw, experiment):
    """A sweep config that the experiment (any, if None) accepts."""
    exp = experiment or draw(st.sampled_from(FIELDS["experiment"][:4]))
    # theorem-c runs the Hilbert operator at n = m = 1, and its H2 fit needs L >= 6
    one = exp == "theorem-c"
    n, m = (1, 1) if one else (draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2])))
    p = [draw(st.sampled_from([2.0, 3.0]))]
    if exp in ("theorem-b", "theorem-c") and draw(st.booleans()):
        p += [draw(st.sampled_from([2.0, 3.0])) for _ in range(m - 1)]
    config = {"experiment": exp, "n": n, "L": 6 if one else draw(st.sampled_from([2, 3])),
              "m": m, "p0": draw(st.sampled_from([1.0, 1.5])), "p": p,
              "trials": draw(st.sampled_from([1, 2])), "seed": draw(st.sampled_from([0, 1])),
              "weight_family": draw(st.sampled_from(FIELDS["weight_family"][:2])),
              "out": draw(st.sampled_from(["sweep", None]))}
    if exp == "theorem-a":
        config["k"] = draw(st.sampled_from(FIELDS["k"][:3]))
    if draw(st.booleans()):
        config["plot"] = {"out": "plot.svg", "x": "k" if exp == "theorem-a" else "alpha"}
    return json.dumps(config)


@st.composite
def config_texts(draw):
    kind = draw(st.sampled_from(["object"] * 6 + ["list", "text"]))
    if kind == "list":
        return '["experiment", "buckley"]'
    if kind == "text":
        return draw(st.sampled_from(["", "{", "{\"experiment\": \"café\"}"]))
    # a small valid core keeps some sweeps running, then any field may go wrong
    config = {"experiment": draw(st.sampled_from(FIELDS["experiment"][:4])), "L": 3, "trials": 1}
    for key in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=4, unique=True)):
        config[key] = draw(st.sampled_from(FIELDS[key]))
    return json.dumps(config)


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _strict_json(text: str) -> None:
    """Parse one JSON document or a run of NDJSON records, rejecting NaN and Infinity."""
    decoder = json.JSONDecoder(parse_constant=_reject)
    text, pos = text.strip(), 0
    while pos < len(text):
        pos = decoder.raw_decode(text, pos)[1]
        pos += len(text[pos:]) - len(text[pos:].lstrip())


ORDINARY = {"A.gfn": "GFN1 1 3\n1 2 1 1 0.5 1 1 4\n", "B.gfn": "GFN1 1 3\n" + "1 " * 8 + "\n",
            "S.seq": "1 0 1\n", "C.json": "{}"}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
# finite inputs whose sums and products overflow in numpy on the way to an exit 2
@example((["constants", "--weight", "A.gfn", "--p", "2"],
          {**ORDINARY, "A.gfn": "GFN1 1 2\n1e308 1e308 1 1\n"}))
@example((["select", "--alpha", "S.seq", "--f", "A.gfn"], {**ORDINARY, "S.seq": "1 0 1e308\n"}))
# a zero weight cell, floored to 1e-300, whose dual weight at p = 1.5 leaves the float range
@example((["constants", "--weight", "A.gfn", "--p", "1.5"],
          {**ORDINARY, "A.gfn": "GFN1 1 2\n0.0 1.0 1.0 0.0\n"}))
def test_every_argv_keeps_the_exit_code_contract(case):
    argv, inputs = case
    code, out, err, written = _run(argv, inputs)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if "non-finite value in output field" in err or "floating-point" in err:
        used = [text for name, text in inputs.items() if any(name in a for a in argv)]
        assert any(x in text for x in EXTREME for text in argv + used), (argv, err)
    _strict_json(out)
    for name, text in written.items():
        if not name.endswith((".csv", ".svg")):
            _strict_json(text)


def _run(argv, inputs) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and the files written of main(argv) in a directory
    holding the input files."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            # a warning is a note on stderr, as in a shell, not a break of the contract,
            # except numpy's floating-point warnings: such an input exits 2 without one
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                warnings.filterwarnings("error", NUMPY_FP, RuntimeWarning)
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
            written = {name: open(name, encoding="utf-8").read()
                       for name in os.listdir(".") if name not in inputs}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), written


CLEAN = {**ORDINARY, "S.seq": "1 0 1\n2 3 0.5\n",
         "C.json": json.dumps({"experiment": "theorem-c", "L": 6, "p0": 1.5, "trials": 1,
                               "weight_family": {"type": "power", "alpha_grid": [0.3]},
                               "out": "sweep"})}
# one clean argv per subcommand
CLEAN_ARGVS = {
    "constants": ["--weights", "A.gfn", "B.gfn", "--p", "2", "3", "--p0", "1.5", "--r", "1"],
    "decompose": ["--function", "A.gfn", "--level", "1", "--index", "1"],
    "select": ["--alpha", "S.seq", "--f", "A.gfn", "--k", "1"],
    "dominate": ["--alpha", "S.seq", "--f", "A.gfn", "--f", "B.gfn", "--k", "2"],
    "certify-a": ["--alpha", "S.seq", "--f", "A.gfn", "--k", "1", "--weight", "B.gfn"],
    "certify-b": ["--config", "C.json"],
    "certify-c": ["--config", "C.json", "--resume"],
    "certify-buckley": ["--weight", "A.gfn", "--function", "B.gfn", "--maxlevel", "2"],
    "check-symbol": ["--symbol", "A.gfn", "--N", "8"],
    "check-h2": ["--kernel", "symbol:A.gfn", "--L", "3", "--level", "1", "--jmax", "1"],
    "sweep": ["--config", "C.json"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_clean_case_of_every_subcommand_exits_0(command):
    code, _, err, _ = _run([command, *CLEAN_ARGVS[command]], CLEAN)
    assert code == 0, err
