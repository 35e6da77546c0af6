"""The CLI exit-code contract as a property.

Any argv exits 0, 2 or 3, prints no traceback or numpy floating-point
warning and writes strict JSON, and an output goes non-finite or overflows
only from an input at the edge of the float range.
The argv comes from ``build_parser()``'s own actions and names generated
input files: grid functions, coefficient sequences and sweep configs.  Half
the cases are clean, with every option given an ordinary value and
well-formed files on one grid, so commands run to their outputs; in half
of those every file value is 1e308, so sums and products of two values
overflow on the way.  In the others at most one value comes from an
edge pool and a file may be broken in one of the usual ways.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
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
def argvs(draw, clean):
    """A subcommand and its options: when clean every option with a usable value,
    else some of them, every value usable except at most one from EDGE."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[command]
    edge_at = -1 if clean else draw(st.integers(-len(actions) // 2, len(actions) - 1))
    argv = [command]
    for i, action in enumerate(actions):
        if not (clean or action.required or i == edge_at) and draw(st.booleans()):
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
def seq_texts(draw, grid, big=False):
    """A coefficient sequence file: well formed on the (n, L) grid if given, with
    ordinary values or, if big, every coefficient 1e308; else possibly with edge
    values or broken."""
    kind = "ok" if grid else draw(st.sampled_from(["ok"] * 5 + ["repeat", "level", "empty",
                                                                "fields", "token"]))
    if kind == "empty":
        return ""
    n, L = grid or (draw(st.sampled_from([1, 2])), 3)
    cubes = draw(st.lists(st.integers(0, L).flatmap(
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
    clean = draw(st.booleans())
    grid = _grids(draw) if clean else None
    big = clean and draw(st.booleans())
    files = {"A.gfn": draw(gfn_texts(grid, big)), "B.gfn": draw(gfn_texts(grid, big)),
             "S.seq": draw(seq_texts(grid, big)), "C.json": draw(config_texts())}
    return draw(argvs(clean)), files


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
def test_every_argv_keeps_the_exit_code_contract(case):
    argv, inputs = case
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
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if "non-finite value in output field" in err.getvalue() or "floating-point" in err.getvalue():
        used = [text for name, text in inputs.items() if any(name in a for a in argv)]
        assert any(x in text for x in EXTREME for text in argv + used), (argv, err.getvalue())
    _strict_json(out.getvalue())
    for name, text in written.items():
        if not name.endswith((".csv", ".svg")):
            _strict_json(text)
