"""The CLI exit-code contract as a property.

Any argv exits 0, 2 or 3, prints no traceback and writes strict JSON.  The
argv comes from ``build_parser()``'s own actions, with values drawn from
edge pools, and names generated input files: grid functions, coefficient
sequences and sweep configs, well formed or broken in the usual ways.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselab.cli import build_parser, main

# values an option may take without failing its own checks, by destination or type
GFN = ["A.gfn", "B.gfn"]
GOOD = {"weight": GFN, "weights": GFN, "function": GFN, "f": GFN, "alpha": ["S.seq"],
        "config": ["C.json"], "out": ["out.json"], "rh": ["2", "3", "inf"],
        "symbol": ["sign", "identity", "cone", "bump", "A.gfn"],
        "kernel": ["hilbert", "symbol:A.gfn"], "N": ["4", "8", "16"], "L": ["2", "3", "4"],
        int: ["0", "1", "2", "3"], float: ["1", "1.5", "2", "3"]}
EDGE = ["0", "-1", "nan", "inf", "1e308", "", "\u00e9", "abc", "1.5", "missing.gfn", "S.seq", "."]


def _commands() -> dict[str, list[argparse.Action]]:
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


COMMANDS = _commands()


@st.composite
def argvs(draw):
    """A subcommand and its options, every value usable except at most one from EDGE."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[command]
    edge_at = draw(st.integers(-len(actions) // 2, len(actions) - 1))
    argv = [command]
    for i, action in enumerate(actions):
        if not action.required and i != edge_at and draw(st.booleans()):
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
def gfn_texts(draw):
    kind = draw(st.sampled_from(["ok"] * 6 + ["count", "level", "empty", "token", "ascii"]))
    if kind == "empty":
        return ""
    n = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(0, 4 if n == 1 else 3))
    if kind == "level":
        return f"GFN1 {n} {13 if n == 1 else 9}\n1\n"
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pool = draw(st.sampled_from([[0.25, 1.0, 4.0], [0.0, 1.0], [-1.0, 1.0], [1e308, 1.0],
                                 [1e-320, 1.0]]))
    vals = [repr(float(v)) for v in rng.choice(pool, (1 << L) ** n)]
    if kind == "count":
        vals = vals[1:] if draw(st.booleans()) else vals + ["1.0"]
    if kind == "token":
        vals[-1] = draw(st.sampled_from(["abc", "nan", "inf"]))
    text = f"GFN1 {n} {L}\n" + " ".join(vals) + "\n"
    return text + "# café\n" if kind == "ascii" else text


@st.composite
def seq_texts(draw):
    kind = draw(st.sampled_from(["ok"] * 5 + ["repeat", "level", "empty", "fields", "token"]))
    if kind == "empty":
        return ""
    n = draw(st.sampled_from([1, 2]))
    cubes = draw(st.lists(st.integers(0, 3).flatmap(
        lambda j: st.tuples(st.just(j), *[st.integers(0, (1 << j) - 1)] * n)),
        min_size=1, max_size=4, unique=True))
    rows = [[*map(str, Q), draw(st.sampled_from(["0.5", "1.0", "0.5", "0", "-1", "1e308", "nan"]))]
            for Q in cubes]
    if kind == "repeat":
        rows.append(rows[0][:-1] + ["0.25"])
    if kind == "level":
        rows.append([str(13 if n == 1 else 9)] + ["0"] * n + ["1.0"])
    if kind == "fields":
        rows.append(rows[0] + ["1"])
    if kind == "token":
        rows[0][0] = "x"
    return "".join(" ".join(r) + "\n" for r in rows)


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argvs(), gfn_texts(), gfn_texts(), seq_texts(), config_texts())
def test_every_argv_keeps_the_exit_code_contract(argv, gfn_a, gfn_b, seq, config):
    inputs = {"A.gfn": gfn_a, "B.gfn": gfn_b, "S.seq": seq, "C.json": config}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            # a warning is a note on stderr, as in a shell, not a break of the contract
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
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
    _strict_json(out.getvalue())
    for name, text in written.items():
        if not name.endswith((".csv", ".svg")):
            _strict_json(text)
