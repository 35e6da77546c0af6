"""The benchmark's workloads: inputs made from a seed, CLI commands, output checks.

Each workload is a list of ``sparselab`` CLI argument vectors run in order;
one run through the list is a pass.  Inputs are written once, before the
first pass, from ``numpy.random.default_rng(seed)`` alone, so the program
only ever sees generated files and configs.

domination  theorem-a sweep at n=2 L=8 on dense random Carleson sequences.
            Time goes to sparse evaluation, the selection walk, the weak-norm
            estimate and packing; no oscillation, kernel or weight work.
oscillation theorem-c sweep at n=1 L=12 with the Hilbert operator and power
            weights.  Time goes to dilates, the oscillation decomposition and
            the kernel fit; it never evaluates a sparse operator.
reports     one-off report commands on files: parsing, sparse supports,
            constants computed once, the kernel checkers, and a resume over
            a finished campaign that should read rather than recompute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FULL = {"n1": 12, "n2": 8, "h2_L": 12, "sign_N": 4096, "cone_N": 256,
        "dom_trials": 1, "osc_trials": 2, "resume_trials": 6, "sparse_cap": 30}
# Smallest sizes on which every command still runs; used by the smoke test.
TINY = {"n1": 6, "n2": 4, "h2_L": 8, "sign_N": 64, "cone_N": 32,
        "dom_trials": 1, "osc_trials": 1, "resume_trials": 2, "sparse_cap": 6}


class CheckFailed(Exception):
    pass


@dataclass
class Command:
    label: str
    argv: list[str]
    trials: int = 0                 # certification trials the command requests
    outputs: tuple[str, ...] = ()   # files the command (re)writes
    appends: tuple[str, ...] = ()   # files the command appends to
    check: Callable[[], None] | None = None  # raises CheckFailed


@dataclass
class Workload:
    name: str
    commands: list[Command]
    grids: dict = field(default_factory=dict)
    prepare: list[Command] = field(default_factory=list)  # run once, before the passes


# ---------------------------------------------------------------------------
# Output checks


def _reject_constant(token):
    raise CheckFailed(f"non-standard JSON constant {token}")


def load_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return load_json(fh.read())


def read_ndjson(path: str) -> list:
    with open(path, "r", encoding="ascii") as fh:
        return [load_json(line) for line in fh if line.strip()]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _finite(x, what: str, low: float = 0.0, strict: bool = True) -> None:
    ok = isinstance(x, (int, float)) and math.isfinite(x) and (x > low if strict else x >= low)
    _require(ok, f"{what} = {x!r}, expected a finite number {'>' if strict else '>='} {low}")


def _pyramid_max(num_levels: list[np.ndarray]) -> float:
    return max(float(a.max()) for a in num_levels)


def _means(values: np.ndarray, n: int, op=np.mean) -> list[np.ndarray]:
    """Per-cube reductions of a 2^L grid at every level, finest first."""
    out = [values]
    while out[-1].shape[0] > 1:
        a = out[-1]
        side = a.shape[0] // 2
        if n == 1:
            out.append(op(a.reshape(side, 2), axis=1))
        else:
            out.append(op(a.reshape(side, 2, side, 2), axis=(1, 3)))
    return out


def ap2_constant(w: np.ndarray, n: int) -> float:
    """sup over dyadic cubes of <w>_Q <1/w>_Q, computed independently of sparselab."""
    return _pyramid_max([a * b for a, b in zip(_means(w, n), _means(1.0 / w, n))])


def rh_inf_constant(w: np.ndarray, n: int) -> float:
    """sup over dyadic cubes of max_Q w / <w>_Q."""
    return _pyramid_max([a / b for a, b in zip(_means(w, n, np.max), _means(w, n))])


def check_report(path: str, want: dict | None = None, value: float | None = None,
                 positive: tuple[str, ...] = ()):
    def check():
        rep = read_json(path)
        for key, expected in (want or {}).items():
            _require(rep.get(key) == expected, f"{path}: {key} = {rep.get(key)!r}, "
                     f"expected {expected!r}")
        for key in positive:
            _finite(rep.get(key), f"{path}: {key}")
        if value is not None:
            got = rep.get("value")
            _require(isinstance(got, float) and abs(got - value) <= 1e-9 * value,
                     f"{path}: value {got!r}, independent value {value!r}")
    return check


def check_sweep(out: str, unchanged_from: str | None = None):
    def check():
        recs = read_ndjson(out + ".ndjson")
        _require(bool(recs), f"{out}.ndjson: no records")
        for rec in recs:
            _finite(rec.get("ratio"), f"{out}.ndjson ratio", strict=False)
        if unchanged_from is not None:
            with open(out + ".ndjson", "rb") as a, open(unchanged_from, "rb") as b:
                _require(a.read() == b.read(), f"{out}.ndjson changed on resume")
        with open(out + ".csv", "r", encoding="ascii") as fh:
            _require(fh.readline().startswith("experiment,"), f"{out}.csv: bad header")
    return check


# ---------------------------------------------------------------------------
# Input files


def write_gfn(path: str, n: int, L: int, values: np.ndarray) -> None:
    rows = values.reshape(-1, 64 if n == 1 and values.size >= 64 else values.shape[-1])
    body = "\n".join(" ".join(repr(float(x)) for x in row) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"GFN1 {n} {L}\n{body}\n")


def write_sparse_seq(path: str, rng, n: int, L: int, k: int, cap: int) -> int:
    """A sparse Carleson sequence on levels k, 2k, ... with at most ``cap`` cubes per level.

    Coefficients are at most 1/levels, so the packing sup is at most 1.
    """
    levels = list(range(k, L + 1, k))
    lines = []
    for j in levels:
        side = 1 << j
        picks = np.sort(rng.choice(side**n, size=min(cap, side**n), replace=False))
        alphas = rng.uniform(0.05, 1.0, picks.size) / len(levels)
        for flat, a in zip(picks, alphas):
            index = [int(flat)] if n == 1 else [int(flat) // side, int(flat) % side]
            lines.append(" ".join(map(str, [j, *index])) + f" {float(a)!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


def write_config(path: str, cfg: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Workloads


def _sweep_command(label: str, work: str, cfg: dict, points: int) -> Command:
    cfg_path = os.path.join(work, label + ".json")
    out = cfg["out"]
    write_config(cfg_path, cfg)
    return Command(label, ["sweep", "--config", cfg_path], trials=points * cfg["trials"],
                   outputs=(out + ".ndjson", out + ".csv"), check=check_sweep(out))


def domination(seed: int, work: str, size: dict) -> Workload:
    L = size["n2"]
    cfg = {"experiment": "theorem-a", "n": 2, "L": L, "m": 2, "p0": 1.5, "p": [2.0],
           "k": [0, 2], "trials": size["dom_trials"], "seed": seed,
           "out": os.path.join(work, "theorem_a")}
    cmd = _sweep_command("theorem_a", work, cfg, points=2)
    return Workload("domination", [cmd], {"theorem_a": {"n": 2, "L": L}})


def oscillation(seed: int, work: str, size: dict) -> Workload:
    L = size["n1"]
    cfg = {"experiment": "theorem-c", "n": 1, "L": L, "m": 1, "p0": 1.0, "p": [2.0],
           "weight_family": {"type": "power", "alpha_grid": [-0.6, 0.0, 0.6]},
           "trials": size["osc_trials"], "seed": seed, "out": os.path.join(work, "theorem_c")}
    cmd = _sweep_command("theorem_c", work, cfg, points=3)
    return Workload("oscillation", [cmd], {"theorem_c": {"n": 1, "L": L}})


def reports(seed: int, work: str, size: dict) -> Workload:
    rng = np.random.default_rng(seed)
    n1, n2 = size["n1"], size["n2"]

    def path(name: str) -> str:
        return os.path.join(work, name)

    def gfn(name: str, n: int, L: int, kind: str) -> tuple[str, np.ndarray]:
        shape = (1 << L,) * n
        if kind == "weight":
            vals = np.exp2(rng.uniform(-4.0, 4.0, shape))
        else:
            vals = rng.uniform(0.0, 1.0, shape)
        write_gfn(path(name + ".gfn"), n, L, vals)
        return path(name + ".gfn"), vals

    f1, _ = gfn("f1", 1, n1, "function")
    f2, _ = gfn("f2", 2, n2, "function")
    w1, _ = gfn("w1", 1, n1, "weight")
    w2, w2_vals = gfn("w2", 2, n2, "weight")
    w2b, _ = gfn("w2b", 2, n2, "weight")
    seq1, seq2 = path("sparse1.seq"), path("sparse2.seq")
    cubes1 = write_sparse_seq(seq1, rng, 1, n1, 2, size["sparse_cap"])
    cubes2 = write_sparse_seq(seq2, rng, 2, n2, 2, size["sparse_cap"])
    cmds: list[Command] = []

    def report(label: str, argv: list[str], trials: int = 0, **check) -> None:
        out = path(label + ".json")
        cmds.append(Command(label, [*argv, "--seed", str(seed), "--out", out], trials,
                            outputs=(out,), check=check_report(out, **check)))

    report("constants_ap", ["constants", "--weight", w2, "--p", "2"],
           value=ap2_constant(w2_vals, 2))
    report("constants_rh", ["constants", "--weight", w2, "--rh", "inf"],
           value=rh_inf_constant(w2_vals, 2))
    report("constants_multi", ["constants", "--weights", w2, w2b, "--p", "2", "2"],
           positive=("value",))
    for tag, w, f in (("n1", w1, f1), ("n2", w2, f2)):
        report(f"buckley_{tag}", ["certify-buckley", "--weight", w, "--function", f,
                                  "--p", "2"], trials=1, positive=("lhs", "rhs"))
    for tag, f in (("n1", f1), ("n2", f2)):
        report(f"decompose_{tag}", ["decompose", "--function", f], want={"verified": True})
    for tag, seq, f in (("n1", seq1, f1), ("n2", seq2, f2)):
        report(f"dominate_{tag}", ["dominate", "--alpha", seq, "--f", f, "--k", "2"],
               want={"covered": True}, positive=("cell_constant",))
        report(f"certify_a_{tag}", ["certify-a", "--alpha", seq, "--f", f, "--k", "2",
                                    "--p", "2"], trials=1, positive=("lhs", "rhs"))
    report("check_h2", ["check-h2", "--kernel", "hilbert", "--L", str(size["h2_L"])],
           want={"degenerate": False}, positive=("delta_hat",))
    report("check_symbol_sign", ["check-symbol", "--symbol", "sign", "--N",
                                 str(size["sign_N"])], want={"member": True})
    report("check_symbol_cone", ["check-symbol", "--symbol", "cone", "--bilinear", "--N",
                                 str(size["cone_N"])])

    # a finished theorem-b campaign, made once before the first pass
    trials = size["resume_trials"]
    out, finished = path("theorem_b"), path("theorem_b.finished")
    cfg = {"experiment": "theorem-b", "n": 2, "L": n2, "m": 2, "p0": 1.0, "p": [2.0, 2.0],
           "weight_family": {"type": "power", "alpha_grid": [-0.3, 0.0, 0.3]},
           "trials": trials, "seed": seed, "out": out}
    write_config(path("theorem_b.json"), cfg)

    def keep_finished():
        check_sweep(out)()
        shutil.copyfile(out + ".ndjson", finished)

    prepare = [Command("campaign_theorem_b", ["sweep", "--config", path("theorem_b.json")],
                       trials=3 * trials, outputs=(out + ".ndjson", out + ".csv"),
                       check=keep_finished)]
    # the resume certifies nothing new, so its trials do not count toward trials_per_s
    cmds.append(Command("resume_theorem_b",
                        ["sweep", "--config", path("theorem_b.json"), "--resume"],
                        outputs=(out + ".csv",), appends=(out + ".ndjson",),
                        check=check_sweep(out, unchanged_from=finished)))
    grids = {"functions": {"n1": n1, "n2": n2}, "h2": {"n": 1, "L": size["h2_L"]},
             "sparse1": {"n": 1, "L": n1, "cubes": cubes1},
             "sparse2": {"n": 2, "L": n2, "cubes": cubes2}, "theorem_b": {"n": 2, "L": n2}}
    return Workload("reports", cmds, grids, prepare)


BUILDERS = {"domination": domination, "oscillation": oscillation, "reports": reports}
