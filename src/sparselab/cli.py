"""Batch command-line front end.

Subcommands mirror the library surface: weight constants, the oscillation
decomposition, sparse selection and domination, certification of input
files, the symbol/kernel checkers and ``sweep``, the one runner of a config's
certification campaign.  Outputs are JSON reports, NDJSON + CSV sweeps and
SVG line charts.  Exit codes: 0 success, 2 a validation or file-format error
or an option that the command's mode never reads, 3 a failed exact-inequality
check (the offending witness is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .certify import (
    certify_buckley,
    certify_theorem_a,
    dumps_finite,
    sweep,
    validate_config,
)
from .grid import (
    DomainError,
    DimensionError,
    DyadicCube,
    FormatError,
    GridFunction,
    MAX_LEVEL,
    argmax_cube,
    check_resolution,
    read_gfn,
    read_text,
    root_cube,
)
from .kernels import (
    NAMED_SYMBOLS,
    Symbol,
    check_h2,
    check_hormander_bilinear,
    check_msl,
    hilbert_kernel,
    kernel_from_symbol,
)
from .oscillation import lerner_decompose
from .sparse import CarlesonSequence, SparsityError, dominate, select_sparse, verify_sparse
from .weights import WeightTuple, ap_constant, clamp_weight, multi_ap_constant, rh_constant


def read_weight(path) -> GridFunction:
    """Weight files are clamped below at 1e-300 on ingestion (with a warning)."""
    return clamp_weight(read_gfn(path))


def read_carleson(path) -> CarlesonSequence:
    """Sequence file: one cube per line, 'level index... alpha', level at most MAX_LEVEL[n]."""
    levels, lines = {}, {}
    n = None
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if n is None:
            if len(toks) not in (3, 4):
                raise FormatError(f"line {ln}: expected 'level index... alpha'")
            n = len(toks) - 2
        if len(toks) != n + 2:
            raise FormatError(f"line {ln}: expected {n + 2} fields, got {len(toks)}")
        try:
            level = int(toks[0])
            index = tuple(int(t) for t in toks[1 : 1 + n])
            alpha = float(toks[-1])
        except ValueError:
            raise FormatError(f"line {ln}: malformed number") from None
        if not 0 <= level <= MAX_LEVEL[n]:
            raise FormatError(f"line {ln}: level {level} out of range 0..{MAX_LEVEL[n]} "
                              f"for n={n}")
        if not all(0 <= i < 1 << level for i in index):
            raise FormatError(f"line {ln}: index {index} out of range at level {level}")
        if not math.isfinite(alpha):
            raise FormatError(f"line {ln}: non-finite coefficient {toks[-1]}")
        if alpha < 0:
            raise FormatError(f"line {ln}: negative coefficient {toks[-1]}")
        if (level, index) in lines:
            raise FormatError(f"line {ln}: repeats the cube of line {lines[level, index]}")
        lines[level, index] = ln
        if level not in levels:
            levels[level] = np.zeros((1 << level,) * n)
        levels[level][index] = alpha
    if n is None:
        raise FormatError("line 1: empty coefficient file")
    return CarlesonSequence(root_cube(n), levels)


def write_carleson(path, a: CarlesonSequence) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for Q, alpha in a.items():
            fields = [str(Q.level), *(str(i) for i in Q.index), repr(alpha)]
            fh.write(" ".join(fields) + "\n")


def emit_plot(rows: list[dict], xcol: str, ycol: str) -> str:
    """Self-contained SVG line chart of ycol against xcol."""
    pts = []
    for row in rows:
        try:
            pts.append((float(row[xcol]), float(row[ycol])))
        except (KeyError, TypeError, ValueError):
            raise DomainError(f"plot needs numeric columns {xcol!r} and {ycol!r}") from None
    if not pts:
        raise DomainError("plot needs at least one data point")
    W, H, M = 640, 400, 50
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return M + (x - x0) / xspan * (W - 2 * M)

    def sy(y):
        return H - M - (y - y0) / yspan * (H - 2 * M)

    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
        f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        f'<text x="{W // 2}" y="{H - 12}" text-anchor="middle" font-size="12">{xcol}</text>',
        f'<text x="14" y="{H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {H // 2})">{ycol}</text>',
        f'<text x="{M}" y="{H - M + 16}" font-size="10">{x0:g}</text>',
        f'<text x="{W - M}" y="{H - M + 16}" text-anchor="end" font-size="10">{x1:g}</text>',
        f'<text x="{M - 4}" y="{H - M}" text-anchor="end" font-size="10">{y0:g}</text>',
        f'<text x="{M - 4}" y="{M + 4}" text-anchor="end" font-size="10">{y1:g}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _dump(obj, out: str | None) -> None:
    text = dumps_finite(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_symbol(spec: str, N: int) -> Symbol:
    if spec in NAMED_SYMBOLS:
        return NAMED_SYMBOLS[spec](N)
    f = read_gfn(spec)
    if 1 << f.level != N:
        raise DimensionError(f"symbol file {spec} has side {1 << f.level}, not {N}")
    return Symbol(f.dim, f.values, spec)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _options(args, mode: str, unread=(), **defaults) -> None:
    """Reject the options given that this mode never reads; fill in the defaults of the rest."""
    for dest in unread:
        if getattr(args, dest) is not None:
            raise DomainError(f"{args.command}: --{dest} is not read {mode}")
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def cmd_constants(args) -> tuple[dict, int]:
    if args.weights:
        _options(args, "with --weights", ("weight", "rh"), p=[2.0], p0=1.0, r=1.0)
        ws = [read_weight(p) for p in args.weights]
        t = WeightTuple(tuple(ws), tuple(args.p), p0=args.p0)
        rep = multi_ap_constant(t, r=args.r, maxlevel=args.maxlevel)
    elif args.weight and args.rh is not None:
        _options(args, "with --rh", ("p", "p0", "r"))
        try:
            q = math.inf if args.rh in ("inf", "oo") else float(args.rh)
        except ValueError:
            raise DomainError(f"--rh must be a number or inf, got {args.rh!r}") from None
        rep = rh_constant(read_weight(args.weight), q, maxlevel=args.maxlevel)
    elif args.weight:
        _options(args, "with --weight", ("p0", "r"), p=[2.0])
        if len(args.p) != 1:
            raise DomainError(f"constants: --p takes one value with --weight, got {len(args.p)}")
        rep = ap_constant(read_weight(args.weight), args.p[0], maxlevel=args.maxlevel)
    else:
        raise DomainError("constants needs --weight or --weights")
    return rep.to_dict(), 0


def cmd_decompose(args) -> tuple[dict, int]:
    f = read_gfn(args.function)
    if args.level is not None:
        Q0 = DyadicCube(args.level, tuple(args.index or [0] * f.dim))
    else:
        _options(args, "without --level", ("index",))
        Q0 = root_cube(f.dim)
    dec = lerner_decompose(f, Q0)
    ok = dec.verify(f)
    report = {
        "base": {"level": Q0.level, "index": list(Q0.index)},
        "median": dec.base_median,
        "lambda": dec.lam,
        "family": dec.to_records(),
        "verified": ok,
    }
    if not ok:
        worst = argmax_cube(dec.osc.items())[1] if dec.osc else Q0
        print(f"decomposition check failed near {worst}", file=sys.stderr)
    return report, 0 if ok else 3


def cmd_select(args) -> tuple[dict, int]:
    a = read_carleson(args.alpha)
    fs = [read_gfn(p) for p in args.f]
    res = select_sparse(a, args.k, args.p0, fs, cstar=args.cstar, seed=args.seed)
    report = {
        "family": res.family.to_records(),
        **res.report(),
        "verified": verify_sparse(res.family),
    }
    return report, 0 if report["verified"] else 3


def cmd_dominate(args) -> tuple[dict, int]:
    a = read_carleson(args.alpha)
    fs = [read_gfn(p) for p in args.f]
    res = dominate(a, args.k, args.p0, fs, cstar=args.cstar, seed=args.seed)
    return res.report(), 0


def cmd_certify_a(args) -> tuple[dict, int]:
    a = read_carleson(args.alpha)
    fs = [read_gfn(p) for p in args.f]
    w = read_weight(args.weight) if args.weight else None
    rec = certify_theorem_a(a, args.k, args.p0, fs, args.p, w, seed=args.seed)
    return rec.to_dict(), 0


def cmd_certify_buckley(args) -> tuple[dict, int]:
    w = read_weight(args.weight)
    f = read_gfn(args.function)
    return certify_buckley(w, args.p, f, maxlevel=args.maxlevel).to_dict(), 0


def _read_records(path) -> dict:
    """The records of a sweep NDJSON file by key."""
    done = {}
    for ln, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if not isinstance(rec, dict) or not isinstance(rec.get("key"), str):
            raise FormatError(f"{path}: line {ln}: not a sweep record")
        done[rec["key"]] = rec
    return done


def cmd_sweep(args) -> tuple[None, int]:
    cfg = validate_config(json.loads(read_text(args.config)))
    done = {}
    out = cfg["out"]
    if out and os.path.exists(out + ".ndjson") and args.resume:
        done = _read_records(out + ".ndjson")
    res = sweep(cfg, done_keys=done or None)
    records = res.ndjson()  # before any output file is opened: a non-finite record writes nothing
    if out:
        with open(out + ".ndjson", "a" if done else "w", encoding="ascii") as fh:
            fh.write(records)
        with open(out + ".csv", "w", encoding="ascii") as fh:
            fh.write(res.csv())
        targets = [out + ".ndjson", out + ".csv"]
    else:
        sys.stdout.write(records)
        targets = []
    plot = cfg["plot"]
    if plot:
        svg = emit_plot(res.summary, plot["x"], plot["y"])
        with open(plot["out"], "w", encoding="ascii") as fh:
            fh.write(svg)
        targets.append(plot["out"])
    if targets:
        print("wrote " + ", ".join(targets), file=sys.stderr)
    return None, 0


def cmd_check_symbol(args) -> tuple[dict, int]:
    _options(args, "with --bilinear", ("s",) if args.bilinear else ())
    sym = _load_symbol(args.symbol, args.N)
    if args.bilinear:
        return check_hormander_bilinear(sym, int(args.l)).to_dict(), 0
    return check_msl(sym, 2.0 if args.s is None else args.s, int(args.l)).to_dict(), 0


def cmd_check_h2(args) -> tuple[dict, int]:
    check_resolution(1, args.L)
    if args.kernel == "hilbert":
        K = hilbert_kernel(args.L)
    elif args.kernel.startswith("symbol:"):
        sym = _load_symbol(args.kernel.split(":", 1)[1], 1 << args.L)
        if sym.freq_dim != 1:
            raise DimensionError(f"check-h2 needs a rank-1 symbol, got rank {sym.freq_dim}")
        K = kernel_from_symbol(sym)
    else:
        raise DomainError(f"unknown kernel {args.kernel!r}")
    Q = DyadicCube(args.level, (args.index,))
    return check_h2(K, args.p0, Q, args.jmax, seed=args.seed).to_dict(), 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparselab",
        description="sparse operators, weight constants and weighted-norm certification "
        "on dyadic grids",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("constants", help="A_p / RH_q / multiple-weight constants")
    p.add_argument("--weight", default=None)
    p.add_argument("--weights", nargs="+", default=None)
    p.add_argument("--p", type=float, nargs="+", default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--rh", default=None, help="reverse Holder exponent (number or inf)")
    p.add_argument("--maxlevel", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("decompose", help="local mean oscillation decomposition")
    p.add_argument("--function", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--index", type=int, nargs="+", default=None)
    common(p)
    p.set_defaults(fn=cmd_decompose)

    def sequence(name, help, k):
        p = sub.add_parser(name, help=help)
        p.add_argument("--alpha", required=True)
        p.add_argument("--f", action="append", required=True)
        p.add_argument("--k", type=int, default=k)
        p.add_argument("--p0", type=float, default=1.0)
        return p

    p = sequence("select", "sparse selection for one coefficient sequence", 0)
    p.add_argument("--cstar", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_select)

    p = sequence("dominate", "slice, select and compare cellwise", 1)
    p.add_argument("--cstar", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_dominate)

    p = sequence("certify-a", "complexity-collapse certification", 0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--weight", default=None)
    common(p)
    p.set_defaults(fn=cmd_certify_a)

    p = sub.add_parser("certify-buckley", help="maximal-function bound certification")
    p.add_argument("--weight", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--maxlevel", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_certify_buckley)

    p = sub.add_parser("check-symbol", help="symbol class membership report")
    p.add_argument("--symbol", required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--bilinear", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_check_symbol)

    p = sub.add_parser("check-h2", help="kernel ring-decay fit")
    p.add_argument("--kernel", required=True)
    p.add_argument("--p0", type=float, default=2.0)
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--L", type=int, default=10)
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--index", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_check_h2)

    p = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # an overflow or invalid value on the way to an output is an input error
        with np.errstate(over="raise", invalid="raise"):
            report, code = args.fn(args)
            if report is not None:
                _dump({**report, "seed": args.seed}, args.out)
            return code
    except FloatingPointError as err:
        print(f"error: {args.command}: floating-point {err}", file=sys.stderr)
        return 2
    except (FormatError, DomainError, DimensionError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SparsityError as err:
        print(f"sparsity witness failed at {err.cube}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
