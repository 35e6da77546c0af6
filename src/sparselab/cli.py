"""Batch command-line front end.

Subcommands mirror the library surface: weight constants, the oscillation
decomposition, sparse selection and domination, the theorem certification
sweeps, and the symbol/kernel checkers.  Outputs are JSON (single reports),
NDJSON + CSV (sweeps) and self-contained SVG line charts.  Exit codes:
0 success, 2 validation or file-format error, 3 a failed exact-inequality
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
    NAMED_KERNELS,
    NAMED_SYMBOLS,
    Symbol,
    check_h2,
    check_hormander_bilinear,
    check_msl,
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
    coeffs, lines = {}, {}
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
        Q = DyadicCube(level, index)
        if Q in lines:
            raise FormatError(f"line {ln}: repeats the cube of line {lines[Q]}")
        coeffs[Q], lines[Q] = alpha, ln
    if n is None:
        raise FormatError("line 1: empty coefficient file")
    return CarlesonSequence.from_cubes(root_cube(n), coeffs)


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


def cmd_constants(args) -> int:
    if args.weights:
        ws = [read_weight(p) for p in args.weights]
        if len(args.p) != len(ws):
            raise DomainError("need one exponent per weight")
        t = WeightTuple(tuple(ws), tuple(args.p), p0=args.p0)
        rep = multi_ap_constant(t, r=args.r, maxlevel=args.maxlevel)
    elif args.weight:
        w = read_weight(args.weight)
        if args.rh is not None:
            try:
                q = math.inf if args.rh in ("inf", "oo") else float(args.rh)
            except ValueError:
                raise DomainError(f"--rh must be a number or inf, got {args.rh!r}") from None
            rep = rh_constant(w, q, maxlevel=args.maxlevel)
        else:
            rep = ap_constant(w, args.p[0], maxlevel=args.maxlevel)
    else:
        raise DomainError("constants needs --weight or --weights")
    _dump({**rep.to_dict(), "seed": args.seed}, args.out)
    return 0


def cmd_decompose(args) -> int:
    f = read_gfn(args.function)
    if args.level is not None:
        Q0 = DyadicCube(args.level, tuple(args.index or [0] * f.dim))
    else:
        Q0 = root_cube(f.dim)
    dec = lerner_decompose(f, Q0)
    ok = dec.verify(f)
    report = {
        "base": {"level": Q0.level, "index": list(Q0.index)},
        "median": dec.base_median,
        "lambda": dec.lam,
        "family": dec.to_records(),
        "verified": ok,
        "seed": args.seed,
    }
    _dump(report, args.out)
    if not ok:
        worst = argmax_cube(dec.osc.items())[1] if dec.osc else Q0
        print(f"decomposition check failed near {worst}", file=sys.stderr)
        return 3
    return 0


def cmd_select(args) -> int:
    a = read_carleson(args.alpha)
    fs = [read_gfn(p) for p in args.f]
    res = select_sparse(a, args.k, args.p0, fs, cstar=args.cstar, seed=args.seed)
    report = {
        "family": res.family.to_records(),
        **res.report(),
        "verified": verify_sparse(res.family),
        "seed": args.seed,
    }
    _dump(report, args.out)
    return 0 if report["verified"] else 3


def cmd_dominate(args) -> int:
    a = read_carleson(args.alpha)
    fs = [read_gfn(p) for p in args.f]
    res = dominate(a, args.k, args.p0, fs, cstar=args.cstar, seed=args.seed)
    _dump({**res.report(), "seed": args.seed}, args.out)
    return 0


def _sweep_mode(args) -> bool:
    """Whether a certify command runs its --config; --out and --resume belong to one mode."""
    if args.config and args.out is not None:
        raise DomainError(f"{args.command}: --out names a single report, not a --config sweep")
    if args.resume and not args.config:
        raise DomainError(f"{args.command}: --resume needs --config")
    return bool(args.config)


def cmd_certify_a(args) -> int:
    if _sweep_mode(args):
        return _run_sweep_config(args.config, "theorem-a", args)
    if not args.alpha or not args.f:
        raise DomainError("certify-a needs --config or both --alpha and --f")
    a = read_carleson(args.alpha)
    fs = [read_gfn(p) for p in args.f]
    w = read_weight(args.weight) if args.weight else None
    rec = certify_theorem_a(a, args.k, args.p0, fs, args.p, w, seed=args.seed)
    _dump(rec.to_dict(), args.out)
    return 0


def cmd_certify_buckley(args) -> int:
    if _sweep_mode(args):
        return _run_sweep_config(args.config, "buckley", args)
    if not args.weight or not args.function:
        raise DomainError("certify-buckley needs --config or both --weight and --function")
    w = read_weight(args.weight)
    f = read_gfn(args.function)
    rec = certify_buckley(w, args.p, f, maxlevel=args.maxlevel, seed=args.seed)
    _dump(rec.to_dict(), args.out)
    return 0


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


def _run_sweep_config(path, experiment: str | None, args) -> int:
    config = json.loads(read_text(path))
    if not isinstance(config, dict):
        raise DomainError(f"{path}: a sweep config must be a JSON object")
    if experiment is not None:
        config["experiment"] = experiment
    if getattr(args, "seed", None) is not None:
        config.setdefault("seed", args.seed)
    cfg = validate_config(config)
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
    plot = cfg.get("plot")
    if plot:
        svg = emit_plot(res.summary, plot.get("x", "alpha"), plot.get("y", "ratio_max"))
        with open(plot["out"], "w", encoding="ascii") as fh:
            fh.write(svg)
        targets.append(plot["out"])
    if targets:
        print("wrote " + ", ".join(targets), file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    return _run_sweep_config(args.config, None, args)


def cmd_check_symbol(args) -> int:
    if args.bilinear:
        from .kernels import symbol_cone, symbol_smooth_bump

        named = {"cone": symbol_cone, "bump": symbol_smooth_bump}
        if args.symbol in named:
            sym = named[args.symbol](args.N)
        else:
            raise DomainError(f"unknown bilinear symbol {args.symbol!r}")
        rep = check_hormander_bilinear(sym, int(args.l))
        _dump({**rep.to_dict(), "seed": args.seed}, args.out)
        return 0
    sym = _load_symbol(args.symbol, args.N)
    rep = check_msl(sym, args.s, int(args.l))
    _dump({**rep.to_dict(), "seed": args.seed}, args.out)
    return 0


def cmd_check_h2(args) -> int:
    check_resolution(1, args.L)
    if args.kernel in NAMED_KERNELS:
        K = NAMED_KERNELS[args.kernel](args.L)
    elif args.kernel.startswith("symbol:"):
        sym = _load_symbol(args.kernel.split(":", 1)[1], 1 << args.L)
        if sym.freq_dim != 1:
            raise DimensionError(f"check-h2 needs a rank-1 symbol, got rank {sym.freq_dim}")
        K = kernel_from_symbol(sym)
    else:
        raise DomainError(f"unknown kernel {args.kernel!r}")
    Q = DyadicCube(args.level, (args.index,))
    rep = check_h2(K, args.p0, Q, args.jmax, seed=args.seed)
    _dump({**rep.to_dict(), "seed": args.seed}, args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparselab",
        description="sparse operators, weight constants and weighted-norm certification "
        "on dyadic grids",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=True, resume=False):
        p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None)
        if resume:
            p.add_argument("--resume", action="store_true")

    p = sub.add_parser("constants", help="A_p / RH_q / multiple-weight constants")
    p.add_argument("--weight", default=None)
    p.add_argument("--weights", nargs="+", default=None)
    p.add_argument("--p", type=float, nargs="+", default=[2.0])
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--r", type=float, default=1.0)
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

    p = sub.add_parser("select", help="sparse selection for one coefficient sequence")
    p.add_argument("--alpha", required=True)
    p.add_argument("--f", action="append", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--cstar", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("dominate", help="slice, select and compare cellwise")
    p.add_argument("--alpha", required=True)
    p.add_argument("--f", action="append", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--cstar", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_dominate)

    p = sub.add_parser("certify-a", help="complexity-collapse certification")
    p.add_argument("--config", default=None)
    p.add_argument("--alpha")
    p.add_argument("--f", action="append")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--weight", default=None)
    common(p, resume=True)
    p.set_defaults(fn=cmd_certify_a)

    p = sub.add_parser("certify-b", help="sparse-form weighted bound campaign")
    p.add_argument("--config", required=True)
    common(p, out=False, resume=True)
    p.set_defaults(fn=lambda a: _run_sweep_config(a.config, "theorem-b", a))

    p = sub.add_parser("certify-c", help="end-to-end operator certification campaign")
    p.add_argument("--config", required=True)
    common(p, out=False, resume=True)
    p.set_defaults(fn=lambda a: _run_sweep_config(a.config, "theorem-c", a))

    p = sub.add_parser("certify-buckley", help="maximal-function bound certification")
    p.add_argument("--config", default=None)
    p.add_argument("--weight")
    p.add_argument("--function")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--maxlevel", type=int, default=None)
    common(p, resume=True)
    p.set_defaults(fn=cmd_certify_buckley)

    p = sub.add_parser("check-symbol", help="symbol class membership report")
    p.add_argument("--symbol", required=True)
    p.add_argument("--s", type=float, default=2.0)
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
    common(p, out=False, resume=True)
    p.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # an overflow or invalid value on the way to an output is an input error
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
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
