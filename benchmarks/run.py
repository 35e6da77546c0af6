"""sparselab benchmark: end-to-end and per-layer numbers for one workload.

    python3 benchmarks/run.py --workload domination --seed 1 --seconds 40 --trace 0

Runs the workload's ``sparselab`` CLI commands (see ``workloads.py``) in this
process, serially, through ``sparselab.cli.main``, pass after pass until
``--seconds`` would be exceeded (at least three passes), and checks every
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
with the spans written to ``.bench_out/`` (gzipped NDJSON) when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with provenance, sample counts, ``failed_share`` and the
output digests.  The program is imported from ``src/`` of the checkout this
file sits in; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_REPS = 15

# Metric names and units come from BENCHMARK.json.  Per-layer "<span>.calls"
# and "<span>.self_s" come from the spans of that name, "<span>.s_p50/.s_p90"
# from their durations, "<layer>.self_s" sums a layer's self time; the rest
# are counters or derived in layer_values.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Failure(Exception):
    """The benchmark cannot run here at all."""


# ---------------------------------------------------------------------------
# Running commands


class Session:
    """Runs commands through the CLI entry point and keeps the tallies."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, cmd) -> dict:
        """One command: latency, success, output digest and bytes written."""
        before = {p: _size(p) for p in cmd.appends}
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(cmd.argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, reported below
            rc, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = f"exit code {rc}: {error or sink.getvalue()[-500:]}"
        else:
            try:
                if cmd.check is not None:
                    cmd.check()
            except (workloads.CheckFailed, OSError, ValueError) as exc:
                problem = f"output check: {exc}"
        digest = _digest(cmd.outputs + cmd.appends)
        if problem is None and self.digests.setdefault(cmd.label, digest) != digest:
            problem = "outputs differ from the first pass of this seed"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{cmd.label}: {problem}")
        written = sum(_size(p) for p in cmd.outputs)
        written += sum(_size(p) - before[p] for p in cmd.appends)
        return {"latency": latency, "trials": cmd.trials, "bytes": written}

    def run_pass(self, wl) -> list[dict]:
        gc.collect()
        return [self.run(cmd) for cmd in wl.commands]


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def pass_wall(results: list[dict]) -> float:
    return sum(r["latency"] for r in results)


# ---------------------------------------------------------------------------
# Metrics


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; the value itself for a single sample."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def measure_setup(reps: int) -> list[float]:
    """Fresh interpreter to ``sparselab.cli`` imported, as every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sparselab.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def room_for_another(rounds: list[float], deadline: float) -> bool:
    """Whether one more round, as long as the median one so far, ends by the deadline."""
    return time.perf_counter() + statistics.median(rounds) <= deadline


def end_to_end(passes: list[list[dict]], setup: list[float]) -> tuple[dict, dict]:
    # With one command per pass (domination, oscillation) report_s_p50 is wall_s and
    # trials_per_s is trials / wall_s: one timing under three names, not three.
    latencies = [r["latency"] for p in passes for r in p]
    rates = []
    for p in passes:
        timed = [r for r in p if r["trials"]]
        rates.append(sum(r["trials"] for r in timed) / sum(r["latency"] for r in timed))
    metrics = {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "trials_per_s": statistics.median(rates),
        "report_s_p50": quantile(latencies, 0.5),
        "report_s_p90": quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    samples = {"wall_s": len(passes), "trials_per_s": len(passes),
               "report_s_p50": len(latencies), "report_s_p90": len(latencies),
               "peak_rss_mb": 1, "setup_s": len(setup)}
    return metrics, samples


def layer_values(summary: dict, root_total: float, counts: dict, wall: float,
                 bytes_written: int) -> dict:
    """Every per-layer value of one traced pass (times in seconds)."""
    vals: dict[str, float] = dict(counts)
    for name, rec in summary.items():
        vals[name + ".calls"] = rec["calls"]
        vals[name + ".self_s"] = rec["self_s"]
    for layer in tracing.LAYERS:
        vals[layer + ".self_s"] = sum(rec["self_s"] for name, rec in summary.items()
                                      if name.startswith(layer + "."))
    book = summary.get(tracing.BOOKKEEPING, {"self_s": 0.0})["self_s"]
    vals["other.self_s"] = wall - root_total + book
    vals["trace.wall_s"] = wall
    vals["cli.bytes_written"] = bytes_written
    calls = vals.get("sparse.eval_sparse_A.calls", 0)
    vals["sparse.eval_useful_ratio"] = (
        counts.get("sparse.eval_sparse_A.distinct", 0) / calls if calls else 1.0)
    recomputed = counts.get("certify.resume.recomputed", 0)
    vals["certify.resume.useful_ratio"] = (
        counts.get("certify.resume.appended", 0) / recomputed if recomputed else 1.0)
    return vals


def per_layer(traced: list[dict], untraced_walls: list[float], durations: dict) -> dict:
    """Counts from the first traced pass, times as medians over the traced passes."""
    metrics = {}
    for name, unit in PER_LAYER.items():
        if ".s_p" in name:
            span, q = name.rsplit(".s_p", 1)
            metrics[name] = quantile(durations.get(span, []), int(q) / 100)
        elif unit == "s":
            metrics[name] = statistics.median(v.get(name, 0.0) for v in traced)
        else:
            metrics[name] = traced[0].get(name, 0)
    metrics["trace.overhead_s"] = (statistics.median(v["trace.wall_s"] for v in traced)
                                   - statistics.median(untraced_walls))
    return metrics


# ---------------------------------------------------------------------------
# Provenance


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, wl, np, sparselab) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sparselab": sparselab.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "argv": {c.label: c.argv for c in wl.prepare + wl.commands},
        "grids": wl.grids,
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="sparselab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest grids (smoke test)")
    return ap.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "sparselab" / "cli.py").is_file():
        raise Failure(f"no sparselab sources under {SRC}")
    os.chdir(ROOT)  # the commands name their files relative to the checkout
    sys.path.insert(0, str(SRC))
    os.environ.pop("SPARSELAB_JOBS", None)  # serial runs only
    import numpy as np
    import sparselab
    import sparselab.cli as cli

    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        size = workloads.TINY if args.tiny else workloads.FULL
        wl = workloads.BUILDERS[args.workload](args.seed, os.path.relpath(work, ROOT), size)
        session = Session(cli)
        for cmd in wl.prepare:
            session.run(cmd)
        latency_by_command, walls = {}, []
        if args.trace:
            metrics, samples = traced_run(args, wl, session)
        else:
            passes, setup, rounds = [], [], []
            deadline = time.perf_counter() + args.seconds
            while len(passes) < MIN_PASSES or room_for_another(rounds, deadline):
                t0 = time.perf_counter()
                passes.append(session.run_pass(wl))
                # spread over the run, so a slow spell of the machine hits few samples
                if len(setup) < SETUP_REPS:
                    setup += measure_setup(2)
                rounds.append(time.perf_counter() - t0)
            setup += measure_setup(SETUP_REPS - len(setup))
            metrics, samples = end_to_end(passes, setup)
            walls = [pass_wall(p) for p in passes]
            latency_by_command = {
                cmd.label: statistics.median(p[i]["latency"] for p in passes)
                for i, cmd in enumerate(wl.commands)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {
        "provenance": provenance(args, wl, np, sparselab),
        "samples": samples,
        "failed_share": session.failed / session.attempted,
        "failures": session.failures[:20],
        "notes": session.notes,
        "digests": session.digests,
        "latency_by_command": latency_by_command,
        "pass_wall_s": walls,
    }
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{args.workload:12s} {name:42s} {value:>16.6g} {units[name]}{n}")
    print(f"{args.workload:12s} {'failed_share':42s} {report['failed_share']:>16.6g} ratio "
          f"(n={session.attempted})")
    print(json.dumps({"report": report}, sort_keys=True))
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def traced_run(args, wl, session) -> tuple[dict, dict]:
    """Untraced and traced passes in turn; per-layer values of the traced ones."""
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[dict] = []
    durations: dict[str, list[float]] = {}
    rounds: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while not traced or room_for_another(rounds, deadline):
        t0 = time.perf_counter()
        untraced.append(pass_wall(session.run_pass(wl)))
        start, counts0 = len(tracer.spans), dict(tracer.counts)
        tracer.install()
        try:
            results = session.run_pass(wl)
        finally:
            tracer.uninstall()
        summary, root_total = tracer.summarize(start)
        counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
        traced.append(layer_values(summary, root_total, counts, pass_wall(results),
                                   sum(r["bytes"] for r in results)))
        for name, rec in summary.items():
            durations.setdefault(name, []).extend(rec["durations"])
        exact = [{k: v for k, v in t.items() if PER_LAYER.get(k) in ("count", "ratio")}
                 for t in (traced[0], traced[-1])]
        if exact[0] != exact[1]:
            session.failures.append("traced counts differ between passes of one seed")
        rounds.append(time.perf_counter() - t0)
    if tracer.counts["trace.hook_errors"]:
        session.notes.append(f"{tracer.counts['trace.hook_errors']} work counts could not "
                             "be taken; benchmarks/tracing.py needs updating")
    write_spans(args, tracer.spans)
    metrics = per_layer(traced, untraced, durations)
    samples = {"trace.wall_s": len(traced), "trace.overhead_s": len(untraced)}
    samples.update({name: len(durations.get(name.rsplit(".s_p", 1)[0], []))
                    for name in PER_LAYER if ".s_p" in name})
    return metrics, samples


def write_spans(args, spans) -> None:
    """One JSON line per span: [index, parent index, name, start, end], times from 0."""
    SPANS.mkdir(exist_ok=True)
    t0 = spans[0][2] if spans else 0.0
    path = SPANS / f"spans-{args.workload}-{args.seed}.ndjson.gz"
    with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
        for i, (name, parent, start, end) in enumerate(spans):
            fh.write(json.dumps([i, parent, name, round(start - t0, 9), round(end - t0, 9)])
                     + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (Failure, subprocess.CalledProcessError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
