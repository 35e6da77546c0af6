"""Record one point of the bench trajectory: medians and run-to-run spread.

    python3 benchmarks/trajectory.py --out benchmarks/trajectory/<commit>.json

Runs ``run.py`` once per seed (1 to 10) on every workload, untraced, for the
``run_seconds`` in BENCHMARK.json, then once traced per workload.  For each
end-to-end metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound.  Runs are serial; each is a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def spread_of(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3,
            # wider than its bound, a change of this metric cannot be told from noise
            "unresolved": spread > bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    point: dict = {"seeds": SEEDS, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in SEEDS:
            t0 = time.perf_counter()
            result, report = bench(workload, seed, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  f"correct={result['correct']}", file=sys.stderr)
        prov = dict(report["provenance"])
        workload_prov = {key: prov.pop(key) for key in ("argv", "grids")}
        for key in ("seed", "workload", "trace", "tiny"):
            prov.pop(key)
        point.setdefault("provenance", prov)
        traced, _ = bench(workload, SEEDS[0], 1)
        point["workloads"][workload] = {
            **workload_prov,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {m["name"]: spread_of(values[m["name"]], m["bound"])
                           for m in SPEC["end_to_end"]},
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, s in point["workloads"][workload]["end_to_end"].items():
            print(f"{workload:12s} {name:14s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
