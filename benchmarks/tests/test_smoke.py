"""Smoke test of the benchmark at the smallest grids.

    python -m pytest -q benchmarks/tests

Every workload runs untraced and traced.  The test checks that each metric
named in BENCHMARK.json is emitted with its unit, that outputs pass their
checks, that counts and output digests repeat exactly for one seed, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args, "--tiny"], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def run_ok(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    return result, report


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = run_ok(workload, 3, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["failed_share"] == 0
    prov = report["provenance"]
    assert prov["seed"] == 3 and prov["workload"] == workload and prov["argv"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_repeat_for_a_seed(workload):
    first, report1 = run_ok(workload, 5, 1)
    second, report2 = run_ok(workload, 5, 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "ratio")}
             for r in (first, second)]
    assert exact[0] == exact[1]
    assert report1["digests"] == report2["digests"]
    # one traced pass at --seconds 0, so the layer self times add up to its wall time
    vals = {k: m["value"] for k, m in first["metrics"].items()}
    layers = sum(vals[f"{layer}.self_s"] for layer in
                 ("grid", "weights", "oscillation", "sparse", "samples", "kernels", "certify",
                  "cli", "other"))
    assert layers == pytest.approx(vals["trace.wall_s"], rel=1e-9)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
