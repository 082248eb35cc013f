#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload in both modes.

    python3 bench/selftest.py

Checks that
* the metric tables in ``metrics.py`` match ``BENCHMARK.json``;
* every run prints each metric by name with its unit, and a last line whose
  keys, metric names and units match ``BENCHMARK.json``;
* every job succeeds (error rate 0) and the traced counts repeat;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = 1


def fail(message: str):
    raise SystemExit(f"selftest FAILED: {message}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_spec(spec: dict):
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if declared != table:
            fail(f"BENCHMARK.json {key} differs from metrics.py: {sorted(declared.keys() ^ table.keys())}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_run(spec: dict, workload: str, trace: int):
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label} exited with {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys are {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if emitted != expected:
        fail(f"{label}: metric names or units differ from BENCHMARK.json: {sorted(emitted.items() ^ expected.items())}")
    for name, unit in expected.items():
        if not any(line.strip().startswith(f"{name} = ") and f" {unit} " in line for line in lines[:-1]):
            fail(f"{label}: no printed line for {name} in {unit}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}\n"
             + "\n".join(lines[:-1]))
    if not trace and result["metrics"]["success_rate"]["value"] != 1:
        fail(f"{label}: error rate is not 0")
    print(f"ok: {label}: {len(expected)} metrics, {result['attempted']} jobs")


def check_without_source():
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
        proc = run(bare, workloads.WORKLOADS[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py ran without the package source")
    print("ok: without src/ run.py exits with", proc.returncode, "and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
