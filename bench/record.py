#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every run in one result file.

    python3 bench/record.py --out bench/results/NAME.json [--trace 0,1]

Runs every workload on seeds 1-10 for ``run_seconds`` from ``BENCHMARK.json``,
in the trace modes given (both by default).  Each run is ``run.py`` in its
own process, exactly as a single run is made.
The result file holds the run record (git revision, Python version, nproc,
CPU model), every run's metrics with their sample counts and notes, and for
each workload and metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  The table printed at the
end marks each end-to-end spread against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, machine_record

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def quartiles(values) -> dict:
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(ordered)}


def one_run(workload: str, seed: int, trace: int, seconds: float, scratch: Path) -> dict:
    out = scratch / f"{workload}-{seed}-{trace}.json"
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(command)}\n{proc.stderr}")
    record = json.loads(out.read_text())
    for key in ("revision", "python", "nproc", "cpu_model"):
        record.pop(key)
    return record


def summarize(runs: list) -> dict:
    summary: dict = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            summary.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    return {w: {name: quartiles(values) for name, values in by_name.items()} for w, by_name in summary.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", default="0,1")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as scratch:
        for trace in (int(t) for t in args.trace.split(",")):
            for workload in workloads.WORKLOADS:
                for seed in SEEDS:
                    run = one_run(workload, seed, trace, seconds, Path(scratch))
                    runs.append(run)
                    status = "ok" if run["correct"] else "NOT CORRECT"
                    print(f"{workload} seed {seed} trace {trace}: {status}", file=sys.stderr, flush=True)
    summary = summarize(runs)
    result = {**machine_record(), "seeds": list(SEEDS), "seconds": seconds, "runs": runs, "summary": summary}
    args.out.write_text(json.dumps(result, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<14} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
    for workload, by_name in summary.items():
        for name, q in by_name.items():
            bound = bounds.get(name)
            mark = "" if bound is None else f"{bound:.2f}" + ("" if q["spread"] < bound / 3 else "  (above a third)")
            print(f"{workload:<14} {name:<34} {q['median']:>12.6g} {q['q1']:>12.6g} {q['q3']:>12.6g} "
                  f"{q['spread']:>7.3f}  {mark}")
    incorrect = [r for r in runs if not r["correct"]]
    for run in incorrect:
        print(f"not correct: {run['workload']} seed {run['seed']} trace {run['trace']}: {run['notes']} {run['errors']}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
