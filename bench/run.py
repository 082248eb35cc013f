#!/usr/bin/env python3
"""Benchmark entry point for maxsub: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run it from the root of a source checkout; the package is imported from
``src/`` as the tests do, never from an installed copy.

``--trace 0`` measures the end-to-end metrics.  It starts a fresh worker
process several times to time set-up, then once more to run the seeded job
list over and over in a closed loop (one job at a time) for S seconds of
measured time.  Times are
scaled to a reference machine speed by the probe in ``probe.py``; the
unscaled figures are printed too.

``--trace 1`` measures the per-layer metrics.  It runs a fixed, seeded job
list three times, each in a fresh worker: untraced, traced, traced again.
Every count must repeat exactly between the two traced passes.

Every job's answer is checked against an oracle; a wrong answer is a failed
job.  The metrics are printed one per line with their units, and the last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out`` also writes a run record (seed, revision,
machine, sample counts) to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

import metrics
import probe
import workloads
from tracer import merge_summaries

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 10
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


# -- worker processes ------------------------------------------------------


def run_worker(request: dict) -> tuple[dict, float]:
    """Run one fresh worker; returns its report and its set-up time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_ns = monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(request), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {request['workload']} did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker for {request['workload']} exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, (report["ready_ns"] - spawned_ns) / 1e9


def request(workload, inputs, jobs=None, *, seconds=None, trace=False) -> dict:
    """A worker request; a worker given no jobs only sets up."""
    return {"workload": workload, "inputs": inputs, "jobs": jobs, "seconds": seconds, "trace": trace}


# -- end-to-end run --------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def scaled(report: dict) -> tuple[list, list, float]:
    """Job walls and CPU times (ns) and the measured elapsed time, each
    scaled by the speed probes run nearest in time."""
    factors = probe.scales(report["probes"], report["starts_ns"])
    walls = [w * f for w, f in zip(report["walls_ns"], factors)]
    cpus = [c * f for c, f in zip(report["cpus_ns"], factors)]
    raw = sum(report["walls_ns"])
    elapsed = report["elapsed_ns"] * (sum(walls) / raw if raw else 1.0)
    return walls, cpus, elapsed


def end_to_end(report: dict, walls_ns, cpus_ns, elapsed_ns, setups) -> dict:
    walls_ms = [ns / 1e6 for ns in walls_ns]
    attempted, failed = len(walls_ms), report["failed"]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": (attempted - failed) / (elapsed_ns / 1e9),
        "job_ms_p50": statistics.median(walls_ms),
        "job_ms_p90": percentile(walls_ms, 90),
        "cpu_ms_per_job": sum(cpus_ns) / 1e6 / attempted,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "success_rate": (attempted - failed) / attempted,
    }


def timed_setup(req: dict) -> tuple[tuple[float, float], dict]:
    """Run a worker; returns its set-up time, unscaled and scaled by probes
    run just before it, and its report."""
    factor = 1 / statistics.median(probe.slowness() for _ in range(3))
    report, setup_s = run_worker(req)
    return (setup_s, setup_s * factor), report


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    inputs, jobs = workloads.make(workload, seed)
    setups = [timed_setup(request(workload, inputs))[0] for _ in range(SETUP_REPEATS)]
    setup, report = timed_setup(request(workload, inputs, jobs, seconds=seconds))
    setups.append(setup)

    walls, cpus, elapsed = scaled(report)
    values = end_to_end(report, walls, cpus, elapsed, [s for _, s in setups])
    unscaled = end_to_end(report, report["walls_ns"], report["cpus_ns"], report["elapsed_ns"], [s for s, _ in setups])
    attempted, failed = len(walls), report["failed"]
    samples = {name: attempted for name in values}
    samples["setup_s"] = len(setups)
    samples["peak_rss_mb"] = 1
    notes = [
        f"jobs: {attempted}, beyond p90: {sum(w / 1e6 > values['job_ms_p90'] for w in walls)}",
        f"median probe slowness: {statistics.median(s for _, s in report['probes']):.4f}"
        f" over {len(report['probes'])} probes",
        "unscaled: " + ", ".join(f"{name} = {value:.6g}" for name, value in unscaled.items()),
    ]
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "values": values, "samples": samples, "errors": report["errors"], "notes": notes,
        "unscaled": unscaled,
    }


# -- traced run ------------------------------------------------------------


def layer_values(report: dict) -> dict:
    """Per-layer metrics from one traced pass."""
    jobs = len(report["walls_ns"])
    children = report.get("children", [])
    summary = merge_summaries([c["trace"] for c in children]) if children else report["trace"]
    spans, counters = summary["spans"], summary["counters"]
    values = {}
    for name in metrics.SPANS:
        calls, self_ns = spans.get(name, (0, 0))
        values[f"{name}.calls"] = calls / jobs
        values[f"{name}.self_ms"] = self_ns / 1e6 / jobs
    for name in metrics.COUNTS:
        values[name] = counters.get(name, 0) / jobs
    pairs = counters.get("gradedring.mul.pairs", 0)
    values["gradedring.mul.yield"] = counters.get("gradedring.mul.terms_out", 0) / pairs if pairs else 0.0
    terms_in = counters.get("gradedring.parse.terms_in", 0)
    values["gradedring.parse.yield"] = counters.get("gradedring.parse.terms_out", 0) / terms_in if terms_in else 0.0
    values["scalars.max_coeff_bits"] = summary["max_coeff_bits"]
    values["formulas.oracle_ms"] = report["oracle_ns"] / 1e6 / jobs
    for key in ("interpreter", "import", "run"):
        values[f"cli.{key}_ms"] = sum(c[f"{key}_ns"] for c in children) / 1e6 / jobs
    return values


def predictions(workload: str, values: dict) -> list[str]:
    """Where the seed commit's time is expected to concentrate."""
    self_ms = {name: values[f"{name}.self_ms"] for name in metrics.SPANS}
    largest = max(self_ms, key=self_ms.get)
    if workload == "jacobian-load":
        claims = [("gradedring.load has the largest self time", largest == "gradedring.load")]
    elif workload == "ring-arith":
        claims = [("parsing.expand has the largest self time", largest == "parsing.expand")]
    elif workload == "g2-pipeline":
        def layer(prefix):
            return sum(v for k, v in self_ms.items() if k.startswith(prefix))

        claims = [("chern.* + scalars.* self time exceeds parsing.*",
                   layer("chern.") + layer("scalars.") > layer("parsing."))]
    else:
        claims = []
    return [f"prediction {'holds' if ok else 'FAILS'}: {text} (largest: {largest})" for text, ok in claims]


def traced_run(workload: str, seed: int) -> dict:
    inputs, jobs = workloads.make(workload, seed)
    plain, _ = run_worker(request(workload, inputs, jobs))
    first, _ = run_worker(request(workload, inputs, jobs, trace=True))
    second, _ = run_worker(request(workload, inputs, jobs, trace=True))

    values = layer_values(first)
    again = layer_values(second)
    drift = [name for name in metrics.EXACT if values[name] != again[name]]
    values["trace.overhead_ratio"] = scaled(first)[2] / scaled(plain)[2]

    failed = plain["failed"] + first["failed"] + second["failed"]
    notes = [f"traced jobs per pass: {len(jobs)}"] + predictions(workload, values)
    notes += [f"count drift between traced passes: {name}: {values[name]} vs {again[name]}" for name in drift]
    return {
        "correct": failed == 0 and not drift, "attempted": 3 * len(jobs), "failed": failed,
        "values": values, "samples": {name: len(jobs) for name in values},
        "errors": plain["errors"] + first["errors"] + second["errors"], "notes": notes,
    }


# -- run record ------------------------------------------------------------


def machine_record() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "revision": revision,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, help="also write a run record to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "maxsub" / "__init__.py").is_file():
        print(f"error: no maxsub source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # One CPU for this process, its workers and their children, so that the
    # speed probes measure the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    out = {name: {"value": result["values"][name], "unit": table[name][0]} for name in table}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in out.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} (samples: {result['samples'][name]})")
    for note in result["notes"]:
        print(f"  {note}")
    for error in result["errors"]:
        print(f"  failed {error}")
    if args.out:
        record = {
            **machine_record(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {**metric, "samples": result["samples"][name]} for name, metric in out.items()},
            "unscaled": result.get("unscaled"), "notes": result["notes"], "errors": result["errors"],
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
