"""One benchmark worker process: set up a workload, run its jobs, report.

Started fresh by ``run.py`` for every measurement.  Protocol: one JSON
request on stdin, one JSON report line on stdout.  The report carries the
``time.monotonic_ns()`` at which set-up ended; ``run.py`` subtracts its own
reading at spawn (the clock is system-wide) to get the set-up time.

Each job's answer is checked against an oracle right after the job.  The
oracle runs outside the job's timing and with tracing paused, and its time
is subtracted from the measured wall time.  So is the time of the speed
probes (``probe.py``), which run between jobs at least every
``PROBE_EVERY_NS``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from time import monotonic_ns, perf_counter_ns, process_time_ns

import probe
from tracer import REPORT_MARK, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MAX_ERRORS_KEPT = 5
PROBE_EVERY_NS = 200_000_000


def check_maxsub_source():
    import maxsub

    source = Path(maxsub.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"error: imported maxsub from {source}, not from {ROOT / 'src'}")


class G2Pipeline:
    def __init__(self, inputs):
        from maxsub import formulas, pipeline

        self.formulas, self.pipeline = formulas, pipeline
        self.preset = pipeline.load_preset("g2-rank2")

    def run(self, job):
        result = self.pipeline.count_maximal_subbundles(self.preset)
        report = self.pipeline.consistency_report(self.preset) if job["consistency"] else None
        return result, report

    def check(self, job, out):
        result, report = out
        expected = self.formulas.m2_closed(job["n"])
        ok = expected.admissible and result.specialize(job["n"]) == expected.value
        return ok and (report is None or all(passed for _, passed, _ in report))


class JacobianLoad:
    def __init__(self, inputs):
        from maxsub import formulas, pipeline

        self.formulas, self.pipeline = formulas, pipeline

    def run(self, job):
        preset = self.pipeline.load_preset("jacobian", genus=job["g"])
        return self.pipeline.count_maximal_subbundles(preset)

    def check(self, job, result):
        return result.specialize(job["n"]) == self.formulas.m1_closed(job["n"], job["g"])


class RingArith:
    def __init__(self, inputs):
        from maxsub import pipeline

        self.rings = {
            "g2": pipeline.load_preset("g2-rank2").ring,
            "jacobian": pipeline.load_preset("jacobian", genus=inputs["jacobian_genus"]).ring,
        }

    def run(self, job):
        ring = self.rings[job["ring"]]
        element = ring.parse(f"({job['base']})^{job['power']}")
        point = element.restrict_to_point()
        value = point.integrate() if ring.top_degree in point.degrees() else None
        return element, value

    def check(self, job, out):
        # The same ring law computed a second way: parse the factor alone and
        # multiply in the ring, truncating after every product.
        element, value = out
        expected = self.rings[job["ring"]].parse(job["base"]) ** job["power"]
        if element != expected:
            return False
        point = expected.restrict_to_point()
        if point.ring.top_degree not in point.degrees():
            return value is None
        return value == point.integrate()


class CliCold:
    uses_children = True

    def __init__(self, inputs, traced):
        from maxsub import formulas

        self.formulas = formulas
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.reports: list = []

    def run(self, job):
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(monotonic_ns()), *job["argv"]]
        else:
            command = [sys.executable, "-m", "maxsub.cli", *job["argv"]]
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        if self.traced:
            self.reports.append(proc.stderr)
        return proc.returncode, proc.stdout

    def expected_stdout(self, job) -> str:
        """The output documented in the README, with numbers from ``formulas``."""
        m2 = "(1/48)*n^5 + (1/24)*n^3"
        kind = job["kind"]
        if kind == "count-g2":
            return f"m_2 = {m2}\n"
        if kind == "count-jacobian":
            return f"m_1 = n^{job['g']}\n"
        if kind == "check":
            ranks = [n for n in range(4, 200, 2) if self.formulas.m2_closed(n).admissible][:4]
            values = ", ".join(f"n={n}: {self.formulas.m2_closed(n).value}" for n in ranks)
            return "".join(f"ok: {line}\n" for line in (
                "rank identity (rank(sections) = rank(evaluation) - 4)",
                "top character component vanishes (ch_5(evaluation - sections) = 0)",
                "Chern class multiplicativity (c(sections) * c(difference) = c(evaluation))",
                f"integral positive counts ({values})",
                f"closed form (count = {m2})",
            ))
        if kind == "reduce":
            return f"{job['a']}*alpha^3*theta^2\n"
        if kind == "integrate":
            return f"{8 * job['a'] + 4 * job['b']}\n"
        return f"{self.formulas.m2_closed(job['n'])}\n"

    def check(self, job, out):
        returncode, stdout = out
        return returncode == 0 and stdout == self.expected_stdout(job).encode()

    def child_reports(self) -> list:
        reports = []
        for stderr in self.reports:
            lines = stderr.decode().splitlines()
            if not lines or not lines[-1].startswith(REPORT_MARK):
                raise RuntimeError("a traced cli child sent no report")
            reports.append(json.loads(lines[-1][len(REPORT_MARK):]))
        return reports


IN_PROCESS = {
    "g2-pipeline": G2Pipeline,
    "jacobian-load": JacobianLoad,
    "ring-arith": RingArith,
}


def _cpu_ns(children: bool) -> int:
    if not children:
        return process_time_ns()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def run_jobs(workload, jobs, seconds, tracer) -> dict:
    """Run jobs in a closed loop: all of them once, or over and over for
    ``seconds`` of measured time."""
    children = getattr(workload, "uses_children", False)
    budget = None if seconds is None else int(seconds * 1e9)
    stream = cycle(jobs) if budget is not None else iter(jobs)
    starts, walls, cpus, errors, probes = [], [], [], [], []
    failed = 0
    oracle_ns = probing_ns = 0
    last_probe = None
    start = perf_counter_ns()
    for index, job in enumerate(stream):
        now = perf_counter_ns()
        if budget is not None and now - start - oracle_ns - probing_ns >= budget:
            break
        if last_probe is None or now - last_probe >= PROBE_EVERY_NS:
            probes.append((now, probe.slowness()))
            last_probe = perf_counter_ns()
            probing_ns += last_probe - now
        if tracer is not None:
            tracer.job = index
        cpu0 = _cpu_ns(children)
        t0 = perf_counter_ns()
        error = None
        try:
            out = workload.run(job)
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
        cpu1 = _cpu_ns(children)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                if not workload.check(job, out):
                    error = "answer differs from the oracle"
            except Exception as exc:  # an oracle that raises fails the job
                error = f"oracle raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = True
        oracle_ns += perf_counter_ns() - t1
        starts.append(t0)
        walls.append(t1 - t0)
        cpus.append(cpu1 - cpu0)
        if error is not None:
            failed += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(f"job {index} {json.dumps(job)}: {error}")
    end = perf_counter_ns()
    probes.append((end, probe.slowness()))
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    report = {
        "starts_ns": starts,
        "walls_ns": walls,
        "cpus_ns": cpus,
        "probes": probes,
        "failed": failed,
        "errors": errors,
        "elapsed_ns": end - start - oracle_ns - probing_ns,
        "oracle_ns": oracle_ns,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if tracer is not None:
        tracer.active = False
        report["trace"] = tracer.summary()
    if children and workload.traced:
        report["children"] = workload.child_reports()
    return report


def main():
    request = json.loads(sys.stdin.read())
    check_maxsub_source()
    name, traced = request["workload"], request["trace"]
    tracer = None
    if name == "cli-cold":
        # traced children record their own spans
        workload = CliCold(request["inputs"], traced)
    else:
        if traced:
            tracer = Tracer()
            tracer.install()
        workload = IN_PROCESS[name](request["inputs"])
    ready_ns = monotonic_ns()
    jobs = request.pop("jobs")
    report = {} if jobs is None else run_jobs(workload, jobs, request["seconds"], tracer)
    report["ready_ns"] = ready_ns
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
