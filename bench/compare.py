#!/usr/bin/env python3
"""Compare two result files from ``record.py``: a parent and a change.

    python3 bench/compare.py PARENT.json CHANGE.json

Prints one row per workload and metric: each side's median and quartiles,
the pairs the change won (runs paired by seed and trace mode; ties count
for neither side), and a verdict:

* ``improved``: there are at least ten pairs, the change won at least nine
  tenths of them, and the medians differ by more than the parent's own
  spread (q3 - q1);
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (for per-layer metrics, which
  have no bound: the parent won nine tenths of the pairs and the medians
  differ by more than the parent's spread);
* ``unresolved``: neither, but the run-to-run spread of either side is
  wider than the bound, and not every change run beats every parent run;
* ``unchanged``: otherwise.

A workload on which the change failed more jobs than the parent (or had more
runs that were not correct) gains nothing: every one of its metrics reads
``worse``, since a job that fails can be fast.

Both result files must come from the same benchmark code and settings, with
the runs of the two sides alternated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from record import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def values_by_key(result: dict) -> dict:
    """(workload, metric) -> {(seed, trace): value}."""
    table: dict = {}
    for run in result["runs"]:
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), {})[(run["seed"], run["trace"])] = metric["value"]
    return table


def failures(result: dict) -> dict:
    """workload -> failed jobs plus runs that were not correct."""
    table: dict = {}
    for run in result["runs"]:
        table[run["workload"]] = table.get(run["workload"], 0) + run["failed"] + (not run["correct"])
    return table


def verdict(parent: list, change: list, pairs: list, better: str, bound) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    qp, qc = quartiles(parent), quartiles(change)
    gain = sign * (qc["median"] - qp["median"])
    parent_iqr = qp["q3"] - qp["q1"]
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > parent_iqr:
        return "improved", wins
    if bound is None:
        if len(pairs) >= MIN_PAIRS and losses >= 0.9 * len(pairs) and -gain > parent_iqr:
            return "worse", wins
        return "unchanged", wins
    if -gain > bound * abs(qp["median"]):
        return "worse", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(qp["spread"], qc["spread"]) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_result, change_result = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = values_by_key(parent_result), values_by_key(change_result)

    failed_p, failed_c = failures(parent_result), failures(change_result)
    failing = {w for w in failed_c if failed_c[w] > failed_p.get(w, 0)}

    print(f"parent {parent_result['revision']}  change {change_result['revision']}")
    for workload in sorted(failing):
        print(f"{workload}: the change failed {failed_c[workload]} (parent {failed_p.get(workload, 0)}); "
              "every metric of it is worse")
    header = f"{'workload':<14} {'metric':<34} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'won':>6}  verdict"
    print(header)
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        if name not in directions:
            continue
        better, bound = directions[name]
        p_runs, c_runs = parent[key], change[key]
        pairs = [(p_runs[k], c_runs[k]) for k in sorted(p_runs.keys() & c_runs.keys())]
        result, wins = verdict(list(p_runs.values()), list(c_runs.values()), pairs, better, bound)
        if workload in failing:
            result = "worse"
        qp, qc = quartiles(p_runs.values()), quartiles(c_runs.values())
        side = lambda q: f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}]"  # noqa: E731
        print(f"{workload:<14} {name:<34} {side(qp):>36} {side(qc):>36} {f'{wins}/{len(pairs)}':>6}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
