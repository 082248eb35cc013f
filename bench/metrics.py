"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root must list the same names and
units; ``selftest.py`` checks that it does.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_ms_p50": ("ms", "lower"),
    "job_ms_p90": ("ms", "lower"),
    "cpu_ms_per_job": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}

# Spans the traced run records, one per public entry point it wraps.
SPANS = (
    "parsing.presentation",
    "parsing.expression",
    "parsing.expand",
    "gradedring.load",
    "gradedring.parse",
    "gradedring.mul",
    "gradedring.pushforward",
    "gradedring.restrict",
    "gradedring.integrate",
    "chern.character",
    "chern.total_class",
    "chern.tensor",
    "chern.dual",
    "chern.class_mul",
    "scalars.mul",
    "scalars.add",
    "pipeline.load_preset",
    "pipeline.count",
    "pipeline.consistency_report",
)

# Counts (per job) that come from the program's work, not from a clock.
# The traced run repeats them and flags any difference.
COUNTS = {
    "parsing.expand.terms_out": "terms/job",
    "gradedring.load.basis_monomials": "monomials/job",
    "gradedring.mul.pairs": "pairs/job",
}

PER_LAYER: dict[str, tuple[str, str]] = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = ("calls/job", "lower")
    PER_LAYER[f"{_span}.self_ms"] = ("ms/job", "lower")
for _name, _unit in COUNTS.items():
    PER_LAYER[_name] = (_unit, "lower")
PER_LAYER.update({
    "gradedring.mul.yield": ("ratio", "higher"),
    "gradedring.parse.yield": ("ratio", "higher"),
    "scalars.max_coeff_bits": ("bits", "lower"),
    "formulas.oracle_ms": ("ms/job", "lower"),
    "cli.interpreter_ms": ("ms/job", "lower"),
    "cli.import_ms": ("ms/job", "lower"),
    "cli.run_ms": ("ms/job", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

# Metrics that must repeat exactly between two traced passes over the same jobs.
EXACT = tuple(name for name in PER_LAYER if name.endswith(".calls")) + tuple(COUNTS) + (
    "gradedring.mul.yield",
    "gradedring.parse.yield",
    "scalars.max_coeff_bits",
)
