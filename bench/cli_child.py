"""Traced stand-in for ``python -m maxsub.cli``, one process per job.

Usage: ``cli_child.py SPAWN_MONOTONIC_NS ARGV...``.  Runs ``maxsub.cli.run``
on ARGV with the layer tracer installed, keeps the CLI's stdout and exit
code, and appends one report line to stderr: interpreter start-up (from the
parent's spawn time), the import of ``maxsub.cli``, the run, and the span
summary.

The import of ``maxsub.cli`` is timed first, before any module of the
benchmark is loaded, so that every standard-library module the package needs
is counted in it.
"""

from time import monotonic_ns

_STARTED_NS = monotonic_ns()

from maxsub import cli  # noqa: E402

_IMPORTED_NS = monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import REPORT_MARK, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spawned_ns, argv = int(sys.argv[1]), sys.argv[2:]
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"error: imported maxsub from {source}, not from {ROOT / 'src'}")
    tracer = Tracer()
    tracer.install()
    tracer.job = 0
    t0 = monotonic_ns()
    code = cli.run(argv)
    t1 = monotonic_ns()
    tracer.active = False
    sys.stdout.flush()
    report = {
        "interpreter_ns": _STARTED_NS - spawned_ns,
        "import_ns": _IMPORTED_NS - _STARTED_NS,
        "run_ns": t1 - t0,
        "trace": tracer.summary(),
    }
    print(REPORT_MARK + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
