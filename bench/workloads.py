"""Seeded inputs for the four workloads.

Every input is made here, in ``run.py``, from the workload seed; the worker
receives only these inputs.  Jobs come in blocks: each block holds a fixed
mix of job shapes whose order and content the seed draws.  The mix is what
the workload is about; blocking it keeps the mix the same from one seed to
the next, so runs on different seeds measure the same thing.

Why each workload exists:

* ``g2-pipeline``: the genus-2 rank-2 count on a preset loaded once at
  set-up.  Exercises ``chern`` (Newton recursions, tensor, total-class
  inversion), ``scalars`` (coefficients that are polynomials in n) and
  ring products on a warm normal-form cache that jobs only read.  No job
  parses text or loads a ring.
* ``jacobian-load``: a fresh rank-1 preset at a mid-range genus (each of
  10..44 in turn, in seeded order), then its count.  Ring loading (normal-form warm-up and the confluence check)
  dominates and writes the cache; ``scalars`` is nearly idle.  The basis
  grows with the genus, so the working set varies.
* ``ring-arith``: ``ring.parse`` of a sum of 2-5 terms raised to a
  heavy-tailed power on rings loaded at set-up, then integration of the
  restriction to a point when it reaches the top degree.  Expansion before
  truncation dominates; normal forms are cache reads; no ``chern``.
* ``cli-cold``: a fresh ``maxsub`` process per job.  The only workload
  that covers the ``cli`` layer and import cost.
"""

from __future__ import annotations

import random

WORKLOADS = ("g2-pipeline", "jacobian-load", "ring-arith", "cli-cold")

# Blocks in the seeded job list of one run.  A traced pass runs the list
# once, so every count it reports is a count over exactly this list; a timed
# run runs it over and over.
BLOCKS = {"g2-pipeline": 12, "jacobian-load": 1, "ring-arith": 6, "cli-cold": 2}

# -- g2-pipeline -----------------------------------------------------------

# Two jobs in eight also run the consistency report.
_G2_BLOCK = (True, True) + (False,) * 6


def _g2_pipeline(rng: random.Random, blocks: int):
    jobs = []
    for _ in range(blocks):
        kinds = list(_G2_BLOCK)
        rng.shuffle(kinds)
        # admissible ranks of the g2-rank2 count are the even n >= 4
        jobs += [{"consistency": c, "n": 2 * rng.randint(2, 40)} for c in kinds]
    return {}, jobs


# -- jacobian-load ---------------------------------------------------------

# Each block runs every genus in [10, 45) once, in an order the seed draws,
# so that every run covers the same genera whatever the seed.
_GENERA = tuple(range(10, 45))


def _jacobian_load(rng: random.Random, blocks: int):
    jobs = []
    for _ in range(blocks):
        block = [{"g": g, "n": rng.randint(2, 30)} for g in _GENERA]
        rng.shuffle(block)
        jobs += block
    return {}, jobs


# -- ring-arith ------------------------------------------------------------

RING_ARITH_JACOBIAN_GENUS = 12

# (terms in the sum, power): each number of terms gets a heavy-tailed set of
# powers, bounded so that the largest expansion stays near 0.1 s.
_SHAPES = (
    (2, 1), (2, 3), (2, 8), (2, 20),
    (3, 2), (3, 4), (3, 9), (3, 16),
    (4, 1), (4, 3), (4, 6), (4, 12),
    (5, 2), (5, 3), (5, 5), (5, 9),
)

_GENERATORS = {
    "g2": ("alpha", "theta", "xi1", "xi2", "Lambda", "f"),
    "jacobian": ("theta", "xi1", "f"),
}
_COEFFICIENTS = ("", "2*", "3*", "-", "-2*", "1/2*", "3/2*", "n*", "2*n*", "n^2*")


def _monomial(rng: random.Random, generators) -> str:
    return "*".join(sorted(rng.sample(generators, rng.randint(1, 2))))


def _ring_arith(rng: random.Random, blocks: int):
    jobs = []
    for _ in range(blocks):
        shapes = list(_SHAPES)
        rng.shuffle(shapes)
        for terms, power in shapes:
            ring = rng.choice(("g2", "jacobian"))
            generators = _GENERATORS[ring]
            pieces = [str(rng.randint(1, 3))] if rng.random() < 0.5 else []
            monomials: set = set()
            while len(pieces) < terms:
                mono = _monomial(rng, generators)
                if mono not in monomials:
                    monomials.add(mono)
                    pieces.append(rng.choice(_COEFFICIENTS) + mono)
            base = pieces[0] + "".join(
                f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in pieces[1:]
            )
            jobs.append({"ring": ring, "base": base, "power": power})
    return {"jacobian_genus": RING_ARITH_JACOBIAN_GENUS}, jobs


# -- cli-cold --------------------------------------------------------------

G2_RING_FILE = "src/maxsub/presets/g2-rank2.ring"

_CLI_BLOCK = ("count-g2", "count-jacobian", "check", "reduce", "integrate", "m2")


def _cli_job(rng: random.Random, kind: str) -> dict:
    if kind == "count-g2":
        return {"kind": kind, "argv": ["count", "--preset", "g2-rank2"]}
    if kind == "count-jacobian":
        g = rng.randint(2, 8)
        return {"kind": kind, "g": g, "argv": ["count", "--preset", "jacobian", "--genus", str(g)]}
    if kind == "check":
        return {"kind": kind, "argv": ["check", "--preset", "g2-rank2"]}
    if kind in ("reduce", "integrate"):
        a, b = rng.randint(2, 99), rng.randint(2, 99)
        if kind == "reduce":
            expr = f"{a}*alpha^3*theta^2 + {b}*(xi1^2 + 2*theta*f)"
        else:
            expr = f"{a}*alpha^3*theta^2 + {b}*theta*Lambda^2"
        return {"kind": kind, "a": a, "b": b, "argv": [kind, "--ring", G2_RING_FILE, expr]}
    n = 2 * rng.randint(2, 30)
    return {"kind": kind, "n": n, "argv": ["formulas", "m2", "--n", str(n)]}


def _cli_cold(rng: random.Random, blocks: int):
    jobs = []
    for _ in range(blocks):
        kinds = list(_CLI_BLOCK)
        rng.shuffle(kinds)
        jobs += [_cli_job(rng, kind) for kind in kinds]
    return {}, jobs


_MAKERS = {
    "g2-pipeline": _g2_pipeline,
    "jacobian-load": _jacobian_load,
    "ring-arith": _ring_arith,
    "cli-cold": _cli_cold,
}


def make(workload: str, seed: int):
    """Inputs and the job list for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, BLOCKS[workload])
