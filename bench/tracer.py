"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each public entry point of the ``maxsub``
modules with a wrapper, everywhere the package looks it up: the defining
module, every module that imported it by name, and the class for methods.
Nothing under ``src/`` is changed.

A span records its name, parent span, job id, start and end.  Spans stay in
memory; ``summary`` turns them into per-name call counts and self times once
the run is over.  A span's self time is its duration minus the durations of
its direct children and minus the time the tracer spent in its children's
count hooks.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from time import perf_counter_ns

SETUP_JOB = -1
# Prefix of the report line a traced cli child writes to stderr.
REPORT_MARK = "bench-report "


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index, job, start_ns, end_ns, hook_ns)
        self._stack: list = []  # open spans: [index, name, hook_ns of children]
        self.job = SETUP_JOB
        self.active = True
        self.counters: Counter = Counter()
        self.max_coeff_bits = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            # A call nested directly in a span of the same name (expand's own
            # recursion, load_presentation -> presentation_from_data) is part
            # of that span.
            if not self.active or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            frame = [index, name, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, parent, self.job, start, end, frame[2])
            if hook is not None and self.job != SETUP_JOB:
                hook(self, args, result)
                if stack:
                    stack[-1][2] += perf_counter_ns() - end
            return result

        return traced

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    # -- installation ------------------------------------------------------

    def install(self):
        import maxsub
        from maxsub import chern, cli, formulas, gradedring, parsing, pipeline, scalars

        functions = (
            (parsing.parse_presentation_text, "parsing.presentation", None),
            (parsing.parse_expression, "parsing.expression", None),
            (parsing.expand, "parsing.expand", _count_expand),
            (gradedring.presentation_from_data, "gradedring.load", _record_ring),
            (gradedring.load_presentation, "gradedring.load", _record_ring),
            (pipeline.load_preset, "pipeline.load_preset", None),
            (pipeline.count_maximal_subbundles, "pipeline.count", None),
            (pipeline.consistency_report, "pipeline.consistency_report", None),
        )
        replacement = {id(fn): self.wrap(name, fn, hook) for fn, name, hook in functions}
        modules = (maxsub, parsing, scalars, gradedring, chern, pipeline, formulas, cli)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

        element, ring = gradedring.GradedElement, gradedring.RingPresentation
        character, total = chern.ChernCharacter, chern.TotalChernClass
        scalar = scalars.ParamScalar
        methods = (
            (ring, ("parse",), "gradedring.parse", _count_parse),
            (element, ("__mul__", "__rmul__"), "gradedring.mul", _count_mul),
            (element, ("pushforward_fiber",), "gradedring.pushforward", None),
            (element, ("restrict_to_point",), "gradedring.restrict", None),
            (element, ("integrate",), "gradedring.integrate", None),
            (total, ("character",), "chern.character", None),
            (character, ("total_class",), "chern.total_class", None),
            (character, ("tensor",), "chern.tensor", None),
            (character, ("dual",), "chern.dual", None),
            (total, ("__mul__",), "chern.class_mul", None),
            (scalar, ("__mul__", "__rmul__"), "scalars.mul", _count_coeff_bits),
            (scalar, ("__add__", "__radd__"), "scalars.add", None),
        )
        for cls, attrs, name, hook in methods:
            for attr in attrs:
                setattr(cls, attr, self.wrap(name, vars(cls)[attr], hook))

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self time over job spans (set-up excluded)."""
        child_ns = [0] * len(self.spans)
        for name, parent, job, start, end, hook_ns in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        spans: dict = {}
        for index, (name, parent, job, start, end, hook_ns) in enumerate(self.spans):
            if job == SETUP_JOB:
                continue
            entry = spans.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns[index] - hook_ns
        return {"spans": spans, "counters": dict(self.counters), "max_coeff_bits": self.max_coeff_bits}


def merge_summaries(summaries) -> dict:
    spans: dict = {}
    counters: Counter = Counter()
    bits = 0
    for summary in summaries:
        for name, (calls, self_ns) in summary["spans"].items():
            entry = spans.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += self_ns
        counters.update(summary["counters"])
        bits = max(bits, summary["max_coeff_bits"])
    return {"spans": spans, "counters": dict(counters), "max_coeff_bits": bits}


# -- count hooks: run after a span ends, outside its time ---------------------


def _count_expand(tracer, args, result):
    tracer.counters["parsing.expand.terms_out"] += len(result)
    if tracer.parent_name() == "gradedring.parse":
        tracer.counters["gradedring.parse.terms_in"] += len(result)


def _count_parse(tracer, args, result):
    tracer.counters["gradedring.parse.terms_out"] += len(result.items())


def _count_mul(tracer, args, result):
    left, right = args
    if result is NotImplemented or type(right) is not type(left):
        return
    tracer.counters["gradedring.mul.pairs"] += len(left.items()) * len(right.items())
    tracer.counters["gradedring.mul.terms_out"] += len(result.items())


def _count_coeff_bits(tracer, args, result):
    if result is NotImplemented:
        return
    for _, coeff in result.items():
        bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
        if bits > tracer.max_coeff_bits:
            tracer.max_coeff_bits = bits


def _record_ring(tracer, args, ring):
    """Count the basis: monomials up to the top degree that no rule or zero
    monomial divides."""
    reducers = [rule.lhs for rule in ring.rules] + list(ring.zeros)
    tracer.counters["gradedring.load.basis_monomials"] += sum(
        not any(all(r <= m for r, m in zip(reducer, mono)) for reducer in reducers)
        for mono in ring.monomials_up_to(ring.top_degree)
    )
