"""Graded-commutative cohomology rings presented by rewrite rules.

A presentation lists even-degree generators, degree-preserving rewrite
rules (``monomial -> polynomial``), monomials declared zero, an optional
curve fiber class with the generators supported on it, and the
intersection numbers of the top-degree basis monomials.

Elements live on curve x base.  A generator's fiber weight is 2 for the
fiber class, 1 if fiber-supported, else 0.  A monomial truncates to zero
when its weight is above 2 or its base degree (degree minus weight) is
above ``top_degree``, which implies ``f^2 = 0`` and ``xi*f = 0`` for a
fiber-supported ``xi``.  Rules must keep the weight.

Every element is held in normal form.  When a presentation is loaded the
rules are oriented by a lex order of the generators, which makes rewriting
terminate; a rule set with no such order is rejected.  Then every critical
pair (two reducers meeting at the lcm of their left-hand sides) is joined,
so normal forms do not depend on the order in which rules are applied.
Each zero and each rule's left-hand side is also compiled, on load, to its
support ``((index, exponent), ...)``, zeros first, so a monomial seen for
the first time is matched against the reducers in one plain loop.  Normal
forms of monomials are cached on first use, a truncating one as empty.
Each element reads once, when first asked, whether a term carries fiber
weight.  :meth:`RingPresentation.sum_of_products` is the one-pass normal form
of a sum of products, which the Chern layer uses for each recursion step and
graded-product component: each pair of monomials looks up its normal form
once, and the integer numerators of the coefficients go straight into the
output coefficient's sums, over one running common denominator.  Rules and
zeros are over Q, so every normal-form coefficient is an ``int`` or a
``Fraction`` and joins the pair's integer multiplier, as a constant element
coefficient does; two polynomial coefficients are multiplied into the
output's sums in place (``scalars._add_product``).  Each output coefficient
is reduced once, by ``scalars._make``.  A ring that multiplies the same pairs
again, as every count on a loaded preset and every consistency report does,
finds each in its pair table ``_rows`` (``m1 -> {m2: normal form of
m1*m2}``, the dicts of the normal-form cache) with one lookup and builds no
product tuple; the table stores a new pair only while it holds fewer than
:data:`PAIRS_PER_NORMAL_FORM` pairs per cached normal form, so it stays
small where pairs never repeat.
A ring declares no parameter or the rank n, and a polynomial in n enters
only a ring that declares it (:meth:`RingPresentation.coefficient`).
Expressions go through the one tree walk of ``parsing``, names checked
first, reduced after every product (:meth:`RingPresentation.evaluate`); a
file's rule right-hand sides too, in the relation-free ring of its
generators with no parameter, so a parameter in a rule is a load error.  A
file's left-hand sides, zeros and integral monomials are products of
generator powers, read as exponent vectors by ``parsing.monomial`` with no
scalar arithmetic.  ``parsing`` is imported only where text is read, so a
ring built as data never loads it.
All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from math import comb, gcd
from operator import add, mul, sub

from .errors import (
    FiberClassError,
    IncompletePresentationError,
    PresentationError,
    UnknownGeneratorError,
)
from .scalars import PARAMETER, ParamScalar, _add_product, _make, as_fraction, monomial_text, power, signed_sum

Monomial = tuple[int, ...]

#: The kernel's pair table stores a new pair only while it holds fewer than
#: this many pairs per cached normal form.
PAIRS_PER_NORMAL_FORM = 4

#: ``lhs``, a monomial, rewrites to ``rhs``, ``((monomial, int or Fraction), ...)``: rules are over Q.
RewriteRule = namedtuple("RewriteRule", "lhs rhs")


#: The normal-form coefficient of every normal monomial: one shared value, so
#: the kernel and ``_normalize`` skip it by identity.
_ONE = Fraction(1)


def _unknown_name(name: str) -> UnknownGeneratorError:
    return UnknownGeneratorError(f"unknown name {name!r}: not a generator or parameter of this presentation")


class RingPresentation:
    """A validated presentation; the parent object of all ring elements."""

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        params: Sequence[str] = (),
        rules: Sequence[RewriteRule] = (),
        zeros: Sequence[Monomial] = (),
        fiber: str | None = None,
        fiber_supported: Sequence[str] = (),
        integrals: Mapping[Monomial, Fraction] | None = None,
        top_degree: int = 0,
    ):
        self.generator_names = tuple(n for n, _ in generators)
        self.generator_degrees = tuple(d for _, d in generators)
        self.params = tuple(params)
        self.rules = tuple(rules)
        self.zeros = tuple(zeros)
        self.top_degree = top_degree
        self._index = {n: i for i, n in enumerate(self.generator_names)}
        self.integrals = dict(integrals or {})
        self._nf_cache: dict = {}
        self._rows: dict = {}  # m1 -> {m2: the normal form of m1*m2}, the kernel's pair table
        self._stored_pairs = 0
        self._one_scalar = ParamScalar.constant(1)
        self._validate(fiber, fiber_supported)
        self._check_critical_pairs()

    # -- structure ---------------------------------------------------------

    def _validate(self, fiber: str | None, fiber_supported: Sequence[str]):
        # each name is one generator or the parameter, so one variable
        if len(set(self.generator_names)) != self.ngens:
            raise PresentationError("duplicate generator names")
        if self.params not in ((), (PARAMETER,)):
            raise PresentationError(f"a ring's only parameter is the rank {PARAMETER!r}, got {', '.join(map(repr, self.params))}")
        if set(self.generator_names) & set(self.params):
            raise PresentationError("a name cannot be both a generator and a parameter")
        self._names = self._index.keys() | self.params  # every name an expression may use
        if fiber is not None and fiber not in self._index:
            raise PresentationError(f"fiber class {fiber!r} is not a generator")
        for n in fiber_supported:
            if n not in self._index:
                raise PresentationError(f"fiber-supported name {n!r} is not a generator")
        self.fiber_index = self._index[fiber] if fiber is not None else None
        self.fiber_supported = tuple(self._index[n] for n in fiber_supported)
        self._weights = tuple(2 if i == self.fiber_index else int(i in self.fiber_supported) for i in range(self.ngens))
        self._base_degrees = tuple(map(sub, self.generator_degrees, self._weights))
        self.max_degree = self.top_degree + 2 * any(self._weights)  # the largest degree that can be nonzero
        for name, deg in zip(self.generator_names, self.generator_degrees):
            if deg <= 0 or deg % 2:
                raise PresentationError(f"generator {name!r} must have even positive degree, got {deg}")
        if self.top_degree < 0 or self.top_degree % 2:
            raise PresentationError(f"top_degree must be even and nonnegative, got {self.top_degree}")
        for rule in self.rules:
            lhs_deg, lhs_weight = self.degree(rule.lhs), self.weight(rule.lhs)
            if not any(rule.lhs):
                raise PresentationError("the empty monomial cannot be a rule left-hand side")
            for mono, coeff in rule.rhs:
                if not isinstance(coeff, (int, Fraction)):
                    raise PresentationError(
                        f"rule coefficients must be rational: {self.monomial_str(rule.lhs)} "
                        f"rewrites with coefficient {coeff}"
                    )
                if self.degree(mono) != lhs_deg:
                    raise PresentationError(
                        f"degree-inhomogeneous rule: {self.monomial_str(rule.lhs)} (degree {lhs_deg}) "
                        f"rewrites to a term of degree {self.degree(mono)}"
                    )
                if self.weight(mono) != lhs_weight:
                    raise PresentationError(
                        f"rule changes the fiber weight: {self.monomial_str(rule.lhs)} (weight {lhs_weight}) "
                        f"rewrites to a term of weight {self.weight(mono)}"
                    )
        for mono in self.zeros:
            if not any(mono):
                raise PresentationError("the empty monomial cannot be declared zero")
        # each reducer as its support ((index, exponent), ...) and its rule,
        # None for a zero: zeros first, then the rules in their given order
        self._reducers = tuple(
            (tuple((i, e) for i, e in enumerate(lhs) if e), rule)
            for lhs, rule in [(z, None) for z in self.zeros] + [(r.lhs, r) for r in self.rules]
        )
        self._orient()  # the integral check below normalizes
        for mono in self.integrals:
            if self.degree(mono) != self.top_degree:
                raise PresentationError(
                    f"integral monomial {self.monomial_str(mono)} has degree {self.degree(mono)}, "
                    f"not the top degree {self.top_degree}"
                )
            if self.weight(mono):
                raise PresentationError(
                    f"integral monomial {self.monomial_str(mono)} has fiber weight {self.weight(mono)}, not 0"
                )
            nf = self._monomial_nf(mono)
            if list(nf) != [mono] or nf[mono] != 1:
                raise PresentationError(
                    f"integral monomial {self.monomial_str(mono)} is reducible; "
                    "declare integrals on normal-form monomials only"
                )

    @property
    def ngens(self) -> int:
        return len(self.generator_names)

    def degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self.generator_degrees))

    def weight(self, mono: Monomial) -> int:
        """Fiber weight: 2 per fiber class, 1 per fiber-supported generator."""
        return sum(map(mul, mono, self._weights))

    def monomial_str(self, mono: Monomial) -> str:
        return monomial_text(self.generator_names, mono) or "1"

    def monomials_up_to(self, bound: int) -> Iterator[Monomial]:
        """All exponent vectors of weighted degree at most ``bound``."""

        def rec(index: int, remaining: int, prefix: tuple):
            if index == self.ngens:
                yield prefix
                return
            deg = self.generator_degrees[index]
            for e in range(remaining // deg + 1):
                yield from rec(index + 1, remaining - e * deg, prefix + (e,))

        yield from rec(0, bound, ())

    # -- normalization -----------------------------------------------------

    def _orient(self):
        """Check that a lex order of the generators puts every rule's
        left-hand side above each monomial of its right-hand side, so that
        rewriting moves down a well-order and terminates.

        Greedy: take a generator on which no pending (rule, right-hand
        monomial) pair has its left-hand side below, drop the pairs it
        decides, repeat.  Such a pick never blocks an order that works, so
        this finds a lex order whenever one exists.
        """
        pending = [(rule, mono) for rule in self.rules for mono, _ in rule.rhs]
        remaining = list(range(self.ngens))
        while pending:
            picks = [v for v in remaining if all(rule.lhs[v] >= mono[v] for rule, mono in pending)]
            if not picks:
                break
            pick = picks[0]
            remaining.remove(pick)
            pending = [(rule, mono) for rule, mono in pending if rule.lhs[pick] == mono[pick]]
        if pending:
            stuck, one = dict.fromkeys(rule for rule, _ in pending), self._one_scalar
            listed = ", ".join(
                f"{self.monomial_str(rule.lhs)} -> {GradedElement(self, {m: one * c for m, c in rule.rhs})}" for rule in stuck
            )
            raise PresentationError(
                "rewrite rules may not terminate: no lex order of the generators puts every "
                f"left-hand side above its right-hand side ({listed})"
            )

    def _rewrite(self, mono: Monomial, lhs: Monomial, rhs) -> dict:
        """One rewrite step on ``mono`` by ``lhs -> rhs``; ``lhs`` divides ``mono``."""
        quotient = tuple(m - l for m, l in zip(mono, lhs))
        return {tuple(q + r for q, r in zip(quotient, rmono)): rcoeff for rmono, rcoeff in rhs}

    def _truncates(self, mono: Monomial) -> bool:
        """The one truncation rule, shared by products and normal forms:
        fiber weight above 2, or base degree above the top degree."""
        return sum(map(mul, mono, self._weights)) > 2 or sum(map(mul, mono, self._base_degrees)) > self.top_degree

    def _monomial_nf(self, mono: Monomial) -> dict:
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        result = {}
        if not self._truncates(mono):
            # the first reducer whose support ``mono`` covers: a zero kills it
            for support, rule in self._reducers:
                for i, e in support:
                    if mono[i] < e:
                        break
                else:
                    if rule is not None:
                        result = self._normalize(self._rewrite(mono, rule.lhs, rule.rhs))
                    break
            else:
                result = {mono: _ONE}
        self._nf_cache[mono] = result
        return result

    def _normalize(self, raw: Mapping[Monomial, ParamScalar]) -> dict[Monomial, ParamScalar]:
        out: dict[Monomial, ParamScalar] = {}
        for mono, coeff in raw.items():
            if not coeff:
                continue
            for nmono, ncoeff in self._monomial_nf(mono).items():
                term = coeff if ncoeff is _ONE else coeff * ncoeff  # a normal monomial's own form: no product
                total = out.get(nmono)
                total = term if total is None else total + term
                if total:
                    out[nmono] = total
                else:
                    del out[nmono]
        return out

    def sum_of_products(self, pairs) -> "GradedElement":
        """The normal form of ``sum w*x*y`` over ``(w, x, y)`` in ``pairs``: a
        rational weight ``w`` (an ``int``, a ``Fraction``, or any value with
        integer ``numerator`` and ``denominator > 0``, reduced or not), an
        element ``x`` and an element or scalar ``y``.

        The one-pass form of a fold of ``*`` and ``+``.  Each pair of
        monomials ``m1``, ``m2`` looks up its normal form once: in the row of
        ``m1`` in the pair table, and on a miss in the normal-form cache by
        the product tuple (a truncating monomial is cached as empty, so
        :meth:`_truncates` runs once per monomial), storing the cache's dict
        in the row while the table holds fewer than
        :data:`PAIRS_PER_NORMAL_FORM` pairs per cached normal form.  Only if
        that form is not empty are the integer numerators of ``w*c1*c2``,
        times each normal-form coefficient ``c3`` other than 1, added into
        the sums of the output coefficient.  A rational ``y`` folds into the
        weight, and a pair whose weight is then 0 is skipped before any
        lookup; any other scalar ``y`` is one more factor of each coefficient
        of ``x``, which is in normal form already.  The two coefficient cases:

        - a constant ``c1`` or ``c2``, and the rational ``c3``, join the
          integer multiplier ``k`` of the pair, and are no factor;
        - two polynomial factors are added as ``k*p*q`` straight into the
          output's map (``_add_product``), one polynomial factor as ``k*p``.

        The numerators are summed in one map, by output monomial and
        parameter exponent, over one running common denominator: a term
        whose denominator does not divide it lifts the map once to the lcm.
        Each output coefficient is reduced once; its numerators are filtered
        only where one cancelled or a scalar factor was zero.
        """
        cache, nf, one, one_scalar = self._nf_cache, self._monomial_nf, _ONE, self._one_scalar
        rows, empty, stored = self._rows, {}, self._stored_pairs
        unit = {0: 1}  # the factor left of a coefficient folded into the multiplier
        acc = {}  # output monomial -> {parameter exponent: numerator over den}
        den = 1
        for w, x, y in pairs:
            wn, wd = w.numerator, w.denominator
            if x.ring is not self:
                raise ValueError("elements belong to different presentations")
            if isinstance(y, GradedElement):
                if y.ring is not self:
                    raise ValueError("elements belong to different presentations")
                yterms = y._terms.items()
            elif isinstance(y, (int, Fraction)):
                wn, wd, yterms = wn * y.numerator, wd * y.denominator, ((None, one_scalar),)
            else:
                yterms = ((None, self.coefficient(y)),)
            if not wn:
                continue
            for m1, c1 in x._terms.items():
                n1, d1 = c1._num, wd * c1._den
                k1 = n1.get(0) if len(n1) == 1 else None
                if k1 is None:
                    k1 = wn
                else:
                    n1, k1 = unit, wn * k1
                row = rows.get(m1, empty)
                for m2, c2 in yterms:
                    if m2 is None:  # a scalar factor: x is in normal form already
                        out = ((m1, one),)
                    else:
                        out = row.get(m2)
                        if out is None:
                            mono = tuple(map(add, m1, m2))
                            out = cache.get(mono)
                            if out is None:
                                out = nf(mono)
                            if stored < PAIRS_PER_NORMAL_FORM * len(cache):
                                if row is empty:
                                    row = rows[m1] = {}
                                row[m2] = out
                                self._stored_pairs = stored = stored + 1
                        if not out:
                            continue
                        out = out.items()
                    # a constant coefficient joins the integer multiplier; p and q
                    # are the polynomial factors left, q None when fewer than two
                    n2, d12 = c2._num, d1 * c2._den
                    k2 = n2.get(0) if len(n2) == 1 else None
                    if k2 is not None:
                        p, q, k12 = n1, None, k1 * k2
                    elif n1 is unit:
                        p, q, k12 = n2, None, k1
                    else:
                        p, q, k12 = n1, n2, k1
                    for nmono, c3 in out:
                        k, d = k12, d12
                        if c3 is not one:
                            k, d = k * c3.numerator, d * c3.denominator
                        if d != den:
                            if den % d:
                                lift = d // gcd(den, d)
                                for t in acc.values():
                                    for e in t:
                                        t[e] *= lift
                                den *= lift
                            k *= den // d
                        t = acc.get(nmono)
                        if q is not None:
                            if t is None:
                                t = acc[nmono] = {}
                            _add_product(t, p, q, k)
                        elif t is None:
                            if len(p) == 1:
                                (e,) = p
                                acc[nmono] = {e: p[e] * k}
                            else:
                                acc[nmono] = {e: c * k for e, c in p.items()}
                        else:
                            for e, c in p.items():
                                t[e] = t.get(e, 0) + c * k
        terms = {}
        for mono, num in acc.items():
            if not num or 0 in num.values():  # a zero scalar factor, or a numerator cancelled
                num = {e: c for e, c in num.items() if c}
                if not num:
                    continue
            terms[mono] = _make(num, den)
        return _element(self, terms)

    def _check_ring(self, *elements: "GradedElement"):
        for x in elements:
            if x.ring is not self:
                raise ValueError("elements belong to different presentations")

    def _check_critical_pairs(self):
        """Join both one-step reductions of every critical pair: two
        reducers, at least one a rule, at the lcm of their left-hand sides.

        Rewriting terminates (:meth:`_orient`) and commutes with monomial
        multiples, so this makes normal forms independent of rule order
        (Buchberger's criterion, Bergman's diamond lemma).  Rules keep both
        the degree and the fiber weight, so they take a monomial that
        :meth:`_truncates` only to ones that truncate too: a pair whose lcm
        truncates is 0 on both sides.  Presets are user-editable files, so
        this runs on every load.
        """
        reducers = [(self.monomial_str(rule.lhs), rule.lhs, rule.rhs) for rule in self.rules]
        reducers += [("zero-monomial", mono, ()) for mono in self.zeros]
        for i, (label, lhs, rhs) in enumerate(reducers[: len(self.rules)]):
            for other_label, other_lhs, other_rhs in reducers[i + 1 :]:
                lcm = tuple(map(max, lhs, other_lhs))
                if self._truncates(lcm):
                    continue
                first = self._normalize(self._rewrite(lcm, lhs, rhs))
                if self._normalize(self._rewrite(lcm, other_lhs, other_rhs)) != first:
                    raise PresentationError(
                        f"rewrite system is not locally confluent on {self.monomial_str(lcm)}: "
                        f"reducing via {label} and via {other_label} give different normal forms"
                    )

    # -- element constructors ----------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return self.scalar(1)

    def coefficient(self, value: int | Fraction | ParamScalar) -> ParamScalar:
        """The one rule for a coefficient entering the ring: a rational or a
        constant scalar, or a polynomial in n if the ring declares n; else a
        ValueError."""
        if not isinstance(value, ParamScalar):
            if not isinstance(value, (int, Fraction)):
                raise ValueError(f"expected an exact scalar, got {type(value).__name__}")
            value = ParamScalar.constant(value)
        if self.params or value.is_constant:
            return value
        raise ValueError(f"the coefficient {value} uses {PARAMETER!r}, which this ring does not declare")

    def scalar(self, value: int | Fraction | ParamScalar) -> "GradedElement":
        return GradedElement(self, self._normalize({(0,) * self.ngens: self.coefficient(value)}))

    def generator(self, name: str) -> "GradedElement":
        if name not in self._index:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
        mono = tuple(1 if i == self._index[name] else 0 for i in range(self.ngens))
        return GradedElement(self, self._normalize({mono: self._one_scalar}))

    def parameter(self, name: str) -> ParamScalar:
        """The rank n, which only a ring that declares it has."""
        if name not in self.params:
            raise UnknownGeneratorError(f"unknown parameter {name!r}")
        return _make({1: 1}, 1)

    def evaluate(self, node) -> "GradedElement":
        """Reduce an expression tree to normal form after every product: the
        same as expanding, then reducing, as truncation plus normal form is a
        ring homomorphism.  Names are checked first, zero products or not."""
        from . import parsing  # text only: a count from data never loads the parser

        return self._evaluate(node, parsing)

    def _evaluate(self, node, parsing, unknown=_unknown_name) -> "GradedElement":
        # ``parsing`` is the module, passed in by the caller's one import;
        # ``unknown(name)`` is the error for a name that is neither kind
        parsing.check_names(node, self._names, unknown)
        return self.scalar(out) if isinstance(out := parsing.walk(node, self._leaf), ParamScalar) else out

    def _leaf(self, node) -> "GradedElement | ParamScalar":
        # a leaf is a number or a name, and only a name has ``name``: no import
        # per leaf.  Numbers and parameters stay ParamScalars: a coefficient
        # needs no normal form
        name = getattr(node, "name", None)
        if name is None:
            return ParamScalar.constant(node.value)
        return self.generator(name) if name in self._index else self.parameter(name)

    def parse(self, text: str) -> "GradedElement":
        """Parse an expression and reduce it to normal form in this ring."""
        from . import parsing

        return self._evaluate(parsing.parse_expression(text), parsing)

    def __repr__(self):
        label = ",".join(self.generator_names) or "point"
        return f"RingPresentation({label}, top_degree={self.top_degree})"


def _element(ring: RingPresentation, terms: dict) -> "GradedElement":
    """Trusted constructor: ``terms`` holds no zero coefficient."""
    out = object.__new__(GradedElement)
    out.ring, out._terms, out._fiber_bearing = ring, terms, None
    return out


class GradedElement:
    """A ring element in normal form: a finite sum coeff * basis monomial."""

    __slots__ = ("ring", "_terms", "_fiber_bearing")  # the last is None until first read

    def __init__(self, ring: RingPresentation, terms: Mapping[Monomial, ParamScalar]):
        self.ring = ring
        self._terms = {m: c for m, c in terms.items() if c}
        self._fiber_bearing = None

    # -- views ------------------------------------------------------------

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def fiber_bearing(self) -> bool:
        """Whether a term has fiber weight; its terms are read once, on the
        first call, as the element is immutable."""
        out = self._fiber_bearing
        if out is None:
            out = self._fiber_bearing = any(map(self.ring.weight, self._terms))
        return out

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self.ring.degree(m) for m in self._terms}))

    def constant_coefficient(self) -> ParamScalar:
        zero_mono = (0,) * self.ring.ngens
        return self._terms.get(zero_mono, ParamScalar())

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            if not isinstance(other, (ParamScalar, int, Fraction)):
                return NotImplemented
            other = self.ring.scalar(other)
        self.ring._check_ring(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = terms.get(mono)
            total = coeff if total is None else total + coeff
            if total:
                terms[mono] = total
            else:
                del terms[mono]
        return GradedElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedElement(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (GradedElement, ParamScalar, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            self.ring._check_ring(other)
            if not self._terms or not other._terms:
                return self.ring.zero()
            raw: dict[Monomial, ParamScalar] = {}
            truncates = self.ring._truncates
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = tuple(map(add, m1, m2))
                    if truncates(mono):
                        continue
                    total = raw.get(mono)
                    total = c1 * c2 if total is None else total + c1 * c2
                    if total:
                        raw[mono] = total
                    else:
                        del raw[mono]
            return GradedElement(self.ring, self.ring._normalize(raw))
        if isinstance(other, ParamScalar):
            other = self.ring.coefficient(other)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        # a rational scales the coefficients directly: no constant scalar is built
        return GradedElement(self.ring, {m: c * other for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other: int | Fraction):
        divisor = as_fraction(other)
        if not divisor:
            raise ZeroDivisionError("division of a ring element by zero")
        return GradedElement(self.ring, {m: c / divisor for m, c in self._terms.items()})

    def __pow__(self, exponent: int):
        """``self^k`` with ``self = c + y``, ``c`` the constant coefficient.
        Every monomial of ``y`` has degree at least ``d``, so ``y^j`` is 0
        once ``j*d`` passes ``max_degree``.  When ``c`` is not 0 and that
        leaves no more terms than square and multiply takes products, the
        power is the binomial sum of ``C(k, j)*c^(k-j)*y^j`` in one pass, as
        the ring is commutative; any other power is squared and multiplied."""
        ring = self.ring
        c = self._terms.get((0,) * ring.ngens)
        if c is not None and isinstance(exponent, int) and exponent >= 0:
            y = _element(ring, {m: t for m, t in self._terms.items() if any(m)})
            d = min(map(ring.degree, y._terms), default=ring.max_degree + 1)
            top = min(exponent, ring.max_degree // d)
            if top <= 2 * exponent.bit_length():
                powers = [ring.one(), y][: top + 1]  # y^j up to the first zero or j = top
                while len(powers) <= top and not (y_j := powers[-1] * y).is_zero:
                    powers.append(y_j)
                pairs, scale = [], c ** (exponent - len(powers) + 1)
                for j in reversed(range(len(powers))):
                    pairs.append((comb(exponent, j), powers[j], scale))
                    if j:
                        scale = scale * c
                return ring.sum_of_products(pairs)
        return power(self, exponent, ring.one())

    def __eq__(self, other):
        if isinstance(other, GradedElement):
            return self.ring is other.ring and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ring), frozenset((m, c) for m, c in self._terms.items())))

    # -- geometry-flavoured operations ---------------------------------------

    def integrate(self) -> ParamScalar:
        """Evaluate against the fundamental class of the base.

        Only terms of degree top_degree and above contribute.  Ones of
        nonzero fiber weight are rejected (push forward along the curve
        first); a top-degree normal monomial with no declared intersection
        number is a loud error, never a silent zero.
        """
        ring = self.ring
        if not ring.integrals:
            raise IncompletePresentationError("the presentation declares no integrals")
        total = None
        for mono, coeff in self._terms.items():
            if ring.degree(mono) < ring.top_degree:
                continue
            if ring.weight(mono):
                has_f = ring.fiber_index is not None and mono[ring.fiber_index]
                raise FiberClassError(
                    f"integrate after pushforward: top-degree term {ring.monomial_str(mono)} "
                    + ("contains the fiber class" if has_f else "carries fiber weight")
                )
            value = ring.integrals.get(mono)
            if value is None:
                raise IncompletePresentationError(
                    f"incomplete presentation: no declared integral for {ring.monomial_str(mono)}"
                )
            total = coeff * value if total is None else total + coeff * value
        return ParamScalar() if total is None else total

    def pushforward_fiber(self) -> "GradedElement":
        """Integrate over the curve fiber: extract the f-linear part, f -> 1.

        Degree drops by two componentwise.  Normal-form terms without the
        fiber class integrate to zero along the fiber and are dropped; f has
        weight 2, so no surviving term carries it twice, and dropping f
        from a normal monomial leaves one: a reducer dividing the rest would
        divide the whole.
        """
        i = self.ring.fiber_index
        if i is None:
            raise PresentationError("the presentation declares no fiber class")
        return _element(self.ring, {m[:i] + (0,) + m[i + 1 :]: c for m, c in self._terms.items() if m[i]})

    def restrict_to_point(self) -> "GradedElement":
        """Restrict to a point of the curve: the ring morphism keeping the
        part of fiber weight 0, a subset of the normal-form terms."""
        ring = self.ring
        if not any(ring._weights):
            raise PresentationError("the presentation declares neither a fiber class nor fiber-supported generators")
        return _element(ring, {m: c for m, c in self._terms.items() if not ring.weight(m)})

    # -- printing -------------------------------------------------------------

    def _term_pieces(self):
        """(negative, text) per term, highest degree first; a coefficient
        of several terms is parenthesized, a single one keeps its sign."""
        ring = self.ring
        for mono in sorted(self._terms, key=lambda m: (-ring.degree(m), tuple(-e for e in m))):
            pieces = list(self._terms[mono].term_pieces())
            negative, text = pieces[0] if len(pieces) == 1 else (False, f"({signed_sum(pieces)})")
            mono_text = monomial_text(ring.generator_names, mono)
            if mono_text:
                text = mono_text if text == "1" else f"{text}*{mono_text}"
            yield negative, text

    def __str__(self) -> str:
        return signed_sum(self._term_pieces())

    def __repr__(self):
        return f"GradedElement({str(self)!r})"


# -- loading -----------------------------------------------------------------


def presentation_from_data(data) -> RingPresentation:
    """Assemble and validate a presentation from parsed file content
    (``parsing.PresentationFileData``).  Each rule's right-hand side is read
    like any expression, in the relation-free ring: names first, each product
    truncated as it is formed, so a term that is zero there is dropped.
    Left-hand sides, zeros and integral monomials are products of generator
    powers (``parsing.monomial``)."""
    from . import parsing

    fields = dict(fiber=data.fiber, fiber_supported=data.fiber_supported, top_degree=data.top_degree)
    free = RingPresentation(data.generators, **fields)  # no parameters: rules are over Q
    index, monomial = free._index, parsing.monomial
    rules = []
    for lhs_node, rhs_node, line in data.rules:
        lhs = monomial(lhs_node, index, f"rule left-hand side on line {line}")
        message = f"rule on line {line} uses"
        rhs = free._evaluate(
            rhs_node, parsing, lambda name: PresentationError(f"{message} {name!r}, not a generator: rules are over Q")
        )
        rules.append(RewriteRule(lhs, tuple((m, c.constant_value()) for m, c in rhs.items())))
    zeros = [monomial(node, index, f"zero-monomial on line {line}") for node, line in data.zeros]
    integrals = {}
    for node, value, line in data.integrals:
        mono = monomial(node, index, f"integral monomial on line {line}")
        if mono in integrals:
            raise PresentationError(f"duplicate integral for monomial on line {line}")
        integrals[mono] = value
    return RingPresentation(data.generators, data.params, rules, zeros, integrals=integrals, **fields)


def load_presentation(text: str) -> RingPresentation:
    """Parse and validate a presentation file; see the README for the grammar.

    A rule set that no lex order of the generators orients, or that fails
    the critical-pair check, raises :class:`PresentationError`.
    """
    from .parsing import parse_presentation_text

    return presentation_from_data(parse_presentation_text(text))
