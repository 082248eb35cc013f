"""Shared fixtures-by-function, strategies, and independent oracles."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import strategies as st

from maxsub import load_preset, pipeline
from maxsub.chern import ChernCharacter
from maxsub.errors import PresetError, UnknownGeneratorError
from maxsub.gradedring import GradedElement, RingPresentation
from maxsub.parsing import check_names, parse_expression, walk
from maxsub.scalars import ParamScalar


#: The rank-1 preset rendered as files at genus 2 to 5 (``jacobian-g{g}.ring``).
PRESET_FILES = Path(__file__).parent / "presets"

#: The rings whose normal-form basis the exhaustive tests walk: g2-rank2
#: (genus None) and the jacobian preset at three genera.
BASIS_RINGS = pytest.mark.parametrize("genus", [None, 3, 5, 8], ids=["g2-rank2", "jacobian-g3", "jacobian-g5", "jacobian-g8"])


@lru_cache(maxsize=None)
def g2_preset():
    return load_preset("g2-rank2")


@lru_cache(maxsize=None)
def jacobian_preset(genus=2):
    return load_preset("jacobian", genus=genus)


def g2_ring():
    return g2_preset().ring


def homogeneous_component(x: GradedElement, degree: int) -> GradedElement:
    """The terms of ``x`` of the given degree."""
    return GradedElement(x.ring, {m: c for m, c in x.items() if x.ring.degree(m) == degree})


def total_degree(s: ParamScalar) -> int:
    """The largest exponent of a term of ``s``; 0 for zero."""
    return max((e for e, _ in s.items()), default=0)


def jacobian_ring_text(genus: int) -> str:
    """Render the rank-1 preset at the given genus as a presentation file;
    the files ``jacobian-g{2..5}.ring`` in :data:`PRESET_FILES` are its output.

    The theta class self-intersects to genus! on the parameter torus; that
    is classical input recorded in the integrals section, not derived here.
    """
    if genus < 2:
        raise PresetError(f"genus must be at least 2, got {genus}")
    g = genus
    return f"""# Rank-1 counting preset at genus {g}: the parameter space is the
# degree-0 line bundle torus with theta class of self-intersection
# theta^{g} = {g}! (classical; declared, not derived).
params: n
generators: theta=2, xi1=2, f=2
rules: xi1^2 -> -2*theta*f
zeros: theta^{g + 1}
fiber: f
fiber_supported: xi1
integrals: theta^{g} = {factorial(g)}
top_degree: {2 * g}

preset: jacobian
genus: {g}
subbundle_rank: 1
subbundle_degree: 1
chern_U: 1 + f
chern_L: 1 + xi1
"""


# -- hypothesis strategies ---------------------------------------------------


def fractions_st():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def monomials_st(draw, ring, max_degree=10, allowed=None):
    """Exponent tuples of weighted degree <= max_degree; ``allowed`` limits
    which generator names may carry a nonzero exponent.  Exponents are drawn
    against the remaining degree budget, so no rejection sampling."""
    indices = set(range(ring.ngens)) if allowed is None else {
        ring.generator_names.index(name) for name in allowed
    }
    remaining = max_degree
    mono = []
    for i, deg in enumerate(ring.generator_degrees):
        if i not in indices or remaining < deg:
            mono.append(0)
            continue
        e = draw(st.integers(0, remaining // deg))
        mono.append(e)
        remaining -= e * deg
    return tuple(mono)


def scalars_st(ring, max_param_degree=2):
    constants = fractions_st().map(ParamScalar.constant)
    if len(ring.params) != 1:
        return constants
    polys = st.lists(
        st.tuples(st.integers(0, max_param_degree), fractions_st()),
        min_size=1,
        max_size=2,
    ).map(lambda items: ParamScalar(dict(items)))
    return st.one_of(constants, polys)


def raw_terms_st(ring, max_degree=10, max_terms=3, allowed=None):
    """Unreduced term dictionaries, for exercising normalization itself."""
    return st.lists(
        st.tuples(monomials_st(ring, max_degree, allowed), scalars_st(ring)),
        min_size=0,
        max_size=max_terms,
    ).map(lambda pairs: _merge_pairs(ring, pairs))


def _merge_pairs(ring, pairs):
    raw = {}
    for mono, coeff in pairs:
        raw[mono] = raw.get(mono, ParamScalar()) + coeff
    return raw


def elements_st(ring, max_degree=10, max_terms=3, allowed=None):
    return raw_terms_st(ring, max_degree, max_terms, allowed).map(
        lambda raw: GradedElement(ring, ring._normalize(raw))
    )


def base_elements_st(ring, max_degree=10, max_terms=3):
    """Elements supported away from the fiber class and the fiber-supported
    generators, so that restriction fixes them and integration is total."""
    killed = set(ring.fiber_supported)
    if ring.fiber_index is not None:
        killed.add(ring.fiber_index)
    allowed = [n for i, n in enumerate(ring.generator_names) if i not in killed]
    return elements_st(ring, max_degree, max_terms, allowed=allowed)


@st.composite
def sparse_components_st(draw, ring, max_terms=4):
    """Components 1..top/2 of a random element, some of them zeroed."""
    x = draw(elements_st(ring, max_degree=ring.top_degree, max_terms=max_terms))
    count = ring.top_degree // 2
    keep = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return tuple(homogeneous_component(x, 2 * k) if kept else ring.zero() for k, kept in enumerate(keep, start=1))


# -- dense references for the chern recursions --------------------------------------
#
# The loops ``maxsub.chern`` ran before it stored only nonzero components: every
# component 1..top/2, zero or not, takes part in every step.  Each takes and
# returns dense component lists ``[x_1, ..., x_(top/2)]``.


def dense_character(ring, c):
    """Components ch_1.. of the character of the total class 1 + c_1 + ...:
    p_k = c_1 p_(k-1) - c_2 p_(k-2) + ... +- k c_k, then ch_k = p_k / k!."""
    count = len(c)
    p = [ring.zero()]
    for k in range(1, count + 1):
        acc = c[k - 1] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + c[i - 1] * p[k - i] * ((-1) ** (i - 1))
        p.append(acc)
    return [p[k] / factorial(k) for k in range(1, count + 1)]


def dense_total_class(ring, ch):
    """Components c_1.. of the total class of the character rank + ch_1 + ...,
    from the power sums p_k = k! ch_k."""
    count = len(ch)
    p = [ring.zero()] + [ch[k - 1] * factorial(k) for k in range(1, count + 1)]
    c = [ring.one()]
    for k in range(1, count + 1):
        acc = p[k]
        for i in range(1, k):
            acc = acc - c[i] * p[k - i] * ((-1) ** (i - 1))
        c.append(acc * Fraction((-1) ** (k - 1), k))
    return c[1:]


def dense_graded_product(a0, a, b0, b):
    """Components 1..len(a) of (a0 + a_1 + ...) * (b0 + b_1 + ...)."""
    dense = []
    for k in range(1, len(a) + 1):
        term = a[k - 1] * b0 + b[k - 1] * a0
        for i in range(1, k):
            term = term + a[i - 1] * b[k - i - 1]
        dense.append(term)
    return dense


# -- a reference route for the count ------------------------------------------------


def character_difference(a, b):
    """The character a - b, component by component by element subtraction."""
    keys = a._parts.keys() | b._parts.keys()
    return ChernCharacter(a.ring, a.rank - b.rank, {k: a.part(k) - b.part(k) for k in keys})


def upstairs_character(preset):
    """Character on the curve x parameter space, before fiber integration:
    the Grothendieck-Riemann-Roch integrand that the count pushes forward
    without forming it.  X = ch(U*) ch(L*) times one Riemann-Roch factor
    n + (d + n(g-1)) f: the twisted big bundle (rank n, degree d + n(2g-2))
    times the curve's Todd class 1 - (g-1) f, multiplied out with f^2 = 0."""
    ring = preset.ring
    n = preset.rank_symbol
    fiber = ring.generator(ring.generator_names[ring.fiber_index])
    twist = fiber * (preset.induced_degree + n * (preset.genus - 1))
    return pipeline._dual_product(preset).tensor(ChernCharacter(ring, n, [twist]))


def three_product_route(preset):
    """The count's intermediates by the route that makes three graded
    products: the duals of ch(U) and ch(L) tensored with one Riemann-Roch
    factor and pushed along the fiber (sections), and the duals of their
    restrictions to a point tensored and scaled by n(2g-2) (evaluation).
    The pipeline computes ch(U*) ch(L*) once and derives both from it."""
    ring = preset.ring
    n = preset.rank_symbol
    ch_u, ch_l = preset.chern_u.character(preset.subbundle_rank), preset.chern_l.character(1)
    fiber = ring.generator(ring.generator_names[ring.fiber_index])
    riemann_roch = ChernCharacter(ring, n, [fiber * (preset.induced_degree + n * (preset.genus - 1))])
    upstairs = ch_u.dual().tensor(ch_l.dual(), riemann_roch)
    rank = upstairs.part(1).pushforward_fiber().constant_coefficient()
    sections = ChernCharacter(ring, rank, {k - 1: p.pushforward_fiber() for k, p in upstairs.items() if k > 1})

    def restricted(ch):
        return ChernCharacter(ring, ch.rank, {k: p.restrict_to_point() for k, p in ch.items()})

    at_point = restricted(ch_u).dual().tensor(restricted(ch_l).dual())
    points = n * preset.canonical_degree
    evaluation = ChernCharacter(ring, at_point.rank * points, {k: p * points for k, p in at_point.items()})
    difference = character_difference(evaluation, sections).total_class()
    return {
        "upstairs": upstairs,
        "sections": sections,
        "evaluation": evaluation,
        "difference_class": difference,
        "integral": difference.top().integrate(),
    }


# -- reference scalar ------------------------------------------------------------


class ReferenceScalar:
    """The scalar as it was before integer numerators: a dict from parameter
    exponent vectors to nonzero ``Fraction``s, re-validated on every result,
    over any number of parameters.  Slow, but every operation is plain
    ``Fraction`` arithmetic, so it serves as the oracle for
    :class:`maxsub.scalars.ParamScalar`.  It is also the free polynomial
    that :func:`reference_expand` computes with :func:`maxsub.parsing.walk`,
    so it has the views ``walk`` reads."""

    def __init__(self, params, terms=None):
        self.params = tuple(params)
        self._terms = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != len(self.params) or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector")
            coeff = Fraction(coeff)
            if coeff:
                self._terms[expo] = coeff

    @classmethod
    def constant(cls, value, params):
        return cls(params, {(0,) * len(params): value})

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self):
        return not self._terms

    def constant_coefficient(self):
        return self  # a free polynomial has no ring element around it

    def constant_term(self):
        return self._terms.get((0,) * len(self.params), 0)

    def leading_coefficient(self):
        return self._terms[max(self._terms)] if self._terms else 0

    def _coerce(self, other):
        return other if isinstance(other, ReferenceScalar) else ReferenceScalar.constant(other, self.params)

    def __add__(self, other):
        terms = dict(self._terms)
        for expo, coeff in self._coerce(other)._terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return ReferenceScalar(self.params, terms)

    def __neg__(self):
        return ReferenceScalar(self.params, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in self._coerce(other)._terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return ReferenceScalar(self.params, terms)

    def __truediv__(self, other):
        return ReferenceScalar(self.params, {e: c / Fraction(other) for e, c in self._terms.items()})

    def __pow__(self, exponent):
        result = ReferenceScalar.constant(1, self.params)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        return self._terms == self._coerce(other)._terms

    def __hash__(self):
        if all(not any(e) for e in self._terms):
            return hash(next(iter(self._terms.values()), Fraction(0)))
        return hash((self.params, frozenset(self._terms.items())))

    def evaluate(self, assignment):
        total = Fraction(0)
        for expo, coeff in self._terms.items():
            for name, e in zip(self.params, expo):
                coeff *= Fraction(assignment[name]) ** e
            total += coeff
        return total

    def __str__(self):
        pieces = []
        for expo, coeff in sorted(self._terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))):
            mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(self.params, expo) if e)
            mag = abs(coeff)
            if not mono:
                text = str(mag)
            elif mag == 1:
                text = mono
            elif mag.denominator == 1:
                text = f"{mag}*{mono}"
            else:
                text = f"({mag})*{mono}"
            if pieces:
                pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
            else:
                pieces.append(f"-{text}" if coeff < 0 else text)
        return "".join(pieces) or "0"


# -- independent oracles -------------------------------------------------------


def permutation_sign(seq):
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def theta_power_integral(g):
    """Brute-force the top self-intersection of the theta class.

    Model the degree-1 cohomology of the torus as an exterior algebra on
    2g anticommuting symbols paired as (x_i, y_i), with theta = sum x_i y_i
    and the volume form x_1 y_1 x_2 y_2 ... integrating to 1.  Expand
    theta^g term by term with explicit permutation signs.
    """
    total = 0
    for choice in product(range(g), repeat=g):
        seq = []
        for i in choice:
            seq.extend((2 * i, 2 * i + 1))
        if len(set(seq)) != len(seq):
            continue
        total += permutation_sign(seq)
    return total


def vafa_intriligator_rank2(n, g):
    """m(n, 2) at genus g by the Vafa-Intriligator residue formula (Holla,
    Math. Ann. 2004; proved by Marian-Oprea, Duke 2007), in plain
    ``Fraction``s, independent of the ring kernel:

        m(n, 2) = -(n^(2(g-1))/2) sum over rho1 != rho2 of
                  (rho1 rho2)^(n/2 + g - 1) ((rho1 - rho2)(rho2 - rho1))^(1 - g)

    over n-th roots of unity, n even.  With rho2 = rho1 zeta the term is
    (-1)^(g-1) zeta^(n/2 + g - 1) (1 - zeta)^(-2(g-1)), free of rho1, so the
    sum over rho1 is a factor n.  The rest is computed in Q[Z/n], the
    algebra of functions on the n-th roots of unity, with h as the
    coefficients of sum_j h[j] zeta^j: on zeta != 1, 1/(1 - zeta) is
    -(1/n) sum_j j zeta^j, and the sum of h over zeta != 1 is n h[0] - h(1).
    No cyclotomic field is needed."""
    inverse = [Fraction(-j, n) for j in range(n)]  # 1/(1 - zeta) on zeta != 1
    h = [Fraction(0)] * n
    h[(n // 2 + g - 1) % n] = Fraction(1)
    for _ in range(2 * (g - 1)):
        h = [sum(h[i] * inverse[(k - i) % n] for i in range(n)) for k in range(n)]
    residue_sum = n * (n * h[0] - sum(h))
    return -Fraction(n ** (2 * (g - 1)), 2) * (-1) ** (g - 1) * residue_sum


def reference_weight(ring, mono):
    """Fiber weight written out from the declarations, apart from the
    ring's own: 2 per fiber class, 1 per fiber-supported generator."""
    return sum(e * (2 if i == ring.fiber_index else int(i in ring.fiber_supported)) for i, e in enumerate(mono))


def reference_truncates(ring, mono):
    """The truncation rule: fiber weight above 2, or base degree (degree
    minus weight) above the top degree."""
    weight = reference_weight(ring, mono)
    return weight > 2 or ring.degree(mono) - weight > ring.top_degree


def reduce_in_random_order(ring, raw_terms, rng):
    """Reference normalizer: apply truncation, zero-kills and rewrite rules
    one randomly-chosen step at a time until nothing applies."""
    terms = {m: c for m, c in raw_terms.items() if c}
    for _ in range(100_000):
        actions = []
        for mono in terms:
            if reference_truncates(ring, mono):
                actions.append((mono, "truncate", None))
            if any(all(z <= m for z, m in zip(zero, mono)) for zero in ring.zeros):
                actions.append((mono, "zero", None))
            for i, rule in enumerate(ring.rules):
                if all(l <= m for l, m in zip(rule.lhs, mono)):
                    actions.append((mono, "rule", i))
        if not actions:
            return terms
        mono, kind, index = actions[rng.randrange(len(actions))]
        coeff = terms.pop(mono)
        if kind in ("truncate", "zero"):
            continue
        rule = ring.rules[index]
        quotient = tuple(m - l for m, l in zip(mono, rule.lhs))
        for rmono, rcoeff in rule.rhs:
            combined = tuple(q + r for q, r in zip(quotient, rmono))
            total = terms.get(combined, ParamScalar()) + coeff * rcoeff
            if total:
                terms[combined] = total
            else:
                terms.pop(combined, None)
    raise AssertionError("random-order reduction did not terminate")


def reference_expand(node, variables, unknown):
    """An expression tree as a free polynomial in the distinct names
    ``variables``, ``{exponent vector: coefficient}``, computed by the
    parser's walk in :class:`ReferenceScalar`; any other name raises
    ``unknown(name)`` first."""
    check_names(node, variables, unknown)

    def leaf(node):
        name = getattr(node, "name", None)
        if name is None:
            return ReferenceScalar.constant(node.value, variables)
        return ReferenceScalar(variables, {tuple(int(v == name) for v in variables): 1})

    return dict(walk(node, leaf).items())


def expanded_terms(ring, text):
    """The expression as a free polynomial in the ring's names, regrouped as
    ``{monomial: coefficient}``; nothing truncates, so keep exponents small."""

    def unknown(name):
        return UnknownGeneratorError(f"unknown name {name!r}: not a generator or parameter of this presentation")

    n = ring.ngens
    terms = {}
    for key, coeff in reference_expand(parse_expression(text), ring.generator_names + ring.params, unknown).items():
        scalar = ParamScalar({sum(key[n:]): coeff})  # the parameter's exponent; 0 with none
        terms[key[:n]] = terms[key[:n]] + scalar if key[:n] in terms else scalar
    return terms


def expanded_parse(ring, text):
    """Reference evaluation: expand the whole expression as a free
    polynomial, resolve its names, and only then reduce to normal form."""
    return GradedElement(ring, ring._normalize(expanded_terms(ring, text)))


class UncheckedRing(RingPresentation):
    """A presentation loaded without the critical-pair check, so that
    :func:`exhaustive_confluence_failure` can judge it.  Its rules are still
    oriented, so its normal forms exist."""

    def _check_critical_pairs(self):
        pass


def reference_normalizer(ring):
    """Reference normal forms, apart from the ring's own: ``(monomial_nf,
    normalize)`` over a private cache, testing every zero and then every
    rule by exponent-wise division, with cycle detection.  A monomial that
    rewrites to itself raises ``_RewriteCycle``."""
    in_progress = object()
    one = ParamScalar.constant(1)
    cache = {}

    def normalize(raw):
        out = {}
        for mono, coeff in raw.items():
            for nmono, ncoeff in monomial_nf(mono).items():
                total = out.get(nmono, ParamScalar()) + coeff * ncoeff
                if total:
                    out[nmono] = total
                else:
                    out.pop(nmono, None)
        return out

    def monomial_nf(mono):
        cached = cache.get(mono)
        if cached is in_progress:
            raise _RewriteCycle(mono)
        if cached is not None:
            return cached
        if reference_truncates(ring, mono) or any(_divides(z, mono) for z in ring.zeros):
            result = {}
        else:
            rule = next((r for r in ring.rules if _divides(r.lhs, mono)), None)
            if rule is None:
                result = {mono: one}
            else:
                cache[mono] = in_progress
                result = normalize(_rewrite(mono, rule))
        cache[mono] = result
        return result

    return monomial_nf, normalize


def exhaustive_confluence_failure(ring):
    """Reference confluence check: the load-time check before critical pairs.

    Normalize every monomial up to the top degree plus the fiber's 2, with
    cycle detection, then join every monomial that two or more reducers
    (rules or zero monomials) apply to.  Returns the first failure as text,
    or None.  It visits every one of those monomials, so keep rings small.
    """
    monomial_nf, normalize = reference_normalizer(ring)
    monomials = list(ring.monomials_up_to(ring.top_degree + 2))
    try:
        for mono in monomials:
            monomial_nf(mono)
    except _RewriteCycle as cycle:
        return f"rewrite rules do not terminate: {ring.monomial_str(cycle.args[0])} reduces to itself"
    for mono in monomials:
        routes = []
        if any(_divides(zero, mono) for zero in ring.zeros):
            routes.append(("zero-monomial", {}))
        for rule in ring.rules:
            if _divides(rule.lhs, mono):
                routes.append((ring.monomial_str(rule.lhs), normalize(_rewrite(mono, rule))))
        for label, other in routes[1:]:
            if other != routes[0][1]:
                return (
                    f"not locally confluent on {ring.monomial_str(mono)}: "
                    f"reducing via {routes[0][0]} and via {label} give different normal forms"
                )
    return None


def _rewrite(mono, rule):
    quotient = tuple(m - l for m, l in zip(mono, rule.lhs))
    return {tuple(q + r for q, r in zip(quotient, rmono)): rcoeff for rmono, rcoeff in rule.rhs}


class _RewriteCycle(Exception):
    pass


def _divides(divisor, mono):
    return all(d <= m for d, m in zip(divisor, mono))


def exponential_element(x, top_terms=None):
    """Truncated exponential sum x^k / k!, reduced in the ring."""
    ring = x.ring
    count = ring.top_degree // 2 if top_terms is None else top_terms
    total = ring.one()
    power = ring.one()
    for k in range(1, count + 1):
        power = power * x
        total = total + power / factorial(k)
    return total


@contextmanager
def within(seconds):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
