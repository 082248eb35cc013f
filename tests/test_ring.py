import random
from fractions import Fraction
from importlib.resources import files
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from maxsub.errors import (
    FiberClassError,
    IncompletePresentationError,
    PresentationError,
    UnknownGeneratorError,
)
from maxsub import load_preset
from maxsub.gradedring import PAIRS_PER_NORMAL_FORM, GradedElement, RewriteRule, RingPresentation, load_presentation
from maxsub.pipeline import consistency_report, count_maximal_subbundles
from maxsub.scalars import ParamScalar

from helpers import (
    BASIS_RINGS,
    UncheckedRing,
    g2_ring,
    homogeneous_component,
    jacobian_preset,
    jacobian_ring_text,
    reduce_in_random_order,
    theta_power_integral,
)

POINT_RING = "generators:\ntop_degree: 0\nintegrals: 1 = 1\n"
G2_TEXT = files("maxsub").joinpath("presets", "g2-rank2.ring").read_text()

FIBERLESS = """
generators: x=2
zeros: x^3
top_degree: 4
integrals: x^2 = 1
"""


@pytest.fixture(scope="module")
def R():
    return g2_ring()


def test_g2_presentation_shape(R):
    assert R.ngens == 6
    assert R.top_degree == 10
    assert len(R.rules) == 3
    assert len(R.zeros) == 5
    assert len(R.integrals) == 2
    assert R.generator_names[R.fiber_index] == "f"
    assert [R.generator_names[i] for i in R.fiber_supported] == ["xi1", "xi2"]


def test_repr_names_the_generators(R):
    assert repr(R) == "RingPresentation(alpha,theta,xi1,xi2,Lambda,f, top_degree=10)"
    assert repr(load_presentation(POINT_RING)) == "RingPresentation(point, top_degree=0)"


def test_point_ring_integration_is_identity():
    point = load_presentation(POINT_RING)
    value = Fraction(5, 7)
    assert point.scalar(value).integrate() == value
    assert point.one().integrate() == 1


def test_jacobian_genus_3_presentation():
    ring = jacobian_preset(3).ring
    assert ring.top_degree == 6
    # the declared theta self-intersection agrees with an exterior-algebra
    # brute force (and with 2 at genus 2, the classical surface value)
    (mono, value), = ring.integrals.items()
    assert ring.monomial_str(mono) == "theta^3"
    assert value == theta_power_integral(3) == 6
    assert theta_power_integral(2) == 2


# -- normal forms -------------------------------------------------------------


def test_square_of_mixed_line_class(R):
    assert R.parse("xi1^2") == R.parse("-2*theta*f")
    assert R.parse("xi1^2 + 2*theta*f").is_zero


def test_fiber_square_dies(R):
    assert R.parse("f*f").is_zero
    assert (R.generator("f") * R.generator("f")).is_zero


def test_binomial_square_matches_bruteforce(R):
    # oracle: distribute by hand, then kill f^2
    engine = R.parse("(alpha + f)^2")
    assert engine == R.parse("alpha^2 + 2*alpha*f")
    expanded = R.parse("alpha^2") + 2 * (R.generator("alpha") * R.generator("f")) + R.parse("f^2")
    assert engine == expanded


def _mono(R, **exps):
    mono = [0] * R.ngens
    for name, e in exps.items():
        mono[R.generator_names.index(name)] = e
    return tuple(mono)


def test_random_order_reduction_agrees(R):
    one = ParamScalar.constant(1)
    raw = {
        _mono(R, xi1=2, alpha=1): one * 3,
        _mono(R, xi2=2): one,
        _mono(R, xi1=1, xi2=1, theta=1): one * -2,
    }
    engine = R.parse("3*xi1^2*alpha + xi2^2 - 2*xi1*xi2*theta")
    for seed in range(5):
        result = reduce_in_random_order(R, raw, random.Random(seed))
        assert result == dict(engine.items())


def test_mul_rules(R):
    assert R.generator("xi1") * R.generator("xi2") == R.parse("Lambda*f")
    assert R.generator("xi2") * R.generator("xi2") == R.parse("alpha^3*f")
    assert R.parse("alpha^3") * R.parse("theta^2") == R.parse("alpha^3*theta^2")


def test_mul_drops_a_cancelled_coefficient(R):
    # alpha*(-theta) and theta*alpha meet on one monomial and cancel there
    x, y = R.parse("alpha + theta"), R.parse("alpha - theta")
    product = x * y
    assert product == R.parse("alpha^2 - theta^2")
    assert product == R.sum_of_products([(1, x, y)])
    assert len(product._terms) == 2 and all(product._terms.values())


def test_truncation_above_top_degree(R):
    # curve x base has one dimension more than the base: its top class is
    # fiber-bearing, nonzero and pushes forward to the base's top class
    top = R.parse("alpha^3*theta^2*f")
    assert str(top) == "alpha^3*theta^2*f"
    assert top.pushforward_fiber() == R.parse("alpha^3*theta^2")
    # base-only products above the top degree still vanish
    assert (R.parse("alpha^3*theta^2") * R.generator("alpha")).is_zero
    assert (R.parse("theta*Lambda^2") * R.generator("theta")).is_zero
    # and so does fiber weight above 2
    assert (top * R.generator("f")).is_zero
    assert R.parse("f^2 + xi1*f + xi2*f + xi1^3").is_zero


@pytest.mark.parametrize(
    "text, zeros",
    [
        (files("maxsub").joinpath("presets", "g2-rank2.ring").read_text(), "f^2, xi1^3, xi1*f, xi2*f, "),
        (jacobian_ring_text(3), "f^2, xi1*f, "),
    ],
)
def test_declared_implied_zeros_change_nothing(text, zeros):
    # files that still declare the zeros the fiber weight implies load to
    # the same normal forms
    shipped = load_presentation(text)
    declared = load_presentation(text.replace("zeros: ", "zeros: " + zeros))
    assert len(declared.zeros) == len(shipped.zeros) + zeros.count(",")
    one = ParamScalar.constant(1)
    for mono in shipped.monomials_up_to(shipped.top_degree + 4):
        assert declared._normalize(((mono, one),)) == shipped._normalize(((mono, one),))


G2_RULE = "rules: xi1^2 -> -2*theta*f"


@pytest.mark.parametrize("tail", ["theta^6", "f^2", "7/3*xi1*f*theta - theta^6"])
def test_rule_term_zero_in_the_ring_is_dropped(R, tail):
    # base degree above top_degree, or fiber weight above 2: zero before the checks
    assert load_presentation(G2_TEXT.replace(G2_RULE, f"{G2_RULE} + {tail}")).rules == R.rules


def test_rule_term_nonzero_in_the_ring_is_still_rejected():
    message = r"^rule changes the fiber weight: xi1\^2 \(weight 2\) rewrites to a term of weight 0$"
    with pytest.raises(PresentationError, match=message):
        load_presentation(G2_TEXT.replace(G2_RULE, f"{G2_RULE} + theta^2"))


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 5)], ids=["g2-rank2", "jacobian-g5"])
def test_rules_and_normal_forms_are_over_q(preset_args):
    # after a count and a report, every rule coefficient and every cached
    # normal-form coefficient is rational, and every normal monomial's is one
    # shared 1
    preset = load_preset(*preset_args)
    count_maximal_subbundles(preset)
    consistency_report(preset)
    ring = preset.ring
    coeffs = [c for rule in ring.rules for _, c in rule.rhs]
    coeffs += [c for nf in ring._nf_cache.values() for c in nf.values()]
    assert len(coeffs) > len(ring.rules)
    assert all(type(c) in (int, Fraction) for c in coeffs)
    ones = [nf[m] for m, nf in ring._nf_cache.items() if m in nf]
    assert ones and ones[0] == 1 and len({id(c) for c in ones}) == 1


@pytest.mark.parametrize(
    "coeff",
    [ParamScalar({1: 1}), ParamScalar({1: 2, 0: Fraction(1, 3)}), ParamScalar.constant(2), 0.5],
    ids=["n", "2*n + 1/3", "constant-scalar", "float"],
)
def test_rule_coefficient_must_be_rational(coeff):
    # rules are over Q: a ring built as data takes only int or Fraction rule coefficients
    rule = RewriteRule((2, 0), (((0, 2), coeff),))
    with pytest.raises(PresentationError, match=r"^rule coefficients must be rational: x\^2 rewrites with coefficient "):
        RingPresentation((("x", 2), ("y", 2)), params=("n",), rules=[rule], top_degree=4)


def test_mismatched_rings_rejected(R):
    other = load_presentation(POINT_RING)
    with pytest.raises(ValueError):
        R.one() + other.one()
    with pytest.raises(ValueError):
        R.one() * other.one()


# -- integration ---------------------------------------------------------------


def test_declared_integrals(R):
    assert R.parse("alpha^3*theta^2").integrate() == 8
    assert R.parse("theta*Lambda^2").integrate() == 4
    assert R.one().integrate() == 0
    n = R.parameter("n")
    combo = R.parse("alpha^3*theta^2") * n + R.parse("theta*Lambda^2") * 3
    assert combo.integrate() == 8 * n + 12


def test_undeclared_top_monomial_is_loud():
    # theta*Lambda^2 is a weight-0 top-degree normal monomial
    ring = load_presentation(G2_TEXT.replace("integrals: theta*Lambda^2 = 4\n", ""))
    with pytest.raises(IncompletePresentationError, match=r"no declared integral for theta\*Lambda\^2"):
        ring.parse("theta*Lambda^2").integrate()


def test_fiber_bearing_top_term_rejected(R):
    with pytest.raises(FiberClassError, match="contains the fiber class"):
        R.parse("alpha^2*theta^2*f").integrate()


@pytest.mark.parametrize("expr", ["theta*Lambda*xi2", "alpha^3*theta*xi1", "alpha^3*theta*xi1 + alpha^3*theta^2"])
def test_top_term_of_fiber_weight_one_rejected(R, expr):
    # a fiber-supported factor without f is still a class on curve x base
    with pytest.raises(FiberClassError, match="carries fiber weight"):
        R.parse(expr).integrate()


def test_integral_of_nonzero_fiber_weight_rejected():
    with pytest.raises(PresentationError, match=r"integral monomial alpha\^3\*theta\*xi1 has fiber weight 1, not 0"):
        load_presentation(G2_TEXT.replace("top_degree:", "integrals: alpha^3*theta*xi1 = 5\ntop_degree:"))


def test_ring_without_integrals_cannot_integrate():
    ring = load_presentation("generators: x=2\nzeros: x^2\ntop_degree: 2\n")
    with pytest.raises(IncompletePresentationError):
        ring.generator("x").integrate()


# -- pushforward and restriction -------------------------------------------------


def test_pushforward_extracts_fiber_coefficient(R):
    x = R.parse("(1/4*n*alpha^2 + n*Lambda + n*alpha*theta)*f + 1/12*n*alpha^3")
    assert x.pushforward_fiber() == R.parse("1/4*n*alpha^2 + n*Lambda + n*alpha*theta")
    assert R.generator("xi1").pushforward_fiber().is_zero
    assert R.parse("theta^2*f").pushforward_fiber() == R.parse("theta^2")


def test_pushforward_needs_fiber_class():
    ring = load_presentation(FIBERLESS)
    with pytest.raises(PresentationError):
        ring.generator("x").pushforward_fiber()


def test_restriction_kills_fiber_supported(R):
    x = R.parse("1 + alpha + f + 1/2*alpha^2 + xi2 + alpha*f")
    # oracle: substitute f -> 0 and xi2 -> 0 term by term
    assert x.restrict_to_point() == R.parse("1 + alpha + 1/2*alpha^2")
    assert R.generator("xi1").restrict_to_point().is_zero
    assert R.generator("theta").restrict_to_point() == R.generator("theta")


def test_restriction_needs_fiber_data():
    ring = load_presentation(FIBERLESS)
    with pytest.raises(PresentationError):
        ring.generator("x").restrict_to_point()


# -- presentation validation ------------------------------------------------------


@pytest.mark.parametrize(
    "rule",
    ["a^2 -> a*f", "xi^2 -> a^2", "xi*f -> a*f"],
)
def test_rule_changing_fiber_weight_rejected(rule):
    text = f"generators: a=2, xi=2, f=2\nrules: {rule}\nfiber: f\nfiber_supported: xi\ntop_degree: 4\n"
    with pytest.raises(PresentationError, match="changes the fiber weight"):
        load_presentation(text)


def test_inhomogeneous_rule_rejected():
    text = "generators: x=2, y=4\nrules: y -> x\ntop_degree: 4\n"
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    assert "inhomogeneous" in str(err.value)


def test_non_confluent_rules_report_critical_pair():
    text = (
        "generators: x=2, y=2, z=2\n"
        "rules: x^2 -> y^2\n"
        "rules: x*y -> 0\n"
        "top_degree: 6\n"
    )
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    assert "confluent" in str(err.value)


def test_rewrite_cycle_detected():
    text = "generators: x=2, y=2\nrules: x^2 -> y^2\nrules: y^2 -> x^2\ntop_degree: 4\n"
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    assert "terminate" in str(err.value)


def test_monomial_under_a_zero_and_a_rule_normalizes_to_zero():
    # x^2*y^2 is divisible by the zero y^2 and by the rule's x^2
    ring = load_presentation("generators: x=2, y=2\nrules: x^2 -> x*y\nzeros: y^2\ntop_degree: 8\n")
    ring._nf_cache.clear()
    assert ring._monomial_nf((2, 2)) == {}
    # zeros are tried before rules: on a system the load check rejects, the
    # rule x^2 -> y^2 first would leave y^3, the zero x*y first leaves 0
    rule = RewriteRule((2, 0), (((0, 2), 1),))
    unchecked = UncheckedRing((("x", 2), ("y", 2)), rules=[rule], zeros=[(1, 1)], top_degree=6)
    assert unchecked._monomial_nf((2, 1)) == {}
    assert unchecked._monomial_nf((2, 0)) == {(0, 2): 1}


def test_reducible_integral_monomial_rejected():
    text = "generators: x=2, y=2\nrules: x^2 -> y^2\ntop_degree: 4\nintegrals: x^2 = 1\n"
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    assert "reducible" in str(err.value)


def test_wrong_degree_integral_rejected():
    text = "generators: x=2\ntop_degree: 4\nintegrals: x = 1\n"
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    assert "degree" in str(err.value)


@pytest.mark.parametrize(
    "fiber_data, message",
    [
        ({"fiber": "y"}, "fiber class 'y' is not a generator"),
        ({"fiber_supported": ["y"]}, "fiber-supported name 'y' is not a generator"),
    ],
)
def test_unknown_fiber_names_rejected_on_direct_construction(fiber_data, message):
    with pytest.raises(PresentationError, match=message):
        RingPresentation([("x", 2)], top_degree=2, **fiber_data)


def test_odd_generator_degree_rejected():
    with pytest.raises(PresentationError):
        load_presentation("generators: x=3\ntop_degree: 4\n")


def test_unknown_names(R):
    with pytest.raises(UnknownGeneratorError):
        R.parse("nope + alpha")
    with pytest.raises(UnknownGeneratorError):
        R.generator("nope")
    with pytest.raises(UnknownGeneratorError):
        R.parameter("m")


# -- element views -----------------------------------------------------------------


def test_homogeneous_components(R):
    x = R.parse("1 + alpha + f + 1/2*alpha^2 + xi2 + alpha*f")
    assert x.degrees() == (0, 2, 4)
    assert homogeneous_component(x, 2) == R.parse("alpha + f")
    assert homogeneous_component(x, 4) == R.parse("1/2*alpha^2 + xi2 + alpha*f")
    assert homogeneous_component(x, 6).is_zero


def test_canonical_str(R):
    assert str(R.parse("xi1*xi2")) == "Lambda*f"
    assert str(R.parse("(alpha + f)^2")) == "alpha^2 + 2*alpha*f"
    assert str(R.zero()) == "0"
    assert str(R.parse("1 + alpha")) == "alpha + 1"


# -- the one-pass sum of products ----------------------------------------------


def _assert_lowest_terms(element):
    # == and hash compare the stored form, so every coefficient must be reduced
    for _, coeff in element.items():
        assert coeff._num and all(coeff._num.values())
        assert coeff._den > 0 and gcd(coeff._den, *coeff._num.values()) == 1


def _assert_pair_table_reads_the_cache(ring):
    # each stored pair holds the very normal form the cache keeps for m1*m2
    entries = 0
    for m1, row in ring._rows.items():
        for m2, out in row.items():
            assert out is ring._nf_cache[tuple(a + b for a, b in zip(m1, m2))]
            entries += 1
    assert entries == ring._stored_pairs <= PAIRS_PER_NORMAL_FORM * len(ring._nf_cache)
    return entries


@BASIS_RINGS
def test_sum_of_products_on_every_pair_of_basis_monomials(genus):
    # a freshly loaded ring: the first pass fills the kernel's pair table,
    # the second reads it
    ring = load_preset("g2-rank2" if genus is None else "jacobian", genus=genus).ring
    n = ring.parameter("n")
    coeffs = [ParamScalar.constant(c) for c in (1, Fraction(-2, 3))] + [n, n**2 - Fraction(1, 4)]
    weights = [1, -1, Fraction(1, 3), Fraction(-5, 2)]
    one = ring._one_scalar
    basis = [m for m in ring.monomials_up_to(ring.max_degree) if ring._normalize(((m, one),)) == {m: one}]
    elements = [GradedElement(ring, {m: coeffs[i % len(coeffs)]}) for i, m in enumerate(basis)]
    for _ in ("fresh", "warm"):
        for i, x in enumerate(elements):
            pairs = [(weights[(i + j) % len(weights)], x, y) for j, y in enumerate(elements)]
            pairs += [(w, x, c) for w, c in zip(weights, coeffs)]  # a scalar second factor
            expected = ring.zero()
            for w, a, b in pairs:
                single = ring.sum_of_products([(w, a, b)])
                assert single == a * b * w
                _assert_lowest_terms(single)
                expected = expected + a * b * w
            got = ring.sum_of_products(pairs)
            assert got == expected and hash(got) == hash(expected)
            _assert_lowest_terms(got)
            # every product cancels against its commuted copy: zero, with no stored coefficient
            commuted = [(-w, b, a) if isinstance(b, GradedElement) else (-w, a, b) for w, a, b in pairs]
            cancelled = ring.sum_of_products(pairs + commuted)
            assert cancelled == ring.zero()
            assert not cancelled.items()
        assert _assert_pair_table_reads_the_cache(ring)
    assert ring.sum_of_products([]) == ring.zero()


def test_pair_table_stays_bounded_where_pairs_do_not_repeat():
    # the jacobian report at g = 60 meets more new monomial pairs than the
    # table may hold: it fills up to its bound and stops storing, and the
    # report read through the full table equals that of a fresh ring
    preset = load_preset("jacobian", genus=60)
    first = consistency_report(preset)
    entries = _assert_pair_table_reads_the_cache(preset.ring)
    assert entries > PAIRS_PER_NORMAL_FORM * (len(preset.ring._nf_cache) - 1)
    assert consistency_report(preset) == first == consistency_report(load_preset("jacobian", genus=60))
    assert _assert_pair_table_reads_the_cache(preset.ring) == entries


def test_sum_of_products_rejects_another_ring(R):
    # either factor of another ring, the second an element or a scalar
    other = jacobian_preset(3).ring
    for x, y in [
        (R.generator("alpha"), other.generator("theta")),
        (other.generator("theta"), R.generator("alpha")),
        (other.generator("theta"), 2),
        (other.generator("theta"), R.parameter("n")),
    ]:
        with pytest.raises(ValueError, match="different presentations"):
            R.sum_of_products([(1, x, y)])


def test_sum_of_products_skips_a_zero_multiplier():
    # a zero weight, or a zero rational second factor folded into it, adds
    # nothing and looks up no normal form: the count's evaluation pushes X
    # forward at weight 0
    ring = g2_ring()
    x, y = ring.parse("xi1 + n*alpha + xi2"), ring.parse("xi1 + theta + xi2")
    cache, stored = dict(ring._nf_cache), ring._stored_pairs
    for pairs in ([(0, x, y)], [(1, x, 0)], [(Fraction(0), x, y), (5, x, Fraction(0))]):
        got = ring.sum_of_products(pairs)
        assert got == ring.zero() and not got.items()
    assert ring._nf_cache == cache and ring._stored_pairs == stored
    assert ring.sum_of_products([(0, x, y), (1, x, y), (2, y, 0)]) == x * y


def _rational_rule_ring():
    # g2-rank2 with xi2^2 -> -3/2*alpha^3*f: the normal form of a product of
    # two xi2 terms has a coefficient with a numerator and a denominator,
    # which the kernel folds into the pair's multiplier
    text = files("maxsub").joinpath("presets", "g2-rank2.ring").read_text()
    return load_presentation(text.replace("xi2^2 -> alpha^3*f", "xi2^2 -> -3/2*alpha^3*f"))


QRING = _rational_rule_ring()
Q_ELEMENTS = [
    QRING.parse(t)
    for t in (
        "(n + 1/2)*xi2 + (2/3*n^2 - n)*alpha",
        "(1/3*n^3 - 1/5)*xi2 - n^2*alpha*f",
        "(2/7 - n)*xi2 + (n^2 + 1/4*n)*theta + 3",
        "n*xi2 + 1/6*xi1 + Lambda",
        "theta^2 - 5/4*alpha^2*theta",
        "-3/2*xi2 + 2*alpha",  # a constant xi2 coefficient meets a rational normal form
    )
]
# a scalar second factor: an int, a Fraction, and scalars that are not constant
Q_SCALARS = [3, Fraction(-3, 4), QRING.parse("n^2 - 1/5").constant_coefficient(), QRING.parameter("n")]
Q_WEIGHTS = [1, Fraction(-2, 3), Fraction(7, 5), Fraction(5, 4), -2]
EVERY_PAIR = [
    (Q_WEIGHTS[i % len(Q_WEIGHTS)], x, y)
    for i, (x, y) in enumerate((x, y) for x in Q_ELEMENTS for y in Q_ELEMENTS + Q_SCALARS)
]


@example(pairs=EVERY_PAIR)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(Q_WEIGHTS), st.sampled_from(Q_ELEMENTS), st.sampled_from(Q_ELEMENTS + Q_SCALARS)),
        max_size=6,
    )
)
def test_sum_of_products_matches_the_fold_with_a_rational_rule(pairs):
    assert QRING.parse("xi2^2") == QRING.parse("-3/2*alpha^3*f")
    expected = QRING.zero()
    for w, x, y in pairs:
        term = x * y * w
        single = QRING.sum_of_products([(w, x, y)])
        assert single == term and hash(single) == hash(term)
        _assert_lowest_terms(single)
        expected = expected + term
    got = QRING.sum_of_products(pairs)
    assert got == expected and hash(got) == hash(expected)
    _assert_lowest_terms(got)
    # a full cancellation is the zero element, with no stored coefficient
    cancelled = QRING.sum_of_products(pairs + [(-w, x, y) for w, x, y in pairs])
    assert cancelled == QRING.zero()
    assert not cancelled.items()
