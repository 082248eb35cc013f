from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxsub.chern import ChernCharacter
from maxsub.gradedring import load_presentation
from maxsub.scalars import ParamScalar, _add_product

from helpers import ReferenceScalar, g2_ring, total_degree


def n():
    return ParamScalar.variable("n", ("n",))


def test_zero_coefficients_are_pruned():
    s = ParamScalar(("n",), {1: 0, 0: 3})
    assert list(s.items()) == [(0, Fraction(3))]


def test_width_mismatch_rejected():
    # exponents are nonnegative ints, 0 alone with no parameter, and a scalar
    # has at most one parameter
    for params, terms in [(("n",), {(1,): 1}), (("n",), {-1: 1}), ((), {1: 1}), (("n", "m"), {0: 1})]:
        with pytest.raises(ValueError):
            ParamScalar(params, terms)


def test_exact_arithmetic():
    x = n()
    assert (x / 3) * 3 == x
    assert (x + 1) * (x - 1) == x**2 - 1
    assert x**0 == 1
    assert (x * Fraction(5, 24)) * Fraction(24, 5) == x


def test_power_matches_repeated_multiplication():
    x = n()
    for base in (x + 1, x * Fraction(2, 3) - x**2, ParamScalar(("n",)), ParamScalar.constant(-1, ("n",))):
        expected = ParamScalar.constant(1, ("n",))
        for k in range(21):
            assert base**k == expected, (base, k)
            expected = expected * base
    with pytest.raises(ValueError):
        x**-1


def test_division_only_by_nonzero_rationals():
    with pytest.raises(ZeroDivisionError):
        n() / 0
    assert n() / Fraction(2, 3) == n() * Fraction(3, 2)


def test_mixed_ops_with_ints_and_fractions():
    x = n()
    assert 2 + x - 2 == x
    assert 3 * x == x + x + x
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x


def test_mismatched_parameter_lists_rejected():
    x = n()
    y = ParamScalar.variable("m", ("m",))
    with pytest.raises(ValueError):
        x + y
    # bare constants embed into any parameter list
    assert x + ParamScalar.constant(1) == x + 1


# -- one conversion rule at every entry point ------------------------------------

RING = g2_ring()
ALPHA = RING.generator("alpha")
#: a constant and a non-constant scalar, both over a parameter list the ring does not use
OTHER_CONSTANT = ParamScalar.constant(Fraction(3, 2), ("m",))
OTHER_VARIABLE = ParamScalar.variable("m", ("m",))
#: entry point -> (how a scalar goes through it, the result for OTHER_CONSTANT)
CONVERSIONS = {
    "ParamScalar +": (lambda s: n() + s, n() + Fraction(3, 2)),
    "GradedElement +": (lambda s: ALPHA + s, RING.parse("alpha + 3/2")),
    "GradedElement *": (lambda s: ALPHA * s, RING.parse("3/2*alpha")),
    "ring.scalar": (RING.scalar, RING.parse("3/2")),
    "ChernCharacter rank": (lambda s: ChernCharacter(RING, s).rank, RING.parse("3/2").constant_coefficient()),
}


@pytest.mark.parametrize("entry", CONVERSIONS)
def test_conversion_rule(entry):
    """A constant over another parameter list converts; a non-constant one
    is a ValueError, wherever a coefficient enters."""
    convert, expected = CONVERSIONS[entry]
    converted = convert(OTHER_CONSTANT)
    assert converted == expected
    coeffs = [converted] if isinstance(converted, ParamScalar) else [c for _, c in converted.items()]
    assert {c.params for c in coeffs} == {("n",)}
    with pytest.raises(ValueError):
        convert(OTHER_VARIABLE)


def test_evaluate():
    x = n()
    d = x * Fraction(3, 2) - 2
    assert d.evaluate({"n": 4}) == 4
    count = x**5 / 48 + x**3 / 24
    assert count.evaluate({"n": 4}) == 24
    assert count.evaluate({"n": 6}) == 171


def test_constants():
    assert ParamScalar.constant(0, ("n",)).is_zero
    assert not n().is_constant
    assert (n() - n()).constant_value() == 0
    with pytest.raises(ValueError):
        n().constant_value()


def test_total_degree():
    x = n()
    assert total_degree(x**5 + x) == 5
    assert total_degree(ParamScalar(("n",))) == 0


def test_canonical_printing():
    x = n()
    assert str(ParamScalar(("n",))) == "0"
    assert str(x**2) == "n^2"
    assert str(x**5 / 48 + x**3 / 24) == "(1/48)*n^5 + (1/24)*n^3"
    assert str(x * Fraction(3, 2) - 2) == "(3/2)*n - 2"
    assert str(-x) == "-n"
    assert str(2 * x**3 - Fraction(1, 2)) == "2*n^3 - 1/2"


def test_equality_against_rationals():
    assert ParamScalar.constant(3, ("n",)) == 3
    assert ParamScalar.constant(Fraction(1, 2), ("n",)) == Fraction(1, 2)
    assert n() != 1


def test_equality_across_parameter_lists():
    # a constant is the same number over any parameter list; a polynomial is not
    over_n, over_m = ParamScalar.constant(Fraction(3, 2), ("n",)), ParamScalar.constant(Fraction(3, 2), ("m",))
    assert over_n == over_m and hash(over_n) == hash(over_m)
    assert ParamScalar.constant(1, ("n",)) != ParamScalar.constant(2, ("m",))
    assert n() != ParamScalar.variable("m", ("m",))
    assert n() != ParamScalar.constant(1, ("m",))
    assert ParamScalar.constant(1, ("m",)) != n()


# -- against the Fraction-dict reference ---------------------------------------

PARAM_LISTS = ((), ("n",))
rationals_st = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))


def exponents_st(params):
    return st.integers(0, 3 if params else 0)


@st.composite
def polynomial_pairs_st(draw, params):
    """The same random polynomial as a ParamScalar and as a ReferenceScalar,
    whose exponents are vectors: ``(e,)``, or ``()`` with no parameter."""
    terms = draw(st.dictionaries(exponents_st(params), rationals_st, max_size=4))
    return ParamScalar(params, terms), ReferenceScalar(params, {(e,)[: len(params)]: c for e, c in terms.items()})


def assert_agrees(fast, ref):
    assert {(e,)[: len(fast.params)]: c for e, c in fast.items()} == dict(ref.items())
    assert all(type(c) is Fraction for _, c in fast.items())
    assert str(fast) == str(ref)
    assert fast.evaluate({"n": Fraction(3, 2), "m": -2}) == ref.evaluate({"n": Fraction(3, 2), "m": -2})
    # lowest terms: integer numerators, none zero, over a positive denominator
    assert fast._den > 0 and gcd(fast._den, *fast._num.values()) == 1
    assert all(type(c) is int and c for c in fast._num.values())


@pytest.mark.parametrize("params", PARAM_LISTS)
@given(data=st.data())
def test_arithmetic_matches_reference(params, data):
    (a, ra), (b, rb) = data.draw(polynomial_pairs_st(params)), data.draw(polynomial_pairs_st(params))
    q = data.draw(rationals_st.filter(bool))
    k = data.draw(st.integers(0, 6))
    assert_agrees(a, ra)
    for fast, ref in (
        (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
        (a / q, ra / q), (a / q.numerator, ra / q.numerator), (a**k, ra**k),
        (a + q, ra + q), (q - a, ReferenceScalar.constant(q, params) - ra),
        (q * a, ra * q), (a * q.numerator, ra * q.numerator), (a * 0, ra * 0),
    ):
        assert_agrees(fast, ref)
    assert (a == b) == (ra == rb)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a - a).is_zero and a / q * q == a
    if a.is_constant:
        assert a == a.constant_value() and hash(a) == hash(ra) == hash(a.constant_value())


@pytest.mark.parametrize("params", PARAM_LISTS)
@given(data=st.data(), k=st.sampled_from([-3, 0, 1, 7]), cancel=st.booleans())
def test_add_product_adds_k_p_q_in_place(params, data, k, cancel):
    # numerator maps are the integer polynomials; the expected sum is built
    # term by term with ParamScalar addition, which multiplies no maps
    maps = st.dictionaries(exponents_st(params), st.integers(-9, 9).filter(bool), max_size=4)
    p, q, r = data.draw(maps), data.draw(maps), data.draw(maps)
    product_terms = ParamScalar(params)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            product_terms = product_terms + ParamScalar(params, {e1 + e2: c1 * c2})
    target = ParamScalar(params, r)
    if cancel:  # every entry that only k*p*q reaches cancels to 0
        target = target - product_terms * k
    out = dict(target._num)
    assert target._den == 1
    before = dict(out)
    assert _add_product(out, p, q, k) is out
    assert before.keys() <= out.keys() and all(type(c) is int for c in out.values())
    assert ParamScalar(params, out) == target + product_terms * k
    if cancel:
        assert {e: c for e, c in out.items() if c} == ParamScalar(params, r)._num


# a point ring over n: its elements are scalars, so the ring's sum of
# products is the scalar kernel that multiplies coefficient numerators
SCALAR_RING = load_presentation("params: n\ngenerators:\ntop_degree: 0\nintegrals: 1 = 1\n")


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_sum_of_products_matches_the_fold(size):
    params = SCALAR_RING.params
    n = SCALAR_RING.parameter("n")
    pool = [n + Fraction(1, 2), n**2 - n * Fraction(2, 3), ParamScalar.constant(Fraction(-3, 4), params), n**3 - Fraction(1, 5)]
    weights = [1, Fraction(-2, 3), Fraction(7, 5)]
    products = []
    expected = ParamScalar(params)
    for i, factors in enumerate(product(pool, repeat=size)):
        weight = weights[i % 3]
        term = ParamScalar.constant(weight, params)
        for f in factors:
            term = term * f
        expected = expected + term
        # the last factor is an element on even i and a bare scalar on odd i
        head = ParamScalar.constant(1, params)
        for f in factors[:-1]:
            head = head * f
        last = SCALAR_RING.scalar(factors[-1]) if i % 2 == 0 else factors[-1]
        products.append((weight, SCALAR_RING.scalar(head), last))
        single = SCALAR_RING.sum_of_products([products[-1]]).constant_coefficient()
        assert single == term and hash(single) == hash(term)
    got = SCALAR_RING.sum_of_products(products).constant_coefficient()
    assert got == expected and hash(got) == hash(expected)
    assert got._den > 0 and gcd(got._den, *got._num.values()) == 1


ASSIGNMENTS = (
    {"n": 0, "m": 0},
    {"n": -3, "m": Fraction(5, 7)},
    {"n": Fraction(-7, 5), "m": 1},
    {"n": Fraction(1, 3), "m": Fraction(-2, 9)},
)


@pytest.mark.parametrize("params", PARAM_LISTS)
@given(data=st.data())
def test_evaluate_matches_reference(params, data):
    # evaluate works in integers over one common denominator; the reference
    # sums Fraction terms
    a, ra = data.draw(polynomial_pairs_st(params))
    for assignment in ASSIGNMENTS:
        value = a.evaluate(assignment)
        assert type(value) is Fraction and value == ra.evaluate(assignment)
