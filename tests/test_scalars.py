from fractions import Fraction
from importlib.resources import files
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxsub.chern import ChernCharacter, TotalChernClass
from maxsub.errors import PresentationError, UnknownGeneratorError
from maxsub.gradedring import load_presentation
from maxsub.scalars import ParamScalar, _add_product

from helpers import ReferenceScalar, g2_ring, total_degree


def n():
    return ParamScalar({1: 1})


def test_zero_coefficients_are_pruned():
    s = ParamScalar({1: 0, 0: 3})
    assert list(s.items()) == [(0, Fraction(3))]


def test_width_mismatch_rejected():
    # exponents of n are nonnegative ints, and coefficients exact rationals
    for terms, error in [({(1,): 1}, ValueError), ({-1: 1}, ValueError), ({1.0: 1}, ValueError), ({1: 0.5}, TypeError)]:
        with pytest.raises(error):
            ParamScalar(terms)


def test_exact_arithmetic():
    x = n()
    assert (x / 3) * 3 == x
    assert (x + 1) * (x - 1) == x**2 - 1
    assert x**0 == 1
    assert (x * Fraction(5, 24)) * Fraction(24, 5) == x


def test_power_matches_repeated_multiplication():
    x = n()
    for base in (x + 1, x * Fraction(2, 3) - x**2, ParamScalar(), ParamScalar.constant(-1)):
        expected = ParamScalar.constant(1)
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


# -- one conversion rule at every entry point ------------------------------------

#: g2-rank2's ring without its parameter: a coefficient with a power of n may not enter it
RING = load_presentation(files("maxsub").joinpath("presets", "g2-rank2.ring").read_text().replace("params: n\n", ""))
ALPHA = RING.generator("alpha")
CONSTANT = ParamScalar.constant(Fraction(3, 2))
#: entry point -> (how a scalar goes through it, the result for CONSTANT)
CONVERSIONS = {
    "GradedElement +": (lambda s: ALPHA + s, RING.parse("alpha + 3/2")),
    "GradedElement *": (lambda s: ALPHA * s, RING.parse("3/2*alpha")),
    "ring.scalar": (RING.scalar, RING.parse("3/2")),
    "sum_of_products y": (lambda s: RING.sum_of_products([(1, ALPHA, s)]), RING.parse("3/2*alpha")),
    "ChernCharacter rank": (lambda s: ChernCharacter(RING, s).rank, CONSTANT),
    "TotalChernClass.character rank": (lambda s: TotalChernClass(RING).character(s).rank, CONSTANT),
}


@pytest.mark.parametrize("entry", CONVERSIONS)
def test_conversion_rule(entry):
    """In a ring with no parameter a constant scalar converts, and n is a
    ValueError, wherever a coefficient enters."""
    convert, expected = CONVERSIONS[entry]
    assert convert(CONSTANT) == expected
    for scalar in (n(), CONSTANT - n() ** 2):
        with pytest.raises(ValueError, match="uses 'n', which this ring does not declare"):
            convert(scalar)


def test_mismatched_parameter_lists_rejected():
    # a ring's only parameter is n: a file declaring another is refused, and
    # in a ring that declares none, n is an unknown name
    with pytest.raises(PresentationError, match="^a ring's only parameter is the rank 'n', got 't'$"):
        load_presentation("params: t\ngenerators: x=2\ntop_degree: 2\n")
    for reach_n in (lambda: RING.parse("n*alpha"), lambda: RING.parameter("n")):
        with pytest.raises(UnknownGeneratorError):
            reach_n()


def test_equality_across_parameter_lists():
    # a scalar carries no parameter list: a constant read in a ring without n
    # equals, and hashes as, the same constant read in a ring with n
    with_n = g2_ring().parse("3/2 + alpha").constant_coefficient()
    without_n = RING.parse("3/2 + alpha").constant_coefficient()
    assert with_n == without_n and hash(with_n) == hash(without_n)
    assert g2_ring().parse("3/2*n").constant_coefficient() != without_n


def test_evaluate():
    x = n()
    d = x * Fraction(3, 2) - 2
    assert d.evaluate(4) == 4
    count = x**5 / 48 + x**3 / 24
    assert count.evaluate(4) == 24
    assert count.evaluate(6) == 171


def test_constants():
    assert ParamScalar.constant(0).is_zero
    assert not n().is_constant
    assert (n() - n()).constant_value() == 0
    with pytest.raises(ValueError):
        n().constant_value()


def test_total_degree():
    x = n()
    assert total_degree(x**5 + x) == 5
    assert total_degree(ParamScalar()) == 0


def test_canonical_printing():
    x = n()
    assert str(ParamScalar()) == "0"
    assert str(x**2) == "n^2"
    assert str(x**5 / 48 + x**3 / 24) == "(1/48)*n^5 + (1/24)*n^3"
    assert str(x * Fraction(3, 2) - 2) == "(3/2)*n - 2"
    assert str(-x) == "-n"
    assert str(2 * x**3 - Fraction(1, 2)) == "2*n^3 - 1/2"


def test_equality_against_rationals():
    assert ParamScalar.constant(3) == 3
    assert ParamScalar.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(ParamScalar.constant(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert n() != 1
    assert n() != ParamScalar.constant(1)


# -- against the Fraction-dict reference ---------------------------------------

#: the parameters a drawn scalar uses: none (a constant), or n
PARAM_LISTS = ((), ("n",))
rationals_st = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))


def exponents_in(params):
    return st.integers(0, 3 if params else 0)


@st.composite
def polynomial_pairs_st(draw, params):
    """The same random polynomial as a ParamScalar and as a ReferenceScalar
    over ``params``, whose exponents are vectors: ``(e,)``, or ``()`` for a
    constant."""
    terms = draw(st.dictionaries(exponents_in(params), rationals_st, max_size=4))
    return ParamScalar(terms), ReferenceScalar(params, {(e,)[: len(params)]: c for e, c in terms.items()})


def assert_agrees(fast, ref):
    assert {(e,)[: len(ref.params)]: c for e, c in fast.items()} == dict(ref.items())
    assert all(type(c) is Fraction for _, c in fast.items())
    assert str(fast) == str(ref)
    assert fast.evaluate(Fraction(3, 2)) == ref.evaluate({"n": Fraction(3, 2)})
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
    maps = st.dictionaries(exponents_in(params), st.integers(-9, 9).filter(bool), max_size=4)
    p, q, r = data.draw(maps), data.draw(maps), data.draw(maps)
    product_terms = ParamScalar()
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            product_terms = product_terms + ParamScalar({e1 + e2: c1 * c2})
    target = ParamScalar(r)
    if cancel:  # every entry that only k*p*q reaches cancels to 0
        target = target - product_terms * k
    out = dict(target._num)
    assert target._den == 1
    before = dict(out)
    assert _add_product(out, p, q, k) is out
    assert before.keys() <= out.keys() and all(type(c) is int for c in out.values())
    assert ParamScalar(out) == target + product_terms * k
    if cancel:
        assert {e: c for e, c in out.items() if c} == ParamScalar(r)._num


# a point ring over n: its elements are scalars, so the ring's sum of
# products is the scalar kernel that multiplies coefficient numerators
SCALAR_RING = load_presentation("params: n\ngenerators:\ntop_degree: 0\nintegrals: 1 = 1\n")


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_sum_of_products_matches_the_fold(size):
    n = SCALAR_RING.parameter("n")
    pool = [n + Fraction(1, 2), n**2 - n * Fraction(2, 3), ParamScalar.constant(Fraction(-3, 4)), n**3 - Fraction(1, 5)]
    weights = [1, Fraction(-2, 3), Fraction(7, 5)]
    products = []
    expected = ParamScalar()
    for i, factors in enumerate(product(pool, repeat=size)):
        weight = weights[i % 3]
        term = ParamScalar.constant(weight)
        for f in factors:
            term = term * f
        expected = expected + term
        # the last factor is an element on even i and a bare scalar on odd i
        head = ParamScalar.constant(1)
        for f in factors[:-1]:
            head = head * f
        last = SCALAR_RING.scalar(factors[-1]) if i % 2 == 0 else factors[-1]
        products.append((weight, SCALAR_RING.scalar(head), last))
        single = SCALAR_RING.sum_of_products([products[-1]]).constant_coefficient()
        assert single == term and hash(single) == hash(term)
    got = SCALAR_RING.sum_of_products(products).constant_coefficient()
    assert got == expected and hash(got) == hash(expected)
    assert got._den > 0 and gcd(got._den, *got._num.values()) == 1


@pytest.mark.parametrize("params", PARAM_LISTS)
@given(data=st.data())
def test_evaluate_matches_reference(params, data):
    # evaluate works in integers over one common denominator; the reference
    # sums Fraction terms
    a, ra = data.draw(polynomial_pairs_st(params))
    for rank in (0, -3, Fraction(-7, 5), Fraction(1, 3)):
        value = a.evaluate(rank)
        assert type(value) is Fraction and value == ra.evaluate({"n": rank})
