"""Expressions evaluated in the ring, truncating after every product,
against the reference that expands them as free polynomials first."""

import time
from importlib import resources
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxsub import gradedring
from maxsub.cli import run
from maxsub.errors import PresentationError, UnknownGeneratorError
from maxsub.gradedring import GradedElement, load_presentation
from maxsub.parsing import Name
from maxsub.scalars import ParamScalar

from helpers import expanded_parse, expanded_terms, g2_ring, jacobian_preset, within

G2_RING = str(resources.files("maxsub").joinpath("presets", "g2-rank2.ring"))
RINGS = {"g2-rank2": g2_ring, "jacobian-g3": lambda: jacobian_preset(3).ring}
# a top degree so high that no power up to 40 truncates, so the binomial
# sum of a power with a constant coefficient runs to its last term
HIGH_RING = """params: n
generators: theta=2, xi1=2, f=2
rules: xi1^2 -> -2*theta*f
fiber: f
fiber_supported: xi1
top_degree: 1000000
"""
# the rings of the ring-arith benchmark, and one where no power truncates
POWER_RINGS = {
    **RINGS,
    "jacobian-g12": lambda: jacobian_preset(12).ring,
    "top-degree-1000000": lambda: load_presentation(HIGH_RING),
}


def rationals_st():
    return st.one_of(
        st.integers(0, 6).map(str),
        st.tuples(st.integers(0, 6), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )


@st.composite
def expressions_st(draw, ring, depth=3):
    """Small expression texts: sums, differences, products, signs, powers
    up to 6, over the ring's generators, its parameter ``n`` and rationals;
    rationals alone where it names none.  Bounded depth keeps the reference
    expansion small."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        names = ring.generator_names + ring.params
        return draw(st.one_of(st.sampled_from(names), rationals_st()) if names else rationals_st())
    kind = draw(st.sampled_from(["+", "-", "*", "neg", "^"]))
    inner = draw(expressions_st(ring, depth - 1))
    if kind == "neg":
        return f"-({inner})"
    if kind == "^":
        return f"({inner})^{draw(st.integers(0, 6))}"
    return f"({inner}) {kind} ({draw(expressions_st(ring, depth - 1))})"


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@given(data=st.data())
def test_parse_matches_expand_then_reduce(ring_name, data):
    ring = RINGS[ring_name]()
    text = data.draw(expressions_st(ring), label="text")
    assert ring.parse(text) == expanded_parse(ring, text)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize(
    "text",
    [
        "(theta + xi1 + f)^6",
        "xi1^2 + 2*theta*f",
        "(1 + theta)^7*(1 - xi1)^3",
        "0*theta + n*f",
        "-(n*theta - 1/2*xi1)^2*(3/4 + f)",
        "(theta - theta)^0 + theta^0",
        "(2*theta)^3 - 8*theta^3",
        "xi1*xi1*(theta + f)^5",
        "theta*theta*theta*theta*(1 + n*xi1)",
        "((1 + f)^2)^3 - (1 + f)^6",
    ],
)
def test_parse_matches_expand_then_reduce_examples(ring_name, text):
    ring = RINGS[ring_name]()
    assert ring.parse(text) == expanded_parse(ring, text)


G2_RULE = "rules: xi1^2 -> -2*theta*f"
# monomials of g2-rank2 of fiber weight above 2 or base degree above 10
TRUNCATING = ["f^2", "xi1*f", "xi1^2*xi2", "theta^6", "alpha^3*Lambda^2"]


@st.composite
def rule_tails_st(draw):
    """A tail for the g2 rule ``xi1^2 -> -2*theta*f``: terms that keep its
    degree and weight, terms that truncate, and now and then any expression,
    all over Q as rules are."""
    scalars = SimpleNamespace(generator_names=(), params=())
    ring = SimpleNamespace(generator_names=g2_ring().generator_names, params=())
    tail = f"({draw(expressions_st(scalars))})*alpha*f + ({draw(expressions_st(scalars))})*theta*f"
    tail += f" + ({draw(expressions_st(ring))})*{draw(st.sampled_from(TRUNCATING))}"
    if draw(st.booleans()):
        tail += f" - ({draw(expressions_st(ring, 2))})"
    return tail


@given(tail=rule_tails_st())
def test_rule_reads_as_expand_minus_truncating_terms(tail):
    # the reference: the free polynomial regrouped by monomial, minus the
    # terms that truncate; the ring reads the rule and then checks each term
    ring = g2_ring()
    rhs = f"-2*theta*f + {tail}"
    expected = {m: c for m, c in expanded_terms(ring, rhs).items() if not ring._truncates(m)}
    text = Path(G2_RING).read_text().replace(G2_RULE, f"rules: xi1^2 -> {rhs}")
    lhs = (0, 0, 2, 0, 0, 0)  # xi1^2: no lex order puts it above itself
    if all(ring.degree(m) == 4 and ring.weight(m) == 2 and m != lhs for m in expected):
        assert dict(load_presentation(text).rules[0].rhs) == expected
    else:
        with pytest.raises(PresentationError):
            load_presentation(text)


@pytest.mark.parametrize("ring_name", sorted(POWER_RINGS))
def test_power_matches_repeated_multiplication(ring_name):
    ring = POWER_RINGS[ring_name]()
    bases = (
        "theta", "1 + theta", "xi1 + f", "n*theta - 2*xi1 + 1/3", "0", "1", "1/3", "2*n",
        "-3/2 + xi1 + theta*f", "n + theta", "n^2 - 2*n + xi1 + theta*f",
    )
    for text in bases:
        base = ring.parse(text)
        expected = ring.one()
        for k in range(41):
            assert base**k == expected, (text, k)
            expected = expected * base
    with pytest.raises(ValueError):
        ring.one() ** -1


def test_power_route(monkeypatch):
    # a base with a nonzero constant is expanded by the binomial theorem, however
    # far its sum runs; a base with none is squared and multiplied.  The
    # ring-arith oracle also calls ``**``, so it cannot tell the routes apart.
    # The rings are loaded first, as reading a preset takes powers of its own
    g2, high = g2_ring(), load_presentation("generators: a=2\ntop_degree: 1000000\n")
    squared = []
    real = gradedring.power
    monkeypatch.setattr(gradedring, "power", lambda x, k, one: squared.append(k) or real(x, k, one))
    assert g2.parse("(1 + alpha)^20") == expanded_parse(g2, "(1 + alpha)^20")
    assert squared == []
    assert g2.parse("(alpha + theta)^20") == expanded_parse(g2, "(alpha + theta)^20")
    assert str(high.parse("a^500000")) == "a^500000"
    assert high.parse("(1 + a)^40") == expanded_parse(high, "(1 + a)^40")
    assert squared == [20, 500000]


def test_power_of_one_plus_theta_at_genus_1000_is_its_binomial_sum():
    # theta^1000 is the last nonzero power of theta: 1001 terms, each
    # C(100000, j)*theta^j, where squaring multiplies dense elements
    ring = jacobian_preset(1000).ring
    with within(5):
        power = ring.parse("(1 + theta)^100000")
    assert dict(power.items()) == {(j, 0, 0): ParamScalar.constant(comb(100000, j)) for j in range(1001)}


def test_binomial_weights_step_down_exactly():
    # the weights are C(k, top) stepped down by C(k, j-1) = C(k, j)*j/(k-j+1)
    ring = load_presentation("generators: a=2\ntop_degree: 8000\n")
    with within(10):
        terms = dict(ring.parse("(1 + a)^1000000").items())
    assert len(terms) == 4001
    for j in (0, 1, 2, 3, 1000, 2718, 3999, 4000):
        assert terms[(j,)] == comb(1000000, j), j


# -- n -> k is a ring map: a constant k put in for n before or after --

# generator monomials of g2-rank2, some rewritten by a rule, some truncating in a product
SUBSTITUTION_MONOMIALS = ["alpha", "theta", "xi1", "xi2", "Lambda", "f", "alpha*theta", "xi1*theta", "alpha^2*xi2"]


def n_polynomial_st():
    """A polynomial of degree up to 2 in ``{n}``, a placeholder for n or a constant."""
    coefficients = st.lists(rationals_st(), min_size=1, max_size=3)
    return coefficients.map(lambda cs: " + ".join(f"{c}*{{n}}^{e}" for e, c in enumerate(cs)))


def nilpotent_st():
    """A sum of generator monomials with coefficients in ``{n}``: no constant term."""
    terms = st.lists(st.tuples(n_polynomial_st(), st.sampled_from(SUBSTITUTION_MONOMIALS)), min_size=1, max_size=3)
    return terms.map(lambda ts: " + ".join(f"({c})*{m}" for c, m in ts))


@st.composite
def substitution_expressions_st(draw, depth=2):
    """Sums and products of polynomials in ``{n}``, nilpotent elements, their
    powers, and powers whose constant term is a polynomial in ``{n}``."""
    kind = draw(st.sampled_from(["scalar", "nilpotent", "nilpotent^", "binomial^", "+", "*"][: 6 if depth else 4]))
    if kind == "scalar":
        return draw(n_polynomial_st())
    if kind == "nilpotent":
        return draw(nilpotent_st())
    if kind == "nilpotent^":
        return f"({draw(nilpotent_st())})^{draw(st.integers(0, 8))}"
    if kind == "binomial^":
        return f"({draw(n_polynomial_st())} + {draw(nilpotent_st())})^{draw(st.integers(0, 12))}"
    left, right = draw(substitution_expressions_st(depth - 1)), draw(substitution_expressions_st(depth - 1))
    return f"({left}) {kind} ({right})"


@given(template=substitution_expressions_st(), k=st.integers(-5, 5))
def test_substituting_k_for_n_commutes_with_the_ring(template, k):
    # with n an expression is reduced through the polynomial coefficients, and
    # with (k) through rational ones only: n -> k is a ring map, so the two agree
    ring = g2_ring()
    symbolic = ring.parse(template.format(n="n"))
    substituted = GradedElement(ring, {m: ParamScalar.constant(c.evaluate(k)) for m, c in symbolic.items()})
    assert substituted == ring.parse(template.format(n=f"({k})"))


@pytest.mark.parametrize("text", ["0*foo", "foo - foo", "foo^0", "theta^7*foo", "theta^6*alpha*(foo + 1)"])
def test_unknown_names_raise_even_when_their_terms_vanish(text):
    with pytest.raises(UnknownGeneratorError, match="'foo'"):
        g2_ring().parse(text)


def test_unknown_name_in_vanishing_product_exits_1(capsys):
    assert run(["reduce", "--ring", G2_RING, "0*foo"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: unknown name 'foo': not a generator or parameter of this presentation\n"


def test_zero_product_skips_the_factors_left(monkeypatch):
    ring = g2_ring()
    seen = []
    leaf = ring._leaf
    monkeypatch.setattr(ring, "_leaf", lambda node: seen.append(node) or leaf(node))
    assert ring.parse("theta^6*alpha*xi2*(Lambda + 1)").is_zero
    assert [node.name for node in seen if isinstance(node, Name)] == ["theta"]


@pytest.mark.parametrize("expression", ["alpha^2000000", "*".join(["theta"] * 5000)])
def test_huge_products_reduce_fast(capsys, expression):
    start = time.perf_counter()
    assert run(["reduce", "--ring", G2_RING, expression]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "0\n"
