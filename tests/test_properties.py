"""Law-level checks on random inputs: ring axioms, normal-form behaviour,
and the geometric compatibilities the pipeline relies on."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxsub import load_preset
from maxsub.gradedring import GradedElement
from maxsub.scalars import ParamScalar

from helpers import (
    BASIS_RINGS,
    base_elements_st,
    elements_st,
    g2_ring,
    jacobian_preset,
    raw_terms_st,
    reduce_in_random_order,
    reference_normalizer,
    reference_weight,
    scalars_st,
)

RING = g2_ring()


@given(raw_terms_st(RING))
def test_normal_form_idempotent(raw):
    once = GradedElement(RING, RING._normalize(raw))
    twice = GradedElement(RING, RING._normalize(dict(once.items())))
    assert once == twice


@given(raw_terms_st(RING), st.integers(0, 2**32))
def test_reduction_order_independence(raw, seed):
    engine = dict(GradedElement(RING, RING._normalize(raw)).items())
    for i in range(10):
        rng = random.Random(seed + i)
        assert reduce_in_random_order(RING, raw, rng) == engine


@given(elements_st(RING), elements_st(RING))
def test_mul_commutative(x, y):
    assert x * y == y * x


@given(elements_st(RING, max_terms=2), elements_st(RING, max_terms=2), elements_st(RING, max_terms=2))
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements_st(RING), elements_st(RING), elements_st(RING))
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(elements_st(RING))
def test_one_is_a_unit(x):
    assert RING.one() * x == x
    assert x * RING.one() == x
    assert (x + RING.zero()) == x
    assert (x - x).is_zero


def _grading(mono):
    """(degree, base degree): the degree minus the fiber weight."""
    return RING.degree(mono), RING.degree(mono) - reference_weight(RING, mono)


@given(elements_st(RING), elements_st(RING))
def test_degree_homogeneity_of_products(x, y):
    # degree and base degree add; a product of base degree above the top is 0
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            part = GradedElement(RING, {m1: c1}) * GradedElement(RING, {m2: c2})
            grading = tuple(a + b for a, b in zip(_grading(m1), _grading(m2)))
            if grading[1] > RING.top_degree:
                assert part.is_zero
            else:
                assert {_grading(m) for m, _ in part.items()} <= {grading}


@given(elements_st(RING), base_elements_st(RING))
def test_projection_formula(x, y):
    assert (x * y).pushforward_fiber() == x.pushforward_fiber() * y


@pytest.mark.parametrize("x, y", [("-2*theta*Lambda*f", "Lambda"), ("-2*alpha^2*theta^2*f", "alpha")])
def test_projection_formula_above_the_top_degree(x, y):
    # x*y has degree top_degree + 2: fiber-bearing, so it survives
    x, y = RING.parse(x), RING.parse(y)
    assert (x * y).pushforward_fiber() == x.pushforward_fiber() * y
    assert not (x * y).pushforward_fiber().is_zero


def _ring_and_basis(genus):
    """The ring of g2-rank2 (genus None) or of the jacobian preset, and its
    normal-form basis monomials of degree up to ``top_degree + 2``."""
    ring = RING if genus is None else jacobian_preset(genus).ring
    one = ParamScalar.constant(1)
    basis = [
        GradedElement(ring, {mono: one})
        for mono in ring.monomials_up_to(ring.top_degree + 2)
        if ring._normalize({mono: one}) == {mono: one}
    ]
    return ring, basis


@BASIS_RINGS
def test_projection_formula_on_the_basis(genus):
    # pi_*(x*y) = pi_*(x)*y for every basis monomial x and base generator y
    # gives it for all x and base y: both sides are linear in x and
    # multiplicative in y
    ring, basis = _ring_and_basis(genus)
    units = [tuple(int(j == i) for j in range(ring.ngens)) for i in range(ring.ngens)]
    base = [ring.generator(name) for name, unit in zip(ring.generator_names, units) if not reference_weight(ring, unit)]
    failures = [(str(x), str(y)) for x in basis for y in base if (x * y).pushforward_fiber() != x.pushforward_fiber() * y]
    assert failures == []


@BASIS_RINGS
def test_fiber_pushforward_inverts_the_fiber_on_the_basis(genus):
    # pi_*(m*f) = m for every weight-0 basis monomial m: the law that turns
    # the count's Riemann-Roch factor into a relabelling, pi_*(X*(a + b*f))
    # = a*pi_*(X) + b*X|pt
    ring, basis = _ring_and_basis(genus)
    fiber = ring.generator(ring.generator_names[ring.fiber_index])
    base = [m for m in basis if not any(reference_weight(ring, mono) for mono, _ in m.items())]
    assert base
    failures = [str(m) for m in base if (m * fiber).pushforward_fiber() != m]
    assert failures == []


@BASIS_RINGS
def test_restriction_is_a_ring_map_on_the_basis(genus):
    # (x*y)|pt = x|pt * y|pt for every pair of basis monomials gives it for
    # all x and y, as both sides are bilinear.  The count's evaluation sheaf
    # restricts the one product ch(U*) ch(L*) rather than multiplying the
    # restricted factors, which is this law
    _, basis = _ring_and_basis(genus)
    restricted = [x.restrict_to_point() for x in basis]
    failures = [
        (str(x), str(y))
        for x, x_pt in zip(basis, restricted)
        for y, y_pt in zip(basis, restricted)
        if (x * y).restrict_to_point() != x_pt * y_pt
    ]
    assert failures == []


@BASIS_RINGS
def test_monomial_normal_forms_match_the_exhaustive_reference(genus):
    # every monomial up to the max degree goes through the miss path of a
    # freshly loaded ring, from an empty cache, so each is matched against
    # the ring's compiled reducer supports at least once
    ring = load_preset("g2-rank2" if genus is None else "jacobian", genus=genus).ring
    reference, _ = reference_normalizer(ring)
    failures = []
    for mono in ring.monomials_up_to(ring.max_degree):
        ring._nf_cache.clear()
        if ring._monomial_nf(mono) != reference(mono):
            failures.append(ring.monomial_str(mono))
    assert failures == []


@given(scalars_st(RING), scalars_st(RING), base_elements_st(RING), base_elements_st(RING))
def test_integration_linearity(lam, mu, x, y):
    lhs = (x * lam + y * mu).integrate()
    assert lhs == lam * x.integrate() + mu * y.integrate()


@given(elements_st(RING))
def test_parse_print_roundtrip(x):
    assert RING.parse(str(x)) == x


@given(elements_st(RING))
def test_restriction_is_a_projection(x):
    once = x.restrict_to_point()
    assert once.restrict_to_point() == once


@given(base_elements_st(RING), base_elements_st(RING))
def test_restriction_is_multiplicative_on_base(x, y):
    # base classes are fixed, so restriction respects their products
    assert (x * y).restrict_to_point() == x.restrict_to_point() * y.restrict_to_point()
