"""Load-time rewriting checks: lex orientation and critical pairs, judged
against the exhaustive monomial-by-monomial joiner in ``helpers``."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsub import load_preset
from maxsub.errors import PresentationError
from maxsub.gradedring import RewriteRule, RingPresentation, load_presentation

from helpers import UncheckedRing, exhaustive_confluence_failure, g2_ring, jacobian_preset

GENERATORS = (("x", 2), ("y", 2), ("z", 2))


def test_exhaustive_oracle_accepts_g2():
    assert exhaustive_confluence_failure(g2_ring()) is None


@pytest.mark.parametrize("genus", range(2, 13))
def test_exhaustive_oracle_accepts_jacobian(genus):
    assert exhaustive_confluence_failure(jacobian_preset(genus).ring) is None


def test_exhaustive_oracle_rejects_what_load_rejects():
    text = "generators: x=2, y=2, z=2\nrules: x^2 -> y^2\nrules: x*y -> 0\ntop_degree: 6\n"
    with pytest.raises(PresentationError, match="not locally confluent on x\\^2\\*y"):
        load_presentation(text)
    ring = UncheckedRing(GENERATORS, rules=_rules([((2, 0, 0), {(0, 2, 0): 1}), ((1, 1, 0), {})]), top_degree=6)
    assert "not locally confluent on x^2*y" in exhaustive_confluence_failure(ring)


def test_unorientable_rules_are_named():
    text = "generators: x=2, y=2\nrules: x^2 -> y^2\nrules: y^2 -> x^2 + 2*x*y\ntop_degree: 4\n"
    with pytest.raises(PresentationError) as err:
        load_presentation(text)
    message = str(err.value)
    assert "may not terminate" in message
    assert "x^2 -> y^2" in message
    assert "y^2 -> x^2 + 2*x*y" in message


def test_terminating_rules_without_lex_order_are_rejected():
    # Both rules go down under the weights x=1, y=1.4, z=2 (3 > 2.8 and
    # 4.2 > 4), so rewriting terminates; but lex needs x or z above y for
    # the first rule and y above both for the second.
    text = "generators: x=2, y=2, z=2\nrules: x*z -> y^2\nrules: y^3 -> x^2*z\ntop_degree: 6\n"
    with pytest.raises(PresentationError, match="may not terminate"):
        load_presentation(text)


def test_loading_enumerates_no_monomials(monkeypatch):
    def refuse(self, bound):
        raise AssertionError("ring loading enumerated monomials")

    monkeypatch.setattr(RingPresentation, "monomials_up_to", refuse)
    preset = load_preset("jacobian", genus=60)
    assert preset.ring.top_degree == 120


# -- random small systems --------------------------------------------------------


def _rules(specs):
    return [
        RewriteRule(lhs, tuple((mono, c) for mono, c in rhs.items() if c))
        for lhs, rhs in specs
    ]


@st.composite
def small_systems(draw):
    """Homogeneous systems on three degree-2 generators: up to three rules
    with up to two right-hand terms each, up to two zero monomials."""

    def monomial(size):
        a = draw(st.integers(0, size))
        b = draw(st.integers(0, size - a))
        return (a, b, size - a - b)

    specs = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, 3))
        rhs = {monomial(size): draw(st.integers(-2, 2)) for _ in range(draw(st.integers(0, 2)))}
        specs.append((monomial(size), rhs))
    zeros = [monomial(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2)))]
    return _rules(specs), zeros, draw(st.sampled_from([2, 4, 6, 8]))


def _lex_orientable(rules):
    return any(
        all(
            tuple(rule.lhs[v] for v in order) > tuple(mono[v] for v in order)
            for rule in rules
            for mono, _ in rule.rhs
        )
        for order in permutations(range(len(GENERATORS)))
    )


@settings(max_examples=150)
@given(small_systems())
def test_critical_pairs_agree_with_exhaustive_oracle(system):
    rules, zeros, top_degree = system
    args = dict(generators=GENERATORS, rules=rules, zeros=zeros, top_degree=top_degree)
    try:
        RingPresentation(**args)
        error = None
    except PresentationError as exc:
        error = str(exc)
    if not _lex_orientable(rules):
        assert error is not None and "may not terminate" in error
        return
    failure = exhaustive_confluence_failure(UncheckedRing(**args))
    if failure is None:
        assert error is None
    else:
        assert error is not None and "confluent" in error
