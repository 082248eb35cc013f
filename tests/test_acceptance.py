"""Acceptance suite: one test per criterion, all exact (tolerance zero).

A summary hook in conftest.py prints one PASS/FAIL line per criterion at
the end of the pytest run.
"""

from fractions import Fraction

from maxsub.cli import run
from maxsub.formulas import m1_closed, m2_closed
from maxsub.pipeline import count_maximal_subbundles, load_preset

import test_chern
import test_properties
from helpers import PRESET_FILES, character_difference, g2_preset, jacobian_preset, upstairs_character

PRESET = g2_preset()
RING = PRESET.ring
N = RING.parameter("n")


def test_criterion_1_closed_form_count(capsys):
    """The rank-2 genus-2 count and its intermediate integral, exactly."""
    result = count_maximal_subbundles(PRESET)
    assert result.count == N**5 / 48 + N**3 / 24
    assert result.count == (N**3 * (N**2 + 2)) / 48
    assert result.integral == N**5 / 3 + N**3 * Fraction(2, 3)
    assert run(["count", "--preset", "g2-rank2"]) == 0
    assert capsys.readouterr().out == "m_2 = (1/48)*n^5 + (1/24)*n^3\n"


def test_criterion_2_symbolic_intermediates():
    """Seven golden assertions on the intermediate characters and classes."""
    # 1. the line bundle character
    ch_l = PRESET.chern_l.character(1)
    assert ch_l.rank == 1 and ch_l.part(1) == RING.parse("xi1")
    assert ch_l.part(2) == RING.parse("-theta*f")
    assert all(ch_l.part(k).is_zero for k in (3, 4, 5))
    # 2. the rank-2 universal bundle character
    ch_u = PRESET.chern_u.character(2)
    assert ch_u.rank == 2
    assert ch_u.part(1) == RING.parse("alpha + f")
    assert ch_u.part(2) == RING.parse("-xi2")
    assert ch_u.part(3) == RING.parse("-1/12*alpha^3 - 1/4*alpha^2*f")
    assert ch_u.part(4).is_zero and ch_u.part(5).is_zero
    # 3. the upstairs five-bracket expansion
    up = upstairs_character(PRESET)
    assert up.rank == 2 * N
    assert up.part(1) == RING.parse("(4*n - 4)*f - n*alpha - 2*n*xi1")
    assert up.part(2) == RING.parse("(-(5/2*n - 2)*alpha - 2*n*theta)*f + n*alpha*xi1 - n*xi2")
    assert up.part(3) == RING.parse("(1/4*n*alpha^2 + n*Lambda + n*alpha*theta)*f + 1/12*n*alpha^3")
    assert up.part(4) == RING.parse("(5/24*n - 1/6)*alpha^3*f - 1/12*n*alpha^3*xi1")
    assert up.part(5) == RING.parse("-1/12*n*alpha^3*theta*f")
    # 4. the sections sheaf character
    e = count_maximal_subbundles(PRESET).sections
    assert e.rank == 4 * N - 4
    assert e.part(1) == RING.parse("-(5/2*n - 2)*alpha - 2*n*theta")
    assert e.part(2) == RING.parse("1/4*n*alpha^2 + n*Lambda + n*alpha*theta")
    assert e.part(3) == RING.parse("(5/24*n - 1/6)*alpha^3")
    assert e.part(4) == RING.parse("-1/12*n*alpha^3*theta")
    assert e.part(5).is_zero
    # 5. the evaluation sheaf character
    f = count_maximal_subbundles(PRESET).evaluation
    assert f.rank == 4 * N
    assert f.part(1) == RING.parse("-2*n*alpha")
    assert f.part(3) == RING.parse("1/6*n*alpha^3")
    assert f.part(2).is_zero and f.part(4).is_zero and f.part(5).is_zero
    # 6. the virtual difference
    diff = character_difference(f, e)
    assert diff.rank == 4
    assert diff.part(1) == RING.parse("(1/2*n - 2)*alpha + 2*n*theta")
    assert diff.part(2) == RING.parse("-1/4*n*alpha^2 - n*Lambda - n*alpha*theta")
    assert diff.part(3) == RING.parse("(1/6 - 1/24*n)*alpha^3")
    assert diff.part(4) == RING.parse("1/12*n*alpha^3*theta")
    assert diff.part(5).is_zero
    # 7. the top Chern class
    c5 = diff.total_class().component(5)
    assert c5 == RING.parse("(1/24*n^5 - 5/12*n^3)*alpha^3*theta^2 + n^3*theta*Lambda^2")


def test_criterion_3_line_subbundle_counts():
    """The rank-1 preset reproduces n^g at genus 2..5; the theta numbers
    it rests on are declared in the preset files as classical input."""
    for g in (2, 3, 4, 5):
        preset = jacobian_preset(g)
        result = count_maximal_subbundles(preset)
        assert result.count == preset.rank_symbol**g
        if g >= 3:
            text = (PRESET_FILES / f"jacobian-g{g}.ring").read_text()
            assert "classical" in text


def test_criterion_4_intersection_numbers():
    assert RING.parse("alpha^3*theta^2").integrate() == 8
    assert RING.parse("theta*Lambda^2").integrate() == 4


def test_criterion_5_property_suites():
    """Each suite runs at the hypothesis profile of 200 random cases."""
    # ring axioms
    test_properties.test_mul_commutative()
    test_properties.test_mul_associative()
    test_properties.test_mul_distributes()
    test_properties.test_one_is_a_unit()
    # normal-form idempotence and reduction-order independence
    test_properties.test_normal_form_idempotent()
    test_properties.test_reduction_order_independence()
    # character/class roundtrips
    test_chern.test_roundtrip_class_to_character()
    test_chern.test_roundtrip_character_to_class()
    # multiplicativity (the degeneracy-count consistency)
    test_chern.test_class_multiplicativity()
    # projection formula
    test_properties.test_projection_formula()
    # dual involution
    test_chern.test_dual_involution()


def test_criterion_6_rank_identity():
    for name, genus in (("g2-rank2", None), ("jacobian", 2), ("jacobian", 3), ("jacobian", 5)):
        result = count_maximal_subbundles(load_preset(name, genus=genus))
        preset, e, f = result.preset, result.sections, result.evaluation
        assert e.rank == f.rank - preset.subbundle_rank**2 * (preset.genus - 1)


def test_criterion_7_integrality_sweep():
    for k in range(2, 201, 2):
        value = m2_closed(k).value
        assert value.denominator == 1 and value > 0
    result = count_maximal_subbundles(PRESET)
    for k in range(4, 41, 2):
        assert result.specialize(k) == m2_closed(k).value


def test_criterion_8_formula_calculators():
    from maxsub.formulas import hirschowitz_smax, stratum_dim

    for n in range(2, 9):
        for n_sub in range(1, n):
            for g in range(2, 6):
                base = n_sub * (n - n_sub) * (g - 1)
                for d in range(n):
                    s = hirschowitz_smax(n, n_sub, d, g)
                    assert base <= s <= base + n - 1
                    assert (s - n_sub * d) % n == 0
                    assert s <= n_sub * (n - n_sub) * g
    for d in (1, 3, 5, -7):
        assert stratum_dim(2, 1, d, 2, 1) == 5
    # the jacobian preset cross-check of the classical count
    for g in (2, 3, 4, 5):
        count = count_maximal_subbundles(jacobian_preset(g)).count
        for k in range(2, 11):
            assert count.evaluate(k) == m1_closed(k, g)
