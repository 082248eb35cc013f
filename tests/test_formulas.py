from fractions import Fraction

import pytest

from maxsub.formulas import (
    hirschowitz_smax,
    m1_closed,
    m2,
    m2_closed,
    quot_dim,
    s_invariant,
    stratum_dim,
)
from maxsub.pipeline import count_maximal_subbundles

from helpers import g2_preset, vafa_intriligator_rank2


def test_s_invariant():
    assert s_invariant(4, 4, 2, 1) == 4  # equals n'(n-n')(g-1) at genus 2
    assert s_invariant(2, 0, 1, 0) == 0
    assert s_invariant(6, 7, 3, 2) == 9
    with pytest.raises(ValueError):
        s_invariant(4, 4, 4, 1)
    with pytest.raises(ValueError):
        s_invariant(4, 4, 0, 1)


def test_hirschowitz_smax():
    # rank 2, odd degree, genus 2: base 1, no correction needed
    for d in (1, 3, -5):
        assert hirschowitz_smax(2, 1, d, 2) == 1
    assert hirschowitz_smax(4, 2, 4, 2) == 4
    with pytest.raises(ValueError):
        hirschowitz_smax(4, 2, 4, 1)


def test_hirschowitz_smax_sweep():
    for n in range(2, 9):
        for n_sub in range(1, n):
            for g in range(2, 6):
                base = n_sub * (n - n_sub) * (g - 1)
                for d in range(n):
                    s = hirschowitz_smax(n, n_sub, d, g)
                    assert base <= s <= base + n - 1
                    assert (s - n_sub * d) % n == 0
                    assert s <= n_sub * (n - n_sub) * g


def test_stratum_dim():
    assert stratum_dim(2, 1, 3, 2, 1) == 5  # = n^2 (g-1) + 1, the full moduli dimension
    assert stratum_dim(4, 2, 4, 2, 4) == 17
    with pytest.raises(ValueError) as err:
        stratum_dim(4, 2, 4, 2, 3)  # wrong congruence
    assert "empty stratum" in str(err.value)
    with pytest.raises(ValueError):
        stratum_dim(4, 2, 4, 2, 0)  # s must be positive
    with pytest.raises(ValueError, match="genus must be at least 2, got 1"):
        stratum_dim(2, 1, 3, 1, 1)


def test_quot_dim():
    assert quot_dim(2, 1, 2, 1, 2) == 0  # full-rank full-degree subsheaf
    assert quot_dim(1, 0, 2, 1, 2) == 0
    assert quot_dim(1, 1, 2, 1, 2) == -2
    with pytest.raises(ValueError):
        quot_dim(3, 0, 2, 1, 2)
    with pytest.raises(ValueError):
        quot_dim(0, 0, 2, 1, 2)


def test_m1_closed():
    assert m1_closed(2, 2) == 4
    assert m1_closed(1, 5) == 1
    assert m1_closed(3, 4) == 81
    with pytest.raises(ValueError):
        m1_closed(0, 2)
    with pytest.raises(ValueError):
        m1_closed(2, 1)


def test_m2_closed_values():
    assert m2_closed(4).value == 24
    assert m2_closed(4).admissible
    assert m2_closed(6).value == 171
    assert m2_closed(2).value == 1
    assert not m2_closed(2).admissible
    assert not m2_closed(5).admissible
    assert str(m2_closed(4)) == "24"
    assert "inadmissible" in str(m2_closed(2))


def test_m2_closed_integer_for_all_even_ranks():
    for k in range(2, 201, 2):
        value = m2_closed(k).value
        assert value.denominator == 1 and value > 0


def test_m2_closed_is_exact_rational():
    assert m2_closed(3).value == Fraction(27 * 11, 48)


def test_vafa_intriligator_rank2_matches_m2_and_the_count():
    # an exact oracle that shares nothing with the ring kernel: the residue
    # sum at genus 2 against the closed form and the pipeline's polynomial
    preset = g2_preset()
    count = count_maximal_subbundles(preset)
    admissible = [n for n in range(2, 41) if preset.is_admissible(n)]
    assert admissible == list(range(4, 41, 2))
    for n in admissible:
        value = vafa_intriligator_rank2(n, 2)
        assert value == m2(n) == count.specialize(n), n


def test_vafa_intriligator_rank2_genus_3():
    # beyond the paper's g = 2: the values the Thaddeus-based probe of
    # ROADMAP item 11 computed independently
    assert [vafa_intriligator_rank2(n, 3) for n in (4, 6, 8)] == [224, 7155, 89088]
