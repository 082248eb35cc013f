"""Closed-form numeric invariants of vector bundles on curves.

Stability degrees, the generic maximum of the minimal subbundle invariant,
stratum and Quot-scheme dimensions, and the two known counts of maximal
subbundles, used as oracles against the symbolic pipeline.
"""

from __future__ import annotations

from fractions import Fraction


def _check_subrank(n: int, n_sub: int):
    if not 1 <= n_sub <= n - 1:
        raise ValueError(f"subbundle rank must satisfy 1 <= n' <= n-1, got n'={n_sub}, n={n}")


def s_invariant(n: int, d: int, n_sub: int, d_sub: int) -> int:
    """s(E, E') = n'd - nd' for a rank-n' degree-d' subbundle."""
    _check_subrank(n, n_sub)
    return n_sub * d - n * d_sub


def hirschowitz_smax(n: int, n_sub: int, d: int, g: int) -> int:
    """The maximal value of the minimal subbundle invariant:
    n'(n-n')(g-1) + e with 0 <= e <= n-1 the unique residue correction
    making the result congruent to n'd mod n."""
    _check_subrank(n, n_sub)
    if g < 2:
        raise ValueError(f"genus must be at least 2, got {g}")
    base = n_sub * (n - n_sub) * (g - 1)
    epsilon = (n_sub * d - base) % n
    return base + epsilon


def stratum_dim(n: int, n_sub: int, d: int, g: int, s: int) -> int:
    """Dimension (n^2 - n'(n-n'))(g-1) + s + 1 of the locus of stable
    bundles with minimal invariant exactly s."""
    _check_subrank(n, n_sub)
    if g < 2:
        raise ValueError(f"genus must be at least 2, got {g}")
    if s <= 0 or (s - n_sub * d) % n != 0:
        raise ValueError(
            f"empty stratum: s={s} must be positive and congruent to n'd = {n_sub * d} mod n = {n}"
        )
    return (n * n - n_sub * (n - n_sub)) * (g - 1) + s + 1


def quot_dim(rank_sub: int, deg_sub: int, rank: int, deg: int, g: int) -> int:
    """Expected dimension of the space of rank/degree-fixed subsheaves of a
    general bundle of the given rank and degree; negative values signal
    emptiness for general bundles."""
    if not 1 <= rank_sub <= rank:
        raise ValueError(f"subsheaf rank must satisfy 1 <= r <= {rank}, got {rank_sub}")
    return rank_sub * deg - rank * deg_sub - rank_sub * (rank - rank_sub) * (g - 1)


def m1(n, g: int):
    """n^g, the count of maximal line subbundles, for an int or a symbolic rank n."""
    return n**g


def m2(n):
    """n^3 (n^2 + 2) / 48, the genus-2 count of maximal rank-2 subbundles,
    for an int or a symbolic rank n."""
    return Fraction(1, 48) * n**3 * (n * n + 2)


def m1_closed(n: int, g: int) -> int:
    """The classical count of maximal line subbundles: n^g."""
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if g < 2:
        raise ValueError(f"genus must be at least 2, got {g}")
    return m1(n, g)


class ClosedCount:
    """An exact count plus whether the hypotheses for exact counting hold."""

    __slots__ = ("value", "admissible", "note")

    def __init__(self, value: Fraction, admissible: bool, note: str | None = None):
        self.value = value
        self.admissible = admissible
        self.note = note

    def __str__(self):
        if self.admissible:
            return str(self.value)
        return f"{self.value} (inadmissible: {self.note})"


def m2_closed(n: int) -> ClosedCount:
    """The genus-2 count of maximal rank-2 subbundles: n^3 (n^2 + 2) / 48.

    Evaluates for any n so sweeps can cross-check the symbolic pipeline;
    outside the admissible range (even n >= 4) the value is flagged rather
    than rejected.  The induced degree d = 3n/2 - 2 gives 2d + 4 = 3n, so
    the degree congruence holds for every even n.
    """
    value = m2(n)
    if n < 4 or n % 2:
        return ClosedCount(value, False, "requires even n >= 4")
    return ClosedCount(value, True)
