"""Chern character and total Chern class calculus over a presented ring.

The two presentations of a bundle's characteristic data are converted in
both directions through the Newton power-sum recursion with exact division
by factorials, so they are mutually inverse at any fixed rank, including
virtual (negative or symbolic) ranks.  Characters are truncated at half
the ring's top degree; everything above vanishes for dimensional reasons.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .gradedring import GradedElement, RingPresentation
from .scalars import ParamScalar, Rational


def _as_rank(ring: RingPresentation, value) -> ParamScalar:
    if isinstance(value, ParamScalar):
        if value.params == ring.params:
            return value
        return ParamScalar.constant(value.constant_value(), ring.params)
    return ParamScalar.constant(value, ring.params)


def _padded(ring: RingPresentation, parts: Sequence[GradedElement], what: str) -> tuple:
    count = ring.top_degree // 2
    out = []
    for k in range(1, count + 1):
        part = parts[k - 1] if k - 1 < len(parts) else ring.zero()
        if part.ring is not ring:
            raise ValueError(f"{what} component {k} belongs to a different presentation")
        bad = [d for d in part.degrees() if d != 2 * k]
        if bad:
            raise ValueError(f"{what} component {k} is not homogeneous of degree {2 * k}")
        out.append(part)
    return tuple(out)


def _graded_product(ring: RingPresentation, a0, a: Sequence[GradedElement], b0, b: Sequence[GradedElement]) -> list:
    """Components 1..len(a) of (a0 + a_1 + a_2 + ...) * (b0 + b_1 + b_2 + ...) for
    scalars a0, b0 and a_k, b_k of degree 2k, truncated; zero components are skipped."""
    count = len(a)
    parts = [ring.zero()] * count
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        parts[i] = parts[i] + x * b0
        for j, y in enumerate(b[: count - 1 - i]):
            if not y.is_zero:
                parts[i + j + 1] = parts[i + j + 1] + x * y
    for j, y in enumerate(b):
        if not y.is_zero:
            parts[j] = parts[j] + y * a0
    return parts


class ChernCharacter:
    """Rank plus graded components ch_1..ch_top, each homogeneous."""

    __slots__ = ("ring", "rank", "parts")

    def __init__(self, ring: RingPresentation, rank, parts: Sequence[GradedElement] = ()):
        self.ring = ring
        self.rank = _as_rank(ring, rank)
        self.parts = _padded(ring, parts, "character")

    @classmethod
    def constant(cls, ring: RingPresentation, rank) -> "ChernCharacter":
        return cls(ring, rank)

    def part(self, k: int) -> GradedElement:
        """Component ch_k for k >= 1 (the rank is ch_0)."""
        if k < 1:
            raise IndexError("use .rank for ch_0")
        if k > len(self.parts):
            return self.ring.zero()
        return self.parts[k - 1]

    def _check(self, other: "ChernCharacter"):
        if self.ring is not other.ring:
            raise ValueError("characters belong to different presentations")

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        self._check(other)
        return ChernCharacter(
            self.ring, self.rank + other.rank,
            [a + b for a, b in zip(self.parts, other.parts)],
        )

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        self._check(other)
        return ChernCharacter(
            self.ring, self.rank - other.rank,
            [a - b for a, b in zip(self.parts, other.parts)],
        )

    def __neg__(self) -> "ChernCharacter":
        return ChernCharacter(self.ring, -self.rank, [-p for p in self.parts])

    def scale(self, value: Rational | ParamScalar) -> "ChernCharacter":
        return ChernCharacter(self.ring, self.rank * value, [p * value for p in self.parts])

    def dual(self) -> "ChernCharacter":
        """Character of the dual bundle: ch_k -> (-1)^k ch_k.  An involution."""
        return ChernCharacter(
            self.ring, self.rank,
            [p if k % 2 == 0 else -p for k, p in enumerate(self.parts, start=1)],
        )

    def tensor(self, *others: "ChernCharacter") -> "ChernCharacter":
        """Graded product of total characters; the rank multiplies."""
        result = self
        for other in others:
            result._check(other)
            parts = _graded_product(result.ring, result.rank, result.parts, other.rank, other.parts)
            result = ChernCharacter(result.ring, result.rank * other.rank, parts)
        return result

    def total_class(self) -> "TotalChernClass":
        """Invert the Newton recursion: c_k from the power sums p_k = k! ch_k.

        Multiplicative over sums of characters, which is exactly the
        consistency c(A) * c(B - A) = c(B) behind the degeneracy-locus count.
        """
        ring = self.ring
        count = len(self.parts)
        p = [ring.zero()] + [self.parts[k - 1] * factorial(k) for k in range(1, count + 1)]
        c: list[GradedElement] = [ring.one()]
        for k in range(1, count + 1):
            acc = p[k]
            for i in range(1, k):
                acc = acc - c[i] * p[k - i] * ((-1) ** (i - 1))
            c.append(acc * Fraction((-1) ** (k - 1), k))
        return TotalChernClass(ring, c[1:])

    def __eq__(self, other):
        if isinstance(other, ChernCharacter):
            return self.ring is other.ring and self.rank == other.rank and self.parts == other.parts
        return NotImplemented

    def __repr__(self):
        parts = " + ".join(f"[{p}]" for p in self.parts if not p.is_zero)
        return f"ChernCharacter({self.rank}{' + ' + parts if parts else ''})"


class TotalChernClass:
    """Total Chern class 1 + c_1 + ... + c_top with homogeneous components."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: RingPresentation, parts: Sequence[GradedElement] = ()):
        self.ring = ring
        self.parts = _padded(ring, parts, "Chern class")

    @classmethod
    def from_total_element(cls, ring: RingPresentation, total: GradedElement) -> "TotalChernClass":
        """Split an inhomogeneous element 1 + c_1 + ... into components."""
        if total.constant_coefficient() != 1:
            raise ValueError("a total Chern class must have constant term 1")
        count = ring.top_degree // 2
        return cls(ring, [total.homogeneous_component(2 * k) for k in range(1, count + 1)])

    def component(self, k: int) -> GradedElement:
        if k == 0:
            return self.ring.one()
        if k > len(self.parts):
            return self.ring.zero()
        return self.parts[k - 1]

    def top(self) -> GradedElement:
        """The top-degree component c_{topDegree/2} (the Porteous class)."""
        return self.component(self.ring.top_degree // 2)

    def total_element(self) -> GradedElement:
        total = self.ring.one()
        for p in self.parts:
            total = total + p
        return total

    def __mul__(self, other: "TotalChernClass") -> "TotalChernClass":
        if self.ring is not other.ring:
            raise ValueError("Chern classes belong to different presentations")
        return TotalChernClass(self.ring, _graded_product(self.ring, 1, self.parts, 1, other.parts))

    def character(self, rank) -> ChernCharacter:
        """Newton recursion: p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... +- k c_k,
        then ch_k = p_k / k! and ch_0 is the given rank."""
        ring = self.ring
        count = len(self.parts)
        p: list[GradedElement] = [ring.zero()]
        for k in range(1, count + 1):
            acc = self.component(k) * ((-1) ** (k - 1) * k)
            for i in range(1, k):
                term = self.component(i) * p[k - i]
                acc = acc + term * ((-1) ** (i - 1))
            p.append(acc)
        parts = [p[k] / factorial(k) for k in range(1, count + 1)]
        return ChernCharacter(ring, rank, parts)

    def __eq__(self, other):
        if isinstance(other, TotalChernClass):
            return self.ring is other.ring and self.parts == other.parts
        return NotImplemented

    def __repr__(self):
        parts = " + ".join(f"[{p}]" for p in self.parts if not p.is_zero)
        return f"TotalChernClass(1{' + ' + parts if parts else ''})"
