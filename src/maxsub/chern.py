"""Chern character and total Chern class calculus over a presented ring.

The two presentations of a bundle's characteristic data are converted in
both directions through the Newton power-sum recursion, exact in the
rationals, so they are mutually inverse at any fixed rank, including
virtual (negative or symbolic) ranks.  Both recursions and the graded
product run up to half the ring's ``max_degree``, the largest degree a
nonzero element can have (on curve x base, the base's top degree plus the
fiber's 2); everything above vanishes.  When no component of their inputs
carries fiber weight they stop at half the base's ``top_degree`` instead: a
product of weight-0 terms has weight 0, so every component above truncates.
A Newton recursion also ends once a step is more than ``max(given)`` past
its last nonzero output (x_0 = 1 counting as output 0): every product of a
step reads some x_(k-i) with i <= ``max(given)``, and from there on all of
them are zero.  So ``1 + f`` or ``1 + xi1`` takes a few steps at any genus.

Both kinds of object store only their nonzero components, keyed by ``k``
in increasing order, and every recursion and product runs over those keys
alone: a line bundle's class ``1 + c_1`` costs one component at any genus.
Each step of either recursion and each component of a graded product is
one call of :meth:`~maxsub.gradedring.RingPresentation.sum_of_products`, which
multiplies the coefficients' integer numerators as it reads each monomial
pair and reduces each output coefficient once.  Every linear factor rides on
that call's weights: the factorials and signs of the Newton recursions (no
power sum p_k = k! ch_k is formed, and nothing is divided by k! after), and
the signs of a product of duals.
The public constructors check that each component is homogeneous of
degree ``2k`` in the right ring, and sort the keys.  Results computed here
are homogeneous with keys increasing by construction, and go through the
trusted :func:`_character` and :func:`_class`, which only drop zero parts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .gradedring import GradedElement, RingPresentation
from .scalars import ParamScalar

Components = dict  # {k: nonzero GradedElement of degree 2k}, keys increasing


def _checked(ring: RingPresentation, parts, what: str) -> Components:
    """Components from outside: a sequence ``ch_1, ch_2, ...`` or a mapping
    ``{k: ch_k}``, each in ``ring`` and homogeneous of degree ``2k``."""
    items = parts.items() if isinstance(parts, Mapping) else enumerate(parts, start=1)
    out = {}
    for k, part in items:
        if k < 1:
            raise ValueError(f"{what} components are numbered from 1, got {k}")
        if part.ring is not ring:
            raise ValueError(f"{what} component {k} belongs to a different presentation")
        if any(d != 2 * k for d in part.degrees()):
            raise ValueError(f"{what} component {k} is not homogeneous of degree {2 * k}")
        out[k] = part
    return _nonzero({k: out[k] for k in sorted(out)})


def _nonzero(parts: Components) -> Components:
    """The nonzero components, in the given order."""
    return {k: p for k, p in parts.items() if p._terms}


def _character(ring: RingPresentation, rank: ParamScalar, parts: Components) -> "ChernCharacter":
    """Trusted constructor: ``parts`` are homogeneous and in ``ring``."""
    ch = object.__new__(ChernCharacter)
    ch.ring, ch.rank, ch._parts = ring, rank, _nonzero(parts)
    return ch


def _class(ring: RingPresentation, parts: Components) -> "TotalChernClass":
    """Trusted constructor: ``parts`` are homogeneous and in ``ring``."""
    c = object.__new__(TotalChernClass)
    c.ring, c._parts = ring, _nonzero(parts)
    return c


class _Ratio:
    """A weight of the ring's sum of products, left unreduced: the kernel
    reads only its integer ``numerator`` and ``denominator``, and reduces
    each output coefficient once.  :func:`_newton` sets both slots on a bare
    instance, with no ``__init__`` call per weight."""

    __slots__ = ("numerator", "denominator")


def _newton(ring: RingPresentation, given: Components, to_character: bool) -> Components:
    """Components x_1, x_2, ... of a Newton recursion over the nonzero
    components g_i of ``given``, with x_0 = 1; each step with a term is one
    call of the ring's sum of products, whose weights carry every factorial
    and sign, and a step without one is skipped.  The recursion ends once
    step k is more than max(given) past the last nonzero output: no step
    from there on has a product.

    To a class (``given`` a character, x = c): k c_k is the sum of
    (-1)^(i-1) p_i c_(k-i) over i <= k, with p_i = i! ch_i; the weight of
    ch_i c_(k-i) is (-1)^(i-1) i!/k.  To a character (``given`` a class,
    x = ch): p_k = c_1 p_(k-1) - c_2 p_(k-2) + ... +- k c_k with
    ch_k = p_k / k!; the weight of c_i ch_(k-i) is (-1)^(i-1) (k-i)!/k!,
    and that of c_k is (-1)^(k-1) k/k!.
    """
    out: Components = {}
    factorial = [1]
    new, sum_of_products = object.__new__, ring.sum_of_products
    reach, last = max(given, default=0), 0  # last: the last nonzero output, x_0 = 1 counting
    for k in range(1, _bound(ring, given) + 1):
        if k - last > reach:
            break  # every x_(k-i) with i <= reach is zero, now and at every later step
        factorial.append(factorial[-1] * k)
        pairs = []
        for i, g in given.items():
            if i > k:
                break
            x = 1 if i == k else out.get(k - i)
            if x is not None:
                sign = 1 if i % 2 else -1
                weight = new(_Ratio)
                if to_character:
                    weight.numerator, weight.denominator = sign * (k if i == k else factorial[k - i]), factorial[k]
                else:
                    weight.numerator, weight.denominator = sign * factorial[i], k
                pairs.append((weight, g, x))
        if pairs:
            acc = sum_of_products(pairs)
            if acc._terms:
                out[k], last = acc, k
    return out


def _bound(ring: RingPresentation, *inputs: Components) -> int:
    """The last component a recursion or product over ``inputs`` can make
    nonzero: half the base's ``top_degree`` when no term of a component
    carries fiber weight, else half the ring's ``max_degree``.  Each call
    reads the terms up to the first that carries it."""
    for parts in inputs:
        for x in parts.values():
            if any(map(ring.weight, x._terms)):
                return ring.max_degree // 2
    return ring.top_degree // 2


def _graded_product(ring: RingPresentation, a0, a: Components, b0, b: Components, dual: bool = False) -> Components:
    """Components k >= 1 of (a0 + a_1 + a_2 + ...) * (b0 + b_1 + b_2 + ...) for
    scalars a0, b0 and a_k, b_k of degree 2k, truncated at :func:`_bound`;
    only the keys present in ``a`` and ``b`` are visited, and each component
    is one call of the ring's sum of products.  With ``dual`` component k
    carries the weight (-1)^k, which makes it the product of the duals."""
    count = _bound(ring, a, b)
    signs = (1, -1) if dual else (1, 1)
    pairs: dict = {k: [] for k in range(1, count + 1)}
    for i, x in a.items():
        pairs[i].append((signs[i & 1], x, b0))
        for j, y in b.items():
            if i + j > count:
                break
            pairs[i + j].append((signs[(i + j) & 1], x, y))
    for j, y in b.items():
        pairs[j].append((signs[j & 1], y, a0))
    sum_of_products = ring.sum_of_products
    return {k: sum_of_products(terms) for k, terms in pairs.items() if terms}


class _SparseGraded:
    """Shared views of the nonzero components ``_parts``."""

    __slots__ = ()

    @property
    def parts(self) -> tuple:
        """Dense read-only view of the base's components 1..top_degree/2,
        zeros included; a fiber-bearing component above is in :meth:`items`."""
        zero = self.ring.zero()
        return tuple(self._parts.get(k, zero) for k in range(1, self.ring.top_degree // 2 + 1))

    def items(self):
        """The nonzero components as ``(k, component)``, k increasing."""
        return self._parts.items()

    def _get(self, k: int) -> GradedElement:
        part = self._parts.get(k)
        return self.ring.zero() if part is None else part

    def _body(self) -> str:
        return " + ".join(f"[{p}]" for p in self._parts.values())


class ChernCharacter(_SparseGraded):
    """Rank plus graded components ch_1..ch_top, each homogeneous; only the
    nonzero ones are stored."""

    __slots__ = ("ring", "rank", "_parts")

    def __init__(self, ring: RingPresentation, rank, parts: Sequence[GradedElement] | Mapping[int, GradedElement] = ()):
        self.ring = ring
        self.rank = ring.coefficient(rank)
        self._parts = _checked(ring, parts, "character")

    def part(self, k: int) -> GradedElement:
        """Component ch_k for k >= 1 (the rank is ch_0)."""
        if k < 1:
            raise IndexError("use .rank for ch_0")
        return self._get(k)

    def dual(self) -> "ChernCharacter":
        """Character of the dual bundle: ch_k -> (-1)^k ch_k.  An involution."""
        parts = {k: p if k % 2 == 0 else -p for k, p in self._parts.items()}
        return _character(self.ring, self.rank, parts)

    def tensor(self, *others: "ChernCharacter") -> "ChernCharacter":
        """Graded product of total characters; the rank multiplies."""
        result = self
        for other in others:
            if result.ring is not other.ring:
                raise ValueError("characters belong to different presentations")
            parts = _graded_product(result.ring, result.rank, result._parts, other.rank, other._parts)
            result = _character(result.ring, result.rank * other.rank, parts)
        return result

    def total_class(self) -> "TotalChernClass":
        """Invert the Newton recursion: k c_k = sum_i (-1)^(i-1) c_(k-i) p_i
        with the power sums p_i = i! ch_i, over the nonzero ch_i only; the
        factor i!/k rides on each product's weight (:func:`_newton`).

        Multiplicative over sums of characters, which is exactly the
        consistency c(A) * c(B - A) = c(B) behind the degeneracy-locus count.
        """
        return _class(self.ring, _newton(self.ring, self._parts, to_character=False))

    def __eq__(self, other):
        if isinstance(other, ChernCharacter):
            return self.ring is other.ring and self.rank == other.rank and self._parts == other._parts
        return NotImplemented

    def __repr__(self):
        body = self._body()
        return f"ChernCharacter({self.rank}{' + ' + body if body else ''})"


class TotalChernClass(_SparseGraded):
    """Total Chern class 1 + c_1 + ... + c_top with homogeneous components;
    only the nonzero ones are stored."""

    __slots__ = ("ring", "_parts")

    def __init__(self, ring: RingPresentation, parts: Sequence[GradedElement] | Mapping[int, GradedElement] = ()):
        self.ring = ring
        self._parts = _checked(ring, parts, "Chern class")

    @classmethod
    def from_total_element(cls, ring: RingPresentation, total: GradedElement) -> "TotalChernClass":
        """Split an inhomogeneous element 1 + c_1 + ... into components."""
        if total.constant_coefficient() != 1:
            raise ValueError("a total Chern class must have constant term 1")
        terms: dict = {}
        for mono, coeff in total.items():
            k = ring.degree(mono) // 2  # generators have even degree
            if k:
                terms.setdefault(k, {})[mono] = coeff
        return _class(ring, {k: GradedElement(ring, terms[k]) for k in sorted(terms)})

    def component(self, k: int) -> GradedElement:
        return self.ring.one() if k == 0 else self._get(k)

    def top(self) -> GradedElement:
        """The top-degree component c_{topDegree/2} (the Porteous class)."""
        return self.component(self.ring.top_degree // 2)

    def __mul__(self, other: "TotalChernClass") -> "TotalChernClass":
        if self.ring is not other.ring:
            raise ValueError("Chern classes belong to different presentations")
        return _class(self.ring, _graded_product(self.ring, 1, self._parts, 1, other._parts))

    def character(self, rank) -> ChernCharacter:
        """Newton recursion: p_k = c_1 p_(k-1) - c_2 p_(k-2) + ... +- k c_k
        over the nonzero c_i and p_(k-i) only, with ch_k = p_k / k! and ch_0
        the given rank; it runs on ch directly, the factorials riding on
        each product's weight (:func:`_newton`)."""
        ring = self.ring
        return _character(ring, ring.coefficient(rank), _newton(ring, self._parts, to_character=True))

    def __eq__(self, other):
        if isinstance(other, TotalChernClass):
            return self.ring is other.ring and self._parts == other._parts
        return NotImplemented

    def __repr__(self):
        body = self._body()
        return f"TotalChernClass(1{' + ' + body if body else ''})"
