"""Exact scalars: polynomials in the one formal parameter, the rank n.

These are the coefficients of every cohomology class in the kernel.  The
parameter is named :data:`PARAMETER` and is the only one a ring may
declare, so a scalar carries no parameter list: whether one that is not
constant may enter a ring is the ring's rule
(``RingPresentation.coefficient``).  A value is stored as a map from
``int`` exponents of n to integer numerators over one common denominator,
in lowest terms, so arithmetic is integer arithmetic with one gcd per
result, and ``==`` and ``hash`` compare the stored form.  Division is only
ever by an explicit nonzero rational, so values stay inside Q[n] and no
floating point enters anywhere.  The public constructor validates its
input; arithmetic results are built by ``_make``, which trusts its input
and only divides out the common factor.
Every product of numerators, ``*`` here and the ring's one-pass sum of
products (``RingPresentation.sum_of_products``), is ``_add_product``, which
adds ``k*p*q`` into a numerator map in place: ``*`` starts it from an empty
map, and the sum of products adds each term pair straight into its output
coefficient.  Both build their results with ``_make``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

#: The name of the one formal parameter, the rank n.
PARAMETER = "n"


def as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def power(base, exponent: int, one):
    """``base**exponent`` by square and multiply; a zero square ends it, as all
    later powers are zero too.  Values need only ``*`` and ``is_zero``."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponents must be nonnegative integers")
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return one if result is None else result
        base = base * base
        if base.is_zero:
            return base


class ParamScalar:
    """Polynomial in n with rational coefficients.

    Stored sparsely as ``_num``, a map from ``int`` exponents to nonzero
    integers, over one denominator ``_den > 0`` with
    ``gcd(_den, *_num.values()) == 1``.  Instances are immutable; all
    operations return new values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[int, int | Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if not isinstance(expo, int) or expo < 0:
                raise ValueError(f"exponents are nonnegative ints, got {expo!r}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[expo] = coeff
        # the lcm of reduced denominators leaves no factor common to all numerators
        self._den = lcm(*(c.denominator for c in clean.values()))
        self._num = {e: c.numerator * (self._den // c.denominator) for e, c in clean.items()}

    @classmethod
    def constant(cls, value: int | Fraction) -> "ParamScalar":
        value = as_fraction(value)
        return _make({0: value.numerator} if value else {}, value.denominator)

    # -- views ------------------------------------------------------------

    def items(self):
        """(exponent, coefficient) pairs, coefficients as ``Fraction``s."""
        return {e: Fraction(c, self._den) for e, c in self._num.items()}.items()

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def is_constant(self) -> bool:
        return not any(self._num)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return Fraction(self._num.get(0, 0), self._den)

    def constant_term(self) -> int | Fraction:
        """The coefficient of exponent 0; the int 0 when it has none."""
        c = self._num.get(0)
        return 0 if c is None else Fraction(c, self._den)

    def leading_coefficient(self) -> int | Fraction:
        """The coefficient of the top exponent; the int 0 when it has none."""
        return Fraction(self._num[max(self._num)], self._den) if self._num else 0

    def evaluate(self, value: int | Fraction) -> Fraction:
        """Specialize n to an exact rational, in integers: with the value p/q
        and D the top exponent, the sum of c * p^e * q^(D-e) over
        ``_den * q^D`` makes one ``Fraction``."""
        value = as_fraction(value)
        p, q, top = value.numerator, value.denominator, max(self._num, default=0)
        return Fraction(sum(c * p**e * q ** (top - e) for e, c in self._num.items()), self._den * q**top)

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other, sign: int) -> "ParamScalar":
        """``self + sign * other`` over the lcm of the two denominators; a
        foreign ``other`` is left to its reflected operation."""
        if isinstance(other, (int, Fraction)):
            other = ParamScalar.constant(other)
        elif not isinstance(other, ParamScalar):
            return NotImplemented
        d1, d2 = self._den, other._den
        den = d1 // gcd(d1, d2) * d2
        s1, s2 = den // d1, den // d2 * sign
        num = {e: c * s1 for e, c in self._num.items()}
        for e, c in other._num.items():
            num[e] = num.get(e, 0) + c * s2
        return _make({e: c for e, c in num.items() if c}, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # scale the numerators: no constant scalar is built
            num = {e: c * other.numerator for e, c in self._num.items()} if other else {}
            return _make(num, self._den * other.denominator)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        num = _add_product({}, self._num, other._num, 1)
        return _make({e: c for e, c in num.items() if c}, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: int | Fraction):
        divisor = as_fraction(other)
        if not divisor:
            raise ZeroDivisionError("division of a scalar by zero")
        return self * (1 / divisor)

    def __pow__(self, exponent: int):
        return power(self, exponent, ParamScalar.constant(1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if isinstance(other, ParamScalar):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self._den, frozenset(self._num.items())))

    # -- printing ---------------------------------------------------------

    def term_pieces(self):
        """(negative, text) for each term, highest degree first."""
        for expo in sorted(self._num, reverse=True):
            coeff = self._num[expo]
            mag = Fraction(abs(coeff), self._den)
            mono = monomial_text((PARAMETER,), (expo,))
            if mono and mag != 1:
                mono = f"{mag}*{mono}" if mag.denominator == 1 else f"({mag})*{mono}"
            yield coeff < 0, mono or str(mag)

    def __str__(self) -> str:
        return signed_sum(self.term_pieces())

    def __repr__(self) -> str:
        return f"ParamScalar({str(self)!r})"


def monomial_text(names: Sequence[str], expo: Sequence[int]) -> str:
    """``a*b^2`` for the exponents ``expo`` of ``names``; empty for the unit."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, expo) if e)


def signed_sum(pieces: Iterable[tuple[bool, str]]) -> str:
    """Join ``(negative, text)`` pieces as ``a - b + c``; ``0`` when empty."""
    out = []
    for negative, text in pieces:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(text)
    return "".join(out) or "0"


def _make(num: dict[int, int], den: int) -> ParamScalar:
    """Trusted constructor for arithmetic results: ``num`` maps nonnegative
    int exponents to nonzero ints, ``den > 0``; it only divides out the gcd."""
    common = gcd(den, *num.values())
    if common != 1:
        num = {e: c // common for e, c in num.items()}
        den //= common
    out = object.__new__(ParamScalar)
    out._num = num
    out._den = den
    return out


# -- numerator maps: the integer layer of every scalar product --


def _add_product(out: dict, p: dict, q: dict, k: int) -> dict:
    """Add ``k*p*q`` into the numerator map ``out`` in place and return it; a
    numerator that cancels stays, as 0."""
    get = out.get
    for e1, c1 in p.items():
        c1 *= k
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out
