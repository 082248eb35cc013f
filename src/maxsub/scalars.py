"""Exact scalars: sparse polynomials in declared formal parameters.

These are the coefficients of every cohomology class in the kernel.  All
arithmetic is exact rational arithmetic; division is only ever by an
explicit nonzero rational, so values stay inside Q[parameters] and no
floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

Rational = Union[int, Fraction]
Exponents = Tuple[int, ...]


def as_fraction(value: Rational) -> Fraction:
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
    """Polynomial in formal parameters with Fraction coefficients.

    Stored sparsely as a map from parameter-exponent vectors to nonzero
    rationals.  Instances are immutable; all operations return new values.
    """

    __slots__ = ("params", "_terms")

    def __init__(
        self,
        params: Iterable[str],
        terms: Mapping[Exponents, Rational] | None = None,
    ):
        self.params: Tuple[str, ...] = tuple(params)
        clean: dict[Exponents, Fraction] = {}
        if terms:
            width = len(self.params)
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != width:
                    raise ValueError("exponent vector does not match the parameter list")
                if any(e < 0 for e in expo):
                    raise ValueError("parameter exponents must be nonnegative")
                coeff = as_fraction(coeff)
                if coeff:
                    clean[expo] = coeff
        self._terms = clean

    @classmethod
    def constant(cls, value: Rational, params: Iterable[str] = ()) -> "ParamScalar":
        params = tuple(params)
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def variable(cls, name: str, params: Iterable[str]) -> "ParamScalar":
        params = tuple(params)
        expo = tuple(1 if p == name else 0 for p in params)
        if sum(expo) != 1:
            raise ValueError(f"{name!r} is not among the declared parameters {params}")
        return cls(params, {expo: 1})

    # -- views ------------------------------------------------------------

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return next(iter(self._terms.values()))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def evaluate(self, assignment: Mapping[str, Rational]) -> Fraction:
        """Specialize every parameter to an exact rational."""
        values = [as_fraction(assignment[p]) for p in self.params]
        total = Fraction(0)
        for expo, coeff in self._terms.items():
            term = coeff
            for value, e in zip(values, expo):
                if e:
                    term *= value**e
            total += term
        return total

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "ParamScalar | None":
        if isinstance(other, ParamScalar):
            if other.params == self.params:
                return other
            if not other.params:
                return ParamScalar.constant(other.constant_value(), self.params)
            if not self.params:
                return None  # handled by reflected op on the wider side
            raise ValueError("scalars over different parameter lists")
        if isinstance(other, (int, Fraction)):
            return ParamScalar.constant(other, self.params)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for expo, coeff in other._terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return ParamScalar(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar(self.params, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return ParamScalar(self.params, terms)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational):
        divisor = as_fraction(other)
        if not divisor:
            raise ZeroDivisionError("division of a scalar by zero")
        return ParamScalar(self.params, {e: c / divisor for e, c in self._terms.items()})

    def __pow__(self, exponent: int):
        return power(self, exponent, ParamScalar.constant(1, self.params))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if isinstance(other, ParamScalar):
            if other.params != self.params:
                if self.is_constant and other.is_constant:
                    return self.constant_value() == other.constant_value()
                return False
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.params, frozenset(self._terms.items())))

    # -- printing ---------------------------------------------------------

    def _sorted_terms(self):
        return sorted(
            self._terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    def _monomial_str(self, expo: Exponents) -> str:
        parts = []
        for name, e in zip(self.params, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def _term_pieces(self):
        """Yield (negative, text) for each term in canonical order."""
        for expo, coeff in self._sorted_terms():
            mono = self._monomial_str(expo)
            mag = abs(coeff)
            if not mono:
                yield coeff < 0, str(mag)
            elif mag == 1:
                yield coeff < 0, mono
            elif mag.denominator == 1:
                yield coeff < 0, f"{mag}*{mono}"
            else:
                yield coeff < 0, f"({mag})*{mono}"

    def __str__(self) -> str:
        pieces = list(self._term_pieces())
        if not pieces:
            return "0"
        out = []
        for i, (negative, text) in enumerate(pieces):
            if i == 0:
                out.append(f"-{text}" if negative else text)
            else:
                out.append(f" - {text}" if negative else f" + {text}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"ParamScalar({str(self)!r})"
