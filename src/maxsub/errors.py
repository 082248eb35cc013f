"""Exception types shared across the kernel and the CLI, and the one check
that refuses an exact number too long to print before it is computed."""

import sys


class KernelError(Exception):
    """Base class for domain errors raised by the computation kernel."""


class PresentationError(KernelError):
    """The ring presentation is structurally invalid: an inhomogeneous rule,
    rules that no lex order orients (so they may not terminate), a failed
    critical-pair check, or a malformed integral declaration."""


class IncompletePresentationError(KernelError):
    """Integration hit a top-degree normal monomial with no declared value."""


class FiberClassError(KernelError):
    """Integration was applied to a class still carrying the fiber factor."""


class UnknownGeneratorError(KernelError):
    """A name does not resolve to a generator or parameter of the ring."""


class PresetError(KernelError):
    """Counting preset parameters are out of range or inconsistent."""


class ParseError(Exception):
    """Syntax error with position information and an expected-token hint."""

    def __init__(self, message: str, line: int, column: int, expected: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"line {line}, column {column}: {message}{hint}")


def too_many_digits() -> KernelError:
    """The error for an exact result whose digits pass Python's int-to-text
    limit, which keeps printing time bounded."""
    return KernelError(f"the exact result has more than {sys.get_int_max_str_digits()} digits, too many to print")


def check_power_digits(base: int, exponent: int) -> None:
    """Refuse ``base**exponent`` before computing it when its digits would
    pass Python's int-to-text limit: ``|base|^exponent`` has more than
    ``exponent * (bits(|base|) - 1) * log10(2)`` digits, and 30102/10^5 is
    below log10(2).  No bound when the limit is 0 (or, before Python 3.10.7,
    does not exist)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and exponent * (abs(base).bit_length() - 1) * 30102 // 100000 >= limit:
        raise too_many_digits()
