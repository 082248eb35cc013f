"""Exception types shared across the kernel and the CLI."""


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
