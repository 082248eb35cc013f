"""Shared text formats: ring expressions and presentation files.

The expression grammar covers rational literals, parameter and generator
names, ``+ - *`` and ``^`` with nonnegative integer exponents, and
parentheses.  ``/`` is allowed only between integer literals, to write
exact rationals such as ``5/24``.  Every number literal is read by one
function, so one longer than Python's int-to-text limit is a
:class:`ParseError` at its position.  :func:`walk` is the one evaluator of
expression trees: a ring evaluates in its elements, a file's rule
right-hand sides included, and :func:`expand` evaluates a file's integral
values as ``ParamScalar`` constants.  A file's rule left-hand sides, zeros
and integral monomials are products of generator powers, read by
:func:`monomial` as exponent vectors with no arithmetic on coefficients.
All of them reject an unknown name first, even in a term that vanishes,
with the one check :func:`check_names`.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Container, Mapping
from fractions import Fraction

from .errors import ParseError, PresentationError, check_power_digits
from .scalars import ParamScalar

# Names and numbers are ASCII only: str.isalpha and str.isdigit also accept
# letters and digits of other scripts, which the grammar does not have.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# The lexical grammar, one group per token kind, tried in order: only "\n" starts
# a line, \s is str.isspace, and ``other`` is a character the grammar lacks.
_TOKEN_RE = re.compile(
    rf"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<num>[0-9]+)|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*^/()])|(?P<other>.)"
)
# Parentheses recurse in the parser and in walk; this bound keeps them far
# from Python's recursion limit, so deep input is a ParseError.
MAX_NESTING = 100


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind  # "num" | "name" | "op" | "end"
        self.value = value
        self.line = line
        self.column = column


def tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    tokens = []
    offset = -column  # a character's column is its position minus ``offset``
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line, offset = line + 1, match.start()
        elif kind == "other":
            raise ParseError(f"unexpected character {match.group()!r}", line, match.start() - offset)
        elif kind != "space":
            tokens.append(Token(kind, match.group(), line, match.start() - offset))
    tokens.append(Token("end", "", line, len(text) - offset))
    return tokens


# -- abstract syntax -------------------------------------------------------

class Num:
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value


class Name:
    __slots__ = ("name", "line", "column")

    def __init__(self, name: str, line: int, column: int):
        self.name = name
        self.line = line
        self.column = column


class Neg:
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class BinOp:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op  # "+", "-", "*"
        self.left = left
        self.right = right


class Pow:
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        self.base = base
        self.exponent = exponent


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected: str | None = None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column, expected)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.value!r}", expected="end of expression")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.advance().value
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.advance()
                node = BinOp("*", node, self.factor())
            elif tok.kind == "op" and tok.value == "/":
                self.fail("'/' is only allowed between integer literals", expected="'*'")
            else:
                return node

    def factor(self):
        negative = False
        while self.peek().kind == "op" and self.peek().value in "+-":
            negative ^= self.advance().value == "-"
        operand = self.power()
        return Neg(operand) if negative else operand

    def integer(self, message: str) -> int:
        """The next token as an int; ``message`` is the error when it is not
        a number literal."""
        tok = self.peek()
        if tok.kind != "num":
            self.fail(message, expected="an integer")
        self.advance()
        return _literal(tok.value, tok.line, tok.column)

    def power(self):
        node = self.atom()
        while self.peek().kind == "op" and self.peek().value == "^":
            self.advance()
            # (x^a)^b is x^(a*b): a chain of powers stays one node
            base, exponent = (node.base, node.exponent) if isinstance(node, Pow) else (node, 1)
            node = Pow(base, exponent * self.integer("exponents must be nonnegative integer literals"))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = Fraction(_literal(tok.value, tok.line, tok.column))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "/":
                self.advance()
                den = self.peek()
                divisor = self.integer("'/' must be followed by an integer literal")
                if divisor == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                value /= divisor
            return Num(value)
        if tok.kind == "name":
            self.advance()
            return Name(tok.value, tok.line, tok.column)
        if tok.kind == "op" and tok.value == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested more than {MAX_NESTING} deep")
            self.advance()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closing = self.peek()
            if not (closing.kind == "op" and closing.value == ")"):
                self.fail("unbalanced parenthesis", expected="')'")
            self.advance()
            return node
        if tok.kind == "end":
            self.fail("unexpected end of expression", expected="a number, name or '('")
        self.fail(f"unexpected {tok.value!r}", expected="a number, name or '('")


def parse_expression(text: str, line: int = 1, column: int = 1):
    """Parse ``text`` into an expression tree, or raise :class:`ParseError`."""
    return _Parser(tokenize(text, line, column)).parse()


def _literal(digits: str, line: int, column: int) -> int:
    """The one reader of number literals: ASCII ``digits`` after an optional
    ``-``, and a ParseError at ``line``, ``column`` when there are more than
    Python's int-to-text limit allows, the only ValueError ``int`` can raise
    on them."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number literal has more than {sys.get_int_max_str_digits()} digits", line, column) from None


# -- evaluation ------------------------------------------------------------

def walk(node, leaf):
    """Evaluate an expression tree: ``leaf(node)`` gives each number or name
    its value, and ``+ - * ^`` act on the values, which need ``is_zero``
    too.  A left-deep chain of sums and products runs in a loop, so its
    length costs no recursion; a zero product skips the factors after it.
    A power is refused before it is computed when a coefficient it must
    hold could not be printed, so a value that is not a ``ParamScalar``
    needs ``constant_coefficient`` too."""
    if isinstance(node, (Num, Name)):
        return leaf(node)
    if isinstance(node, Neg):
        return -walk(node.operand, leaf)
    if isinstance(node, Pow):
        base = walk(node.base, leaf)
        # the constant term and the leading coefficient of the base's
        # constant coefficient, raised to the exponent, are exact coefficients
        # of the power, as Q[n] is a domain: refuse before computing one
        # that could never be printed
        scalar = base if isinstance(base, ParamScalar) else base.constant_coefficient()
        for value in (scalar.constant_term(), scalar.leading_coefficient()):
            if value:
                check_power_digits(max(abs(value.numerator), value.denominator), node.exponent)
        return base ** node.exponent
    chain = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    out = walk(node, leaf)
    for link in reversed(chain):
        if link.op != "*":
            right = walk(link.right, leaf)
            out = out + right if link.op == "+" else out - right
        elif not out.is_zero:
            out = out * walk(link.right, leaf)
    return out


def check_names(node, known: Container[str], unknown) -> None:
    """The names-first check of every expression: ``unknown(name)`` is
    raised for the first name of ``node`` in text order that is not in
    ``known``, even in a term that vanishes, before anything is computed.
    The tree is walked on a stack, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            if node.name not in known:
                raise unknown(node.name)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += (node.right, node.left)
        elif isinstance(node, Pow):
            stack.append(node.base)


def expand(node, unknown) -> dict[int, Fraction]:
    """A rational constant expression, as a file's integral value, as
    ``{0: value}``, or ``{}`` for 0; any name raises ``unknown(name)``
    first."""
    check_names(node, (), unknown)
    return dict(walk(node, lambda num: ParamScalar.constant(num.value)).items())


def monomial(node, index: Mapping[str, int], where: str) -> tuple[int, ...]:
    """The exponent vector of a product of powers of the names in ``index``
    (name -> position) and the number 1; ``where`` names it in errors.  An
    unknown name is reported first, even in a term that vanishes; then a sum
    is refused, and so is any other number, even one that a power makes 1.
    The tree is walked on a stack, in a loop; a power multiplies the
    exponents of its base."""
    check_names(node, index, lambda name: PresentationError(f"{where} uses unknown generator {name!r}"))
    exponents = [0] * len(index)
    stack = [(node, 1)]
    while stack:
        node, times = stack.pop()
        if isinstance(node, Name):
            exponents[index[node.name]] += times
        elif isinstance(node, Pow):
            stack.append((node.base, times * node.exponent))
        elif isinstance(node, BinOp) and node.op == "*":
            stack += ((node.right, times), (node.left, times))
        elif isinstance(node, BinOp):
            raise PresentationError(f"{where} must be a single monomial")
        elif not (isinstance(node, Num) and node.value == 1):
            raise PresentationError(f"{where} must have coefficient 1")
    return tuple(exponents)


# -- presentation files ----------------------------------------------------

class PresentationFileData:
    """Raw, positionally-annotated content of a presentation file."""

    __slots__ = (
        "params", "generators", "rules", "zeros", "fiber", "fiber_supported", "integrals", "top_degree", "preset",
    )

    def __init__(self):
        self.params: list[str] = []
        self.generators: list[tuple[str, int]] = []
        self.rules: list[tuple[object, object, int]] = []  # lhs, rhs, line
        self.zeros: list[tuple[object, int]] = []
        self.fiber: str | None = None
        self.fiber_supported: list[str] = []
        self.integrals: list[tuple[object, Fraction, int]] = []
        self.top_degree: int | None = None
        self.preset: dict = {}


_SECTION_RE = re.compile(r"\w+")
_DIGITS_RE = re.compile(r"[0-9]*")

_SCALAR_SECTIONS = {
    "params", "generators", "fiber", "fiber_supported", "top_degree",
    "preset", "genus", "subbundle_rank", "subbundle_degree", "chern_U", "chern_L",
}


def _pieces(text: str, sep: str, column: int, maxsplit: int = -1) -> list[tuple[str, int]]:
    """Split ``text``, which starts at line column ``column``, at ``sep``:
    each piece stripped, with the column of its first character."""
    pieces = []
    for chunk in text.split(sep, maxsplit):
        piece = chunk.lstrip()
        pieces.append((piece.rstrip(), column + len(chunk) - len(piece)))
        column += len(chunk) + len(sep)
    return pieces


def _pair(text: str, sep: str, column: int, line: int, message: str) -> list[tuple[str, int]]:
    """The two pieces of ``left sep right``; an error names the second
    ``sep``, or the start of ``text`` when there is none."""
    pieces = _pieces(text, sep, column)
    if len(pieces) != 2:
        extra = text.find(sep, text.find(sep) + len(sep)) if len(pieces) > 2 else 0
        raise ParseError(message, line, column + extra)
    return pieces


def _name(text: str, line: int, column: int, what: str) -> str:
    """``text`` if it is an ASCII name; else a ParseError at its first other character."""
    match = _NAME_RE.match(text)
    end = match.end() if match else 0
    if not 0 < end == len(text):
        raise ParseError(f"invalid {what} name {text!r}", line, column + end)
    return text


def _integer(text: str, line: int, column: int, message: str, signed: bool = False) -> int:
    """``text`` as an int: ASCII digits, after one ``-`` if ``signed``; else
    a ParseError at its first other character."""
    start = 1 if signed and text.startswith("-") else 0
    end = _DIGITS_RE.match(text, start).end()
    if not start < end == len(text):
        raise ParseError(message, line, column + end)
    return _literal(text, line, column)


def parse_presentation_text(text: str) -> PresentationFileData:
    """Parse the line-oriented presentation format.

    Sections: ``params``, ``generators`` (name=degree pairs), ``rules``
    (``monomial -> polynomial``, one per line), ``zeros``, ``fiber``,
    ``fiber_supported``, ``integrals`` (``monomial = rational``, one per
    line), ``top_degree``, and the optional preset header (``preset``,
    ``genus``, ``subbundle_rank``, ``subbundle_degree``, ``chern_U``,
    ``chern_L``).  ``#`` starts a comment.  Errors name the line and column
    of the first offending character.
    """
    data = PresentationFileData()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content, column = _pieces(raw, "#", 1, 1)[0]
        if not content:
            continue
        pieces = _pieces(content, ":", column, 1)
        if len(pieces) != 2 or not _SECTION_RE.fullmatch(pieces[0][0]):
            raise ParseError("expected 'section: content'", lineno, column)
        (section, section_col), (body, column) = pieces
        if section in _SCALAR_SECTIONS:
            if section in seen:
                raise ParseError(f"duplicate section {section!r}", lineno, section_col)
            seen.add(section)
        items = _pieces(body, ",", column) if body else []
        if section in ("params", "fiber_supported"):
            what = "parameter" if section == "params" else "generator"
            setattr(data, section, [_name(name, lineno, col, what) for name, col in items])
        elif section == "generators":
            for entry, col in items:
                if "=" not in entry:
                    raise ParseError(f"generator entry {entry!r} must be 'name=degree'", lineno, col)
                (name, name_col), (degree, degree_col) = _pieces(entry, "=", col, 1)
                _name(name, lineno, name_col, "generator")
                message = f"invalid degree {degree!r} for generator {name!r}"
                data.generators.append((name, _integer(degree, lineno, degree_col, message)))
        elif section == "rules":
            (lhs, lhs_col), (rhs, rhs_col) = _pair(body, "->", column, lineno, "a rule must contain exactly one '->'")
            data.rules.append((parse_expression(lhs, lineno, lhs_col), parse_expression(rhs, lineno, rhs_col), lineno))
        elif section == "zeros":
            data.zeros += [(parse_expression(chunk, lineno, col), lineno) for chunk, col in items]
        elif section == "fiber":
            data.fiber = _name(body, lineno, column, "fiber class")
        elif section == "integrals":
            (mono, mono_col), (value, value_col) = _pair(
                body, "=", column, lineno, "an integral must be 'monomial = rational'"
            )
            node = parse_expression(mono, lineno, mono_col)
            error = ParseError("expected an exact rational constant", lineno, value_col)
            constant = expand(parse_expression(value, lineno, value_col), lambda name: error)
            data.integrals.append((node, constant.get(0, Fraction(0)), lineno))
        elif section == "top_degree":
            message = f"top_degree must be a nonnegative integer, got {body!r}"
            data.top_degree = _integer(body, lineno, column, message)
        elif section == "preset":
            data.preset["name"] = body
        elif section in ("genus", "subbundle_rank", "subbundle_degree"):
            data.preset[section] = _integer(body, lineno, column, f"{section} must be an integer, got {body!r}", True)
        elif section in ("chern_U", "chern_L"):
            data.preset[section] = parse_expression(body, lineno, column)
        else:
            raise ParseError(f"unknown section {section!r}", lineno, section_col)
    if data.top_degree is None:
        raise ParseError("missing required section 'top_degree'", lineno if text.strip() else 1, 1)
    return data
