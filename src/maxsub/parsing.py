"""Shared text formats: ring expressions and presentation files.

The expression grammar covers rational literals, parameter and generator
names, ``+ - *`` and ``^`` with nonnegative integer exponents, and
parentheses.  ``/`` is allowed only between integer literals, to write
exact rationals such as ``5/24``.  Names are left unresolved here; a
ring resolves them in ``RingPresentation.evaluate``.  :func:`expand`
serves presentation files, where there is no ring yet to reduce in.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Optional

from .errors import ParseError

# Names and numbers are ASCII only: str.isalpha and str.isdigit also accept
# letters and digits of other scripts, which the grammar does not have.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = frozenset("0123456789")
_OPS = set("+-*^/()")
# Parentheses recurse in the parser, expand and ring evaluation; this bound
# keeps them far from Python's recursion limit, so deep input is a ParseError.
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
    pos = 0
    cur_line, cur_col = line, column
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            cur_line += 1
            cur_col = 1
            pos += 1
        elif ch.isspace():
            pos += 1
            cur_col += 1
        elif ch in _DIGITS:
            end = pos
            while end < len(text) and text[end] in _DIGITS:
                end += 1
            tokens.append(Token("num", text[pos:end], cur_line, cur_col))
            cur_col += end - pos
            pos = end
        elif match := _NAME_RE.match(text, pos):
            tokens.append(Token("name", match.group(), cur_line, cur_col))
            cur_col += len(match.group())
            pos = match.end()
        elif ch in _OPS:
            tokens.append(Token("op", ch, cur_line, cur_col))
            cur_col += 1
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", cur_line, cur_col)
    tokens.append(Token("end", "", cur_line, cur_col))
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

    def power(self):
        node = self.atom()
        while self.peek().kind == "op" and self.peek().value == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num":
                self.fail("exponents must be nonnegative integer literals", expected="an integer")
            self.advance()
            # (x^a)^b is x^(a*b): a chain of powers stays one node
            base, exponent = (node.base, node.exponent) if isinstance(node, Pow) else (node, 1)
            node = Pow(base, exponent * int(tok.value))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = Fraction(int(tok.value))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "/":
                self.advance()
                den = self.peek()
                if den.kind != "num":
                    self.fail("'/' must be followed by an integer literal", expected="an integer")
                self.advance()
                if int(den.value) == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                value = value / int(den.value)
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


def names(node) -> Iterator[str]:
    """Every name in an expression tree, in text order, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            yield node.name
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += (node.right, node.left)
        elif isinstance(node, Pow):
            stack.append(node.base)


# -- formal expansion ------------------------------------------------------

TermKey = tuple[tuple[str, int], ...]


def _merge(dst: dict[TermKey, Fraction], key: TermKey, coeff: Fraction):
    total = dst.get(key, Fraction(0)) + coeff
    if total:
        dst[key] = total
    else:
        dst.pop(key, None)


def _mul_terms(a: dict[TermKey, Fraction], b: dict[TermKey, Fraction]) -> dict[TermKey, Fraction]:
    out: dict[TermKey, Fraction] = {}
    for k1, c1 in a.items():
        e1 = dict(k1)
        for k2, c2 in b.items():
            merged = dict(e1)
            for name, e in k2:
                merged[name] = merged.get(name, 0) + e
            key = tuple(sorted(merged.items()))
            _merge(out, key, c1 * c2)
    return out


def expand(node) -> dict[TermKey, Fraction]:
    """Distribute an expression tree into monomial terms over its names.

    Names stay symbolic; callers resolve them against a presentation.  It
    truncates nothing, so it serves only presentation files and monomials.
    """
    if isinstance(node, Num):
        return {(): node.value} if node.value else {}
    if isinstance(node, Name):
        return {((node.name, 1),): Fraction(1)}
    if isinstance(node, Neg):
        return {k: -c for k, c in expand(node.operand).items()}
    if isinstance(node, BinOp):
        # Sums and products parse as left-deep chains; walk the chain in a
        # loop so that its length costs no recursion depth.
        chain = []
        while isinstance(node, BinOp):
            chain.append(node)
            node = node.left
        out = expand(node)
        for link in reversed(chain):
            right = expand(link.right)
            if link.op == "*":
                out = _mul_terms(out, right)
            else:
                sign = 1 if link.op == "+" else -1
                for key, coeff in right.items():
                    _merge(out, key, sign * coeff)
        return out
    if isinstance(node, Pow):
        result: dict[TermKey, Fraction] = {(): Fraction(1)}
        base = expand(node.base)
        for _ in range(node.exponent):
            result = _mul_terms(result, base)
        return result
    raise TypeError(f"not an expression node: {node!r}")


# -- presentation files ----------------------------------------------------

class PresentationFileData:
    """Raw, positionally-annotated content of a presentation file."""

    __slots__ = (
        "params", "generators", "rules", "zeros", "fiber", "fiber_supported", "integrals", "top_degree", "preset",
    )

    def __init__(
        self,
        params: list[str] | None = None,
        generators: list[tuple[str, int]] | None = None,
        rules: list[tuple[object, object, int]] | None = None,  # lhs, rhs, line
        zeros: list[tuple[object, int]] | None = None,
        fiber: Optional[str] = None,
        fiber_supported: list[str] | None = None,
        integrals: list[tuple[object, Fraction, int]] | None = None,
        top_degree: Optional[int] = None,
        preset: dict | None = None,
    ):
        self.params = [] if params is None else params
        self.generators = [] if generators is None else generators
        self.rules = [] if rules is None else rules
        self.zeros = [] if zeros is None else zeros
        self.fiber = fiber
        self.fiber_supported = [] if fiber_supported is None else fiber_supported
        self.integrals = [] if integrals is None else integrals
        self.top_degree = top_degree
        self.preset = {} if preset is None else preset


_SECTION_RE = re.compile(r"^(\w+)\s*:\s*(.*)$")

_SCALAR_SECTIONS = {
    "params", "generators", "fiber", "fiber_supported", "top_degree",
    "preset", "genus", "subbundle_rank", "subbundle_degree", "chern_U", "chern_L",
}


def _split_names(body: str, line: int, what: str) -> list[str]:
    names = []
    if not body.strip():
        return names
    col = 1
    for chunk in body.split(","):
        name = chunk.strip()
        if not _NAME_RE.fullmatch(name or ""):
            raise ParseError(f"invalid {what} name {name!r}", line, col)
        names.append(name)
        col += len(chunk) + 1
    return names


def _is_digits(text: str) -> bool:
    return bool(text) and set(text) <= _DIGITS


def _constant_of(node, line: int) -> Fraction:
    terms = expand(node)
    if not terms:
        return Fraction(0)
    if list(terms) != [()]:
        raise ParseError("expected an exact rational constant", line, 1)
    return terms[()]


def parse_presentation_text(text: str) -> PresentationFileData:
    """Parse the line-oriented presentation format.

    Sections: ``params``, ``generators`` (name=degree pairs), ``rules``
    (``monomial -> polynomial``, one per line), ``zeros``, ``fiber``,
    ``fiber_supported``, ``integrals`` (``monomial = rational``, one per
    line), ``top_degree``, and the optional preset header (``preset``,
    ``genus``, ``subbundle_rank``, ``subbundle_degree``, ``chern_U``,
    ``chern_L``).  ``#`` starts a comment.
    """
    data = PresentationFileData()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        match = _SECTION_RE.match(stripped.strip())
        if match is None:
            raise ParseError("expected 'section: content'", lineno, 1)
        section, body = match.group(1), match.group(2)
        body_col = stripped.index(":") + 2
        if section in _SCALAR_SECTIONS:
            if section in seen:
                raise ParseError(f"duplicate section {section!r}", lineno, 1)
            seen.add(section)
        if section == "params":
            data.params = _split_names(body, lineno, "parameter")
        elif section == "generators":
            if body.strip():
                for chunk in body.split(","):
                    entry = chunk.strip()
                    if "=" not in entry:
                        raise ParseError(f"generator entry {entry!r} must be 'name=degree'", lineno, body_col)
                    name, _, deg = entry.partition("=")
                    name, deg = name.strip(), deg.strip()
                    if not _NAME_RE.fullmatch(name):
                        raise ParseError(f"invalid generator name {name!r}", lineno, body_col)
                    if not _is_digits(deg):
                        raise ParseError(f"invalid degree {deg!r} for generator {name!r}", lineno, body_col)
                    data.generators.append((name, int(deg)))
        elif section == "rules":
            if body.count("->") != 1:
                raise ParseError("a rule must contain exactly one '->'", lineno, body_col)
            lhs_text, rhs_text = body.split("->")
            lhs = parse_expression(lhs_text, lineno, body_col)
            rhs = parse_expression(rhs_text, lineno, body_col + len(lhs_text) + 2)
            data.rules.append((lhs, rhs, lineno))
        elif section == "zeros":
            for chunk in body.split(","):
                if chunk.strip():
                    data.zeros.append((parse_expression(chunk, lineno, body_col), lineno))
        elif section == "fiber":
            name = body.strip()
            if not _NAME_RE.fullmatch(name):
                raise ParseError(f"invalid fiber class name {name!r}", lineno, body_col)
            data.fiber = name
        elif section == "fiber_supported":
            data.fiber_supported = _split_names(body, lineno, "generator")
        elif section == "integrals":
            if body.count("=") != 1:
                raise ParseError("an integral must be 'monomial = rational'", lineno, body_col)
            mono_text, value_text = body.split("=")
            mono = parse_expression(mono_text, lineno, body_col)
            value = _constant_of(parse_expression(value_text, lineno, body_col + len(mono_text) + 1), lineno)
            data.integrals.append((mono, value, lineno))
        elif section == "top_degree":
            value = body.strip()
            if not _is_digits(value):
                raise ParseError(f"top_degree must be a nonnegative integer, got {value!r}", lineno, body_col)
            data.top_degree = int(value)
        elif section == "preset":
            data.preset["name"] = body.strip()
        elif section in ("genus", "subbundle_rank", "subbundle_degree"):
            value = body.strip()
            if not _is_digits(value.removeprefix("-")):
                raise ParseError(f"{section} must be an integer, got {value!r}", lineno, body_col)
            data.preset[section] = int(value)
        elif section in ("chern_U", "chern_L"):
            data.preset[section] = parse_expression(body, lineno, body_col)
        else:
            raise ParseError(f"unknown section {section!r}", lineno, 1)
    if data.top_degree is None:
        raise ParseError("missing required section 'top_degree'", lineno if text.strip() else 1, 1)
    return data
