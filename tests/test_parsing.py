from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsub.errors import PresentationError
from maxsub.parsing import (
    MAX_NESTING,
    ParseError,
    expand,
    monomial,
    parse_expression,
    parse_presentation_text,
    tokenize,
)

from helpers import reference_expand, reference_tokenize

#: Every token kind, "\n" and the spaces that look like line breaks but are
#: not one, and letters and digits of other scripts, which the grammar lacks.
SCANNER_ALPHABET = "ab_Z09 +-*^/()\n\t\r\x0c\x1c\u0085\u2028\u3000α²٣.#"


def terms(text):
    """The free expansion over the expression's own names, keyed by sorted
    (name, exponent) pairs: the grammar read by the parser's walk."""
    node = parse_expression(text)
    variables = tuple(dict.fromkeys(t.value for t in tokenize(text) if t.kind == "name"))
    return {
        tuple(sorted((v, e) for v, e in zip(variables, expo) if e)): coeff
        for expo, coeff in reference_expand(node, variables, None).items()
    }


def test_tokenizer_positions():
    tokens = tokenize("alpha + 2", line=3)
    assert [(t.kind, t.value, t.line, t.column) for t in tokens] == [
        ("name", "alpha", 3, 1),
        ("op", "+", 3, 7),
        ("num", "2", 3, 9),
        ("end", "", 3, 10),
    ]


def scan(scanner, text, line, column):
    """The tokens as ``(kind, value, line, column)``, or the ParseError's text and position."""
    try:
        tokens = scanner(text, line, column)
    except ParseError as error:
        return str(error), error.line, error.column
    return [t if isinstance(t, tuple) else (t.kind, t.value, t.line, t.column) for t in tokens]


def test_tokenizer_positions_across_lines():
    assert scan(tokenize, "x +\n  12*\x1cy\n\u0085(", 4, 7) == [
        ("name", "x", 4, 7),
        ("op", "+", 4, 9),
        ("num", "12", 5, 3),
        ("op", "*", 5, 5),
        ("name", "y", 5, 7),
        ("op", "(", 6, 2),
        ("end", "", 6, 3),
    ]
    assert scan(tokenize, "x\n  α", 2, 5) == ("line 3, column 3: unexpected character 'α'", 3, 3)


@settings(max_examples=400, deadline=None)
@given(st.text(SCANNER_ALPHABET, max_size=40), st.integers(1, 60), st.integers(1, 60))
def test_tokenize_matches_the_reference_scanner(text, line, column):
    assert scan(tokenize, text, line, column) == scan(reference_tokenize, text, line, column)


def test_expand_basic():
    assert terms("1") == {(): Fraction(1)}
    assert terms("xi1^2 + 2*theta*f") == {
        (("xi1", 2),): Fraction(1),
        (("f", 1), ("theta", 1)): Fraction(2),
    }
    assert terms("-2*theta*f") == {(("f", 1), ("theta", 1)): Fraction(-2)}


def test_expand_square():
    assert terms("(alpha + f)^2") == {
        (("alpha", 2),): Fraction(1),
        (("alpha", 1), ("f", 1)): Fraction(2),
        (("f", 2),): Fraction(1),
    }


def test_rational_literals():
    assert terms("5/24*n") == {(("n", 1),): Fraction(5, 24)}
    assert terms("1/2") == {(): Fraction(1, 2)}
    assert terms("3/6") == {(): Fraction(1, 2)}


def test_precedence_and_associativity():
    assert terms("2*alpha^2") == {(("alpha", 2),): Fraction(2)}
    assert terms("(2*alpha)^2") == {(("alpha", 2),): Fraction(4)}
    assert terms("1 - 1 + 1") == {(): Fraction(1)}
    assert terms("-alpha^2") == {(("alpha", 2),): Fraction(-1)}
    assert terms("alpha - alpha") == {}


def test_cancellation_is_exact():
    assert terms("(alpha + f)*(alpha - f) - alpha^2 + f^2") == {}


@pytest.mark.parametrize(
    "text",
    ["alpha/2", "(alpha", "alpha^-2", "", "alpha^n", "2 + * 3", "alpha theta"],
)
def test_syntax_errors_have_positions(text):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    message = str(err.value)
    assert "line 1" in message
    assert "column" in message


def test_nesting_is_bounded():
    deep = "(" * MAX_NESTING + "alpha" + ")" * MAX_NESTING
    assert terms(deep) == {(("alpha", 1),): Fraction(1)}
    nested = "x"
    for _ in range(MAX_NESTING):
        nested = f"2*(1 - {nested})"
    power = (-2) ** MAX_NESTING
    assert terms(nested) == {(("x", 1),): Fraction(power), (): Fraction(2 * (1 - power), 3)}
    with pytest.raises(ParseError) as err:
        parse_expression("(" * 5000 + "alpha" + ")" * 5000)
    assert f"column {MAX_NESTING + 1}: parentheses nested more than {MAX_NESTING} deep" in str(err.value)


def test_long_chains_cost_no_recursion():
    n = 5000
    assert terms(" + ".join(["alpha"] * n)) == {(("alpha", 1),): Fraction(n)}
    assert terms("*".join(["x"] * n)) == {(("x", n),): Fraction(1)}
    assert terms("-" * n + "x") == {(("x", 1),): Fraction(1)}
    assert terms("x" + "^1" * n) == {(("x", 1),): Fraction(1)}
    assert terms("(x^2)^3^2") == {(("x", 12),): Fraction(1)}


def test_expand_reads_one_parameter_or_none():
    # a file's integral value is a rational constant: any name is unknown,
    # even in a term that vanishes
    assert expand(parse_expression("5/24 - 1/24"), None) == {0: Fraction(1, 6)}
    assert expand(parse_expression("0*2"), None) == {}
    for text in ("2*x", "0*n + 1"):
        with pytest.raises(KeyError, match="x|n"):
            expand(parse_expression(text), KeyError)


GENERATORS = {"a": 0, "b": 1, "c": 2}


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("a", (1, 0, 0)),
        ("1", (0, 0, 0)),
        ("b*a*b", (1, 2, 0)),
        ("(a*b^2)^3*c", (3, 6, 1)),
        ("(a^2)^3^2", (12, 0, 0)),
        ("1*a*1^7", (1, 0, 0)),
        ("a^0*b", (0, 1, 0)),
        ("(((a)*(b*(c))))", (1, 1, 1)),
    ],
)
def test_monomial_reads_a_product_of_powers(text, expected):
    assert monomial(parse_expression(text), GENERATORS, "zero") == expected


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("a*b - a*b + a^2", "zero must be a single monomial"),
        ("(a + b)^0", "zero must be a single monomial"),
        ("2*a", "zero must have coefficient 1"),
        ("2^0*a", "zero must have coefficient 1"),
        ("-a", "zero must have coefficient 1"),
        ("0", "zero must have coefficient 1"),
        ("1/2*a", "zero must have coefficient 1"),
        ("2*a + 0*d", "zero uses unknown generator 'd'"),  # names first
        ("a - a + d^0", "zero uses unknown generator 'd'"),
    ],
)
def test_monomial_refuses_sums_and_numbers(text, message):
    with pytest.raises(PresentationError) as info:
        monomial(parse_expression(text), GENERATORS, "zero")
    assert str(info.value) == message


def test_monomial_walks_long_products_in_a_loop():
    n = 50_000
    assert monomial(parse_expression("*".join(["a", "b"] * n)), GENERATORS, "zero") == (n, n, 0)
    nested = "a"
    for _ in range(MAX_NESTING - 1):
        nested = f"b*({nested})^2"
    assert monomial(parse_expression(nested), GENERATORS, "zero") == (2 ** (MAX_NESTING - 1), 2 ** (MAX_NESTING - 1) - 1, 0)


def test_error_reports_expected_token():
    with pytest.raises(ParseError) as err:
        parse_expression("(alpha")
    assert "expected" in str(err.value)


MINIMAL = """
params: n
generators: x=2, y=2
rules: x^2 -> y^2
zeros: y^4
top_degree: 4
integrals: x*y = 1
"""


def test_presentation_sections():
    data = parse_presentation_text(MINIMAL)
    assert data.params == ["n"]
    assert data.generators == [("x", 2), ("y", 2)]
    assert len(data.rules) == 1
    assert len(data.zeros) == 1
    assert data.top_degree == 4
    assert len(data.integrals) == 1
    assert data.integrals[0][1] == 1


def test_presentation_comments_and_blanks():
    text = "# a comment\n\ngenerators: x=2  # trailing\ntop_degree: 2\n"
    data = parse_presentation_text(text)
    assert data.generators == [("x", 2)]


def test_point_ring_text():
    data = parse_presentation_text("generators:\ntop_degree: 0\nintegrals: 1 = 1\n")
    assert data.generators == []
    assert data.top_degree == 0


@pytest.mark.parametrize(
    "text,needle",
    [
        ("generators: x=2\n", "top_degree"),
        ("top_degree: 2\ntop_degree: 2\n", "duplicate"),
        ("wibble: 3\ntop_degree: 2\n", "unknown section"),
        ("rules: x^2 y^2\ntop_degree: 2\n", "'->'"),
        ("generators: x\ntop_degree: 2\n", "name=degree"),
        ("integrals: x^2\ntop_degree: 2\n", "monomial = rational"),
        ("top_degree: -2\n", "nonnegative"),
        ("generators: x=2\nintegrals: x = y\ntop_degree: 2\n", "constant"),
        # digits of other scripts are not integers here
        ("top_degree: 2\ngenus: ٢\n", "genus must be an integer"),
        ("top_degree: 2\nsubbundle_rank: -١\n", "subbundle_rank must be an integer"),
    ],
)
def test_presentation_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_presentation_text(text)
    assert needle in str(err.value)


def test_rule_line_numbers_in_errors():
    text = "generators: x=2\nrules: x^2 -> (\ntop_degree: 4\n"
    with pytest.raises(ParseError) as err:
        parse_presentation_text(text)
    assert "line 2" in str(err.value)


RING_HEAD = "params: n\ngenerators: a=2, b=2\n"


@pytest.mark.parametrize(
    "text, line, column, char",
    [
        pytest.param("params: n, β\ntop_degree: 2\n", 1, 12, "β", id="params"),
        pytest.param(RING_HEAD + "fiber: b\nfiber_supported: a, b-c\ntop_degree: 2\n", 4, 22, "-", id="fiber_supported"),
        pytest.param("generators: a=2, β=2\ntop_degree: 2\n", 1, 18, "β", id="generator-name"),
        pytest.param("generators: a=2, b= 2x\ntop_degree: 2\n", 1, 22, "x", id="generator-degree"),
        pytest.param(RING_HEAD + "rules: a^2 + ) -> b^2\ntop_degree: 4\n", 3, 14, ")", id="rule-lhs"),
        pytest.param(RING_HEAD + "rules: a^2 ->  b^2 + ^\ntop_degree: 4\n", 3, 22, "^", id="rule-rhs"),
        pytest.param(RING_HEAD + "rules: a^2 -> b^2 -> a*b\ntop_degree: 4\n", 3, 19, "-", id="rule-second-arrow"),
        pytest.param(RING_HEAD + "zeros: a^3, a^4, β\ntop_degree: 4\n", 3, 18, "β", id="zeros"),
        pytest.param(RING_HEAD + "zeros: a^3, , b^3\ntop_degree: 4\n", 3, 13, ",", id="zeros-empty-piece"),
        pytest.param(RING_HEAD + "integrals: a*b =  n\ntop_degree: 4\n", 3, 19, "n", id="integral-value"),
        pytest.param("generators: a=2\ntop_degree:  2²\n", 2, 15, "²", id="top_degree"),
        pytest.param("top_degree: 2\ngenus:  -٣\n", 2, 10, "٣", id="genus"),
        pytest.param(RING_HEAD + "top_degree: 4\nchern_U: 1 + a + $\n", 4, 18, "$", id="chern_U"),
        pytest.param("generators: a=2\n  wibble: 3\ntop_degree: 2\n", 2, 3, "w", id="indented-unknown-section"),
    ],
)
def test_presentation_error_columns(text, line, column, char):
    # each error names the line and column of its first offending character
    with pytest.raises(ParseError) as err:
        parse_presentation_text(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert text.splitlines()[line - 1][column - 1] == char
