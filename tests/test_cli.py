import json
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from maxsub import gradedring, scalars
from maxsub.cli import run

from helpers import within

G2_RING = str(resources.files("maxsub").joinpath("presets", "g2-rank2.ring"))
GOLDEN = Path(__file__).parent / "golden"


def test_count_g2_golden(capsys):
    assert run(["count", "--preset", "g2-rank2"]) == 0
    out = capsys.readouterr()
    assert out.out == "m_2 = (1/48)*n^5 + (1/24)*n^3\n"
    assert out.err == ""


def test_count_jacobian_golden(capsys):
    assert run(["count", "--preset", "jacobian", "--genus", "2"]) == 0
    assert capsys.readouterr().out == "m_1 = n^2\n"
    assert run(["count", "--preset", "jacobian", "--genus", "3"]) == 0
    assert capsys.readouterr().out == "m_1 = n^3\n"


def test_count_is_byte_stable(capsys):
    run(["count", "--preset", "g2-rank2"])
    first = capsys.readouterr().out
    run(["count", "--preset", "g2-rank2"])
    assert capsys.readouterr().out == first


def test_count_verbose(capsys):
    assert run(["count", "--preset", "g2-rank2", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "covering degree = 16" in out
    assert "integral over base = (1/3)*n^5 + (2/3)*n^3" in out
    assert "ch_4(sections) = -(1/12)*n*alpha^3*theta" in out
    assert out.endswith("m_2 = (1/48)*n^5 + (1/24)*n^3\n")


#: golden file in tests/golden -> the command whose complete stdout it pins
GOLDEN_RUNS = {
    "count-g2-rank2-verbose.txt": ["count", "--preset", "g2-rank2", "--verbose"],
    "count-g2-rank2-record.json": ["count", "--preset", "g2-rank2", "--format", "record"],
    "count-jacobian-g5-verbose.txt": ["count", "--preset", "jacobian", "--genus", "5", "--verbose"],
    "check-g2-rank2.txt": ["check", "--preset", "g2-rank2"],
    "check-jacobian-g4.txt": ["check", "--preset", "jacobian", "--genus", "4"],
}


@pytest.mark.parametrize("golden", GOLDEN_RUNS)
def test_full_stdout_golden(capsys, golden):
    assert run(GOLDEN_RUNS[golden]) == 0
    out = capsys.readouterr()
    assert out.out == (GOLDEN / golden).read_text()
    assert out.err == ""


@pytest.mark.parametrize(
    "expression, expected",
    [
        pytest.param("(n+1) + alpha", "alpha + (n + 1)", id="constant-sum"),
        pytest.param(
            "(alpha + n*f - 1/2*xi2 + 3)^3",
            "9/4*alpha^3*f + alpha^3 + 3*n*alpha^2*f + 9*alpha^2 + 18*n*alpha*f - 27/2*xi2 + 27*alpha + 27*n*f + 27",
            id="cube",
        ),
        pytest.param(
            "(n^2-n+1/3)*alpha*theta - (n+1)^2*f + n - 1",
            "(n^2 - n + 1/3)*alpha*theta + (-n^2 - 2*n - 1)*f + (n - 1)",
            id="polynomial-coefficients",
        ),
    ],
)
def test_reduce_parametric_golden(capsys, expression, expected):
    assert run(["reduce", "--ring", G2_RING, expression]) == 0
    out = capsys.readouterr()
    assert out.out == expected + "\n"
    assert out.err == ""


def test_count_record(capsys):
    assert run(["count", "--preset", "g2-rank2", "--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["count"]["terms"] == {"n^5": "1/48", "n^3": "1/24"}
    assert record["preset"] == "g2-rank2"


def test_reduce(capsys):
    assert run(["reduce", "--ring", G2_RING, "xi1^2 + 2*theta*f"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert run(["reduce", "--ring", G2_RING, "(alpha + f)^2"]) == 0
    assert capsys.readouterr().out == "alpha^2 + 2*alpha*f\n"
    assert run(["reduce", "--ring", G2_RING, "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_integrate(capsys):
    assert run(["integrate", "--ring", G2_RING, "alpha^3*theta^2"]) == 0
    assert capsys.readouterr().out == "8\n"
    assert run(["integrate", "--ring", G2_RING, "theta*Lambda^2"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_parse_error_exits_2(capsys):
    assert run(["reduce", "--ring", G2_RING, "alpha +* 2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "line 1" in out.err


def test_parse_error_on_a_later_line_exits_2(capsys):
    # the tokenizer counts lines and restarts the column after a newline
    assert run(["reduce", "--ring", G2_RING, "alpha +\n  $"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: line 2, column 3: unexpected character '$'\n"


@pytest.mark.parametrize("command", ["reduce", "integrate"])
def test_deep_nesting_exits_2(capsys, command):
    deep = "(" * 5000 + "alpha" + ")" * 5000
    assert run([command, "--ring", G2_RING, deep]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: line 1, column 101: parentheses nested more than 100 deep\n"


def test_count_jacobian_huge_genus(capsys):
    with within(10):  # about 0.05 s; a kernel that never finishes fails here
        assert run(["count", "--preset", "jacobian", "--genus", "2000"]) == 0
    out = capsys.readouterr()
    assert out.out == "m_1 = n^2000\n"
    assert out.err == ""
    assert run(["count", "--preset", "jacobian", "--genus", "10001"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the jacobian preset supports genus up to 10000, got 10001\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["reduce", "--ring", G2_RING, "2^20000"], id="reduce-2^20000"),
        pytest.param(["integrate", "--ring", G2_RING, "2^20000*alpha^3*theta^2"], id="integrate-2^20000*alpha^3*theta^2"),
        # c_top = (1/2000!)*n^2000*theta^2000, and 2000! has 5,736 digits
        pytest.param(["count", "--preset", "jacobian", "--genus", "2000", "--verbose"], id="count-verbose-g2000"),
        pytest.param(["count", "--preset", "jacobian", "--genus", "2000", "--format", "record"], id="count-record-g2000"),
    ],
)
def test_too_many_digits_exits_1(capsys, argv):
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the exact result has more than 4300 digits, too many to print\n"


@pytest.mark.parametrize(
    "expression",
    [
        "3^3000000000", "(3 + alpha)^3000000000", "(3 + n)^3000000000", "(1/3 + theta)^30000",
        "(3*n)^3000000000", "(3*n + alpha)^3000000000",
    ],
)
def test_power_with_an_unprintable_constant_term_is_refused_before_it_is_computed(capsys, monkeypatch, expression):
    # the constant term and the lex-leading coefficient of the base's constant
    # coefficient, raised to the exponent, are exact coefficients of the
    # power: no power is taken once one of them passes the digit limit
    def power(base, exponent, one, real=scalars.power):
        assert exponent < 1000, "a huge power was computed"
        return real(base, exponent, one)

    monkeypatch.setattr(gradedring, "power", power)  # both rings' and scalars' __pow__ call it
    monkeypatch.setattr(scalars, "power", power)
    assert run(["reduce", "--ring", G2_RING, expression]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the exact result has more than 4300 digits, too many to print\n"


def test_printable_powers_pass_the_digit_bound(capsys):
    # 10^4299 has 4,300 digits, the most that print; with no limit there is no bound
    assert run(["reduce", "--ring", G2_RING, "10^4299"]) == 0
    assert capsys.readouterr().out == "1" + "0" * 4299 + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        codes = [run(["reduce", "--ring", G2_RING, "3^30000"]), run(["formulas", "m1", "--n", "3", "--g", "30000"])]
        expected = 2 * f"{3**30000}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [0, 0]
    assert capsys.readouterr().out == expected


#: site -> (an expression, or a line of g2-rank2's file and its replacement, with
#: a literal {D}; where the literal starts)
LONG_LITERALS = {
    "exponent": ("alpha^{D}", "line 1, column 7"),
    "coefficient": ("{D}*alpha", "line 1, column 1"),
    "denominator": ("1/{D}", "line 1, column 3"),
    "integral-value": (("integrals: alpha^3*theta^2 = 8", "integrals: alpha^3*theta^2 = {D}"), "line 24, column 30"),
    "top-degree": (("top_degree: 10", "top_degree: {D}"), "line 26, column 13"),
    "generator-degree": (("generators: alpha=2,", "generators: alpha={D},"), "line 17, column 19"),
    "genus": (("genus: 2", "genus: -{D}"), "line 29, column 8"),
}


@pytest.mark.parametrize("site", LONG_LITERALS)
def test_number_literal_past_the_digit_limit_exits_2(capsys, tmp_path, site):
    # a literal one digit past Python's int-to-text limit is a parse error at
    # its position, wherever it stands, not int()'s advice to raise the limit
    text, where = LONG_LITERALS[site]
    limit = sys.get_int_max_str_digits()
    digits = "9" * (limit + 1)
    ring, expression = G2_RING, "alpha"
    if isinstance(text, str):
        expression = text.format(D=digits)
    else:
        ring = tmp_path / "long.ring"
        ring.write_text(Path(G2_RING).read_text().replace(text[0], text[1].format(D=digits), 1))
    assert run(["reduce", "--ring", str(ring), expression]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {where}: a number literal has more than {limit} digits\n"


def test_number_literals_up_to_the_digit_limit_read(capsys):
    # a literal of exactly the limit's digits reads; with no limit any length does
    limit = sys.get_int_max_str_digits()
    assert run(["reduce", "--ring", G2_RING, "9" * limit + "*alpha + alpha^" + "9" * limit]) == 0
    assert capsys.readouterr().out == "9" * limit + "*alpha\n"
    sys.set_int_max_str_digits(0)
    try:
        code = run(["reduce", "--ring", G2_RING, "1/" + "9" * (limit + 1) + "*alpha^" + "9" * (limit + 1)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert capsys.readouterr().out == "0\n"


def test_usage_error_exits_2(capsys):
    assert run(["count", "--preset", "not-a-preset"]) == 2
    assert run(["count"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_domain_error_exits_1(capsys):
    assert run(["integrate", "--ring", G2_RING, "alpha^2*theta^2*f"]) == 1
    err = capsys.readouterr().err
    assert "pushforward" in err
    assert run(["count", "--preset", "jacobian", "--genus", "1"]) == 1
    capsys.readouterr()


def test_missing_ring_file_exits_1(capsys):
    assert run(["reduce", "--ring", "/does/not/exist.ring", "1"]) == 1
    capsys.readouterr()


def test_unknown_name_exits_1(capsys):
    assert run(["reduce", "--ring", G2_RING, "alpha + sigma"]) == 1
    assert "sigma" in capsys.readouterr().err


def test_formulas_commands(capsys):
    assert run(["formulas", "s-invariant", "--n", "6", "--d", "7", "--n-sub", "3", "--d-sub", "2"]) == 0
    assert capsys.readouterr().out == "9\n"
    assert run(["formulas", "hirschowitz-smax", "--n", "4", "--n-sub", "2", "--d", "4", "--g", "2"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert run(["formulas", "stratum-dim", "--n", "2", "--n-sub", "1", "--d", "3", "--g", "2", "--s", "1"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert run(["formulas", "quot-dim", "--sub-rank", "1", "--sub-deg", "1", "--rank", "2", "--deg", "1", "--g", "2"]) == 0
    assert capsys.readouterr().out == "-2\n"
    assert run(["formulas", "m1", "--n", "3", "--g", "4"]) == 0
    assert capsys.readouterr().out == "81\n"
    assert run(["formulas", "m2", "--n", "4"]) == 0
    assert capsys.readouterr().out == "24\n"
    assert run(["formulas", "m2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "1 (inadmissible: requires even n >= 4)\n"


def test_formulas_domain_error(capsys):
    assert run(["formulas", "stratum-dim", "--n", "4", "--n-sub", "2", "--d", "4", "--g", "2", "--s", "3"]) == 1
    assert "empty stratum" in capsys.readouterr().err
    assert run(["formulas", "hirschowitz-smax", "--n", "4", "--n-sub", "2", "--d", "4", "--g", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: genus must be at least 2, got 1\n"


def test_check_command(capsys):
    assert run(["check", "--preset", "g2-rank2"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 5
    assert "FAIL" not in out
    assert run(["check", "--preset", "jacobian", "--genus", "4"]) == 0
    capsys.readouterr()


def test_check_detail_with_too_many_digits_exits_1(capsys, monkeypatch):
    # a detail is rendered by the CLI, under the same digit guard as a count
    from maxsub import pipeline

    report = [("rank identity", True, "rank(sections) = rank(evaluation) - 4"), ("closed form", True, 5**1000)]
    monkeypatch.setattr(pipeline, "consistency_report", lambda preset: report)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["check", "--preset", "g2-rank2"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the exact result has more than 640 digits, too many to print\n"


@pytest.mark.parametrize(
    "expression,message",
    [
        ("α + 1", "line 1, column 1: unexpected character 'α'"),
        ("alpha^²", "line 1, column 7: unexpected character '²'"),
        ("٣*alpha", "line 1, column 1: unexpected character '٣'"),
    ],
)
def test_non_ascii_expression_exits_2(capsys, expression, message):
    # the grammar is ASCII: letters and digits of other scripts are syntax errors
    assert run(["reduce", "--ring", G2_RING, expression]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


NON_ASCII_RINGS = {
    "zeros": ("generators: a=2\nzeros: β\ntop_degree: 2\n", "line 2, column 8: unexpected character 'β'"),
    "degree": ("generators: a=²\ntop_degree: 2\n", "line 1, column 15: invalid degree '²' for generator 'a'"),
    "top-degree": (
        "generators: a=2\ntop_degree: ²\n",
        "line 2, column 13: top_degree must be a nonnegative integer, got '²'",
    ),
    "integral": (
        "generators: a=2\nintegrals: a = ³\ntop_degree: 2\n",
        "line 2, column 16: unexpected character '³'",
    ),
}


@pytest.mark.parametrize("case", NON_ASCII_RINGS)
def test_non_ascii_ring_file_exits_2(capsys, tmp_path, case):
    text, message = NON_ASCII_RINGS[case]
    ring = tmp_path / "bad.ring"
    ring.write_text(text, encoding="utf-8")
    assert run(["reduce", "--ring", str(ring), "a"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


FORMULA_COMMANDS = ["s-invariant", "hirschowitz-smax", "stratum-dim", "quot-dim", "m1", "m2"]

#: golden file in tests/golden -> the command whose complete --help it pins
HELP_RUNS = {
    "help-formulas.txt": ["formulas", "--help"],
    **{f"help-formulas-{name}.txt": ["formulas", name, "--help"] for name in FORMULA_COMMANDS},
}


@pytest.mark.parametrize("golden", HELP_RUNS)
def test_help_golden(capsys, monkeypatch, golden):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run(HELP_RUNS[golden]) == 0
    out = capsys.readouterr()
    assert out.out == (GOLDEN / golden).read_text()
    assert out.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["formulas", "m2", "--n", "٤"], id="arabic-indic-n"),
        pytest.param(["count", "--preset", "jacobian", "--genus", "٣"], id="arabic-indic-genus"),
        pytest.param(["check", "--preset", "jacobian", "--genus", "٣"], id="check-arabic-indic-genus"),
        pytest.param(["formulas", "m2", "--n", "+4"], id="plus-sign"),
        pytest.param(["formulas", "m2", "--n", "1_0"], id="underscore"),
        pytest.param(["formulas", "m2", "--n", " 4"], id="space"),
    ],
)
def test_integer_option_is_ascii_exits_2(capsys, argv):
    # int() reads digits of every script, a '+', '_' separators and spaces; options take none of them
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["formulas", "m2", "--n"], id="n"),
        pytest.param(["count", "--preset", "jacobian", "--genus"], id="genus"),
    ],
)
def test_integer_option_past_the_digit_limit_exits_2(capsys, argv):
    # int() refuses more digits than Python's int-to-text limit: the error names the limit, not the digits
    assert run([*argv, "9" * 5000]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    limit = sys.get_int_max_str_digits()
    assert out.err.endswith(f"error: argument {argv[-1]}: an integer has more than {limit} digits\n")
    assert "99" not in out.err and "_integer" not in out.err


def test_negative_integer_option(capsys):
    assert run(["formulas", "stratum-dim", "--n", "2", "--n-sub", "1", "--d", "-7", "--g", "2", "--s", "1"]) == 0
    out = capsys.readouterr()
    assert out.out == "5\n"
    assert out.err == ""


#: case -> (ring file text, exit code, the one error line's message)
LOAD_ERRORS = {
    "zero-not-a-monomial": (
        "generators: x=2, y=2\nzeros: x + y\ntop_degree: 4\n", 1, "zero-monomial on line 2 must be a single monomial"
    ),
    "zero-coefficient": ("generators: x=2, y=2\nzeros: 2*x\ntop_degree: 4\n", 1, "zero-monomial on line 2 must have coefficient 1"),
    # a file monomial is a product, read with no arithmetic: a sum is refused even where it cancels to one term
    "zero-a-cancelling-sum": (
        "generators: x=2, y=2\nzeros: x*y - x*y + x^2\ntop_degree: 4\n", 1, "zero-monomial on line 2 must be a single monomial"
    ),
    "rule-lhs-a-power-of-a-number": (
        "generators: x=2, y=2\nrules: 2^0*x^2 -> y^2\ntop_degree: 4\n", 1, "rule left-hand side on line 2 must have coefficient 1"
    ),
    "duplicate-integral": (
        "generators: x=2, y=2\ntop_degree: 4\nintegrals: x*y = 1\nintegrals: x*y = 2\n",
        1,
        "duplicate integral for monomial on line 4",
    ),
    "duplicate-generator": ("generators: x=2, x=2\ntop_degree: 4\n", 1, "duplicate generator names"),
    "duplicate-parameter": ("params: n, n\ngenerators: x=2\ntop_degree: 4\n", 1, "a ring's only parameter is the rank 'n', got 'n', 'n'"),
    "two-parameters": ("params: n, m\ngenerators: x=2\ntop_degree: 4\n", 1, "a ring's only parameter is the rank 'n', got 'n', 'm'"),
    "other-parameter": ("params: t\ngenerators: x=2\ntop_degree: 4\n", 1, "a ring's only parameter is the rank 'n', got 't'"),
    "generator-and-parameter": (
        "params: n\ngenerators: n=2\ntop_degree: 4\n", 1, "a name cannot be both a generator and a parameter"
    ),
    "odd-top-degree": ("generators: x=2\ntop_degree: 3\n", 1, "top_degree must be even and nonnegative, got 3"),
    "empty-zero": ("generators: x=2\nzeros: 1\ntop_degree: 4\n", 1, "the empty monomial cannot be declared zero"),
    "empty-rule": ("generators: x=2\nrules: 1 -> 1\ntop_degree: 4\n", 1, "the empty monomial cannot be a rule left-hand side"),
    "parameter-in-a-rule": (
        "params: n\ngenerators: x=2, y=2\nrules: x^2 -> n*y^2\ntop_degree: 4\n",
        1,
        "rule on line 3 uses 'n', not a generator: rules are over Q",
    ),
    "divide-by-name": (
        "generators: x=2, y=2\nzeros: 1/y\ntop_degree: 4\n",
        2,
        "line 2, column 10: '/' must be followed by an integer literal (expected an integer)",
    ),
    "divide-by-zero": ("generators: x=2\nzeros: 1/0\ntop_degree: 4\n", 2, "line 2, column 10: zero denominator"),
    "no-colon": ("generators: x=2\ntop_degree 4\n", 2, "line 2, column 1: expected 'section: content'"),
}


@pytest.mark.parametrize("case", LOAD_ERRORS)
def test_ring_file_error_is_one_line(capsys, tmp_path, case):
    text, code, message = LOAD_ERRORS[case]
    ring = tmp_path / "bad.ring"
    ring.write_text(text)
    assert run(["reduce", "--ring", str(ring), "x"]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


RING_HEAD_XY = "params: n\ngenerators: x=2, y=2\ntop_degree: 4\n"

#: line -> (an unknown name in a term that vanishes, the same name in a live term, exit code, message)
VANISHING_UNKNOWN_NAMES = {
    "rule": ("rules: x^2 -> y^2 + 0*foo", "rules: x^2 -> foo*y^2", 1, "rule on line 4 uses 'foo', not a generator: rules are over Q"),
    "zero": ("zeros: 0*bar + x^3", "zeros: bar*x^3", 1, "zero-monomial on line 4 uses unknown generator 'bar'"),
    "integral-monomial": (
        "integrals: x*y + 0*zzz = 1", "integrals: x*zzz = 1", 1, "integral monomial on line 4 uses unknown generator 'zzz'"
    ),
    "integral-value": (
        "integrals: x*y = 1 + 0*zzz", "integrals: x*y = zzz", 2, "line 4, column 18: expected an exact rational constant"
    ),
}


@pytest.mark.parametrize("line", VANISHING_UNKNOWN_NAMES)
def test_unknown_name_in_a_vanishing_file_term_exits(capsys, tmp_path, line):
    # a file expression checks every name first, as a ring expression does
    vanishing, live, code, message = VANISHING_UNKNOWN_NAMES[line]
    for text in (vanishing, live):
        ring = tmp_path / "bad.ring"
        ring.write_text(RING_HEAD_XY + text + "\n")
        assert run(["reduce", "--ring", str(ring), "x"]) == code, text
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n", text


HOSTILE_TAILS = {
    "zero-first": "0*(theta+f)^1000",
    "cancel": "(theta+f)^1000 - (theta+f)^1000",
    "zero-last": "(theta+f)^1000*0",
    # a rule's right-hand side is truncated after every product, as any expression is
    "cancel-3000": "(theta+f)^3000 - (theta+f)^3000",
    "power-3000": "(theta+f)^3000",
}


@pytest.mark.parametrize("tail", HOSTILE_TAILS.values(), ids=HOSTILE_TAILS.keys())
def test_hostile_rule_loads_fast(capsys, tmp_path, tail):
    text = Path(G2_RING).read_text().replace("xi1^2 -> -2*theta*f", f"xi1^2 -> -2*theta*f + {tail}")
    ring = tmp_path / "hostile.ring"
    ring.write_text(text)
    start = time.perf_counter()
    with within(10):
        assert run(["reduce", "--ring", str(ring), "alpha"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "alpha\n"


def test_unprintable_power_in_a_file_term_is_refused(capsys, tmp_path):
    # file expressions go through the same check, even where a later term cancels
    power = "3^3000000000*theta"
    text = Path(G2_RING).read_text().replace("xi1^2 -> -2*theta*f", f"xi1^2 -> -2*theta*f + {power} - {power}")
    ring = tmp_path / "hostile.ring"
    ring.write_text(text)
    with within(10):
        assert run(["reduce", "--ring", str(ring), "alpha"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the exact result has more than 4300 digits, too many to print\n"


def test_check_positivity_detail_with_too_many_digits_exits_1(capsys):
    # the real report: at genus 920 its positivity line holds 5^920, 644 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run(["check", "--preset", "jacobian", "--genus", "920"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the exact result has more than 640 digits, too many to print\n"


def test_failed_check_exits_1(capsys, monkeypatch):
    from maxsub import pipeline

    report = pipeline.consistency_report

    def one_failure(preset):
        (name, _, detail), *rest = report(preset)
        return [(name, False, detail), *rest]

    monkeypatch.setattr(pipeline, "consistency_report", one_failure)
    assert run(["check", "--preset", "g2-rank2"]) == 1
    out = capsys.readouterr()
    lines = (GOLDEN / "check-g2-rank2.txt").read_text().splitlines()
    assert out.out.splitlines() == ["FAIL" + lines[0].removeprefix("ok"), *lines[1:]]
    assert out.err == "error: 1 check(s) failed for preset g2-rank2\n"
