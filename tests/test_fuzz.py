"""The CLI contract under random input: ``cli.run`` over argv, expressions
and small presentation files exits 0, 1 or 2, never shows a traceback, ends
an exit 1 with one ``error:`` line, and returns within a generous time.

Draws stay where the kernel's cost is known to be small.  Two costs are
open (ROADMAP item 6) and not drawn: ``check --preset jacobian`` grows as
the square of the genus, so its genus stays at most 40; and a power is
multiplied out in full unless the constant term or the lex-leading
coefficient of its base's constant coefficient alone passes the digit
limit.  A power such as ``(1 + n)^4000``, where both are 1, still takes
about 10 s in-process (2-CPU AMD EPYC, Python 3.11), so drawn exponents
stay at most 8, and larger ones appear only where truncation or the digit
limit bounds them (the examples)."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxsub.cli import _FORMULAS, run

from helpers import within

G2_RING = str(resources.files("maxsub").joinpath("presets", "g2-rank2.ring"))

#: seconds one example may take; the slowest drawn ones take well under one
BOUND = 10

FUZZ = settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])


def run_contract(argv):
    """Run the CLI in-process and check the contract."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with within(BOUND), redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    elapsed = time.perf_counter() - start
    out, err = out.getvalue(), err.getvalue()
    assert elapsed < BOUND, (argv, elapsed)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, (argv, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    elif code == 2:
        assert "error: " in err.splitlines()[-1], (argv, err)
    else:
        assert err == "", (argv, err)


# -- argv --------------------------------------------------------------------

WORDS = (
    "count", "check", "reduce", "integrate", "formulas", "m1", "m2", "s-invariant", "hirschowitz-smax",
    "stratum-dim", "quot-dim", "--preset", "--genus", "--verbose", "--format", "--ring", "--n", "--g", "--d",
    "--n-sub", "--d-sub", "--s", "--sub-rank", "--sub-deg", "--rank", "--deg", "g2-rank2", "jacobian", "record",
    "text", "--help", "-h", G2_RING, "alpha", "alpha^3*theta^2", "0", "1", "-1", "4", "٤", "", "--",
)
INTEGERS = st.one_of(st.integers(-3, 60), st.integers(), st.sampled_from([10**4, 10**4 + 1, 10**9]))
INTEGER_TEXT = st.one_of(
    INTEGERS.map(str), st.sampled_from(["+4", " 4", "1_0", "٣", "4.0", "-", "0x10", "9" * 4300, "9" * 4301])
)


@FUZZ
@given(st.lists(st.one_of(st.sampled_from(WORDS), INTEGER_TEXT, st.text(max_size=8)), max_size=8))
@example(["formulas", "m1", "--n", "3", "--g", "100000000"])
@example(["formulas", "m1", "--n", "10", "--g", "4299"])
@example(["formulas", "m1", "--n", "10", "--g", "4300"])
@example(["formulas", "m2", "--n", "1" + "0" * 4299])
@example(["formulas", "m2", "--n", "1" + "0" * 4300])
@example(["count", "--preset", "jacobian", "--genus", "10000"])
@example(["count", "--preset", "jacobian", "--genus", "2000", "--verbose"])
@example(["count", "--preset", "jacobian", "--genus", "٣"])
@example(["formulas", "m2", "--n", "٤"])
def test_random_argv_keeps_the_contract(argv):
    run_contract(argv)


FORMULA_OPTIONS = {name: options for name, (_, _, options) in _FORMULAS.items()}


@st.composite
def commands_st(draw):
    """Well-formed argv of every command, with hostile values."""
    command = draw(st.sampled_from(["count", "check", "formulas"]))
    if command == "formulas":
        name = draw(st.sampled_from(sorted(FORMULA_OPTIONS)))
        argv = ["formulas", name]
        for option in FORMULA_OPTIONS[name]:
            argv += [f"--{option}", draw(INTEGER_TEXT)]
        return argv
    preset = draw(st.sampled_from(["g2-rank2", "jacobian"]))
    argv = [command, "--preset", preset]
    if draw(st.booleans()):
        top = 40 if command == "check" else 10**4 + 1
        argv += ["--genus", str(draw(st.one_of(st.integers(-3, 40), st.integers(-3, top))))]
    if command == "count":
        argv += draw(st.sampled_from([[], ["--verbose"], ["--format", "record"], ["--format", "json"]]))
    return argv


@FUZZ
@given(commands_st())
@example(["check", "--preset", "jacobian", "--genus", "1"])
@example(["formulas", "quot-dim", "--sub-rank", "0", "--sub-deg", "0", "--rank", "0", "--deg", "0", "--g", "0"])
def test_commands_keep_the_contract(argv):
    run_contract(argv)


# -- expressions ---------------------------------------------------------------

NAMES = ("alpha", "theta", "xi1", "xi2", "Lambda", "f", "n", "sigma")
LEAVES = st.one_of(st.sampled_from(NAMES), st.sampled_from(["0", "1", "2", "3", "1/2", "-3/4", "7/0"]))


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from([" + ", " - ", "*", " * "]), children).map("".join),
        st.tuples(children, st.integers(0, 8)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda e: f"-({e})"),
    )


EXPRESSIONS = st.one_of(
    st.recursive(LEAVES, _combine, max_leaves=8),
    st.text(alphabet=" ()+-*^/0123456789.,alphetnfxi1Λα²", max_size=24),
)


@FUZZ
@given(st.sampled_from(["reduce", "integrate"]), EXPRESSIONS)
@example("reduce", "alpha^2000000")
@example("reduce", "(alpha + theta)^2000000")
@example("reduce", "2^20000")
@example("reduce", "3^2000000")
@example("reduce", "3^3000000000")
@example("reduce", "(3 + alpha)^3000000000")
@example("reduce", "(3 + n)^3000000000")
@example("reduce", "(3*n)^30000000")
@example("reduce", "(3*n + alpha)^3000000000")
@example("reduce", "(1 + alpha)^2000000")
@example("integrate", "2^20000*alpha^3*theta^2")
@example("integrate", "alpha^2*theta^2*f")
@example("reduce", "(" * 5000 + "alpha" + ")" * 5000)
@example("reduce", "theta*" * 5000 + "theta")
@example("reduce", "α + 1")
@example("reduce", "alpha^-1")
@example("reduce", "alpha^(2)")
def test_expressions_keep_the_contract(command, expression):
    run_contract([command, "--ring", G2_RING, expression])


# -- presentation files ----------------------------------------------------------

FILE_NAMES = ("a", "b", "c", "n", "foo")
FILE_LEAVES = st.one_of(st.sampled_from(FILE_NAMES), st.sampled_from(["0", "1", "2", "1/2", "-1"]))
FILE_EXPRESSIONS = st.recursive(FILE_LEAVES, _combine, max_leaves=5)
DEGREES = st.sampled_from(["2", "4", "6", "0", "3", "-2", "x", "²", ""])


@st.composite
def ring_files_st(draw):
    """A small presentation file: mostly well-formed lines, some broken ones."""
    lines = []
    if draw(st.booleans()):
        lines.append("params: " + draw(st.sampled_from(["n", "n, m", "n,", "a", "n, n", "t"])))
    gens = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    lines.append("generators: " + ", ".join(f"{g}={draw(DEGREES)}" for g in gens))
    for _ in range(draw(st.integers(0, 3))):
        lines.append(f"rules: {draw(FILE_EXPRESSIONS)} -> {draw(FILE_EXPRESSIONS)}")
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"zeros: {draw(FILE_EXPRESSIONS)}")
    if draw(st.booleans()):
        lines.append(f"fiber: {draw(st.sampled_from(FILE_NAMES))}")
    if draw(st.booleans()):
        lines.append(f"fiber_supported: {draw(st.sampled_from(FILE_NAMES))}")
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"integrals: {draw(FILE_EXPRESSIONS)} = {draw(st.sampled_from(['1', '-2', '1/2', 'a', '1/0']))}")
    lines.append("top_degree: " + draw(st.sampled_from(["0", "2", "4", "6", "8", "3", "-2", "1000000", "x"])))
    if draw(st.booleans()):
        lines.append(draw(st.text(alphabet="abn:=,-> ^*#0123\t", max_size=16)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@FUZZ
@given(ring_files_st(), st.sampled_from(["reduce", "integrate"]), FILE_EXPRESSIONS)
@example("generators: a=2\nrules: a^2 -> a^2\ntop_degree: 4\n", "reduce", "a^3")
@example("generators: a=2, b=2\nrules: a*b -> b^2\nrules: b^2 -> a*b\ntop_degree: 4\n", "reduce", "a*b")
@example("generators: a=2\nrules: a -> 0*(a+a)^1000\ntop_degree: 4\n", "reduce", "a")
@example("generators: a=2\nzeros: a^3, , a^4\ntop_degree: 4\n", "reduce", "a")
@example("generators: a=2\nintegrals: a = 1/0\ntop_degree: 2\n", "integrate", "a")
@example("generators: a=2\ntop_degree: 1000000\n", "reduce", "a^500000")
@example("params: n, m\ngenerators: a=2\ntop_degree: 4\n", "reduce", "n*a")
@example("params: t\ngenerators: a=2\ntop_degree: 4\n", "reduce", "t*a")
def test_ring_files_keep_the_contract(tmp_path_factory, text, command, expression):
    ring = tmp_path_factory.mktemp("fuzz") / "fuzz.ring"
    ring.write_text(text, encoding="utf-8")
    run_contract([command, "--ring", str(ring), expression])
