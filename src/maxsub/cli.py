"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors, 2 on usage or parse errors.  Output is byte-stable
across runs (canonical monomial ordering, exact rationals), so it is safe
to pin in golden-file tests.

Each command imports the modules it needs when it runs, so a process loads
no more of the package than its command uses.
"""

from __future__ import annotations

import argparse
import sys

from . import PRESET_NAMES
from .errors import KernelError, ParseError, check_power_digits, too_many_digits


def _load_ring_file(path: str):
    from .gradedring import load_presentation

    with open(path) as file:
        return load_presentation(file.read())


def _print_exact(value, render=str) -> None:
    try:  # Python caps int-to-text conversion, which keeps printing time bounded
        text = render(value)
    except ValueError:
        raise too_many_digits() from None
    print(text)


def _cmd_count(args) -> int:
    from .pipeline import count_maximal_subbundles, load_preset

    preset = load_preset(args.preset, genus=args.genus)
    result = count_maximal_subbundles(preset)
    if args.format == "record":
        _print_exact(result, lambda r: r.to_json())
    else:
        _print_exact(result, lambda r: r.summary(verbose=args.verbose))
    return 0


def _cmd_reduce(args) -> int:
    ring = _load_ring_file(args.ring)
    _print_exact(ring.parse(args.expression))
    return 0


def _cmd_integrate(args) -> int:
    ring = _load_ring_file(args.ring)
    _print_exact(ring.parse(args.expression).integrate())
    return 0


def _cmd_check(args) -> int:
    from .pipeline import consistency_report, load_preset

    preset = load_preset(args.preset, genus=args.genus)
    report = consistency_report(preset)
    lines = (f"{'ok' if ok else 'FAIL'}: {name} ({detail})" for name, ok, detail in report)
    _print_exact(lines, "\n".join)  # a detail may hold a number too long to print
    failures = sum(not ok for _, ok, _ in report)
    if failures:
        print(f"error: {failures} check(s) failed for preset {preset.name}", file=sys.stderr)
        return 1
    return 0


#: formulas command -> (function in maxsub.formulas, help, its integer options in call order)
_FORMULAS = {
    "s-invariant": ("s_invariant", "n'd - nd'", ("n", "d", "n-sub", "d-sub")),
    "hirschowitz-smax": ("hirschowitz_smax", "generic maximum of the minimal invariant", ("n", "n-sub", "d", "g")),
    "stratum-dim": ("stratum_dim", "dimension of the fixed-invariant stratum", ("n", "n-sub", "d", "g", "s")),
    "quot-dim": ("quot_dim", "expected dimension of a subsheaf space", ("sub-rank", "sub-deg", "rank", "deg", "g")),
    "m1": ("m1_closed", "count of maximal line subbundles, n^g", ("n", "g")),
    "m2": ("m2_closed", "genus-2 count of maximal rank-2 subbundles", ("n",)),
}


def _cmd_formulas(args) -> int:
    from . import formulas

    function, _, options = _FORMULAS[args.formula]
    values = [getattr(args, option.replace("-", "_")) for option in options]
    if args.formula == "m1" and values[0] > 1:
        check_power_digits(*values)  # n^g takes time that grows with its digits
    _print_exact(getattr(formulas, function)(*values))
    return 0


def _integer(text: str) -> int:
    """An integer option: an optional '-', then ASCII digits.  int() alone
    also takes digits of other scripts, '+', '_' and surrounding spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than Python's int-to-text limit: echo none of them
        raise argparse.ArgumentTypeError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxsub",
        description="count maximal subbundles of general bundles on curves, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="run a counting preset end to end")
    count.add_argument("--preset", required=True, choices=PRESET_NAMES)
    count.add_argument("--genus", type=_integer, default=None, help="genus for the jacobian preset (default 2)")
    count.add_argument("--verbose", action="store_true", help="print the intermediate characters")
    count.add_argument("--format", choices=("text", "record"), default="text")
    count.set_defaults(handler=_cmd_count)

    reduce_cmd = sub.add_parser("reduce", help="normal form of an expression in a presented ring")
    reduce_cmd.add_argument("--ring", required=True, help="presentation file")
    reduce_cmd.add_argument("expression")
    reduce_cmd.set_defaults(handler=_cmd_reduce)

    integrate = sub.add_parser("integrate", help="integrate an expression against the fundamental class")
    integrate.add_argument("--ring", required=True, help="presentation file")
    integrate.add_argument("expression")
    integrate.set_defaults(handler=_cmd_integrate)

    form = sub.add_parser("formulas", help="closed-form invariants")
    fsub = form.add_subparsers(dest="formula", required=True)

    for formula, (_, help_text, options) in _FORMULAS.items():
        command = fsub.add_parser(formula, help=help_text)
        for option in options:
            command.add_argument(f"--{option}", type=_integer, required=True)

    form.set_defaults(handler=_cmd_formulas)

    check = sub.add_parser("check", help="run a preset's internal consistency suite")
    check.add_argument("--preset", required=True, choices=PRESET_NAMES)
    check.add_argument("--genus", type=_integer, default=None)
    check.set_defaults(handler=_cmd_check)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KernelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
