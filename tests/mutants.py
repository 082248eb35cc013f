"""Committed mutation checks: each mutant breaks the program on purpose, and a
narrow pytest selection must fail on it.

Run from anywhere, with pytest and hypothesis installed::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only these

``src/`` and ``tests/`` are copied once to a temporary directory.  Each mutant
replaces one exact text in one file of the copy, runs its selection there
and puts the file back; the tree this script lives in is never written.
Before any mutant, every selection runs once on its own on the unmutated
copy and must pass, so a selection that names no test, fails anyway, or
passes only after other tests have run is caught.  A mutant
is *killed* when its selection fails (or runs past :data:`TIMEOUT`) and
*survives* when it passes.  An old text that is not found exactly once is an
error, so the table follows the code.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
table or the baseline is broken.  pytest does not collect this file: its
name does not match ``test_*.py``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seconds a selection may run on one mutant before it counts as killed.
TIMEOUT = 120


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # found exactly once in the file
    new: str
    selection: tuple  # pytest node ids


RING = "src/maxsub/gradedring.py"
SCALARS = "src/maxsub/scalars.py"
CHERN = "src/maxsub/chern.py"
PIPELINE = "src/maxsub/pipeline.py"
PARSING = "src/maxsub/parsing.py"

G2_PAIRS = "tests/test_ring.py::test_sum_of_products_on_every_pair_of_basis_monomials[g2-rank2]"
RATIONAL_RULE_PAIRS = "tests/test_ring.py::test_sum_of_products_matches_the_fold_with_a_rational_rule"
MONOMIALS = "tests/test_parsing.py::test_monomial_reads_a_product_of_powers"
THREE_PRODUCT_ROUTE = "tests/test_pipeline.py::test_shared_product_matches_the_three_product_route[g2-rank2]"
OUT_OF_ORDER = "tests/test_chern.py::test_components_out_of_order_are_sorted"
BINOMIAL_WEIGHTS = "tests/test_evaluate.py::test_binomial_weights_step_down_exactly"
SUBSTITUTION = "tests/test_evaluate.py::test_substituting_k_for_n_commutes_with_the_ring"

MUTANTS = (
    # -- rules over Q: the kernel folds a rational normal-form coefficient --
    Mutant(
        "normal-form-denominator-dropped",
        RING,
        "k, d = k * c3.numerator, d * c3.denominator",
        "k, d = k * c3.numerator, d",
        (RATIONAL_RULE_PAIRS,),
    ),
    Mutant(
        "normal-form-multiply-skipped",
        RING,
        "k, d = k * c3.numerator, d * c3.denominator",
        "k, d = k, d * c3.denominator",
        (G2_PAIRS,),
    ),
    Mutant(
        "rule-coefficient-check-removed",
        RING,
        "if not isinstance(coeff, (int, Fraction)):",
        "if False:",
        ("tests/test_ring.py::test_rule_coefficient_must_be_rational",),
    ),
    Mutant(
        "free-ring-with-parameters",
        RING,
        "free = RingPresentation(data.generators, **fields)",
        "free = RingPresentation(data.generators, data.params, **fields)",
        ("tests/test_cli.py::test_ring_file_error_is_one_line[parameter-in-a-rule]",),
    ),
    Mutant(
        "integrate-drops-a-term",
        RING,
        "else total + coeff * value",
        "else total",
        ("tests/test_pipeline.py::test_count_and_integral",),
    ),
    Mutant(
        "pushforward-at-weight-zero",
        PIPELINE,
        "        if a:\n            pushed = part.pushforward_fiber()",
        "        if True:\n            pushed = part.pushforward_fiber()",
        ("tests/test_pipeline.py::test_evaluation_forms_no_fiber_pushforward",),
    ),
    Mutant(
        "count-imports-importlib-resources",
        PIPELINE,
        "import os\n",
        "import os\nimport importlib.resources\n",
        ("tests/test_imports.py::test_count_loads_no_resource_path_or_typing_modules",),
    ),
    # -- the one parameter n, one names-first check, and file monomials read as products --
    Mutant(
        "rank-parameter-check-removed",
        RING,
        "if self.params not in ((), (PARAMETER,)):",
        "if False:",
        ("tests/test_cli.py::test_ring_file_error_is_one_line[other-parameter]",),
    ),
    Mutant(
        "coefficient-rule-admits-n",
        RING,
        "if self.params or value.is_constant:",
        "if True:",
        ("tests/test_scalars.py::test_conversion_rule",),
    ),
    Mutant(
        "evaluate-ignores-its-value",
        SCALARS,
        "        value = as_fraction(value)\n        p, q, top",
        "        value = Fraction(1)\n        p, q, top",
        ("tests/test_scalars.py::test_evaluate",),
    ),
    Mutant(
        "monomial-skips-the-names-check",
        PARSING,
        "    check_names(node, index, lambda name:",
        "    (lambda *args: None)(node, index, lambda name:",
        ("tests/test_parsing.py::test_monomial_refuses_sums_and_numbers",),
    ),
    Mutant(
        "monomial-drops-a-power",
        PARSING,
        "stack.append((node.base, times * node.exponent))",
        "stack.append((node.base, times))",
        (MONOMIALS,),
    ),
    Mutant(
        "monomial-drops-a-factor",
        PARSING,
        "stack += ((node.right, times), (node.left, times))",
        "stack.append((node.left, times))",
        (MONOMIALS,),
    ),
    Mutant(
        "monomial-accepts-a-sum",
        PARSING,
        'elif isinstance(node, BinOp) and node.op == "*":',
        "elif isinstance(node, BinOp):",
        ("tests/test_cli.py::test_ring_file_error_is_one_line[zero-a-cancelling-sum]",),
    ),
    # -- the kernel's sums and the scalars' integer layer --
    Mutant(
        "no-gcd-in-the-kernel-output",
        SCALARS,
        "    common = gcd(den, *num.values())\n    if common != 1:",
        "    common = 1\n    if common != 1:",
        (G2_PAIRS,),
    ),
    Mutant(
        "zero-multiplier-not-skipped",
        RING,
        "            if not wn:\n                continue",
        "            if False:\n                continue",
        ("tests/test_ring.py::test_sum_of_products_skips_a_zero_multiplier",),
    ),
    Mutant(
        "no-denominator-lift",
        RING,
        "                            if den % d:",
        "                            if False:",
        (G2_PAIRS,),
    ),
    Mutant(
        "no-ring-check-on-x",
        RING,
        "wn, wd = w.numerator, w.denominator\n            if x.ring is not self:",
        "wn, wd = w.numerator, w.denominator\n            if False:",
        ("tests/test_ring.py::test_sum_of_products_rejects_another_ring",),
    ),
    Mutant(
        "pair-table-uncapped",
        RING,
        "if stored < PAIRS_PER_NORMAL_FORM * len(cache):",
        "if True:",
        ("tests/test_ring.py::test_pair_table_stays_bounded_where_pairs_do_not_repeat",),
    ),
    Mutant(
        "exponents-not-added",
        SCALARS,
        "e = e1 + e2",
        "e = e1",
        (G2_PAIRS, SUBSTITUTION),
    ),
    Mutant(
        "product-multiplier-dropped",
        SCALARS,
        "    for e1, c1 in p.items():\n        c1 *= k",
        "    for e1, c1 in p.items():\n        pass",
        (RATIONAL_RULE_PAIRS, SUBSTITUTION),
    ),
    Mutant(
        "second-polynomial-factor-is-the-first",
        RING,
        "p, q, k12 = n1, n2, k1",
        "p, q, k12 = n1, n1, k1",
        (SUBSTITUTION,),
    ),
    # -- the element product: one stream of products into the normal form --
    Mutant(
        "products-not-normalized",
        RING,
        "return _element(ring, ring._normalize(products))",
        "return _element(ring, dict(products))",
        ("tests/test_evaluate.py::test_parse_matches_expand_then_reduce_examples",),
    ),
    # -- normal forms --
    Mutant(
        "zeros-tried-after-rules",
        RING,
        "[(z, ()) for z in self.zeros] + list(self.rules)",
        "list(self.rules) + [(z, ()) for z in self.zeros]",
        ("tests/test_ring.py::test_monomial_under_a_zero_and_a_rule_normalizes_to_zero",),
    ),
    Mutant(
        "confluence-skips-the-zeros",
        RING,
        "enumerate(rules[i + 1 :] + zeros, start=i + 1)",
        "enumerate(rules[i + 1 :], start=i + 1)",
        ("tests/test_confluence.py::test_confluence_error_names_both_reducers[rule-against-zero]",),
    ),
    Mutant(
        "restriction-keeps-weight-one",
        RING,
        "{m: c for m, c in self._terms.items() if not ring.weight(m)}",
        "{m: c for m, c in self._terms.items() if ring.weight(m) < 2}",
        ("tests/test_ring.py::test_restriction_kills_fiber_supported",),
    ),
    # -- the scanner --
    Mutant(
        "scanner-column-off-by-one-after-a-newline",
        PARSING,
        "line, offset = line + 1, match.start()",
        "line, offset = line + 1, match.end()",
        ("tests/test_parsing.py::test_tokenizer_positions_across_lines",),
    ),
    # -- powers --
    Mutant(
        "wrong-binomial-weight",
        RING,
        "pairs.append((weight, powers[j], scale))",
        "pairs.append((weight + (j == 3), powers[j], scale))",
        ("tests/test_evaluate.py::test_power_matches_repeated_multiplication[jacobian-g12]",),
    ),
    Mutant(
        "binomial-weight-step-off-by-one",
        RING,
        "weight * j // (exponent - j + 1)",
        "weight * j // (exponent - j + 2)",
        (BINOMIAL_WEIGHTS,),
    ),
    Mutant(
        "binomial-route-skipped",
        RING,
        "if c is not None and isinstance(exponent, int) and exponent >= 0:",
        "if False:",
        ("tests/test_evaluate.py::test_power_route",),
    ),
    Mutant(
        "binomial-top-one-short",
        RING,
        "top = min(exponent, ring.max_degree // d)",
        "top = min(exponent, ring.max_degree // d - 1)",
        (BINOMIAL_WEIGHTS,),
    ),
    Mutant(
        "no-leading-coefficient-check",
        PARSING,
        "for value in (scalar.constant_term(), scalar.leading_coefficient()):",
        "for value in (scalar.constant_term(),):",
        ("tests/test_cli.py::test_power_with_an_unprintable_constant_term_is_refused_before_it_is_computed",),
    ),
    # -- the Chern layer --
    Mutant(
        "dual-signs-dropped",
        CHERN,
        "signs = (1, -1) if dual else (1, 1)",
        "signs = (1, 1)",
        (THREE_PRODUCT_ROUTE,),
    ),
    Mutant(
        "newton-weight-sign-flipped",
        CHERN,
        "sign = 1 if i % 2 else -1",
        "sign = -1 if i % 2 else 1",
        ("tests/test_chern.py::test_universal_bundle_character",),
    ),
    Mutant(
        "graded-product-component-dropped",
        CHERN,
        "return {k: sum_of_products(terms) for k, terms in pairs.items() if terms}",
        "return {k: sum_of_products(terms) for k, terms in pairs.items() if terms and k > 1}",
        (THREE_PRODUCT_ROUTE,),
    ),
    Mutant(
        "bound-one-short",
        CHERN,
        "    return ring.top_degree // 2\n",
        "    return ring.top_degree // 2 - 1\n",
        ("tests/test_pipeline.py::test_count_and_integral", THREE_PRODUCT_ROUTE),
    ),
    Mutant(
        "bound-needs-every-term-fiber-bearing",
        CHERN,
        "if any(map(ring.weight, x._terms)):",
        "if all(map(ring.weight, x._terms)):",
        ("tests/test_chern.py::test_newton_recursions_cross_gaps_as_wide_as_their_reach[bounded]",),
    ),
    Mutant(
        "checked-keys-unsorted",
        CHERN,
        "return _nonzero({k: out[k] for k in sorted(out)})",
        "return _nonzero({k: out[k] for k in out})",
        (OUT_OF_ORDER,),
    ),
    Mutant(
        "total-element-keys-unsorted",
        CHERN,
        "{k: GradedElement(ring, terms[k]) for k in sorted(terms)}",
        "{k: GradedElement(ring, terms[k]) for k in terms}",
        (OUT_OF_ORDER,),
    ),
)


def _pytest(cwd: str, selection, timeout=None) -> tuple:
    """(exit code, seconds, output tail) of one pytest run in ``cwd``; the
    exit code is None when the run passed ``timeout``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=1", *selection]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, ""
    return proc.returncode, time.perf_counter() - start, (proc.stdout + proc.stderr)[-2000:]


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="maxsub-mutants-") as work:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, tree), os.path.join(work, tree), ignore=ignore)
        originals = {}
        for m in mutants:
            with open(os.path.join(work, m.path), encoding="utf-8") as file:
                text = originals.setdefault(m.path, file.read())
            if text.count(m.old) != 1:
                print(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.path}, not once")
                return 2
        start = time.perf_counter()
        selections = list(dict.fromkeys(m.selection for m in mutants))
        for selection in selections:
            code, _, tail = _pytest(work, selection)
            if code != 0:
                print(f"baseline: {' '.join(selection)} does not pass on the unmutated code (exit {code})\n{tail}")
                return 2
        print(f"baseline: {len(selections)} selection(s) pass in {time.perf_counter() - start:.1f} s")
        survived = []
        for m in mutants:
            path = os.path.join(work, m.path)
            with open(path, "w", encoding="utf-8") as file:
                file.write(originals[m.path].replace(m.old, m.new))
            try:
                code, seconds, tail = _pytest(work, m.selection, TIMEOUT)
            finally:
                with open(path, "w", encoding="utf-8") as file:
                    file.write(originals[m.path])
            if code == 0:
                survived.append(m.name)
                print(f"SURVIVED {m.name} ({seconds:.1f} s)")
            else:
                print(f"killed   {m.name} ({seconds:.1f} s{', timeout' if code is None else ''})")
    print(f"{len(mutants) - len(survived)} killed, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
