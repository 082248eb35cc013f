import json
import re
import time
from fractions import Fraction
from importlib import resources
from itertools import permutations
from pathlib import Path

import pytest

from maxsub import pipeline
from maxsub.chern import ChernCharacter, TotalChernClass
from maxsub.errors import PresentationError, PresetError
from maxsub.gradedring import GradedElement, RingPresentation
from maxsub.pipeline import (
    consistency_report,
    count_maximal_subbundles,
    load_preset,
    preset_from_text,
)

from helpers import (
    PRESET_FILES,
    character_difference,
    g2_preset,
    homogeneous_component,
    jacobian_preset,
    jacobian_ring_text,
    theta_power_integral,
    three_product_route,
    upstairs_character,
    within,
)

PRESET = g2_preset()
RING = PRESET.ring
N = RING.parameter("n")


# -- preset metadata ---------------------------------------------------------


def test_g2_preset_metadata():
    assert PRESET.covering_degree == 16
    assert PRESET.canonical_degree == 2
    assert PRESET.subbundle_degree == 1
    assert PRESET.induced_degree == N * Fraction(3, 2) - 2
    assert str(PRESET.induced_degree) == "(3/2)*n - 2"
    assert PRESET.count_label == "m_2"


def test_jacobian_preset_metadata():
    p = jacobian_preset(3)
    assert p.covering_degree == 1
    assert p.canonical_degree == 4
    assert p.induced_degree == p.rank_symbol * 3 - 2


def test_shipped_jacobian_files_match_generator():
    for g in (2, 3, 4, 5):
        assert (PRESET_FILES / f"jacobian-g{g}.ring").read_text() == jacobian_ring_text(g)


def _ring_data(ring):
    return (
        ring.generator_names, ring.generator_degrees, ring.params, ring.rules, ring.zeros,
        ring.fiber_index, ring.fiber_supported, ring.integrals, ring.top_degree,
    )


def _class_terms(cls):
    return [dict(p.items()) for p in cls.parts]


@pytest.mark.parametrize("genus", range(2, 14))
def test_jacobian_preset_built_as_data_matches_rendered_text(genus):
    built = load_preset("jacobian", genus=genus)
    parsed = preset_from_text(jacobian_ring_text(genus))
    assert _ring_data(built.ring) == _ring_data(parsed.ring)
    for field in ("name", "genus", "subbundle_rank", "subbundle_degree"):
        assert getattr(built, field) == getattr(parsed, field)
    assert _class_terms(built.chern_u) == _class_terms(parsed.chern_u)
    assert _class_terms(built.chern_l) == _class_terms(parsed.chern_l)


def test_jacobian_count_at_genus_1000_is_fast():
    # on a 2-CPU machine, the dense O(g^2) Newton recursions took about 17 s and
    # the sparse ones take about 50 ms; the bound catches a return to the former,
    # and ``within`` stops a kernel that never finishes
    with within(10):
        start = time.perf_counter()
        preset = load_preset("jacobian", genus=1000)
        count = count_maximal_subbundles(preset).count
        elapsed = time.perf_counter() - start
        assert count == preset.rank_symbol**1000
    assert elapsed < 3.0


def test_theta_integrals_match_bruteforce():
    for g in (2, 3, 4, 5):
        ring = jacobian_preset(g).ring
        (mono, value), = ring.integrals.items()
        assert value == theta_power_integral(g)


def test_genus_below_two_rejected():
    with pytest.raises(PresetError):
        load_preset("jacobian", genus=1)
    with pytest.raises(PresetError):
        jacobian_ring_text(1)
    with pytest.raises(PresetError, match="up to 10000"):
        load_preset("jacobian", genus=10001)
    with pytest.raises(PresetError):
        load_preset("g2-rank2", genus=3)
    with pytest.raises(PresetError):
        load_preset("nope")


def test_preset_header_required():
    with pytest.raises(PresetError):
        preset_from_text("generators: x=2\ntop_degree: 2\n")


def test_non_normalized_subbundle_degree_rejected():
    text = jacobian_ring_text(2).replace("subbundle_degree: 1", "subbundle_degree: 3")
    with pytest.raises(PresetError):
        preset_from_text(text)


G2_TEXT = resources.files("maxsub").joinpath("presets", "g2-rank2.ring").read_text()
FIBERLESS_TEXT = """params: n
generators: x=2
integrals: x = 1
top_degree: 2
preset: fiberless
genus: 2
subbundle_rank: 1
subbundle_degree: 1
chern_U: 1 + x
chern_L: 1 + x
"""


@pytest.mark.parametrize(
    ("text", "error", "message"),
    [
        (G2_TEXT.replace("genus: 2", "genus: 1"), PresetError, "genus must be at least 2, got 1"),
        (G2_TEXT.replace("subbundle_rank: 2", "subbundle_rank: 0"), PresetError, "subbundle rank must be positive"),
        (G2_TEXT.replace("params: n\n", ""), PresetError, "the ring must declare the rank parameter 'n'"),
        # a ring's only parameter is n: any other fails the ring's load
        (G2_TEXT.replace("params: n", "params: n, m"), PresentationError, "a ring's only parameter is the rank 'n', got 'n', 'm'"),
        (
            G2_TEXT.replace("params: n", "params: a, n, m"),
            PresentationError,
            "a ring's only parameter is the rank 'n', got 'a', 'n', 'm'",
        ),
        (G2_TEXT.replace("params: n", "params: m"), PresentationError, "a ring's only parameter is the rank 'n', got 'm'"),
        (FIBERLESS_TEXT, PresetError, "the ring must declare a fiber class"),
    ],
    ids=["genus", "subbundle-rank", "rank-parameter", "extra-parameter", "extra-parameters", "other-parameter", "fiber"],
)
def test_preset_checks(text, error, message):
    with pytest.raises(error) as info:
        preset_from_text(text)
    assert str(info.value) == message


# -- the genus-2 rank-2 ledger -------------------------------------------------


def test_upstairs_character_brackets():
    up = upstairs_character(PRESET)
    assert up.rank == 2 * N
    assert up.part(1) == RING.parse("(4*n - 4)*f - n*alpha - 2*n*xi1")
    assert up.part(2) == RING.parse("(-(5/2*n - 2)*alpha - 2*n*theta)*f + n*alpha*xi1 - n*xi2")
    assert up.part(3) == RING.parse("(1/4*n*alpha^2 + n*Lambda + n*alpha*theta)*f + 1/12*n*alpha^3")
    assert up.part(4) == RING.parse("(5/24*n - 1/6)*alpha^3*f - 1/12*n*alpha^3*xi1")
    assert up.part(5) == RING.parse("-1/12*n*alpha^3*theta*f")


def test_sections_character_displayed():
    ch = count_maximal_subbundles(PRESET).sections
    assert ch.rank == 4 * N - 4
    assert ch.part(1) == RING.parse("-(5/2*n - 2)*alpha - 2*n*theta")
    assert ch.part(2) == RING.parse("1/4*n*alpha^2 + n*Lambda + n*alpha*theta")
    assert ch.part(3) == RING.parse("(5/24*n - 1/6)*alpha^3")
    assert ch.part(4) == RING.parse("-1/12*n*alpha^3*theta")
    assert ch.part(5).is_zero


def test_evaluation_character_displayed():
    ch = count_maximal_subbundles(PRESET).evaluation
    assert ch.rank == 4 * N
    assert ch.part(1) == RING.parse("-2*n*alpha")
    assert ch.part(2).is_zero
    assert ch.part(3) == RING.parse("1/6*n*alpha^3")
    assert ch.part(4).is_zero
    assert ch.part(5).is_zero


def test_difference_character_displayed():
    diff = count_maximal_subbundles(PRESET).difference
    assert diff.rank == 4
    assert diff.part(1) == RING.parse("(1/2*n - 2)*alpha + 2*n*theta")
    assert diff.part(2) == RING.parse("-1/4*n*alpha^2 - n*Lambda - n*alpha*theta")
    assert diff.part(3) == RING.parse("(1/6 - 1/24*n)*alpha^3")
    assert diff.part(4) == RING.parse("1/12*n*alpha^3*theta")
    assert diff.part(5).is_zero


def test_count_and_integral():
    result = count_maximal_subbundles(PRESET)
    assert result.integral == N**5 / 3 + N**3 * Fraction(2, 3)
    assert result.count == N**5 / 48 + N**3 / 24
    assert result.top_class == RING.parse("(1/24*n^5 - 5/12*n^3)*alpha^3*theta^2 + n^3*theta*Lambda^2")
    assert result.specialize(4) == 24
    assert result.specialize(6) == 171
    assert result.label == "m_2"


# -- the rank-1 lane -------------------------------------------------------------


def jacobian_upstairs_oracle(preset):
    """Hand expansion of the four upstairs factors directly in the ring."""
    ring = preset.ring
    g = preset.genus
    n = ring.parameter("n")
    f = ring.generator("f")
    d = preset.induced_degree
    u_dual = ring.one() - f * preset.subbundle_degree
    l_dual = ring.one() - ring.generator("xi1") - ring.generator("theta") * f
    twisted = ring.scalar(n) + f * (d + n * (2 * g - 2))
    todd = ring.one() - f * (g - 1)
    return u_dual * l_dual * twisted * todd


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_jacobian_upstairs_matches_hand_expansion(genus):
    preset = jacobian_preset(genus)
    ring = preset.ring
    up = upstairs_character(preset)
    oracle = jacobian_upstairs_oracle(preset)
    assert ring.scalar(up.rank) == homogeneous_component(oracle, 0)
    for k in range(1, ring.top_degree // 2 + 1):
        assert up.part(k) == homogeneous_component(oracle, 2 * k)


def test_jacobian_g2_upstairs_golden():
    preset = jacobian_preset(2)
    ring = preset.ring
    up = upstairs_character(preset)
    # d' = 1 and d = 2n - 1, so the fiber coefficient d + n - n d' is 2n - 1
    assert up.rank == preset.rank_symbol
    assert up.part(1) == ring.parse("(2*n - 1)*f - n*xi1")
    assert up.part(2) == ring.parse("-n*theta*f")


def test_jacobian_g2_sections_and_evaluation():
    preset = jacobian_preset(2)
    ring = preset.ring
    n = preset.rank_symbol
    result = count_maximal_subbundles(preset)
    e = result.sections
    assert e.rank == 2 * n - 1
    assert e.part(1) == ring.parse("-n*theta")
    assert e.part(2).is_zero
    f = result.evaluation
    assert f.rank == 2 * n
    assert all(p.is_zero for p in f.parts)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_jacobian_count_is_rank_to_the_genus(genus):
    preset = jacobian_preset(genus)
    result = count_maximal_subbundles(preset)
    assert result.count == preset.rank_symbol**genus


def test_jacobian_g3_top_class_by_inline_newton():
    """Independent route to the genus-3 count: write the first three Newton
    steps out by hand and integrate against the brute-forced theta number."""
    preset = jacobian_preset(3)
    ring = preset.ring
    n = preset.rank_symbol
    result = count_maximal_subbundles(preset)
    diff = character_difference(result.evaluation, result.sections)
    p1 = diff.part(1)
    assert p1 == ring.parse("n*theta")
    assert diff.part(2).is_zero and diff.part(3).is_zero
    c1 = p1
    c2 = (c1 * p1) / 2          # p2 = 0
    c3 = (c2 * p1) / 3          # p3 = 0 and c1 * p2 = 0
    assert c3 == ring.parse("1/6*n^3*theta^3")
    assert c3.integrate() == n**3 * Fraction(theta_power_integral(3), 6)
    assert c3.integrate() == n**3


# -- one product feeds both sheaves -------------------------------------------------


@pytest.mark.parametrize("genus", [None, *range(2, 14)], ids=["g2-rank2", *(f"jacobian-g{g}" for g in range(2, 14))])
def test_shared_product_matches_the_three_product_route(genus):
    preset = PRESET if genus is None else jacobian_preset(genus)
    route = three_product_route(preset)
    result = count_maximal_subbundles(preset)
    assert upstairs_character(preset) == route["upstairs"]
    assert result.sections == route["sections"]
    assert result.evaluation == route["evaluation"]
    assert result.difference_class == route["difference_class"]
    assert result.integral == route["integral"]
    assert result.count == route["integral"] / preset.covering_degree


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 8)], ids=["g2-rank2", "jacobian-g8"])
def test_evaluation_forms_no_fiber_pushforward(preset_args, monkeypatch):
    # pi_*(X n(2g-2) f) = n(2g-2) X|pt weights every fiber integral by 0, so
    # none is formed; the sections form one per component of X
    preset = load_preset(*preset_args)
    result = count_maximal_subbundles(preset)
    calls = []

    def counted(self, method=GradedElement.pushforward_fiber):
        calls.append(self)
        return method(self)

    monkeypatch.setattr(GradedElement, "pushforward_fiber", counted)
    evaluation = result.evaluation
    assert calls == []
    result.sections
    assert len(calls) == len(result.product._parts)
    monkeypatch.undo()
    assert evaluation == three_product_route(preset)["evaluation"]


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 8)], ids=["g2-rank2", "jacobian-g8"])
def test_count_forms_no_sheaf_character(preset_args, monkeypatch):
    # the count pushes X (-n + s f) forward by the projection formula: it
    # forms neither the upstairs integrand nor either sheaf's character
    name, genus = preset_args
    preset = load_preset(name, genus=genus)
    expected = count_maximal_subbundles(preset).count

    def forbidden(*args, **kwargs):
        raise AssertionError("the count formed a sheaf character")

    for attr in ("sections", "evaluation"):
        monkeypatch.setattr(pipeline.CountResult, attr, property(forbidden))
    result = count_maximal_subbundles(preset)
    assert result.count == expected
    monkeypatch.undo()
    assert result.difference == character_difference(result.evaluation, result.sections)


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 8)], ids=["g2-rank2", "jacobian-g8"])
def test_count_multiplies_and_divides_no_element(preset_args, monkeypatch):
    # every product, sign, factorial and scale of the count is a weight of
    # the ring's sum of products: no element is multiplied, divided or
    # negated outside it
    name, genus = preset_args
    preset = load_preset(name, genus=genus)
    expected = count_maximal_subbundles(preset).count
    calls = []
    for attr in ("__mul__", "__rmul__", "__truediv__", "__neg__"):

        def counted(self, *args, attr=attr, method=getattr(GradedElement, attr)):
            calls.append(attr)
            return method(self, *args)

        monkeypatch.setattr(GradedElement, attr, counted)
    count = count_maximal_subbundles(preset).count
    monkeypatch.undo()
    assert calls == []
    assert count == expected


# -- structural invariants ---------------------------------------------------------


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 2), ("jacobian", 3)])
def test_rank_identity(preset_args):
    name, genus = preset_args
    result = count_maximal_subbundles(load_preset(name, genus=genus))
    preset, e, f = result.preset, result.sections, result.evaluation
    delta = preset.subbundle_rank**2 * (preset.genus - 1)
    assert e.rank == f.rank - delta


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 2), ("jacobian", 4)])
def test_top_character_component_vanishes(preset_args):
    name, genus = preset_args
    result = count_maximal_subbundles(load_preset(name, genus=genus))
    diff = character_difference(result.evaluation, result.sections)
    assert diff.part(result.preset.ring.top_degree // 2).is_zero


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 3)])
def test_porteous_consistency(preset_args):
    name, genus = preset_args
    result = count_maximal_subbundles(load_preset(name, genus=genus))
    e, f = result.sections, result.evaluation
    assert e.total_class() * character_difference(f, e).total_class() == f.total_class()


def test_integrality_over_admissible_ranks():
    result = count_maximal_subbundles(PRESET)
    admissible = [k for k in range(2, 100) if PRESET.is_admissible(k)][:20]
    assert admissible[:3] == [4, 6, 8]
    for k in admissible:
        value = result.specialize(k)
        assert value.denominator == 1 and value > 0
    jac = jacobian_preset(2)
    jac_result = count_maximal_subbundles(jac)
    jac_admissible = [k for k in range(2, 100) if jac.is_admissible(k)][:20]
    assert jac_admissible[0] == 2
    for k in jac_admissible:
        value = jac_result.specialize(k)
        assert value.denominator == 1 and value > 0


def test_admissibility_flags():
    assert PRESET.is_admissible(4)
    assert not PRESET.is_admissible(5)
    assert not PRESET.is_admissible(2)
    # evaluation outside the admissible range is allowed, only flagged
    assert count_maximal_subbundles(PRESET).specialize(2) == 1


def test_admissibility_matches_symbolic_induced_degree():
    # the symbolic test is_admissible used before: evaluate induced_degree at n = k
    for preset in [PRESET] + [jacobian_preset(g) for g in range(2, 9)]:
        for k in range(2, 200):
            expected = k > preset.subbundle_rank and preset.induced_degree.evaluate(k).denominator == 1
            if preset.subbundle_rank == 2 and preset.genus == 2:
                expected = expected and k >= 4 and k % 2 == 0
            assert preset.is_admissible(k) == expected, (preset.name, preset.genus, k)


def test_closed_forms_match_pipeline():
    from maxsub.formulas import m1_closed, m2_closed

    result = count_maximal_subbundles(PRESET)
    for k in range(4, 41, 2):
        assert result.specialize(k) == m2_closed(k).value
    for g in (2, 3, 4, 5):
        jac = count_maximal_subbundles(jacobian_preset(g))
        for k in range(2, 11):
            assert jac.specialize(k) == m1_closed(k, g)


def test_consistency_report_all_green():
    for name, genus in (("g2-rank2", None), ("jacobian", 2), ("jacobian", 5)):
        for check, ok, detail in consistency_report(load_preset(name, genus=genus)):
            assert ok, f"{check}: {detail}"


@pytest.mark.parametrize(
    ("old", "new"), [("genus: 2", "genus: 3"), ("subbundle_rank: 2", "subbundle_rank: 3")], ids=["rank-2-genus-3", "rank-3"]
)
def test_report_without_a_closed_form(old, new):
    # no closed form is known for n' = 2 at genus 3 or for n' = 3: the report
    # makes its structural checks and no closed-form line.  The g2 ring under
    # another header is no geometry, so its counts are not asserted
    report = consistency_report(preset_from_text(G2_TEXT.replace(old, new)))
    assert [check for check, _, _ in report] == [
        "rank identity", "top character component vanishes", "Chern class multiplicativity", "integral positive counts"
    ]
    assert all(ok for _, ok, _ in report[:3])
    assert not any("closed form" in check for check, _, _ in report)


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 3), ("jacobian", 8)])
def test_no_product_of_base_classes_past_the_top(preset_args, monkeypatch):
    # weight-0 operands multiply to weight 0, so past top_degree the product
    # truncates to 0: a recursion over base-only classes must stop before it.
    # The chern layer multiplies through the ring's sum of products, so the
    # pairs it receives are watched as well as the ring's own product.
    name, genus = preset_args
    preset = load_preset(name, genus=genus)
    ring = preset.ring
    wasted, watched_pairs = [], []
    multiply, sum_of_products = GradedElement.__mul__, RingPresentation.sum_of_products

    def base_only(x):
        return all(ring.weight(m) == 0 for m, _ in x.items())

    def watch(x, y):
        if isinstance(y, GradedElement) and not x.is_zero and not y.is_zero:
            watched_pairs.append(None)
            if base_only(x) and base_only(y) and max(x.degrees()) + max(y.degrees()) > ring.top_degree:
                wasted.append((str(x), str(y)))

    def watched_mul(self, other):
        watch(self, other)
        return multiply(self, other)

    def watched_sum(self, pairs):
        pairs = list(pairs)
        for _, x, y in pairs:
            watch(x, y)
        return sum_of_products(self, pairs)

    monkeypatch.setattr(GradedElement, "__mul__", watched_mul)
    monkeypatch.setattr(RingPresentation, "sum_of_products", watched_sum)
    count_maximal_subbundles(preset)
    consistency_report(preset)
    assert watched_pairs, "no product of two ring elements was watched"
    assert wasted == []


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 3)])
def test_report_reuses_the_count_difference_class(preset_args, monkeypatch):
    name, genus = preset_args
    preset = load_preset(name, genus=genus)
    result = count_maximal_subbundles(preset)
    assert result.top_class == result.difference_class.top()
    assert result.difference_class == character_difference(result.evaluation, result.sections).total_class()

    def perturbed(p):
        # double c_1 of the stored difference class, nothing else
        out = count_maximal_subbundles(p)
        parts = dict(out.difference_class.items())
        parts[1] = parts[1] * 2
        out.difference_class = TotalChernClass(p.ring, parts)
        return out

    monkeypatch.setattr(pipeline, "count_maximal_subbundles", perturbed)
    lines = {check: ok for check, ok, _ in consistency_report(preset)}
    assert lines["Chern class multiplicativity"] is False


@pytest.mark.parametrize("preset_args", [("g2-rank2", None), ("jacobian", 3)])
def test_report_reads_the_count_difference(preset_args, monkeypatch):
    name, genus = preset_args
    preset = load_preset(name, genus=genus)
    m = preset.ring.top_degree // 2

    def perturbed(p):
        # a nonzero top component on the stored difference, nothing else
        out = count_maximal_subbundles(p)
        parts = dict(out.difference.items())
        parts[m] = p.ring.parse(p.ring.monomial_str(next(iter(p.ring.integrals))))
        out.difference = ChernCharacter(p.ring, out.difference.rank, parts)
        return out

    monkeypatch.setattr(pipeline, "count_maximal_subbundles", perturbed)
    lines = {check: ok for check, ok, _ in consistency_report(preset)}
    assert lines["top character component vanishes"] is False
    assert lines["Chern class multiplicativity"] is True


# -- result serialization ------------------------------------------------------------


def test_record_is_exact_and_json_safe():
    result = count_maximal_subbundles(PRESET)
    record = result.to_record()
    assert record["count"]["terms"] == {"n^5": "1/48", "n^3": "1/24"}
    assert record["integral"]["terms"] == {"n^5": "1/3", "n^3": "2/3"}
    assert record["covering_degree"] == 16
    assert record["subbundle_degree"] == 1
    assert record["induced_degree"] == "(3/2)*n - 2"
    assert record["sections_character"]["rank"] == "4*n - 4"
    assert len(record["caveats"]) >= 1
    reloaded = json.loads(result.to_json())
    assert reloaded == record


def test_summary_text():
    result = count_maximal_subbundles(PRESET)
    assert result.summary() == "m_2 = (1/48)*n^5 + (1/24)*n^3"
    verbose = result.summary(verbose=True)
    assert "integral over base = (1/3)*n^5 + (2/3)*n^3" in verbose
    assert verbose.endswith("m_2 = (1/48)*n^5 + (1/24)*n^3")


# -- presentation choices and the README --------------------------------------------


def test_count_does_not_depend_on_generator_order_or_names():
    # the declaration order sets the lex order that orients the rules, and so
    # every normal form; each generator is also renamed by its new position
    lines = [line for line in G2_TEXT.splitlines() if line and not line.startswith("#")]
    (declared,) = [line for line in lines if line.startswith("generators:")]
    generators = [item.split("=") for item in declared.removeprefix("generators: ").split(", ")]
    names = re.compile(r"\b(" + "|".join(name for name, _ in generators) + r")\b")
    for order in permutations(generators):
        rename = {name: f"v{k}" for k, (name, _) in enumerate(order)}
        body = [
            "generators: " + ", ".join(f"{rename[name]}={degree}" for name, degree in order)
            if line is declared
            else names.sub(lambda m: rename[m.group()], line)
            for line in lines
        ]
        result = count_maximal_subbundles(preset_from_text("\n".join(body) + "\n"))
        assert str(result.count) == "(1/48)*n^5 + (1/24)*n^3", order


def test_readme_quickstart():
    # every commented line's value prints, by str or repr, as its comment up
    # to the first two spaces
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library quickstart")[1].split("```python\n")[1].split("```")[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        target, _, expression = code.strip().rpartition(" = ")
        value = eval(expression, namespace)
        if target:
            namespace[target] = value
        assert comment.split("  ")[0] in (str(value), repr(value)), line
        checked += 1
    assert checked == 6
