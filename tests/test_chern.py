import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxsub import chern
from maxsub.chern import ChernCharacter, TotalChernClass, _character, _graded_product
from maxsub.gradedring import GradedElement, RingPresentation
from maxsub.pipeline import count_maximal_subbundles
from maxsub.scalars import ParamScalar, as_fraction

from helpers import (
    character_difference,
    dense_character,
    dense_graded_product,
    dense_total_class,
    elements_st,
    exponential_element,
    g2_preset,
    homogeneous_component,
    jacobian_preset,
    scalars_st,
    sparse_components_st,
    within,
)

PRESET = g2_preset()
RING = PRESET.ring


def character_from(rank, *part_texts):
    return ChernCharacter(RING, rank, [RING.parse(t) for t in part_texts])


def _other_theta():
    return jacobian_preset(3).ring.generator("theta")


#: case -> (a call with a bad argument, the exception type, its message)
ARGUMENT_ERRORS = {
    "component-numbered-0": (
        lambda: ChernCharacter(RING, 1, {0: RING.parse("alpha")}),
        ValueError,
        "character components are numbered from 1, got 0",
    ),
    "component-of-another-ring": (
        lambda: TotalChernClass(RING, [_other_theta()]),
        ValueError,
        "Chern class component 1 belongs to a different presentation",
    ),
    "part-0": (lambda: character_from(2, "alpha").part(0), IndexError, "use .rank for ch_0"),
    "tensor-across-rings": (
        lambda: character_from(2, "alpha").tensor(ChernCharacter(_other_theta().ring, 1, [_other_theta()])),
        ValueError,
        "characters belong to different presentations",
    ),
    "class-product-across-rings": (
        lambda: PRESET.chern_u * TotalChernClass(_other_theta().ring, [_other_theta()]),
        ValueError,
        "Chern classes belong to different presentations",
    ),
    "element-divided-by-0": (lambda: RING.parse("alpha") / 0, ZeroDivisionError, "division of a ring element by zero"),
    "float-as-fraction": (lambda: as_fraction(0.5), TypeError, "expected an exact rational, got float"),
    "float-as-scalar": (lambda: RING.coefficient(0.5), ValueError, "expected an exact scalar, got float"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_kernel_argument_errors(case):
    call, error, message = ARGUMENT_ERRORS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# -- conversion goldens --------------------------------------------------------


def test_universal_bundle_character():
    ch = PRESET.chern_u.character(2)
    assert ch.rank == 2
    assert ch.part(1) == RING.parse("alpha + f")
    assert ch.part(2) == RING.parse("-xi2")
    assert ch.part(3) == RING.parse("-1/12*alpha^3 - 1/4*alpha^2*f")
    assert ch.part(4).is_zero
    assert ch.part(5).is_zero


def test_line_bundle_character():
    ch = PRESET.chern_l.character(1)
    assert ch.rank == 1
    assert ch.part(1) == RING.generator("xi1")
    assert ch.part(2) == RING.parse("-theta*f")
    assert all(ch.part(k).is_zero for k in (3, 4, 5))


def test_trivial_bundle_character():
    c = TotalChernClass(RING)  # total class 1
    ch = c.character(7)
    assert ch.rank == 7
    assert all(p.is_zero for p in ch.parts)


def test_constant_character_has_trivial_class():
    ch = ChernCharacter(RING, RING.parameter("n"))
    c = ch.total_class()
    assert all(p.is_zero for p in c.parts)


def test_class_of_line_bundle_character_roundtrip():
    ch = character_from(1, "xi1", "-theta*f")
    c = ch.total_class()
    assert c.component(1) == RING.generator("xi1")
    assert all(c.component(k).is_zero for k in (2, 3, 4, 5))


def test_top_class_of_displayed_difference():
    # the displayed virtual difference: rank 4 with four graded components
    ch = character_from(
        4,
        "(1/2*n - 2)*alpha + 2*n*theta",
        "-1/4*n*alpha^2 - n*Lambda - n*alpha*theta",
        "(1/6 - 1/24*n)*alpha^3",
        "1/12*n*alpha^3*theta",
        "0",
    )
    c5 = ch.total_class().component(5)
    assert c5 == RING.parse("(1/24*n^5 - 5/12*n^3)*alpha^3*theta^2 + n^3*theta*Lambda^2")


# -- dual, tensor, sum ----------------------------------------------------------


def test_dual_of_line_bundle():
    ch = character_from(1, "xi1", "-theta*f")
    dual = ch.dual()
    assert dual.part(1) == RING.parse("-xi1")
    assert dual.part(2) == RING.parse("-theta*f")
    # oracle: the dual of a line bundle is the exponential of -c_1
    expected = exponential_element(RING.parse("-xi1"))
    for k in range(1, 6):
        assert dual.part(k) == homogeneous_component(expected, 2 * k)


def test_dual_fixes_constants():
    ch = ChernCharacter(RING, 5)
    assert ch.dual() == ch


def test_tensor_unit_and_ranks():
    one = ChernCharacter(RING, 1)
    u = PRESET.chern_u.character(2)
    assert u.tensor(one) == u
    n = RING.parameter("n")
    big = ChernCharacter(RING, n)
    assert u.tensor(PRESET.chern_l.character(1), big).rank == 2 * n


def test_components_out_of_order_are_sorted():
    c1, c2 = RING.parse("alpha + f"), RING.parse("alpha^2 + xi2")
    ch = ChernCharacter(RING, 2, {2: c2, 1: c1})
    assert [k for k, _ in ch.items()] == [1, 2]
    assert ch.total_class() == ChernCharacter(RING, 2, {1: c1, 2: c2}).total_class()


def test_reprs():
    ch = character_from(2, "alpha + f", "0", "alpha^3")
    assert repr(ch) == "ChernCharacter(2 + [alpha + f] + [alpha^3])"
    assert repr(ChernCharacter(RING, RING.parameter("n"))) == "ChernCharacter(n)"
    assert repr(TotalChernClass(RING, [RING.parse("xi1")])) == "TotalChernClass(1 + [xi1])"
    assert repr(TotalChernClass(RING)) == "TotalChernClass(1)"


def test_inhomogeneous_component_rejected():
    with pytest.raises(ValueError):
        ChernCharacter(RING, 1, [RING.parse("alpha + alpha^2")])
    with pytest.raises(ValueError):
        TotalChernClass(RING, [RING.parse("theta^2")])


def test_total_class_requires_unit_constant_term():
    with pytest.raises(ValueError):
        TotalChernClass.from_total_element(RING, RING.parse("2 + alpha"))


# -- law-level checks ------------------------------------------------------------


def random_class_st():
    return elements_st(RING, max_terms=3).map(
        lambda x: TotalChernClass(
            RING,
            [homogeneous_component(x, 2 * k) for k in range(1, RING.top_degree // 2 + 1)],
        )
    )


def random_character_st():
    return st.tuples(st.integers(-3, 3), elements_st(RING, max_terms=3)).map(
        lambda pair: ChernCharacter(
            RING,
            pair[0],
            [homogeneous_component(pair[1], 2 * k) for k in range(1, RING.top_degree // 2 + 1)],
        )
    )


@given(random_class_st(), st.integers(-3, 3))
def test_roundtrip_class_to_character(c, rank):
    assert c.character(rank).total_class() == c


@given(random_character_st())
def test_roundtrip_character_to_class(ch):
    assert ch.total_class().character(ch.rank) == ch


@given(random_character_st(), random_character_st())
def test_class_multiplicativity(a, b):
    # c(A) c(B - A) = c(B), the consistency behind the degeneracy-locus count
    assert a.total_class() * character_difference(b, a).total_class() == b.total_class()


@given(random_character_st())
def test_dual_involution(ch):
    assert ch.dual().dual() == ch


@given(random_character_st(), random_character_st())
def test_dual_of_tensor(a, b):
    assert a.tensor(b).dual() == a.dual().tensor(b.dual())
    # the count's one product ch(U*) ch(L*) carries the duals' signs on its weights
    signed = _graded_product(RING, a.rank, a._parts, b.rank, b._parts, dual=True)
    assert _character(RING, a.rank * b.rank, signed) == a.dual().tensor(b.dual())


@given(random_character_st(), random_character_st())
def test_tensor_commutative(a, b):
    assert a.tensor(b) == b.tensor(a)


@given(st.sampled_from(["alpha", "theta", "xi1", "f"]), st.integers(-2, 2))
def test_line_bundle_exponential(name, scale):
    x = RING.generator(name) * scale
    one_plus = RING.one() + x
    ch = TotalChernClass.from_total_element(RING, one_plus).character(1)
    expected = exponential_element(x)
    assert ch.rank == 1
    for k in range(1, RING.top_degree // 2 + 1):
        assert ch.part(k) == homogeneous_component(expected, 2 * k)


@given(sparse_components_st(RING), sparse_components_st(RING), scalars_st(RING), st.one_of(st.integers(-3, 3), scalars_st(RING)))
def test_graded_product_matches_dense_double_loop(a, b, a0, b0):
    dense = []
    for k in range(1, len(a) + 1):
        term = a[k - 1] * b0 + b[k - 1] * a0
        for i in range(1, k):
            term = term + a[i - 1] * b[k - i - 1]
        dense.append(term)
    sparse = _graded_product(RING, a0, dict(enumerate(a, start=1)), b0, dict(enumerate(b, start=1)))
    assert [sparse.get(k, RING.zero()) for k in range(1, len(a) + 1)] == dense


def test_class_product_rebuilds_no_coefficient(monkeypatch):
    # both constant terms of c(A) * c(B) are 1, so a linear term goes in as it
    # is, and every other product is one call of the ring's sum of products
    a = [RING.parse("alpha + n*theta"), RING.parse("(n - 1/2)*alpha^2"), RING.parse("theta*xi2")]
    b = [RING.parse("2/3*theta - f"), RING.parse("n^2*alpha*theta")]
    expected = dense_graded_product(1, a, 1, b + [RING.zero()])
    calls = []
    for cls in (ParamScalar, GradedElement):

        def counted(self, other, multiply=cls.__mul__):
            calls.append(other)
            return multiply(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
    product = TotalChernClass(RING, a) * TotalChernClass(RING, b)
    monkeypatch.undo()
    assert calls == []
    assert list(product.parts)[:3] == expected


@pytest.mark.parametrize("total, steps", [("1 + f", 2), ("1 + xi1", 3), ("1 + xi1 + theta*f", 4)])
def test_recursion_calls_the_kernel_only_on_steps_with_terms(total, steps, monkeypatch):
    # on curve x base a fiber-bearing class runs up to the ring's max degree,
    # genus + 1 at genus 20; a step whose every product reads a vanished
    # component has no term and makes no call of the ring's sum of products
    ring = jacobian_preset(20).ring
    c = TotalChernClass.from_total_element(ring, ring.parse(total))
    padded = tuple(c.parts) + (ring.zero(),)
    calls = []
    kernel = RingPresentation.sum_of_products

    def counted(self, pairs):
        calls.append(None)
        return kernel(self, pairs)

    monkeypatch.setattr(RingPresentation, "sum_of_products", counted)
    ch = c.character(1)
    monkeypatch.undo()
    assert len(calls) == steps
    assert list(ch.parts) + [ch.part(ring.max_degree // 2)] == dense_character(ring, padded)
    assert ch.total_class() == c


def _unbounded(monkeypatch):
    # a bound no recursion could walk to: only the provable stop ends it
    monkeypatch.setattr(chern, "_bound", lambda ring, *inputs: 10**6)


STOP_PRESETS = {"jacobian-g20": jacobian_preset(20), "g2-rank2": PRESET}


@pytest.mark.parametrize("name", STOP_PRESETS)
def test_newton_recursions_stop_without_their_bound(name, monkeypatch):
    # once a step is more than max(given) past the last nonzero output, no
    # later step has a product: the count's recursions end there on their own
    preset = STOP_PRESETS[name]
    difference = count_maximal_subbundles(preset).difference

    def run():
        characters = [c.character(r) for c, r in ((preset.chern_u, preset.subbundle_rank), (preset.chern_l, 1))]
        return characters, [ch.total_class() for ch in characters], difference.total_class()

    expected = run()
    _unbounded(monkeypatch)
    with within(5):
        assert run() == expected


@pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "unbounded"])
def test_newton_recursions_cross_gaps_as_wide_as_their_reach(bounded, monkeypatch):
    # with only c_3 (or only ch_3) the outputs sit at 3, 6, 9, ...: each gap
    # is exactly max(given) steps wide, which must not stop the recursion;
    # theta^2*f makes the fiber-bearing component 21 = 7*3 nonzero too
    ring = jacobian_preset(20).ring
    dense = [ring.zero()] * (ring.max_degree // 2)
    dense[2] = ring.parse("theta^3 + theta^2*f")
    if not bounded:
        _unbounded(monkeypatch)
    with within(5):
        ch = TotalChernClass(ring, {3: dense[2]}).character(1)
        c = ChernCharacter(ring, 1, {3: dense[2]}).total_class()
    for obj, reference in ((ch, dense_character(ring, dense)), (c, dense_total_class(ring, dense))):
        want = {k: x for k, x in enumerate(reference, start=1) if not x.is_zero}
        assert list(want) == list(range(3, 22, 3))
        assert dict(obj.items()) == want


# -- sparse storage against the dense references -----------------------------------

ORACLE_RINGS = {"g2-rank2": RING, "jacobian-g6": jacobian_preset(6).ring}


@pytest.mark.parametrize("ring_name", ORACLE_RINGS)
@given(data=st.data())
def test_sparse_operations_match_dense_reference(ring_name, data):
    ring = ORACLE_RINGS[ring_name]
    a, b = data.draw(sparse_components_st(ring)), data.draw(sparse_components_st(ring))
    rank_a = data.draw(st.integers(-3, 3))
    rank_b = data.draw(st.one_of(st.integers(-3, 3), scalars_st(ring)))
    ch_a, ch_b = ChernCharacter(ring, rank_a, a), ChernCharacter(ring, rank_b, b)
    c_a, c_b = TotalChernClass(ring, a), TotalChernClass(ring, b)

    assert list(c_a.character(rank_a).parts) == dense_character(ring, a)
    assert list(ch_a.total_class().parts) == dense_total_class(ring, a)
    assert list((c_a * c_b).parts) == dense_graded_product(1, a, 1, b)
    tensor = ch_a.tensor(ch_b)
    assert tensor.rank == ch_a.rank * ch_b.rank
    assert list(tensor.parts) == dense_graded_product(rank_a, a, rank_b, b)
    assert list(ch_a.dual().parts) == [x if k % 2 == 0 else -x for k, x in enumerate(a, start=1)]
    # only the nonzero components are stored, in increasing k; on curve x
    # base that includes the fiber-bearing one above the base's top
    padded_a, padded_b = a + (ring.zero(),), b + (ring.zero(),)
    for obj, dense in (
        (c_a.character(rank_a), dense_character(ring, padded_a)),
        (ch_a.total_class(), dense_total_class(ring, padded_a)),
        (tensor, dense_graded_product(rank_a, padded_a, rank_b, padded_b)),
    ):
        keys = [k for k, _ in obj.items()]
        assert keys == sorted(keys)
        assert dict(obj.items()) == {k: x for k, x in enumerate(dense, start=1) if not x.is_zero}


#: value -> (how to build it, its operations: + - * for a scalar or an element)
FOREIGN_OPERAND_VALUES = {
    "ParamScalar": (lambda: ParamScalar({1: 1, 0: 2}), ("add", "sub", "mul", "eq")),
    "GradedElement": (lambda: RING.parse("alpha + n*theta"), ("add", "sub", "mul", "eq")),
    "ChernCharacter": (lambda: character_from(2, "alpha"), ("eq",)),
    "TotalChernClass": (lambda: TotalChernClass(RING, [RING.parse("alpha")]), ("eq",)),
}


@pytest.mark.parametrize("value, op", [(v, op) for v, (_, ops) in FOREIGN_OPERAND_VALUES.items() for op in ops])
def test_foreign_operand_is_left_to_python(value, op):
    # a str is no operand: each operation returns NotImplemented, so Python
    # raises TypeError for + - *, and == is False
    x = FOREIGN_OPERAND_VALUES[value][0]()
    if op == "eq":
        assert (x == "alpha") is False and x != "alpha"
    else:
        with pytest.raises(TypeError):
            getattr(operator, op)(x, "alpha")
