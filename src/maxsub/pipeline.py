"""End-to-end counting of maximal subbundles for the built-in presets.

The count of rank-n' maximal subbundles of a general rank-n bundle is the
top Chern class of a virtual difference of two sheaves, evaluated against
the fundamental class of the parameter space and divided by the degree of
the tensoring cover:

* the "sections" sheaf: the fiberwise spaces of maps from the candidate
  subbundle twisted back into the big bundle, a pushforward along the
  curve computed by Grothendieck-Riemann-Roch fiber integration.  The
  integrand is X = ch(U*) ch(L*) times one Riemann-Roch factor n + t f with
  t = d + n(g-1): since f^2 = 0, that is the twisted big bundle's character
  n + (d + n(2g-2)) f times the curve's Todd class 1 - (g-1) f;
* the "evaluation" sheaf: the values of those maps at the points of a
  fixed canonical divisor, n(2g-2) X restricted to a point, since
  restriction is a ring map.

One graded product X is computed per count, and the projection formula
pi_*(f m) = m for a base class m turns the integrand into a relabelling: a
fiber-bearing term of X times f truncates, so pi_*(X (a + b f)) is
a pi_*(X) + b X|pt.  That one map gives the sections at (a, b) = (n, t),
the evaluation at (0, n(2g-2)) and the difference evaluation - sections at
(-n, s) with s = n(2g-2) - t = n(g-1) - d.  The count forms neither
sheaf's character; the result keeps X, the difference and its total Chern
class, and derives the sheaves from X when asked.  Both presets normalize
the subbundle degree to d' = 1 and keep the big bundle's rank n as a
formal parameter, so counts come out as exact polynomials in n.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import islice
from math import factorial

from . import PRESET_NAMES
from .chern import ChernCharacter, TotalChernClass, _character, _graded_product
from .errors import PresetError
from .gradedring import GradedElement, RewriteRule, RingPresentation, presentation_from_data
from .scalars import PARAMETER as RANK_PARAMETER, ParamScalar, monomial_text

#: Largest genus of the built-in rank-1 preset.  Its top Chern class carries
#: 1/genus!, so the work grows faster than linearly in the genus; the bound
#: keeps every run short.
JACOBIAN_MAX_GENUS = 10_000

#: Conditions under which the computed number is literally the count of
#: distinct maximal subbundles, recorded on every result.  The integral is
#: always the length of the degeneracy locus in its natural scheme
#: structure, so under the weaker conditions it counts stable maximal
#: subbundles with multiplicities.
GENERALITY_CAVEATS = (
    "the computed integral is the length of a degeneracy locus; it counts"
    " distinct maximal subbundles only for a sufficiently general bundle",
    "required: the minimal subbundle invariant attains n'(n-n')(g-1), lower"
    " ranks attain at least their generic bound, and the locus is finite",
    "with only those conditions the number counts stable maximal subbundles"
    " with their scheme multiplicities",
)


class Preset:
    """A counting problem: a ring presentation plus the bundle data.

    ``rank_symbol`` is the rank n as a scalar of the ring, and
    ``induced_degree`` the big bundle's degree d forced by
    n'd - nd' = n'(n-n')(g-1), a polynomial in n; both are set once here."""

    __slots__ = (
        "name",
        "ring",
        "genus",
        "subbundle_rank",
        "subbundle_degree",
        "chern_u",
        "chern_l",
        "rank_symbol",
        "induced_degree",
    )

    def __init__(
        self,
        name: str,
        ring: RingPresentation,
        genus: int,
        subbundle_rank: int,
        subbundle_degree: int,
        chern_u: TotalChernClass,
        chern_l: TotalChernClass,
    ):
        if genus < 2:
            raise PresetError(f"genus must be at least 2, got {genus}")
        if subbundle_rank < 1:
            raise PresetError("subbundle rank must be positive")
        if subbundle_degree != 1:
            raise PresetError("presets normalize the subbundle degree to 1")
        if not ring.params:  # a ring declares no parameter or the rank n
            raise PresetError(f"the ring must declare the rank parameter {RANK_PARAMETER!r}")
        if ring.fiber_index is None:
            raise PresetError("the ring must declare a fiber class")
        self.name = name
        self.ring = ring
        self.genus = genus
        self.subbundle_rank = subbundle_rank
        self.subbundle_degree = subbundle_degree
        self.chern_u = chern_u
        self.chern_l = chern_l
        n = self.rank_symbol = ring.parameter(RANK_PARAMETER)
        self.induced_degree = n * Fraction(subbundle_degree, subbundle_rank) + (n - subbundle_rank) * (genus - 1)

    @property
    def covering_degree(self) -> int:
        """Degree of the (line bundle, fixed-determinant bundle) cover."""
        return self.subbundle_rank ** (2 * self.genus)

    @property
    def canonical_degree(self) -> int:
        return 2 * self.genus - 2

    def is_admissible(self, rank: int) -> bool:
        """Whether a concrete rank n satisfies the exact-count hypotheses: n > n'
        and an integral induced degree d, that is n' divides n d' since
        (n-n')(g-1) is an integer (for g2-rank2, d = 3n/2 - 2: even n >= 4)."""
        return rank > self.subbundle_rank and rank * self.subbundle_degree % self.subbundle_rank == 0

    @property
    def admissibility_note(self) -> str:
        if self.subbundle_rank == 2 and self.genus == 2:
            return "even n >= 4 with 2d+4 divisible by n and odd quotient"
        return f"integer n >= {self.subbundle_rank + 1} with integral induced degree"

    @property
    def count_label(self) -> str:
        return f"m_{self.subbundle_rank}"


def _dual_product(preset: Preset) -> ChernCharacter:
    """X = ch(U*) ch(L*), the one graded product both sheaves are derived
    from: the universal characters, then one product whose weights carry
    the duals' signs."""
    ring = preset.ring
    ch_u, ch_l = preset.chern_u.character(preset.subbundle_rank), preset.chern_l.character(1)
    parts = _graded_product(ring, ch_u.rank, ch_u._parts, ch_l.rank, ch_l._parts, dual=True)
    return _character(ring, ch_u.rank * ch_l.rank, parts)


def _pushforward_times(x: ChernCharacter, a: ParamScalar | int, b: ParamScalar) -> ChernCharacter:
    """pi_*(X (a + b f)) = a pi_*(X) + b X|pt for X = ``x``, the one map
    from X to every sheaf of the count: a fiber-bearing term of X times f
    truncates, and pi_*(f m) = m for a base class m (the projection
    formula).  One pass over X's components: ch_k adds its fiber integral,
    weighted a, to output k-1 (to the rank when k = 1), and its point
    restriction, weighted b, to output k; each output component is one call
    of the ring's sum of products.  At a = 0 no fiber integral is formed."""
    ring = x.ring
    rank, pairs = b * x.rank, {}
    for k, part in x._parts.items():
        if a:
            pushed = part.pushforward_fiber()
            if k == 1:
                rank += a * pushed.constant_coefficient()
            else:
                pairs.setdefault(k - 1, []).append((1, pushed, a))
        pairs.setdefault(k, []).append((1, part.restrict_to_point(), b))
    sum_of_products = ring.sum_of_products
    return _character(ring, rank, {k: sum_of_products(terms) for k, terms in pairs.items()})


class CountResult:
    """The count with all the intermediates that certify it: the product
    X = ch(U*) ch(L*), the difference evaluation - sections and its total
    Chern class.  ``sections`` and ``evaluation`` are derived from X on
    every access."""

    __slots__ = ("preset", "count", "integral", "product", "difference", "difference_class")
    caveats = GENERALITY_CAVEATS

    def __init__(
        self,
        preset: Preset,
        count: ParamScalar,
        integral: ParamScalar,
        product: ChernCharacter,
        difference: ChernCharacter,
        difference_class: TotalChernClass,
    ):
        self.preset = preset
        self.count = count
        self.integral = integral
        self.product = product
        self.difference = difference
        self.difference_class = difference_class

    @property
    def sections(self) -> ChernCharacter:
        """pi_*(X (n + t f)) with t = d + n(g-1): the fiber pushforward of X
        times the twisted big bundle's character and the curve's Todd class.
        ch_k comes from the upstairs ch_(k+1) for every k, the top one
        included: the derived pushforward vanishes for degree reasons."""
        n = self.preset.rank_symbol
        return _pushforward_times(self.product, n, self.preset.induced_degree + n * (self.preset.genus - 1))

    @property
    def evaluation(self) -> ChernCharacter:
        """pi_*(X n(2g-2) f) = n(2g-2) X|pt: (2g-2) points, n directions each."""
        return _pushforward_times(self.product, 0, self.preset.rank_symbol * self.preset.canonical_degree)

    @property
    def top_class(self) -> GradedElement:
        """The top Chern class of evaluation - sections, the integrand."""
        return self.difference_class.top()

    @property
    def label(self) -> str:
        return self.preset.count_label

    def specialize(self, rank: int) -> Fraction:
        return self.count.evaluate(rank)

    def to_record(self) -> dict:
        def scalar_terms(s: ParamScalar) -> dict:
            return {monomial_text((RANK_PARAMETER,), (e,)) or "1": str(c) for e, c in sorted(s.items(), reverse=True)}

        def character_record(ch: ChernCharacter) -> dict:
            return {
                "rank": str(ch.rank),
                "components": [str(p) for p in ch.parts],
            }

        preset = self.preset
        return {
            "preset": preset.name,
            "subbundle_rank": preset.subbundle_rank,
            "subbundle_degree": preset.subbundle_degree,
            "genus": preset.genus,
            "induced_degree": str(preset.induced_degree),
            "covering_degree": preset.covering_degree,
            "admissibility": preset.admissibility_note,
            "count": {"label": self.label, "text": str(self.count), "terms": scalar_terms(self.count)},
            "integral": {"text": str(self.integral), "terms": scalar_terms(self.integral)},
            "sections_character": character_record(self.sections),
            "evaluation_character": character_record(self.evaluation),
            "top_chern_class": str(self.top_class),
            "caveats": list(self.caveats),
        }

    def to_json(self) -> str:
        import json  # only --format record needs it

        return json.dumps(self.to_record(), indent=2)

    def summary(self, verbose: bool = False) -> str:
        lines = []
        preset = self.preset
        if verbose:
            lines.append(
                f"preset: {preset.name} (subbundle rank {preset.subbundle_rank}, "
                f"genus {preset.genus}, d' = {preset.subbundle_degree})"
            )
            lines.append(f"induced degree d = {preset.induced_degree}")
            lines.append(f"covering degree = {preset.covering_degree}")
            for sheaf, ch in (("sections", self.sections), ("evaluation", self.evaluation)):
                lines.append(f"ch_0({sheaf}) = {ch.rank}")
                for k, part in enumerate(ch.parts, start=1):
                    lines.append(f"ch_{k}({sheaf}) = {part}")
            lines.append(f"c_top = {self.top_class}")
            lines.append(f"integral over base = {self.integral}")
            lines.append(f"admissible ranks: {preset.admissibility_note}")
        lines.append(f"{self.label} = {self.count}")
        return "\n".join(lines)


def count_maximal_subbundles(preset: Preset) -> CountResult:
    """Integrate the top Chern class of (evaluation - sections) and divide
    by the covering degree.  The difference is n(2g-2) X|pt minus the
    sections' pi_*(X (n + t f)), that is pi_*(X (-n + s f)) with
    s = n(2g-2) - t = n(g-1) - d: one linear combination of X|pt and
    pi_*(X), and neither sheaf's character is formed."""
    product = _dual_product(preset)
    n = preset.rank_symbol
    difference = _pushforward_times(product, -n, n * (preset.genus - 1) - preset.induced_degree)
    difference_class = difference.total_class()
    integral = difference_class.top().integrate()
    count = integral / preset.covering_degree
    return CountResult(
        preset=preset,
        count=count,
        integral=integral,
        product=product,
        difference=difference,
        difference_class=difference_class,
    )


# -- consistency checks -------------------------------------------------------


class _Counts(dict):
    """Counts by rank, as text only when printed: the CLI's digit guard covers them."""

    def __str__(self):
        return ", ".join(f"n={k}: {v}" for k, v in self.items())


def consistency_report(preset: Preset) -> list[tuple[str, bool, object]]:
    """Structural checks a preset must satisfy, each with a detail whose
    ``str`` is its text; used by the CLI and tests."""
    checks: list[tuple[str, bool, object]] = []
    result = count_maximal_subbundles(preset)
    sections, evaluation = result.sections, result.evaluation

    delta = preset.subbundle_rank**2 * (preset.genus - 1)
    ok = sections.rank == evaluation.rank - delta
    checks.append(("rank identity", ok, f"rank(sections) = rank(evaluation) - {delta}"))

    m = preset.ring.top_degree // 2
    ok = result.difference.part(m).is_zero
    checks.append(("top character component vanishes", ok, f"ch_{m}(evaluation - sections) = 0"))

    porteous = sections.total_class() * result.difference_class == evaluation.total_class()
    checks.append(("Chern class multiplicativity", porteous, "c(sections) * c(difference) = c(evaluation)"))

    admissible = list(islice(filter(preset.is_admissible, range(2, 200)), 10))
    values = [result.specialize(k) for k in admissible]
    ok = all(v.denominator == 1 and v > 0 for v in values)
    checks.append(("integral positive counts", ok, _Counts(zip(admissible[:4], values[:4]))))

    expected = _closed_form(preset)
    if expected is not None:
        checks.append(("closed form", expected == result.count, f"count = {expected}"))
    return checks


def _closed_form(preset: Preset) -> ParamScalar | None:
    from . import formulas  # only the report reads a closed form: a count never compiles it

    if preset.subbundle_rank == 1:
        return formulas.m1(preset.rank_symbol, preset.genus)
    if preset.subbundle_rank == 2 and preset.genus == 2:
        return formulas.m2(preset.rank_symbol)
    return None


# -- built-in presets ----------------------------------------------------------


def jacobian_preset(genus: int) -> Preset:
    """The rank-1 preset at the given genus, built as data: the same ring and
    classes as the presentation file the tests render for every genus and
    compare, but genus! is never printed and parsed back, so a huge genus
    loads too."""
    if genus < 2:
        raise PresetError(f"genus must be at least 2, got {genus}")
    if genus > JACOBIAN_MAX_GENUS:
        raise PresetError(f"the jacobian preset supports genus up to {JACOBIAN_MAX_GENUS}, got {genus}")
    g = genus
    ring = RingPresentation(
        generators=(("theta", 2), ("xi1", 2), ("f", 2)),
        params=(RANK_PARAMETER,),
        rules=[RewriteRule((0, 2, 0), (((1, 0, 1), -2),))],  # xi1^2 -> -2*theta*f
        zeros=[(g + 1, 0, 0)],  # theta^(g+1)
        fiber="f",
        fiber_supported=("xi1",),
        integrals={(g, 0, 0): Fraction(factorial(g))},  # theta^g = g!
        top_degree=2 * g,
    )
    return Preset(
        name="jacobian",
        ring=ring,
        genus=g,
        subbundle_rank=1,
        subbundle_degree=1,
        chern_u=TotalChernClass(ring, [ring.generator("f")]),  # 1 + f
        chern_l=TotalChernClass(ring, [ring.generator("xi1")]),  # 1 + xi1
    )


def preset_from_text(text: str) -> Preset:
    """Build a preset from a presentation file carrying a preset header."""
    from .parsing import parse_presentation_text

    data = parse_presentation_text(text)
    header = data.preset
    missing = [k for k in ("name", "genus", "subbundle_rank", "subbundle_degree", "chern_U", "chern_L") if k not in header]
    if missing:
        raise PresetError(f"presentation lacks preset header fields: {', '.join(missing)}")
    ring = presentation_from_data(data)

    def total_class(node) -> TotalChernClass:
        return TotalChernClass.from_total_element(ring, ring.evaluate(node))

    return Preset(
        name=header["name"],
        ring=ring,
        genus=header["genus"],
        subbundle_rank=header["subbundle_rank"],
        subbundle_degree=header["subbundle_degree"],
        chern_u=total_class(header["chern_U"]),
        chern_l=total_class(header["chern_L"]),
    )


def load_preset(name: str, genus: int | None = None) -> Preset:
    """Load a built-in preset: ``g2-rank2`` or ``jacobian`` (genus 2 to
    :data:`JACOBIAN_MAX_GENUS`, built by :func:`jacobian_preset`).  The
    g2-rank2 file is read next to this module, so a zipped install cannot
    load it."""
    if name == "g2-rank2":
        if genus not in (None, 2):
            raise PresetError("the g2-rank2 preset is specific to genus 2")
        with open(os.path.join(os.path.dirname(__file__), "presets", "g2-rank2.ring"), encoding="utf-8") as file:
            return preset_from_text(file.read())
    if name == "jacobian":
        return jacobian_preset(2 if genus is None else genus)
    raise PresetError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
