"""Exact intersection-theory kernel for counting maximal subbundles.

The package computes, as exact polynomials in the formal bundle rank n,
the number of maximal rank-n' subbundles of a general rank-n bundle on a
curve, by integrating a top Chern class over the parameter space of
candidates.  Everything runs in exact rational arithmetic over presented
graded-commutative cohomology rings.

Each public name is loaded from its module on first access, so a process
imports only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The built-in counting presets of :func:`maxsub.pipeline.load_preset`,
#: here so that the CLI can list them without loading the kernel.
PRESET_NAMES = ("g2-rank2", "jacobian")

#: public name -> the module that defines it; the order is that of ``__all__``
_HOME = {
    "ChernCharacter": "chern",
    "CountResult": "pipeline",
    "FiberClassError": "errors",
    "GradedElement": "gradedring",
    "IncompletePresentationError": "errors",
    "KernelError": "errors",
    "ParamScalar": "scalars",
    "ParseError": "errors",
    "PresentationError": "errors",
    "Preset": "pipeline",
    "PresetError": "errors",
    "RingPresentation": "gradedring",
    "TotalChernClass": "chern",
    "UnknownGeneratorError": "errors",
    "count_maximal_subbundles": "pipeline",
    "hirschowitz_smax": "formulas",
    "load_preset": "pipeline",
    "load_presentation": "gradedring",
    "m1_closed": "formulas",
    "m2_closed": "formulas",
    "parse_expression": "parsing",
    "preset_from_text": "pipeline",
    "quot_dim": "formulas",
    "s_invariant": "formulas",
    "stratum_dim": "formulas",
}

__all__ = list(_HOME)
_SUBMODULES = frozenset(_HOME.values())


def __getattr__(name):
    if name in _SUBMODULES:  # a submodule, as in ``import maxsub; maxsub.pipeline``
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
