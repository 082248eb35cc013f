"""What a fresh ``maxsub`` process imports, and the lazily loaded public API.

Each footprint is taken in its own child interpreter, because in-process
tests share one ``sys.modules``: a module that some earlier test imported
would hide an import that only a fresh process makes.  The child runs under
``python -S``, so no site hook of the installation imports a standard-library
module first and hides it.  No timings are asserted.
"""

import builtins
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import maxsub

SRC = Path(__file__).resolve().parent.parent / "src"
G2_RING = str(resources.files("maxsub").joinpath("presets", "g2-rank2.ring"))

# Prints the exit code, then the modules that importing maxsub.cli added to
# the bare interpreter's, then every module loaded once the command has run.
_CHILD = """
import sys
before = set(sys.modules)
from maxsub import cli
imported = set(sys.modules) - before
code = cli.run(sys.argv[1:])
loaded = set(sys.modules)
print(code)
print(" ".join(sorted(imported)))
print(" ".join(sorted(loaded)))
"""

COMMANDS = {
    "count": ["count", "--preset", "g2-rank2"],
    "count-record": ["count", "--preset", "g2-rank2", "--format", "record"],
    "count-jacobian": ["count", "--preset", "jacobian", "--genus", "5"],
    "check": ["check", "--preset", "g2-rank2"],
    "reduce": ["reduce", "--ring", G2_RING, "xi1^2 + 2*theta*f"],
    "integrate": ["integrate", "--ring", G2_RING, "alpha^3*theta^2"],
    "formulas-m2": ["formulas", "m2", "--n", "4"],
}


@pytest.fixture(scope="module")
def footprints():
    """command -> (modules added by importing maxsub.cli, modules loaded by the end of the run)"""
    result = {}
    for name, argv in COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _CHILD, *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, imported, loaded = proc.stdout.splitlines()[-3:]
        assert code == "0", (name, proc.stderr)
        result[name] = set(imported.split()), set(loaded.split())
    return result


def _package(modules):
    return {m for m in modules if m == "maxsub" or m.startswith("maxsub.")}


def test_importing_cli_loads_only_errors(footprints):
    for imported, _ in footprints.values():
        assert _package(imported) == {"maxsub", "maxsub.cli", "maxsub.errors"}


def test_formulas_loads_no_ring_code(footprints):
    _, loaded = footprints["formulas-m2"]
    assert _package(loaded) == {"maxsub", "maxsub.cli", "maxsub.errors", "maxsub.formulas"}


@pytest.mark.parametrize("command", ["reduce", "integrate"])
def test_ring_commands_load_no_chern_or_pipeline(footprints, command):
    _, loaded = footprints[command]
    assert not _package(loaded) & {"maxsub.chern", "maxsub.pipeline", "maxsub.formulas"}
    assert "maxsub.gradedring" in loaded


def test_count_from_data_loads_no_parser(footprints):
    # the jacobian preset is built as data: no text is read, so parsing.py is never compiled
    _, loaded = footprints["count-jacobian"]
    assert "maxsub.pipeline" in loaded
    assert "maxsub.parsing" not in loaded
    assert "maxsub.parsing" in footprints["count"][1]  # the g2-rank2 preset is a file


def test_only_check_loads_formulas(footprints):
    # the closed forms are read only by the consistency report
    for name in ("count", "count-jacobian"):
        assert "maxsub.formulas" not in footprints[name][1], name
    assert "maxsub.formulas" in footprints["check"][1]


def test_ring_parse_runs_one_import_statement(monkeypatch):
    # parse reaches the parser through one function-level import, not one
    # more in the evaluate it shares its walk with
    ring = maxsub.load_preset("g2-rank2").ring
    ring.parse("alpha")
    imports = []

    def counted(name, *args, real=builtins.__import__):
        imports.append(name)
        return real(name, *args)

    monkeypatch.setattr(builtins, "__import__", counted)
    element = ring.parse("alpha*theta + 2")
    monkeypatch.undo()
    assert len(imports) == 1
    assert element == ring.parse("theta*alpha + 2")


def test_no_command_loads_dataclasses_or_inspect(footprints):
    for name, (_, loaded) in footprints.items():
        assert not loaded & {"dataclasses", "inspect"}, name


@pytest.mark.parametrize("command", ["count", "count-jacobian"])
def test_count_loads_no_resource_path_or_typing_modules(footprints, command):
    # the preset file is read next to the package with open, a count imports
    # nothing that importlib.resources would bring in, and the kernel's
    # annotations need no typing at run time
    _, loaded = footprints[command]
    assert not loaded & {"importlib.resources", "pathlib", "zipfile", "typing"}


def test_only_record_output_loads_json(footprints):
    assert {name for name, (_, loaded) in footprints.items() if "json" in loaded} == {"count-record"}


# -- the public API ------------------------------------------------------------

PUBLIC_NAMES = [
    "ChernCharacter",
    "CountResult",
    "FiberClassError",
    "GradedElement",
    "IncompletePresentationError",
    "KernelError",
    "ParamScalar",
    "ParseError",
    "PresentationError",
    "Preset",
    "PresetError",
    "RingPresentation",
    "TotalChernClass",
    "UnknownGeneratorError",
    "count_maximal_subbundles",
    "hirschowitz_smax",
    "load_preset",
    "load_presentation",
    "m1_closed",
    "m2_closed",
    "parse_expression",
    "preset_from_text",
    "quot_dim",
    "s_invariant",
    "stratum_dim",
]


def test_all_is_unchanged():
    assert maxsub.__all__ == PUBLIC_NAMES


def test_public_names_are_their_home_objects():
    for name in maxsub.__all__:
        value = getattr(maxsub, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__.startswith("maxsub."), name


def test_star_import():
    namespace = {}
    exec("from maxsub import *", namespace)
    assert set(maxsub.__all__) <= set(namespace)
    for name in maxsub.__all__:
        assert namespace[name] is getattr(maxsub, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        maxsub.no_such_name
    assert not hasattr(maxsub, "cli_main")


def test_submodule_loads_through_the_package_attribute():
    # in a fresh process no earlier import has set maxsub.pipeline, so the
    # package's __getattr__ imports it
    child = "import maxsub, sys; assert 'maxsub.pipeline' not in sys.modules; print(maxsub.pipeline.__name__)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "maxsub.pipeline\n", "")


def test_submodules_and_moved_names():
    assert maxsub.pipeline.load_preset is maxsub.load_preset
    assert maxsub.parsing.ParseError is maxsub.errors.ParseError is maxsub.ParseError
    assert maxsub.pipeline.PRESET_NAMES is maxsub.PRESET_NAMES
    assert set(maxsub.__all__) <= set(dir(maxsub))
