"""Importing the CLI stays light: none of the heavy standard-library
modules that would dominate a short command's start-up is loaded,
``import glicci`` loads no submodule and a command only the layers it
runs; and every private name the package defines is used by the package."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(code, names):
    """Which of ``names`` are in ``sys.modules`` after running ``code`` in
    a fresh interpreter, its output discarded.  -S keeps site (and any
    .pth file it runs) from loading modules on its own, so only what
    glicci itself imports is counted."""
    probe = (
        "import io, sys; out = sys.stdout; sys.stdout = io.StringIO()\n"
        f"{code}\n"
        f"print(' '.join(m for m in {names!r} if m in sys.modules), file=out)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_skips_heavy_modules():
    assert _loaded_after("import glicci.cli", ("dataclasses", "inspect", "typing")) == []


SUBMODULES = ("glicci.catalog", "glicci.claims", "glicci.cli", "glicci.errors",
              "glicci.hvector", "glicci.moves", "glicci.picard", "glicci.planner", "glicci._record")


def test_package_import_loads_no_submodule():
    assert _loaded_after("import glicci", SUBMODULES) == []


def test_each_command_loads_only_what_it_runs():
    # A command imports its own layers; argparse only for a line the plain
    # path does not take, json only to write an envelope.
    heavy = ("glicci.planner", "glicci.moves", "glicci.claims", "argparse", "json")
    run = "from glicci.cli import main; main({!r})"
    assert _loaded_after(run.format(["hvector", "20", "3"]), heavy) == []
    assert _loaded_after(run.format(["divisor", "bordiga", "6;2^3,1^7", "--quiet"]), heavy) == []
    assert _loaded_after(run.format(["plan", "cubic-surface", "54", "--quiet"]), heavy) == [
        "glicci.planner", "glicci.moves"]
    assert _loaded_after(run.format(["plan", "p2", "137", "--json"]), heavy) == [
        "glicci.planner", "glicci.moves", "json"]
    assert _loaded_after(run.format(["plan", "p2", "--js", "137"]), heavy) == [
        "glicci.planner", "glicci.moves", "argparse", "json"]


def test_lazy_names_resolve():
    # From a fresh interpreter: errors alone, then every public name, which
    # loads every submodule but the CLI.
    assert _loaded_after("import glicci; glicci.errors.InvalidMove", SUBMODULES) == [
        "glicci.errors"]
    code = "import glicci; [getattr(glicci, name) for name in glicci.__all__]"
    assert _loaded_after(code, SUBMODULES) == [m for m in SUBMODULES if m != "glicci.cli"]
    import glicci

    namespace = {}
    exec("from glicci import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(glicci))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        glicci.nope


# Every public name, sorted; adding or removing one changes this list on purpose.
PUBLIC_NAMES = [
    "Chain", "ClaimRecord", "CurveFamily", "DescentEntry", "DivisorClass", "HVector",
    "LinkMove", "P3_GUARANTEED_MAX", "PerrinEntry", "ReachabilityOracle", "SPACES",
    "SurfaceModel", "biliaison_curve", "bordiga_eleven_seven", "bordiga_ten_six",
    "build_oracle", "cubic_surface_type", "decompose_biliaison", "dg_of", "entry_bound",
    "enumerate_hvectors", "liaison_target", "liaison_total", "min_genus", "min_genus_formula",
    "p3_descending_moves", "perrin_m", "perrin_table", "plan", "plane_curve_family",
    "quadric_family", "records_as_dicts", "render_text", "run_suite", "s_zero",
    "small_degree_acm_pairs", "small_degree_descents", "summarize", "surface",
    "surface_names", "validate_chain", "verify_all", "verify_bordiga", "verify_catalog",
    "verify_deg20", "verify_rao",
]


def test_public_names_are_pinned():
    import glicci

    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 46
    assert glicci.__all__ == PUBLIC_NAMES


def _private_definitions(tree):
    """The private names a module defines at its top level: functions,
    classes and assigned constants whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target)
                     if isinstance(leaf, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _uses(tree):
    """Every name the code reads: loaded names, attribute names and the
    names a ``from ... import`` brings in (docstrings and comments are no use)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_used_in_the_package():
    # A private helper that no code in src/ reads is dead, or kept only
    # for the tests; either way it does not belong in the package.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "glicci").glob("*.py"))}
    used = {name for tree in trees.values() for name in _uses(tree)}
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    assert len(defined) > 50
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []
