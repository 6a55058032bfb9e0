"""Every ``adwatch`` module imports the others in its header, only the
command line and the package's re-exports import the generator, and no
module borrows another's private name beyond those it borrows today.

An import inside a function hides a dependency from the module's header,
defers an import error to the first call, and binds the name afresh on every
call, so a test that patches the name where the module keeps it patches
nothing. The library path that reads a suite, trains and scores never needs
``synth``: a suite on disk is read by ``session_io``, whatever wrote it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"

# the modules that may import synth: the command line and the package's re-exports
SYNTH_IMPORTERS = {"cli", "__init__"}

# Each private name that one module imports from another, as (the module it
# is imported from, the name). Each ties its importers to a detail of that
# module, so the list may only shrink.
LENT_PRIVATE_NAMES = {
    ("config", "_LOSS_CURVE"), ("config", "_OBJECT"), ("config", "_RATE"), ("config", "_Rule"),
    ("config", "_SEED"), ("config", "_STRING"), ("config", "_check_fields"), ("config", "_check_writes"),
    ("config", "_choice"), ("config", "_equal"), ("config", "_field_rules"), ("config", "_int"),
    ("config", "_is_real"), ("config", "_or_null"), ("config", "_pair"), ("config", "_read_json_object"),
    ("config", "_real"), ("config", "_replacing"), ("config", "_replacing_dirs"), ("config", "_shown"),
    ("records", "_INDEX_RULES"),
    ("synth", "_write_session"),
    ("training", "_in_halves"), ("training", "_in_order"),
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(node: ast.AST) -> list[str]:
    """The ``adwatch`` modules an import statement names, by their short
    names: ``from .x import y`` and ``import adwatch.x`` give ``x``."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module] if node.module else [alias.name for alias in node.names]
        if node.module and (node.module == "adwatch" or node.module.startswith("adwatch.")):
            return [node.module.removeprefix("adwatch").lstrip(".")]
    elif isinstance(node, ast.Import):
        return [alias.name.removeprefix("adwatch").lstrip(".") for alias in node.names
                if alias.name == "adwatch" or alias.name.startswith("adwatch.")]
    return []


def function_imports(node: ast.AST, function: str = "") -> list[tuple[str, str]]:
    """(function, module) of every ``adwatch`` import inside a function or
    method below ``node``, named by the innermost function that holds it."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += function_imports(child, child.name)
        else:
            if function:
                found += [(function, module) for module in imported_modules(child)]
            found += function_imports(child, function)
    return found


def header_imports(tree: ast.Module) -> set[str]:
    return {module for stmt in tree.body for module in imported_modules(stmt)}


def synth_importers(trees: dict[str, ast.Module]) -> set[str]:
    """The modules, by name, that import ``synth`` anywhere in their source."""
    return {name for name, tree in trees.items()
            if any("synth" in imported_modules(node) for node in ast.walk(tree))}


def lent_private_names(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each private name that one of ``trees`` imports
    from the ``adwatch`` module it names, anywhere in its source."""
    return {(module, alias.name)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for module in imported_modules(node) for alias in node.names if alias.name.startswith("_")}


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_adwatch_import_inside_a_function():
    inside = [(name, function, module)
              for name, tree in package_trees().items() for function, module in function_imports(tree)]
    assert inside == []


def test_only_the_command_line_and_the_re_exports_import_synth():
    assert synth_importers(package_trees()) == SYNTH_IMPORTERS


def test_the_synth_guard_flags_each_way_to_import_it():
    planted = {
        "cli": "from .synth import generate_suite",
        "__init__": "from .synth import generate",
        "training": "from .synth import load_suite",
        "pipeline": "def f():\n    from . import synth",
        "gaze": "import adwatch.synth",
        "head": "from adwatch.synth import ORIENTATIONS",
        "fusion": "from .synthetic import x\nimport synth",
    }
    trees = {name: ast.parse(source) for name, source in planted.items()}
    assert synth_importers(trees) == {"cli", "__init__", "training", "pipeline", "gaze", "head"}


def test_the_guard_flags_each_way_to_import_adwatch_and_nothing_else():
    source = """
import json
from . import config


def f():
    import os
    from .pipeline import score_session
    from . import artifacts
    import adwatch.cli
    from adwatch.records import AU_NAMES
    from adwatchers import x

    def g():
        from .. import z

    class C:
        def m(self):
            from .gaze import fine_tune
"""
    tree = ast.parse(source)
    assert header_imports(tree) == {"config"}
    assert function_imports(tree) == [
        ("f", "pipeline"), ("f", "artifacts"), ("f", "cli"), ("f", "records"), ("g", "z"), ("m", "gaze"),
    ]


def test_no_module_borrows_a_private_name_beyond_the_list():
    assert lent_private_names(package_trees()) == LENT_PRIVATE_NAMES


def test_the_private_name_guard_flags_each_way_to_import_one():
    planted = {
        "cli": "from .config import _x, config_from_mapping",
        "pipeline": "def f():\n    from adwatch.gaze import _y",
        "head": "from __future__ import annotations\nfrom . import _z\nfrom .records import AU_NAMES",
        "fusion": "from json import _w\nimport adwatch._v",
    }
    trees = {name: ast.parse(source) for name, source in planted.items()}
    assert lent_private_names(trees) == {("config", "_x"), ("gaze", "_y")}
