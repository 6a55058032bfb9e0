"""Every ``adwatch`` module imports the others in its header.

An import inside a function hides a dependency from the module's header,
defers an import error to the first call, and binds the name afresh on every
call, so a test that patches the name where the module keeps it patches
nothing. One import stays in a function: ``synth.generate_suite`` imports
``training``, because ``training`` imports ``synth`` in its header to read a
suite's index, and a header import the other way would be a cycle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"

# (module, function, imported module): the one import of a real cycle
CYCLE = ("synth", "generate_suite", "training")


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


def test_no_adwatch_import_inside_a_function_but_the_cycle():
    inside = sorted(
        (path.stem, function, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, module in function_imports(parse(path))
    )
    assert inside == [CYCLE]


def test_the_cycle_is_real():
    module, _, imported = CYCLE
    assert module in header_imports(parse(PACKAGE / f"{imported}.py"))


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
