"""Errors gain context on their way up; they never steer control flow.

Outside ``cli.main``, which turns each adwatch error into its exit code,
every ``except`` clause that names an adwatch error ends in ``raise``: it may
add the file, the row or the field to the message, but it may not turn the
error into a value. A fallback the pipeline takes is a value it tests for
(an untrackable gaze stream is ``SessionDetectors.stats() is None``), not an
exception it catches.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"

# (module, function): the one place an adwatch error becomes a result
EXIT_CODES = ("cli", "main")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def adwatch_errors() -> set[str]:
    return {node.name for node in parse(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)}


def caught_names(handler: ast.ExceptHandler) -> list[str]:
    """The names an ``except`` clause catches: ``DataError`` and
    ``errors.DataError`` both give ``DataError``."""
    if handler.type is None:
        return []
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [t.id if isinstance(t, ast.Name) else t.attr for t in types
            if isinstance(t, (ast.Name, ast.Attribute))]


def steering_handlers(node: ast.AST, module: str, errors: set[str], function: str = "") -> list[tuple[str, int]]:
    """(function, line) of every ``except`` clause below ``node`` that names
    one of ``errors`` and does not end in ``raise``, named by the innermost
    function that holds it; ``EXIT_CODES`` is exempt."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if (isinstance(child, ast.ExceptHandler) and (module, inner) != EXIT_CODES
                and errors.intersection(caught_names(child)) and not isinstance(child.body[-1], ast.Raise)):
            found.append((inner, child.lineno))
        found += steering_handlers(child, module, errors, inner)
    return found


def test_every_except_that_names_an_adwatch_error_reraises_outside_the_exit_codes():
    errors = adwatch_errors()
    assert {"AdwatchError", "ConfigError", "DataError", "MissingArtifactError"} <= errors
    steering = [
        (path.stem, function, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, line in steering_handlers(parse(path), path.stem, errors)
    ]
    assert steering == []


def test_the_exit_codes_catch_adwatch_errors():
    main = next(node for node in parse(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == EXIT_CODES[1])
    assert steering_handlers(main, "elsewhere", adwatch_errors())


def test_the_guard_flags_each_way_to_swallow_an_adwatch_error_and_nothing_else():
    source = """
def f():
    try:
        g()
    except DataError:
        return None
    except (ValueError, errors.ConfigError) as exc:
        x = 1
    except KeyError:
        pass
    except MissingArtifactError as exc:
        raise MissingArtifactError(f"where: {exc}") from None
    except Exception:
        pass


class C:
    def m(self):
        try:
            g()
        except AdwatchError:
            if x:
                raise
            return 2


def main():
    try:
        g()
    except DataError:
        return 3
"""
    tree = ast.parse(source)
    errors = {"AdwatchError", "ConfigError", "DataError", "MissingArtifactError"}
    assert steering_handlers(tree, "cli", errors) == [("f", 5), ("f", 7), ("m", 21)]
    assert steering_handlers(tree, "other", errors) == [("f", 5), ("f", 7), ("m", 21), ("main", 30)]
