"""Every public top-level function and class of ``adwatch``, and every
public method of a public class, has a user.

A public name that only ``__init__`` re-exports and only tests call is code
kept alive for its tests; such a helper belongs with the tests instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions() -> list[tuple[str, str]]:
    return [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def public_methods() -> list[tuple[str, str]]:
    """(module.Class, method) for each public method a public class defines
    in its own body."""
    return [
        (f"{path.stem}.{cls.name}", node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in parse(path).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def used_names() -> set[str]:
    """Names read anywhere in the package outside ``__init__`` or in a demo;
    an import alone is not a use."""
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += (ROOT / "demos").glob("*.py")
    names = set()
    for path in users:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_and_class_is_used_outside_the_tests():
    defined = public_definitions()
    assert len(defined) > 50
    used = used_names()
    unused = [f"{module}.{name}" for module, name in defined if name not in used]
    assert unused == []


def test_every_public_method_of_a_public_class_is_used_outside_the_tests():
    defined = public_methods()
    assert len(defined) > 10
    used = used_names()
    unused = [f"{owner}.{name}" for owner, name in defined if name not in used]
    assert unused == []
