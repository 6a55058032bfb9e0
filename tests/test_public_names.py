"""Every public top-level function and class of ``adwatch`` has a user.

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
