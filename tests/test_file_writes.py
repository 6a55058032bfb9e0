"""Every file ``adwatch`` writes goes through ``config._replacing``.

That context manager writes a temp file and renames it into place, so a
reader never sees a half-written file. A second way to write a file would
bring half-written files back, so no module outside it may open a file for
writing, call ``write_text`` or ``write_bytes``, or call ``os.replace``.
The one other rename is ``config._replacing_dirs``, which moves whole
directories of files that ``_replacing`` wrote, and opens no file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"

# the one place allowed to write: (module, function)
WRITER = ("config", "_replacing")
# the one place allowed to rename a directory of written files into place
DIRECTORY_MOVER = ("config", "_replacing_dirs")
WRITE_METHODS = {"write_text", "write_bytes"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def open_mode(call: ast.Call):
    """The mode of an ``open`` call, ``"r"`` if it gives none, or None if it
    is not a string literal. ``open(file, mode)`` and ``path.open(mode)``
    take it at different positions."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    node = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if node is None and len(call.args) > position:
        node = call.args[position]
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) of every call in ``tree`` that writes a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name in WRITE_METHODS:
            found.append((node.lineno, name))
        elif name == "replace" and isinstance(func, ast.Attribute) and ast.unparse(func.value) == "os":
            found.append((node.lineno, "os.replace"))
        elif name == "open":
            mode = open_mode(node)
            if mode is None or set(mode) & set("wax+"):
                found.append((node.lineno, f"open(mode={mode!r})"))
    return found


def without_writer(path: Path) -> ast.Module:
    """The module at ``path``, less the bodies of ``WRITER`` and
    ``DIRECTORY_MOVER`` if it defines them."""
    tree = parse(path)
    names = {name for module, name in (WRITER, DIRECTORY_MOVER) if path.stem == module}
    tree.body = [node for node in tree.body if not (isinstance(node, ast.FunctionDef) and node.name in names)]
    return tree


def test_no_module_writes_a_file_outside_replacing():
    outside = [
        f"{path.stem}.py:{line} {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, call in writes(without_writer(path))
    ]
    assert outside == []


def test_the_guard_sees_the_writes_of_replacing():
    module, name = WRITER
    (writer,) = [node for node in parse(PACKAGE / f"{module}.py").body
                 if isinstance(node, ast.FunctionDef) and node.name == name]
    assert sorted(call for _, call in writes(writer)) == ["open(mode='w')", "os.replace"]


def test_the_directory_mover_only_renames():
    module, name = DIRECTORY_MOVER
    (mover,) = [node for node in parse(PACKAGE / f"{module}.py").body
                if isinstance(node, ast.FunctionDef) and node.name == name]
    assert {call for _, call in writes(mover)} == {"os.replace"}


def test_the_guard_flags_each_way_to_write_and_no_read():
    source = """
import os
open(p, "w")
open(p, mode="a")
open(p)
open(p, "r", encoding="utf-8")
path.open("rb+")
path.open()
path.write_text("x")
path.write_bytes(b"x")
os.replace(a, b)
text.replace("a", "b")
open(p, mode)
"""
    assert writes(ast.parse(source)) == [
        (3, "open(mode='w')"), (4, "open(mode='a')"), (7, "open(mode='rb+')"), (9, "write_text"),
        (10, "write_bytes"), (11, "os.replace"), (13, "open(mode=None)"),
    ]
