"""Every public top-level function and class of ``adwatch``, and every
public method of a public class, has a user; every field of an options
object has a caller that sets it; a public class that writes itself as a
JSON document (``to_dict``) also reads itself back (``from_dict``).

A public name that only ``__init__`` re-exports and only tests call is code
kept alive for its tests; such a helper belongs with the tests instead. A
field that only tests set is an option with one value in use, which is a
constant.
"""

import ast
import dataclasses
from itertools import takewhile
from pathlib import Path

from adwatch.boosting import BoostConfig
from adwatch.cnn import CnnTrainConfig
from adwatch.pipeline import PipelineVariant
from adwatch.synth import SuiteConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"
# PipelineConfig and ScoreConfig are not here: a config file or --set sets
# their every field, for the command that reads it
OPTIONS = (SuiteConfig, BoostConfig, CnnTrainConfig, PipelineVariant)


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


def users() -> list[ast.Module]:
    """The package outside ``__init__``, and the demos."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "demos").glob("*.py")
    return [parse(path) for path in paths]


def used_names() -> set[str]:
    """Names read anywhere in the package outside ``__init__`` or in a demo;
    an import alone is not a use."""
    names = set()
    for tree in users():
        for node in ast.walk(tree):
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


def set_fields(trees: list[ast.Module]) -> set[tuple[str, str]]:
    """(class, field) for each field of an ``OPTIONS`` class that a call of
    the class in ``trees`` passes, by position or keyword, with a value that
    is not a literal equal to the field's default."""
    options = {cls.__name__: dataclasses.fields(cls) for cls in OPTIONS}
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in options:
                continue
            by_name = {f.name: f for f in options[name]}
            positional = takewhile(lambda arg: not isinstance(arg, ast.Starred), node.args)
            passed = [(f.name, arg) for f, arg in zip(options[name], positional)]
            passed += [(kw.arg, kw.value) for kw in node.keywords if kw.arg in by_name]
            for field, value in passed:
                try:
                    default_literal = ast.literal_eval(value) == by_name[field].default
                except ValueError:
                    default_literal = False
                if not default_literal:
                    found.add((name, field))
    return found


def test_every_field_of_an_options_object_is_set_outside_the_tests():
    found = set_fields(users())
    unset = [f"{cls.__name__}.{f.name}" for cls in OPTIONS for f in dataclasses.fields(cls)
             if (cls.__name__, f.name) not in found]
    assert unset == []


PLANTED = """
BoostConfig(n_stages=5, max_depth=3)
boosting.BoostConfig(7, 0.1, mode=MODE_CLASSIFICATION)
SuiteConfig(0, *values, 2, template=name, **more)
PipelineVariant(name="full", signals=frozenset())
CnnTrainConfig(epochs=-1)
"""


def test_set_fields_counts_values_other_than_the_default_literal():
    # max_depth=3, seed 0 and name="full" are the defaults; 0.1 lands on
    # max_depth by position; neither *values, what follows it, nor **more
    # names a field
    assert set_fields([ast.parse(PLANTED)]) == {
        ("BoostConfig", "n_stages"), ("BoostConfig", "max_depth"), ("BoostConfig", "mode"),
        ("SuiteConfig", "template"), ("PipelineVariant", "signals"), ("CnnTrainConfig", "epochs"),
    }


def document_methods(trees: list[ast.Module]) -> dict[str, set[str]]:
    """For each public class in ``trees`` that defines ``to_dict``, which of
    ``to_dict`` and ``from_dict`` its own body defines."""
    found = {}
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            if "to_dict" in methods:
                found[cls.name] = methods & {"to_dict", "from_dict"}
    return found


def test_a_public_class_that_writes_a_document_also_reads_it():
    # a record that is only ever written is its dict: the function that
    # builds it returns the document itself
    found = document_methods([parse(path) for path in sorted(PACKAGE.glob("*.py"))])
    assert {"BoostedEnsemble", "TemporalCnn"} <= found.keys()
    assert [name for name, methods in found.items() if "from_dict" not in methods] == []


PLANTED_RECORDS = """
class Report:
    def to_dict(self):
        return {}

class Model:
    def to_dict(self):
        return {}

    @classmethod
    def from_dict(cls, doc):
        return cls()

class _Private:
    def to_dict(self):
        return {}

class Reader:
    def from_dict(self, doc):
        return doc

def to_dict(value):
    return {}
"""


def test_document_methods_sees_only_public_classes_that_define_to_dict():
    assert document_methods([ast.parse(PLANTED_RECORDS)]) == {
        "Report": {"to_dict"}, "Model": {"to_dict", "from_dict"},
    }
