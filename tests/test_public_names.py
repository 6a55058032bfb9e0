"""Every public top-level function and class of ``adwatch``, and every
public method of a public class, has a user; every field of an options
object, and every budget parameter of a fit, has a caller that sets it; a
public class that writes itself as a JSON document (``to_dict``) also reads
itself back (``from_dict``).

A public name that only ``__init__`` re-exports and only tests call is code
kept alive for its tests; such a helper belongs with the tests instead. A
field or parameter that only tests set is an option with one value in use,
which is a constant.
"""

import ast
import inspect
from itertools import takewhile
from pathlib import Path

from adwatch.boosting import fit_boosted
from adwatch.cnn import train_cnn
from adwatch.pipeline import PipelineVariant
from adwatch.synth import SuiteConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adwatch"
# PipelineConfig and ScoreConfig are not here: a config file or --set sets
# their every field, for the command that reads it
OPTIONS = (SuiteConfig, PipelineVariant, fit_boosted, train_cnn)


def settable(option) -> list[inspect.Parameter]:
    """What a caller of an ``OPTIONS`` entry sets: a class's fields, or a
    function's keyword-only parameters, its budget."""
    params = inspect.signature(option).parameters.values()
    return [p for p in params if isinstance(option, type) or p.kind is p.KEYWORD_ONLY]


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
    """(option, name) for each ``settable`` value of an ``OPTIONS`` entry
    that a call of it in ``trees`` passes, by position or keyword, with a
    value that is not a literal equal to the default."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            option = next((o for o in OPTIONS if o.__name__ == name), None)
            if option is None:
                continue
            by_name = {p.name: p for p in settable(option)}
            positional = takewhile(lambda arg: not isinstance(arg, ast.Starred), node.args)
            passed = [(p.name, arg) for p, arg in zip(inspect.signature(option).parameters.values(), positional)]
            passed += [(kw.arg, kw.value) for kw in node.keywords]
            for field, value in passed:
                if field not in by_name:
                    continue
                try:
                    default_literal = ast.literal_eval(value) == by_name[field].default
                except ValueError:
                    default_literal = False
                if not default_literal:
                    found.add((name, field))
    return found


def test_every_field_of_an_options_object_is_set_outside_the_tests():
    found = set_fields(users())
    unset = [f"{option.__name__}.{p.name}" for option in OPTIONS for p in settable(option)
             if (option.__name__, p.name) not in found]
    assert unset == []


def test_the_budget_of_each_fit_is_settable():
    # the seven values of the two fits' budgets
    assert {option.__name__: [p.name for p in settable(option)] for option in (fit_boosted, train_cnn)} == {
        "fit_boosted": ["n_stages", "max_depth", "mode"],
        "train_cnn": ["epochs", "learning_rate", "batch_size", "seed"],
    }


PLANTED = """
SuiteConfig(0, *values, 2, template=name, **more)
PipelineVariant(name="full", signals=frozenset())
fit_boosted(X, y, n_stages=5, max_depth=3)
boosting.fit_boosted(X, y, 7, max_depth=depth, mode=MODE_CLASSIFICATION)
train_cnn(X, y, epochs=-1, seed=0)
cnn.train_cnn(X, y, *rest, batch_size=1, **budget)
"""


def test_set_fields_counts_values_other_than_the_default_literal():
    # max_depth=3, seed=0 and name="full" are the defaults; neither *values,
    # what follows it, nor **more names a field; a fit's positional
    # arguments are its data, and 7 sets no budget value
    assert set_fields([ast.parse(PLANTED)]) == {
        ("SuiteConfig", "template"), ("PipelineVariant", "signals"),
        ("fit_boosted", "n_stages"), ("fit_boosted", "max_depth"), ("fit_boosted", "mode"),
        ("train_cnn", "epochs"), ("train_cnn", "batch_size"),
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
