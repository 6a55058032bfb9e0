"""The benchmark's traced run names program functions by their span names.

A span name that no longer resolves reads as zero in its metric instead of
failing, so these tests check every name against the live package.
"""

import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import adwatch

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Spans whose targets are gone; their metrics are retired or re-scoped with
# the next revision of the benchmark (ROADMAP, open item 1).
KNOWN_DEAD = {
    "records.FrameArrays.from_records",
    "records.FrameArrays.to_records",
    "drowsiness.closure_events",
}


def load_tracing():
    """The tracing module, compiled from its source so that no bytecode is
    written next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING_PATH.read_text(encoding="utf-8"), str(TRACING_PATH), "exec"),
         module.__dict__)
    return module


def named_spans(tracing) -> set:
    spans = set()
    for names in tracing.INCLUSIVE.values():
        spans.update(names)
    spans.update(tracing.CALLS.values())
    for span, ancestor in tracing.FIT_SPLIT.values():
        spans.update((span, ancestor))
    spans.update(tracing.SELF.values())
    spans.update(tracing.PROBES)
    spans.update(tracing.LAYER_OF_SPAN)
    return spans


def resolves(span: str) -> bool:
    """Whether ``module.qualname`` names a live attribute of ``adwatch.module``."""
    module_name, *path = span.split(".")
    try:
        obj = importlib.import_module(f"adwatch.{module_name}")
    except ImportError:
        return False
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_every_benchmark_span_names_a_live_function():
    dead = {span for span in named_spans(load_tracing()) if not resolves(span)}
    assert dead == KNOWN_DEAD


def test_every_module_with_public_functions_is_a_layer():
    layers = set(load_tracing().LAYERS)
    missing = []
    for info in pkgutil.iter_modules(adwatch.__path__):
        module = importlib.import_module(f"adwatch.{info.name}")
        defines = [
            name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ]
        if defines and info.name not in layers:
            missing.append(info.name)
    assert missing == []
