"""The benchmark's traced run names program functions by their span names.

A span name that no longer resolves reads as zero in its metric instead of
failing, so these tests check every name against the live package.
"""

import importlib
import inspect
import math
import pkgutil
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import adwatch
import adwatch.cnn

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


# (windows, batch size, epochs); 2000 windows in batches of 128 for 50 epochs
# is the default training run, 800 steps
@pytest.mark.parametrize("n, batch_size, epochs", [(2000, 128, 2), (200, 128, 3), (7, 3, 2), (64, 64, 1)])
def test_traced_cnn_training_counts_one_step_per_batch(n, batch_size, epochs):
    # cnn.steps and cnn.loss_and_grads_s count the spans of loss_and_grads,
    # and the step's helpers are private, so no span is recorded inside it
    rng = np.random.default_rng(n)
    X = rng.normal(0, 1, (n, 30))
    y = (X.mean(axis=1) > 0).astype(float)
    tracer = load_tracing().Tracer()
    tracer.install([adwatch.cnn])
    try:
        adwatch.cnn.train_cnn(X, y, epochs=epochs, batch_size=batch_size)
    finally:
        tracer.uninstall()
    steps = epochs * math.ceil(n / batch_size)
    assert Counter(span[0] for span in tracer.spans if span[0].startswith("cnn.")) == {
        "cnn.train_cnn": 1,
        "cnn.TemporalCnn.initialize": 1,
        "cnn.TemporalCnn.loss_and_grads": steps,
    }
