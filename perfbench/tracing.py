"""Outside-in tracing of the adwatch modules for the benchmark's traced run.

``Tracer.install`` replaces each public function of every ``adwatch``
module, at every module attribute through which a caller resolves it (for
example both ``adwatch.pipeline.score_session`` and the copy imported into
``adwatch.cli``), and each public method of every ``adwatch`` class, with a
wrapper that records a span. ``Tracer.uninstall`` puts the originals back.
Nothing inside the program changes, so the traced run computes the same
bytes as the untraced one.

A span is ``[name, start_ns, end_ns, parent_index]``. Spans are kept in
memory and written out by ``write_spans``. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested on one thread, so the children never overlap. A layer is the module
a function is defined in, so the self times of all layers add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# Per-node recursion inside one layer: a span per tree node would cost more
# than the node's work, and the time stays in the same layer's caller.
EXCLUDED_CLASSES = {"adwatch.boosting.TreeNode"}

# The artifact layer owns loading, though ``ArtifactSet`` lives in pipeline.
LAYER_OF_SPAN = {"pipeline.ArtifactSet.load": "artifacts"}

LAYERS = (
    "synth", "session_io", "records", "artifacts", "pipeline", "gaze",
    "geometry", "head", "speaking", "cnn", "drowsiness", "boosting",
    "fusion", "evaluation", "training", "temporal", "config", "cli",
)

# metric -> spans whose outermost inclusive durations it sums
INCLUSIVE = {
    "session_io.load_session_s": ("session_io.load_session",),
    "session_io.write_frames_s": ("session_io.write_frames",),
    "session_io.write_timeline_s": ("session_io.write_timeline",),
    "records.from_records_s": ("records.FrameArrays.from_records",),
    "records.to_records_s": ("records.FrameArrays.to_records",),
    "synth.generate_s": ("synth.generate",),
    "artifacts.load_s": ("pipeline.ArtifactSet.load",),
    "artifacts.save_s": (
        "artifacts.save_gaze_regressors",
        "artifacts.save_speaking_cnn",
        "artifacts.save_yawn_classifier",
    ),
    "pipeline.score_session_s": ("pipeline.score_session",),
    "gaze.stats_s": ("gaze.compute_session_stats",),
    "gaze.fine_tune_s": ("gaze.fine_tune",),
    "geometry.intersect_s": ("geometry.intersect_gaze_batch",),
    "head.off_screen_s": ("head.head_off_screen",),
    "speaking.flags_s": ("speaking.speaking_flags",),
    "cnn.predict_s": ("cnn.TemporalCnn.predict_proba",),
    "cnn.loss_and_grads_s": ("cnn.TemporalCnn.loss_and_grads",),
    "drowsiness.closure_s": ("drowsiness.refined_eye_closure", "drowsiness.closure_events"),
    "drowsiness.yawn_flags_s": ("drowsiness.yawn_flags",),
    "boosting.predict_s": ("boosting.BoostedEnsemble.predict",),
    "boosting.fit_s": ("boosting.fit_boosted",),
    "fusion.fuse_s": ("fusion.fuse",),
    "fusion.summary_s": ("fusion.session_summary",),
    "evaluation.pooled_report_s": ("evaluation.pooled_report",),
    "training.load_s": ("training.load_suite_sessions",),
}

# metric -> span whose calls it counts
CALLS = {
    "artifacts.load_calls": "pipeline.ArtifactSet.load",
    "pipeline.score_session_calls": "pipeline.score_session",
    "gaze.fine_tune_calls": "gaze.fine_tune",
    "speaking.flags_calls": "speaking.speaking_flags",
    "drowsiness.yawn_flags_calls": "drowsiness.yawn_flags",
    "boosting.predict_calls": "boosting.BoostedEnsemble.predict",
    "boosting.fit_calls": "boosting.fit_boosted",
    "cnn.steps": "cnn.TemporalCnn.loss_and_grads",
}

# metric -> (span, ancestor): inclusive time of the span below that ancestor
FIT_SPLIT = {
    "boosting.fit_gaze_s": ("boosting.fit_boosted", "training.train_gaze_regressors"),
    "boosting.fit_yawn_s": ("boosting.fit_boosted", "training.train_yawn_classifier"),
}

# metric -> span whose self time it is
SELF = {"cnn.train_s": "cnn.train_cnn"}

COUNTERS = (
    "session_io.bytes_read", "session_io.bytes_written",
    "session_io.rows_parsed", "cnn.predict_rows",
)


def _path_arg(args, kwargs, position):
    path = kwargs.get("path", args[position] if len(args) > position else None)
    return os.path.getsize(path)


def _bytes_read(counters, args, kwargs, result):
    counters["session_io.bytes_read"] += _path_arg(args, kwargs, 0)


def _bytes_written(counters, args, kwargs, result):
    counters["session_io.bytes_written"] += _path_arg(args, kwargs, 1)


def _rows_parsed(counters, args, kwargs, result):
    counters["session_io.rows_parsed"] += len(result)
    _bytes_read(counters, args, kwargs, result)


def _predict_rows(counters, args, kwargs, result):
    counters["cnn.predict_rows"] += len(result)


# span -> probe(counters, args, kwargs, result), run after the call returns
PROBES = {
    "session_io.load_frames": _rows_parsed,
    "session_io.load_manifest": _bytes_read,
    "session_io.read_timeline": _bytes_read,
    "session_io.write_frames": _bytes_written,
    "session_io.write_manifest": _bytes_written,
    "session_io.write_timeline": _bytes_written,
    "cnn.TemporalCnn.predict_proba": _predict_rows,
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({name: "s" for name in (*INCLUSIVE, *FIT_SPLIT, *SELF)})
    units.update({name: "count" for name in CALLS})
    units.update({
        "session_io.bytes_read": "bytes", "session_io.bytes_written": "bytes",
        "session_io.rows_parsed": "rows", "cnn.predict_rows": "rows",
        "workload.sessions": "count", "workload.frames": "frames",
        "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
        "trace.overhead_share": "ratio", "trace.spans": "count",
    })
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def _wrap(self, fn, name: str):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        spans, stack, counters = self.spans, self._stack, self.counters
        probe = PROBES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        self._wrapped[id(fn)] = span
        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules) -> None:
        """Wrap the public functions and methods of ``modules``."""
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith("adwatch."):
                    continue
                if inspect.isfunction(obj):
                    short = obj.__module__.rsplit(".", 1)[1]
                    self._patch(module, attr, self._wrap(obj, f"{short}.{obj.__qualname__}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(obj)

    def _install_class(self, cls) -> None:
        if f"{cls.__module__}.{cls.__qualname__}" in EXCLUDED_CLASSES:
            return
        short = cls.__module__.rsplit(".", 1)[1]
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Start a new pass: forget spans and counters, keep the wrappers."""
        self.spans.clear()
        self.counters.clear()


def layer_of(name: str) -> str:
    return LAYER_OF_SPAN.get(name, name.split(".", 1)[0])


def pass_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    layer_self: defaultdict[str, int] = defaultdict(int)
    inclusive: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    fit_split: defaultdict[str, int] = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start - child_ns[i]
        layer_self[layer_of(name)] += own
        self_ns[name] += own
        calls[name] += 1
        above = set(ancestors(i))
        if name not in above:
            inclusive[name] += end - start
        for metric, (span, ancestor) in FIT_SPLIT.items():
            if name == span and ancestor in above:
                fit_split[metric] += end - start

    out = {f"{layer}.self_s": layer_self[layer] / 1e9 for layer in LAYERS}
    for metric, names in INCLUSIVE.items():
        out[metric] = sum(inclusive[s] for s in names) / 1e9
    for metric in FIT_SPLIT:
        out[metric] = fit_split[metric] / 1e9
    for metric, span in SELF.items():
        out[metric] = self_ns[span] / 1e9
    for metric, span in CALLS.items():
        out[metric] = calls[span]
    for name in COUNTERS:
        out[name] = counters[name]
    out["trace.spans"] = n
    unknown = set(layer_self) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans from layers the benchmark does not report: {sorted(unknown)}")
    return out


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over the traced passes. Counts are those of the
    first pass; the gate has checked that every pass repeats them."""
    units = per_layer_units()
    return {
        metric: statistics.median(p[metric] for p in per_pass) if units[metric] == "s" else value
        for metric, value in per_pass[0].items()
    }


def write_spans(passes: list[list[list]], path: Path) -> None:
    """One JSON line per span: pass number, name, start and end (ns), parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
