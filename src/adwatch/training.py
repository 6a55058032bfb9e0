"""Training orchestration: builds the three model artifacts from a suite.

The gaze fine-tuning regressors learn the residual between the scripted dot
position and the normalized measured intersection, per device and axis,
using only on-screen dot frames (off-screen frames have no usable ground
truth). The speaking CNN trains on resampled lip windows labeled by the
scripted speech activity of their center frame; yawn-edge and silent windows
provide the negatives. The yawn classifier trains on per-frame mouth aspect
ratio plus AU features at the suite's natural class imbalance.

``select_sessions`` reads and checks every selected manifest, so a session
without ground truth fails before any frame file is parsed. ``parse_session``
then refuses ground truth whose rows are not the frames' rows
(``check_truth``).

``_in_order`` is the one way work spreads over processes: the tasks marked
for forked workers run there while this process runs the rest, and results
and the first failure come back in task order, as in series. One rule,
``_usable_cpus() > 1``, decides every split: ``_in_halves`` runs the last
half of a command's per-session tasks in one worker, for the suite load of
``train``, ``ablate``'s parse and score and ``simulate``'s writes;
``train_all`` fits the gaze and yawn models in one worker while this process
trains the speaking CNN. ``score --jobs N`` alone chooses by its flag, and
scores every session in at most N workers. With one usable CPU all else
runs here. Each session and each fit is seeded on its own and each artifact's
text comes from one function per kind, so the outputs are byte-identical
either way.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import artifacts as artifacts_io
from .artifacts import GAZE_ARTIFACT, SPEAKING_ARTIFACT, YAWN_ARTIFACT
from .boosting import LEARNING_RATE, BoostedEnsemble, MODE_CLASSIFICATION, fit_boosted
from .cnn import train_cnn
from .config import _SEED, PipelineConfig, _check_fields, _check_writes
from .errors import ConfigError, DataError
from .fusion import DistractionTimeline
from .gaze import GazeRegressors, compute_session_stats, normalize_gaze, valid_gaze_rays
from .records import FrameArrays, SessionManifest
from .session_io import load_session, read_timeline
from .speaking import LipWindows, SpeakingCnn, assemble_training_windows
from .drowsiness import yawn_features
from .synth import load_entry_manifest, load_suite

PathLike = Union[str, Path]

Session = tuple[FrameArrays, DistractionTimeline, SessionManifest]


# Fork where the platform has it: a worker inherits what this process has
# loaded, the task list included, rather than unpickling it, and imports
# nothing again. The only other threads in the process are BLAS's, and
# OpenBLAS handles fork itself: it stops its thread pool before a fork and
# restarts it on the next call, so a worker's GEMMs (``score --jobs`` runs
# the CNN) are safe.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Set only in ``_in_order``'s workers, by the pool initializer.
_worker_tasks: Sequence[Callable[[], object]] = ()


def _set_worker_tasks(tasks: Sequence[Callable[[], object]]) -> None:
    global _worker_tasks
    _worker_tasks = tasks


def _run_worker_task(i: int):
    return _worker_tasks[i]()


def _in_order(tasks: Sequence[Callable[[], object]], in_worker: Sequence[bool], workers: int = 1) -> list:
    """The results of the zero-argument ``tasks``, in task order.

    The tasks marked ``in_worker`` run in ``min(workers, number marked)``
    worker processes, which get the task list when they start, so only an
    index and a result cross to and fro; the others run in this process
    meanwhile. The first task to fail in order raises, whichever side ran
    it, once the workers have exited; worker tasks not yet started are
    cancelled.
    """
    marked = [i for i, mark in enumerate(in_worker) if mark]
    if not marked:
        return [task() for task in tasks]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(marked)),
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_set_worker_tasks,
        initargs=(tasks,),
    ) as pool:
        futures = {i: pool.submit(_run_worker_task, i) for i in marked}
        try:
            here = {}
            for i, task in enumerate(tasks):
                if i in futures:
                    continue
                try:
                    here[i] = task()
                except Exception:
                    for j in marked:   # a worker task before this one that fails comes first
                        if j < i:
                            futures[j].result()
                    raise
            return [futures[i].result() if i in futures else here[i] for i in range(len(tasks))]
        except BaseException:
            for future in futures.values():
                future.cancel()
            raise


def _in_halves(tasks: Sequence[Callable[[], object]]) -> list:
    """The results of the per-session ``tasks``, in task order: with more
    than one usable CPU, one worker process runs the last half of them while
    this process runs the first half (one more when the count is odd)."""
    half = (len(tasks) + 1) // 2 if _usable_cpus() > 1 else len(tasks)
    return _in_order(tasks, [i >= half for i in range(len(tasks))])


def select_sessions(suite_dir: PathLike, split: str = "all") -> list[tuple[SessionManifest, Path]]:
    """The manifest of each session of ``split`` in index order, with the
    directory its paths are relative to; a session without ground truth or
    an empty split raises DataError."""
    suite_dir = Path(suite_dir)
    selected = []
    for entry in load_suite(suite_dir).by_split(split):
        manifest, base_dir = load_entry_manifest(suite_dir, entry)
        if manifest.ground_truth is None:
            raise DataError(f"session {entry.session_id} has no ground truth")
        selected.append((manifest, base_dir))
    if not selected:
        raise DataError(f"no sessions for split={split!r} in {suite_dir}")
    return selected


def check_truth(session_id: str, rows: str, frame_index: np.ndarray, truth: DistractionTimeline) -> None:
    """Raise DataError unless ``frame_index``, that of the ``rows`` of session
    ``session_id``, is the ground truth's row for row; the message names the
    first row that differs."""
    if len(frame_index) != len(truth):
        raise DataError(
            f"session {session_id}: {rows} length {len(frame_index)} != ground truth {len(truth)} "
            f"(first unmatched row {min(len(frame_index), len(truth)) + 1})"
        )
    misaligned = np.flatnonzero(frame_index != truth.frame_index)
    if misaligned.size:
        i = misaligned[0]
        raise DataError(
            f"session {session_id}: {rows} row {i + 1} has frame_index "
            f"{frame_index[i]}, ground truth {truth.frame_index[i]}"
        )


def parse_session(manifest: SessionManifest, base_dir: Path) -> tuple[FrameArrays, DistractionTimeline]:
    """A selected session's frames and their ground-truth timeline."""
    frames = load_session(manifest, base_dir)
    truth = read_timeline(base_dir / manifest.ground_truth)
    check_truth(manifest.session_id, "frame file", frames.frame_index, truth)
    return frames, truth


def load_suite_sessions(suite_dir: PathLike, split: str = "all") -> list[Session]:
    """The (frames, truth, manifest) of each session of ``split`` in index
    order.

    Every selected manifest is read and checked (``select_sessions``) before
    any frame file is parsed, and the parse is split by ``_in_halves``.
    """
    selected = select_sessions(suite_dir, split)
    parsed = _in_halves([partial(parse_session, *s) for s in selected])
    return [(frames, truth, manifest) for (frames, truth), (manifest, _) in zip(parsed, selected)]


def _check_both_classes(model: str, y: np.ndarray, rows: str) -> None:
    """DataError unless the labels ``y`` of ``model``'s training set hold
    both classes: a detector fit on one class never learns the other."""
    if not np.any(y) or np.all(y):
        only = "positive" if np.any(y) else "negative"
        raise DataError(
            f"{model} training set needs both classes, but all its {len(y)} {rows} are {only}; "
            "a suite without speech or yawns trains its gaze model alone, with --only gaze"
        )


def _subsample(rng: np.random.Generator, n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.sort(rng.choice(n, size=cap, replace=False))


# ---------------------------------------------------------------------------
# gaze fine-tuning regressors
# ---------------------------------------------------------------------------

def gaze_training_rows(
    sessions: list[Session], config: PipelineConfig
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per device: (normalized measured points (n,2), true dot targets (n,2)).

    A session none of whose dot frames has a gaze point is skipped; it may be
    untrackable, and then it has no stats to normalize by."""
    per_device: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for frames, truth, manifest in sessions:
        if truth.activity is None or truth.target_cm is None:
            raise DataError("gaze training needs generator ground truth (activity, target_cm)")
        _, points = rays = valid_gaze_rays(frames, config.quality_floor)
        is_dot = np.array([a == "dot" for a in truth.activity])
        rows = is_dot & np.all(np.isfinite(points), axis=1)
        if not np.any(rows):
            continue
        per_device.setdefault(manifest.device_type, []).append(
            (normalize_gaze(points[rows], compute_session_stats(frames, rays)), truth.target_cm[rows])
        )
    out = {}
    for device, chunks in per_device.items():
        X = np.concatenate([m for m, _ in chunks])
        y = np.concatenate([t for _, t in chunks])
        out[device] = (X, y)
    if not out:
        raise DataError("no on-screen dot segments found in the training sessions")
    return out


def train_gaze_regressors(
    sessions: list[Session], config: PipelineConfig, seed: int = 0
) -> tuple[GazeRegressors, dict]:
    rows = gaze_training_rows(sessions, config)
    rng = np.random.default_rng(seed)
    models: dict[str, dict[str, BoostedEnsemble]] = {}
    hashes = {}
    for device in sorted(rows):
        X, targets = rows[device]
        idx = _subsample(rng, len(X), config.max_gaze_train_rows)
        X, targets = X[idx], targets[idx]
        residual = targets - X
        models[device] = {
            "x": fit_boosted(X, residual[:, 0], n_stages=config.gaze_stages, max_depth=config.gaze_depth),
            "y": fit_boosted(X, residual[:, 1], n_stages=config.gaze_stages, max_depth=config.gaze_depth),
        }
        hashes[device] = artifacts_io.data_hash(X, targets)
    metadata = {
        "seed": seed,
        "data_hash": hashes,
        "hyperparameters": {
            "n_stages": config.gaze_stages,
            "max_depth": config.gaze_depth,
            "learning_rate": LEARNING_RATE,
            "target": "residual(true - measured)",
        },
        "n_devices": len(models),
    }
    return GazeRegressors(models, config.quality_floor), metadata


# ---------------------------------------------------------------------------
# speaking CNN
# ---------------------------------------------------------------------------

def lip_windows(config: PipelineConfig) -> LipWindows:
    """The windows the speaking CNN trains on, and then reads."""
    return LipWindows(config.window_samples, config.window_span_s, config.min_valid_samples,
                      config.max_hold_samples)


def speaking_training_set(
    sessions: list[Session], config: PipelineConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    lip = lip_windows(config)
    windows, labels = [], []
    for frames, truth, _ in sessions:
        if truth.activity is None:
            raise DataError("speaking training needs generator activity labels")
        active = np.array([a == "speak" for a in truth.activity])
        w, l = assemble_training_windows(frames, active, lip, stride=config.speaking_window_stride)
        windows.append(w)
        labels.append(l)
    X = np.concatenate(windows)
    y = np.concatenate(labels)
    if len(X) == 0:
        raise DataError("no scored windows in the training sessions")
    idx = _subsample(np.random.default_rng(seed), len(X), config.max_speaking_train_windows)
    return X[idx], y[idx]


def train_speaking_cnn(
    sessions: list[Session], config: PipelineConfig, seed: int = 0
) -> tuple[SpeakingCnn, dict]:
    X, y = speaking_training_set(sessions, config, seed=seed)
    _check_both_classes("speaking CNN", y, "windows")
    net = train_cnn(
        X,
        y,
        epochs=config.cnn_epochs,
        learning_rate=config.cnn_learning_rate,
        batch_size=config.cnn_batch_size,
        seed=seed,
    )
    metadata = {
        "seed": seed,
        "data_hash": artifacts_io.data_hash(X, y),
        "hyperparameters": {
            "epochs": config.cnn_epochs,
            "learning_rate": config.cnn_learning_rate,
            "batch_size": config.cnn_batch_size,
        },
        "n_windows": int(len(X)),
        "positive_fraction": float(np.mean(y)),
    }
    return SpeakingCnn(net, lip_windows(config)), metadata


# ---------------------------------------------------------------------------
# yawn classifier
# ---------------------------------------------------------------------------

def yawn_training_set(
    sessions: list[Session], config: PipelineConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of a uniform subsample of the tracked frames.

    The subsample is drawn over the tracked frames of all sessions in order,
    and only its rows are gathered from each session, so the features of
    every tracked frame are never held at once.
    """
    tracked = []
    for frames, truth, _ in sessions:
        if truth.activity is None:
            raise DataError("yawn training needs generator activity labels")
        tracked.append(np.flatnonzero(frames.face_expr))
    # uniform subsampling keeps the natural class imbalance
    offsets = np.cumsum([0] + [len(rows) for rows in tracked])
    idx = _subsample(np.random.default_rng(seed), int(offsets[-1]), config.max_yawn_train_rows)
    bounds = np.searchsorted(idx, offsets)
    feats, labels = [], []
    for (frames, truth, _), rows, offset, lo, hi in zip(
        sessions, tracked, offsets, bounds[:-1], bounds[1:]
    ):
        picked = rows[idx[lo:hi] - offset]
        feats.append(yawn_features(frames)[picked])
        labels.append(
            np.array([truth.activity[i] == "yawn_active" for i in picked.tolist()], dtype=np.float64)
        )
    return np.concatenate(feats), np.concatenate(labels)


def train_yawn_classifier(
    sessions: list[Session], config: PipelineConfig, seed: int = 0
) -> tuple[BoostedEnsemble, dict]:
    X, y = yawn_training_set(sessions, config, seed=seed)
    _check_both_classes("yawn classifier", y, "frames")
    model = fit_boosted(
        X,
        y,
        n_stages=config.yawn_stages,
        max_depth=config.yawn_depth,
        mode=MODE_CLASSIFICATION,
    )
    metadata = {
        "seed": seed,
        "data_hash": artifacts_io.data_hash(X, y),
        "hyperparameters": {
            "n_stages": config.yawn_stages,
            "max_depth": config.yawn_depth,
            "learning_rate": LEARNING_RATE,
        },
        "n_frames": int(len(X)),
        "positive_fraction": float(np.mean(y)),
    }
    return model, metadata


# ---------------------------------------------------------------------------
# artifact-level entry point
# ---------------------------------------------------------------------------

def _fit_writer(fit, save, sessions: list[Session], config: PipelineConfig, seed: int,
                text=None) -> Callable[[Path], None]:
    """``fit``'s model of ``sessions`` as the function that writes its
    artifact to a path: ``save``, or with ``text`` (in a worker) the
    artifact's text encoded here, so only the text crosses back."""
    model, metadata = fit(sessions, config, seed=seed)
    if text is None:
        return partial(save, model, metadata)
    return partial(artifacts_io.write_artifact, text(model, metadata))


def train_all(
    suite_dir: PathLike,
    out_dir: PathLike,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
    only: Optional[str] = None,
) -> list[Path]:
    """Train requested models on the suite's train split and write artifacts.

    A path of an artifact that a file or directory blocks raises
    ConfigError before the suite is read. Every requested model is trained
    before any file is written, so a failing fit leaves the output directory
    as it was. With all three requested and more than one usable CPU, a
    worker process fits the gaze regressors and then the yawn classifier
    while this process trains the speaking CNN; otherwise they fit in this
    process in turn.
    """
    targets = {
        "gaze": (train_gaze_regressors, artifacts_io.save_gaze_regressors,
                 artifacts_io.gaze_regressors_text, GAZE_ARTIFACT),
        "speaking": (train_speaking_cnn, artifacts_io.save_speaking_cnn, None, SPEAKING_ARTIFACT),
        "yawn": (train_yawn_classifier, artifacts_io.save_yawn_classifier,
                 artifacts_io.yawn_classifier_text, YAWN_ARTIFACT),
    }
    if only is not None and only not in targets:
        raise DataError(f"unknown training target {only!r}")
    _check_fields({"seed": seed}, {"seed": _SEED}, ConfigError, "train")
    requested = [spec for target, spec in targets.items() if only in (None, target)]
    _check_writes(Path(out_dir), files=[name for _, _, _, name in requested])
    sessions = load_suite_sessions(suite_dir, split="train")
    # side by side, the boosted fits go to a worker and the CNN, the longest, stays here
    side_by_side = only is None and _usable_cpus() > 1
    in_worker = [side_by_side and text is not None for _, _, text, _ in requested]
    writers = _in_order(
        [partial(_fit_writer, fit, save, sessions, config, seed, text if mark else None)
         for (fit, save, text, _), mark in zip(requested, in_worker)],
        in_worker,
    )
    written = []
    for (_, _, _, name), write in zip(requested, writers):
        path = Path(out_dir) / name
        write(path)
        written.append(path)
    return written
