"""Training orchestration: builds the three model artifacts from a suite.

The gaze fine-tuning regressors learn the residual between the scripted dot
position and the normalized measured intersection, per device and axis,
using only on-screen dot frames (off-screen frames have no usable ground
truth). The speaking CNN trains on resampled lip windows labeled by the
scripted speech activity of their center frame; yawn-edge and silent windows
provide the negatives. The yawn classifier trains on per-frame mouth aspect
ratio plus AU features at the suite's natural class imbalance.

``load_suite_sessions`` reads and checks every selected manifest first, so
a session without ground truth fails before any frame file is parsed. It
then parses the sessions' frame and truth files in two processes when more
than one CPU is usable: a worker process takes the last half, one session
per task, while the calling process parses the first half. The first
session to fail in index order raises, as in a serial load.

The three fits share nothing but the loaded sessions, so ``train_all`` runs
them side by side: the calling process trains the speaking CNN, the longest
fit, while one worker process fits the gaze regressors and then the yawn
classifier and encodes each artifact's JSON text. It fits them in this
process in turn when one model is asked for (``only``) or only one CPU is
usable; no flag chooses either split. Each fit is seeded on its own and
each artifact's text comes from one function per kind, so the artifacts
are byte-identical either way.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import artifacts as artifacts_io
from .boosting import BoostConfig, BoostedEnsemble, MODE_CLASSIFICATION, fit_boosted
from .cnn import CnnTrainConfig, TemporalCnn, train_cnn
from .config import _SEED, PipelineConfig, _check_fields
from .errors import ConfigError, DataError
from .fusion import DistractionTimeline
from .gaze import compute_session_stats, normalize_gaze, valid_gaze_rays
from .records import FrameArrays, SessionManifest
from .session_io import load_session, read_timeline
from .speaking import assemble_training_windows
from .drowsiness import yawn_features
from .synth import load_entry_manifest, load_suite

PathLike = Union[str, Path]

Session = tuple[FrameArrays, DistractionTimeline, SessionManifest]


# Fork where the platform has it: a worker inherits what this process has
# loaded rather than unpickling it, and imports nothing again. The only other
# threads in the process are BLAS's, and no worker task calls BLAS.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_session(manifest: SessionManifest, base_dir: Path) -> tuple[FrameArrays, DistractionTimeline]:
    return load_session(manifest, base_dir), read_timeline(base_dir / manifest.ground_truth)


def _parse_sessions(
    selected: list[tuple[SessionManifest, Path]]
) -> list[tuple[FrameArrays, DistractionTimeline]]:
    """The frames and truth of each selected session, in order. With two or
    more sessions and more than one usable CPU, one worker process parses the
    last half, a task per session, while this process parses the first. The
    first session to fail in order raises, once the worker has exited."""
    if len(selected) < 2 or _usable_cpus() < 2:
        return [_parse_session(*s) for s in selected]
    half = (len(selected) + 1) // 2
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context(_START_METHOD)) as pool:
        later = [pool.submit(_parse_session, *s) for s in selected[half:]]
        try:
            first = [_parse_session(*s) for s in selected[:half]]
            return first + [future.result() for future in later]
        except BaseException:
            for future in later:
                future.cancel()
            raise


def load_suite_sessions(
    suite_dir: PathLike,
    split: str = "all",
    device: Optional[str] = None,
    *,
    check_manifests: Optional[Callable[[list[SessionManifest]], None]] = None,
) -> list[Session]:
    """The (frames, truth, manifest) of each session of ``split`` (and
    ``device``) in index order.

    Every selected manifest is read and checked before any frame file is
    parsed; ``check_manifests``, when given, sees them then, so that a
    caller's own check of the manifests fails before the parse as well.
    """
    suite_dir = Path(suite_dir)
    selected = []
    for entry in load_suite(suite_dir).by_split(split):
        if device is not None and entry.device_type != device:
            continue
        manifest, base_dir = load_entry_manifest(suite_dir, entry)
        if manifest.ground_truth is None:
            raise DataError(f"session {entry.session_id} has no ground truth")
        selected.append((manifest, base_dir))
    if not selected:
        raise DataError(f"no sessions for split={split!r} in {suite_dir}")
    if check_manifests is not None:
        check_manifests([manifest for manifest, _ in selected])
    return [(frames, truth, manifest)
            for (frames, truth), (manifest, _) in zip(_parse_sessions(selected), selected)]


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
    """Per device: (normalized measured points (n,2), true dot targets (n,2))."""
    per_device: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for frames, truth, manifest in sessions:
        if truth.activity is None or truth.target_cm is None:
            raise DataError("gaze training needs generator ground truth (activity, target_cm)")
        valid, points, toward = rays = valid_gaze_rays(frames, config.quality_floor)
        stats = compute_session_stats(frames, rays)
        is_dot = np.array([a == "dot" for a in truth.activity])
        dot = is_dot[valid]   # the dot frames among the valid rows
        if not np.any(dot):
            continue
        points, toward = points[dot], toward[dot]
        keep = toward & np.all(np.isfinite(points), axis=1)
        measured = normalize_gaze(points[keep], stats)
        rows = np.flatnonzero(is_dot & valid)[keep]
        targets = truth.target_cm[rows]
        per_device.setdefault(manifest.device_type, []).append((measured, targets))
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
) -> tuple[dict[str, dict[str, BoostedEnsemble]], dict]:
    rows = gaze_training_rows(sessions, config)
    rng = np.random.default_rng(seed)
    models: dict[str, dict[str, BoostedEnsemble]] = {}
    hashes = {}
    boost = BoostConfig(
        n_stages=config.gaze_stages, max_depth=config.gaze_depth, learning_rate=0.1
    )
    for device in sorted(rows):
        X, targets = rows[device]
        idx = _subsample(rng, len(X), config.max_gaze_train_rows)
        X, targets = X[idx], targets[idx]
        residual = targets - X
        models[device] = {
            "x": fit_boosted(X, residual[:, 0], boost),
            "y": fit_boosted(X, residual[:, 1], boost),
        }
        hashes[device] = artifacts_io.data_hash(X, targets)
    metadata = {
        "seed": seed,
        "data_hash": hashes,
        "hyperparameters": {
            "n_stages": boost.n_stages,
            "max_depth": boost.max_depth,
            "learning_rate": boost.learning_rate,
            "target": "residual(true - measured)",
        },
        "n_devices": len(models),
    }
    return models, metadata


# ---------------------------------------------------------------------------
# speaking CNN
# ---------------------------------------------------------------------------

def speaking_training_set(
    sessions: list[Session], config: PipelineConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    windows, labels = [], []
    for frames, truth, _ in sessions:
        if truth.activity is None:
            raise DataError("speaking training needs generator activity labels")
        active = np.array([a == "speak" for a in truth.activity])
        w, l = assemble_training_windows(frames, active, config, stride=config.speaking_window_stride)
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
) -> tuple[TemporalCnn, dict]:
    X, y = speaking_training_set(sessions, config, seed=seed)
    net = train_cnn(
        X,
        y,
        CnnTrainConfig(
            epochs=config.cnn_epochs,
            learning_rate=config.cnn_learning_rate,
            batch_size=config.cnn_batch_size,
            seed=seed,
        ),
    )
    metadata = {
        "seed": seed,
        "data_hash": artifacts_io.data_hash(X, y),
        "hyperparameters": {
            "epochs": config.cnn_epochs,
            "learning_rate": config.cnn_learning_rate,
            "batch_size": config.cnn_batch_size,
            "window_samples": config.window_samples,
        },
        "n_windows": int(len(X)),
        "positive_fraction": float(np.mean(y)),
    }
    return net, metadata


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
    if not np.any(y) or np.all(y):
        raise DataError("yawn training set needs both classes")
    model = fit_boosted(
        X,
        y,
        BoostConfig(
            n_stages=config.yawn_stages,
            max_depth=config.yawn_depth,
            learning_rate=0.1,
            mode=MODE_CLASSIFICATION,
        ),
    )
    metadata = {
        "seed": seed,
        "data_hash": artifacts_io.data_hash(X, y),
        "hyperparameters": {
            "n_stages": config.yawn_stages,
            "max_depth": config.yawn_depth,
            "learning_rate": 0.1,
        },
        "n_frames": int(len(X)),
        "positive_fraction": float(np.mean(y)),
    }
    return model, metadata


# ---------------------------------------------------------------------------
# artifact-level entry point
# ---------------------------------------------------------------------------

# Set only inside train_all's worker process, by the pool initializer; the
# calling process never assigns it.
_worker_sessions: Optional[list[Session]] = None


def _init_worker(sessions: list[Session]) -> None:
    global _worker_sessions
    _worker_sessions = sessions


def _fit_in_worker(fit, encode, config: PipelineConfig, seed: int) -> str:
    return encode(*fit(_worker_sessions, config, seed=seed))


def _fit_side_by_side(
    sessions: list[Session], config: PipelineConfig, seed: int
) -> list[Callable[[Path], None]]:
    """The gaze, speaking and yawn fits, in that order, each as the function
    that writes its artifact to a path. One worker process fits the gaze
    regressors and then the yawn classifier, and returns each artifact's JSON
    text, while this process trains the speaking CNN, the longest fit. The
    first fit to fail in that order raises, as in series, once the worker has
    exited."""
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_init_worker,
        initargs=(sessions,),
    ) as pool:
        gaze = pool.submit(_fit_in_worker, train_gaze_regressors, artifacts_io.gaze_regressors_text,
                           config, seed)
        yawn = pool.submit(_fit_in_worker, train_yawn_classifier, artifacts_io.yawn_classifier_text,
                           config, seed)
        try:
            speaking = train_speaking_cnn(sessions, config, seed=seed)
        except Exception:
            gaze.result()   # a failed gaze fit comes first
            raise
        return [
            partial(artifacts_io.write_artifact, gaze.result()),
            partial(artifacts_io.save_speaking_cnn, *speaking),
            partial(artifacts_io.write_artifact, yawn.result()),
        ]


def train_all(
    suite_dir: PathLike,
    out_dir: PathLike,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
    only: Optional[str] = None,
) -> list[Path]:
    """Train requested models on the suite's train split and write artifacts.

    Every requested model is trained before any file is written, so a
    failing fit leaves the output directory as it was. With all three
    requested and more than one usable CPU they fit side by side
    (``_fit_side_by_side``); otherwise they fit in this process in turn.
    """
    from .pipeline import GAZE_ARTIFACT, SPEAKING_ARTIFACT, YAWN_ARTIFACT

    targets = {
        "gaze": (train_gaze_regressors, artifacts_io.save_gaze_regressors, GAZE_ARTIFACT),
        "speaking": (train_speaking_cnn, artifacts_io.save_speaking_cnn, SPEAKING_ARTIFACT),
        "yawn": (train_yawn_classifier, artifacts_io.save_yawn_classifier, YAWN_ARTIFACT),
    }
    if only is not None and only not in targets:
        raise DataError(f"unknown training target {only!r}")
    _check_fields({"seed": seed}, {"seed": _SEED}, ConfigError, "train")
    sessions = load_suite_sessions(suite_dir, split="train")
    requested = [spec for target, spec in targets.items() if only in (None, target)]
    if only is None and _usable_cpus() > 1:
        writers = _fit_side_by_side(sessions, config, seed)
    else:
        writers = [partial(save, *train(sessions, config, seed=seed)) for train, save, _ in requested]
    written = []
    for (_, _, name), write in zip(requested, writers):
        path = Path(out_dir) / name
        write(path)
        written.append(path)
    return written
