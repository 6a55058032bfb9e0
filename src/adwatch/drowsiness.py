"""Drowsiness detection: prolonged eye closure and yawning.

Eye closure is refined by excluding frames that coincide with smiling
(AU12) or cheek raising (AU6) so laughter and flinching do not read as
sleepiness; only closure runs strictly longer than two seconds count, which
keeps blinks out. Yawning is scored per frame by a boosted classifier over
the mouth aspect ratio and the 20 AU intensities, then majority-smoothed
over half a second. Either signal marks the frame drowsy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .boosting import BoostedEnsemble
from .config import PipelineConfig
from .errors import DataError, MissingArtifactError
from .records import (
    AU_INDEX,
    MOUTH_LEFT_CORNER,
    MOUTH_LOWER_INNER,
    MOUTH_RIGHT_CORNER,
    MOUTH_UPPER_INNER,
    FrameArrays,
)

_WIDTH_EPS = 1e-9


def mouth_aspect_series(mouth_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratios, valid) of mouth height over width for (n, 4, 2) mouth points;
    a degenerate width gives an invalid sample with ratio 0."""
    pts = np.asarray(mouth_points, dtype=np.float64)
    heights = np.linalg.norm(pts[:, MOUTH_UPPER_INNER] - pts[:, MOUTH_LOWER_INNER], axis=1)
    widths = np.linalg.norm(pts[:, MOUTH_LEFT_CORNER] - pts[:, MOUTH_RIGHT_CORNER], axis=1)
    valid = widths >= _WIDTH_EPS
    ratios = np.zeros(len(pts))
    ratios[valid] = heights[valid] / widths[valid]
    return ratios, valid


def refined_eye_closure(
    eye_closure: np.ndarray,
    aus: np.ndarray,
    config: PipelineConfig,
) -> np.ndarray:
    """Closure flag with the AU12/AU6 exclusion applied."""
    closure = np.asarray(eye_closure, dtype=np.float64) >= config.closure_gate
    au12 = aus[..., AU_INDEX["AU12"]] < config.au_gate
    au6 = aus[..., AU_INDEX["AU6"]] < config.au_gate
    return closure & au12 & au6


def yawn_features(frames: FrameArrays) -> np.ndarray:
    """21-dim feature rows: mouth aspect ratio followed by the 20 AUs."""
    ratios, _ = mouth_aspect_series(frames.mouth)
    return np.concatenate([ratios[:, None], frames.aus], axis=1)


def yawn_probability(features: np.ndarray, model: Optional[BoostedEnsemble]) -> np.ndarray:
    if model is None:
        raise MissingArtifactError("yawn classifier is not loaded")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise DataError(
            f"yawn features must be (n, {model.n_features}) rows, got shape {features.shape}"
        )
    return model.predict(features)


def smooth_flags(flags: np.ndarray, frame_rate_hz: float, span_s: float) -> np.ndarray:
    """Centered majority vote over ``span_s`` seconds."""
    flags = np.asarray(flags, dtype=bool)
    w = int(round(span_s * frame_rate_hz))
    if w <= 1:
        return flags.copy()
    if w % 2 == 0:
        w += 1
    counts = np.convolve(flags.astype(np.int64), np.ones(w, dtype=np.int64), mode="same")
    # edge windows are truncated; majority is over the actual window size
    sizes = np.convolve(np.ones(len(flags), dtype=np.int64), np.ones(w, dtype=np.int64), mode="same")
    return counts * 2 > sizes


def yawn_flags(
    frames: FrameArrays, model: Optional[BoostedEnsemble], config: PipelineConfig, frame_rate_hz: float
) -> np.ndarray:
    """Smoothed per-frame yawn flags; untracked frames never flag."""
    feats = yawn_features(frames)
    probs = yawn_probability(feats, model)
    raw = (probs >= config.yawn_threshold) & frames.face_expr
    return smooth_flags(raw, frame_rate_hz, config.yawn_smooth_s) & frames.face_expr

