"""Drowsiness detection: prolonged eye closure and yawning.

Eye closure is refined by excluding frames that coincide with smiling
(AU12) or cheek raising (AU6) so laughter and flinching do not read as
sleepiness; only closure runs strictly longer than two seconds count, which
keeps blinks out. Yawning is scored per frame by a boosted classifier over
the mouth aspect ratio and the 20 AU intensities, then majority-smoothed
over half a second. Either signal marks the frame drowsy.
"""

from __future__ import annotations

import numpy as np

from .boosting import BoostedEnsemble
from .config import PipelineConfig
from .records import AU_INDEX, MOUTH_LEFT_CORNER, MOUTH_RIGHT_CORNER, FrameArrays
from .speaking import lip_distance

_WIDTH_EPS = 1e-9


def mouth_aspect_series(mouth_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratios, valid) of mouth height over width for (n, 4, 2) mouth points;
    a degenerate width gives an invalid sample with ratio 0."""
    pts = np.asarray(mouth_points, dtype=np.float64)
    heights = lip_distance(pts)
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


def smooth_flags(flags: np.ndarray, w: int) -> np.ndarray:
    """Centered majority vote over ``w`` frames (the next odd number, if even),
    one flag per frame however short the sequence."""
    flags = np.asarray(flags, dtype=bool)
    n = len(flags)
    if w <= 1 or n == 0:
        return flags.copy()
    if w % 2 == 0:
        w += 1

    def window_sums(a: np.ndarray) -> np.ndarray:
        # the centred part of the full convolution; mode="same" would give
        # max(n, w) sums, more than the frames when n < w
        return np.convolve(a, np.ones(w, dtype=np.int64))[w // 2 : w // 2 + n]

    # edge windows are truncated; majority is over the actual window size
    return window_sums(flags.astype(np.int64)) * 2 > window_sums(np.ones(n, dtype=np.int64))


def yawn_flags(frames: FrameArrays, model: BoostedEnsemble, config: PipelineConfig, w: int) -> np.ndarray:
    """Per-frame yawn flags smoothed over ``w`` frames; untracked frames never flag."""
    raw = (model.predict(yawn_features(frames)) >= config.yawn_threshold) & frames.face_expr
    return smooth_flags(raw, w) & frames.face_expr

