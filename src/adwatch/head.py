"""Head-pose fallback for off-screen gaze detection.

Used when the eye tracker's quality drops (typically during large head
turns, the "owl" pattern). Yaw and pitch are normalized by their session
means so the absolute sitting posture does not matter, then compared with
fixed thresholds. Roll plays no part in the decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ScoreConfig
from .records import FrameArrays


@dataclass(frozen=True)
class HeadPoseStats:
    mean_yaw_deg: float
    mean_pitch_deg: float


def compute_head_stats(frames: FrameArrays) -> Optional[HeadPoseStats]:
    """Mean yaw and pitch over the tracked frames; None when no face is tracked."""
    valid = frames.face_expr
    if not np.any(valid):
        return None
    return HeadPoseStats(
        mean_yaw_deg=float(np.mean(frames.yaw[valid])),
        mean_pitch_deg=float(np.mean(frames.pitch[valid])),
    )


def head_off_screen(
    yaw_deg: np.ndarray,
    pitch_deg: np.ndarray,
    stats: HeadPoseStats,
    config: ScoreConfig,
) -> np.ndarray:
    """True where the mean-normalized pose exceeds either threshold."""
    yaw_dev = np.abs(np.asarray(yaw_deg, dtype=np.float64) - stats.mean_yaw_deg)
    pitch_dev = np.abs(np.asarray(pitch_deg, dtype=np.float64) - stats.mean_pitch_deg)
    return (yaw_dev > config.head_yaw_threshold_deg) | (
        pitch_dev > config.head_pitch_threshold_deg
    )


def select_gaze_source(
    quality: np.ndarray, face_gaze: np.ndarray, quality_gate: float
) -> np.ndarray:
    """Per-frame switch: True selects the eye-gaze path, False the head path."""
    return np.asarray(face_gaze, dtype=bool) & (
        np.asarray(quality, dtype=np.float64) >= quality_gate
    )

