"""Visual speech detection from lip-distance time series.

Per frame, the vertical distance between the inner upper and lower lip
landmarks is computed; a one-second window around each frame is resampled
to a fixed 30 samples and classified by the temporal CNN. Only runs of
speaking frames strictly longer than one second count as distraction
(``temporal.long_runs``; shorter bursts are engaging reactions to the ad,
not inattention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnn import TemporalCnn
from .config import PipelineConfig
from .errors import DataError
from .records import MOUTH_LOWER_INNER, MOUTH_UPPER_INNER, FrameArrays
from .temporal import long_runs


def lip_distance(mouth_points: np.ndarray) -> np.ndarray:
    """Euclidean distance between inner upper and lower lip points of
    (n, 4, 2) mouth points."""
    pts = np.asarray(mouth_points, dtype=np.float64)
    return np.linalg.norm(pts[:, MOUTH_UPPER_INNER] - pts[:, MOUTH_LOWER_INNER], axis=1)


@dataclass
class WindowedSeries:
    """Per-frame resampled windows plus a scored mask."""

    windows: np.ndarray   # (n, window_samples)
    scored: np.ndarray    # (n,) bool


def build_windows(frames: FrameArrays, config: PipelineConfig) -> WindowedSeries:
    """Resample the lip series into one window per frame.

    A frame's window spans the second centered on it, linearly interpolated
    over timestamps onto ``window_samples`` points. Gaps where the face was
    lost are bridged by holding the last valid value for up to
    ``max_hold_samples`` consecutive source frames; windows touching longer
    gaps, or whose surrounding second holds fewer than ``min_valid_samples``
    valid frames, are left unscored.
    """
    n = len(frames)
    times = frames.timestamp_ms / 1000.0
    valid = frames.face_expr.copy()
    dist = lip_distance(frames.mouth)

    windows = np.zeros((n, config.window_samples), dtype=np.float64)
    scored = np.zeros(n, dtype=bool)
    if not np.any(valid):
        return WindowedSeries(windows=windows, scored=scored)

    # frames inside invalid runs longer than the hold budget poison windows
    unfillable = long_runs(~valid, config.max_hold_samples)

    vt = times[valid]
    vd = dist[valid]
    half = config.window_span_s / 2.0
    grid = (
        times[:, None]
        + np.linspace(-half, half, config.window_samples)[None, :]
    )
    windows = np.interp(grid.ravel(), vt, vd).reshape(n, config.window_samples)

    # count valid source frames inside each window span
    cum = np.concatenate(([0], np.cumsum(valid.astype(np.int64))))
    lo = np.searchsorted(times, times - half, side="left")
    hi = np.searchsorted(times, times + half, side="right")
    valid_counts = cum[hi] - cum[lo]

    # a window is poisoned if any unfillable frame falls inside its span
    cum_bad = np.concatenate(([0], np.cumsum(unfillable.astype(np.int64))))
    bad_counts = cum_bad[hi] - cum_bad[lo]

    scored = (valid_counts >= config.min_valid_samples) & (bad_counts == 0)
    return WindowedSeries(windows=windows, scored=scored)


def speaking_flags(frames: FrameArrays, net: TemporalCnn, config: PipelineConfig) -> np.ndarray:
    """Per-frame speaking flags; unscored frames inherit the nearest scored
    frame's flag (earlier frame on ties), all-false when nothing scored."""
    series = build_windows(frames, config)
    n = len(frames)
    flags = np.zeros(n, dtype=bool)
    scored_idx = np.flatnonzero(series.scored)
    if scored_idx.size == 0:
        return flags
    probs = net.predict_proba(series.windows[scored_idx])
    flags[scored_idx] = probs >= config.speaking_threshold
    unscored = np.flatnonzero(~series.scored)
    if unscored.size:
        pos = np.searchsorted(scored_idx, unscored)
        left = np.clip(pos - 1, 0, scored_idx.size - 1)
        right = np.clip(pos, 0, scored_idx.size - 1)
        dl = np.abs(unscored - scored_idx[left])
        dr = np.abs(scored_idx[right] - unscored)
        nearest = np.where(dl <= dr, scored_idx[left], scored_idx[right])
        flags[unscored] = flags[nearest]
    return flags


def assemble_training_windows(
    frames: FrameArrays,
    speak_active: np.ndarray,
    config: PipelineConfig,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract (windows, labels) pairs for CNN training from one session.

    ``speak_active`` is the per-frame ground-truth speech activity. Only
    scored windows are kept; the label is the center frame's activity.
    """
    if len(speak_active) != len(frames):
        raise DataError("speak_active length does not match session")
    series = build_windows(frames, config)
    idx = np.flatnonzero(series.scored)[::stride]
    return series.windows[idx], np.asarray(speak_active, dtype=np.float64)[idx]
