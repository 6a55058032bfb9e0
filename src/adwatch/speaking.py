"""Visual speech detection from lip-distance time series.

Per frame, the vertical distance between the inner upper and lower lip
landmarks is computed; a one-second window around each frame is resampled
to a fixed 30 samples and classified by the temporal CNN. How the windows
are built is the model's own (``LipWindows``), fixed when it is trained. Only runs of
speaking frames strictly longer than one second count as distraction
(``temporal.long_runs``; shorter bursts are engaging reactions to the ad,
not inattention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnn import TemporalCnn
from .config import ScoreConfig
from .errors import DataError
from .records import MOUTH_LOWER_INNER, MOUTH_UPPER_INNER, FrameArrays
from .temporal import long_runs


def lip_distance(mouth_points: np.ndarray) -> np.ndarray:
    """Euclidean distance between inner upper and lower lip points of
    (n, 4, 2) mouth points."""
    pts = np.asarray(mouth_points, dtype=np.float64)
    return np.linalg.norm(pts[:, MOUTH_UPPER_INNER] - pts[:, MOUTH_LOWER_INNER], axis=1)


@dataclass(frozen=True)
class LipWindows:
    """How each frame's window of lip distances is built: the speaking
    CNN's input contract. Training builds its windows by it and the
    speaking artifact records it, so scoring builds the same ones.

    A frame's window spans the ``span_s`` seconds centred on it, linearly
    interpolated over timestamps onto ``samples`` points. Gaps where the face
    was lost are bridged by holding the last valid value for up to
    ``max_hold`` consecutive source frames; windows touching longer gaps, or
    whose span holds fewer than ``min_valid`` valid frames, are left
    unscored.
    """

    samples: int
    span_s: float
    min_valid: int
    max_hold: int


@dataclass(frozen=True)
class SpeakingCnn:
    """The speaking network and the windows it reads, of its
    ``window_len`` samples."""

    net: TemporalCnn
    windows: LipWindows

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """The speech probability of each of the (n, samples) ``windows``."""
        return self.net.predict_proba(windows)


@dataclass
class WindowedSeries:
    """Per-frame resampled windows plus a scored mask."""

    windows: np.ndarray   # (n, samples)
    scored: np.ndarray    # (n,) bool


def build_windows(frames: FrameArrays, lip: LipWindows) -> WindowedSeries:
    """Resample the lip series into one window per frame, as ``lip`` says."""
    n = len(frames)
    times = frames.timestamp_ms / 1000.0
    valid = frames.face_expr.copy()
    dist = lip_distance(frames.mouth)

    windows = np.zeros((n, lip.samples), dtype=np.float64)
    scored = np.zeros(n, dtype=bool)
    if not np.any(valid):
        return WindowedSeries(windows=windows, scored=scored)

    # frames inside invalid runs longer than the hold budget poison windows
    unfillable = long_runs(~valid, lip.max_hold)

    vt = times[valid]
    vd = dist[valid]
    half = lip.span_s / 2.0
    grid = (
        times[:, None]
        + np.linspace(-half, half, lip.samples)[None, :]
    )
    windows = np.interp(grid.ravel(), vt, vd).reshape(n, lip.samples)

    # count valid source frames inside each window span
    cum = np.concatenate(([0], np.cumsum(valid.astype(np.int64))))
    lo = np.searchsorted(times, times - half, side="left")
    hi = np.searchsorted(times, times + half, side="right")
    valid_counts = cum[hi] - cum[lo]

    # a window is poisoned if any unfillable frame falls inside its span
    cum_bad = np.concatenate(([0], np.cumsum(unfillable.astype(np.int64))))
    bad_counts = cum_bad[hi] - cum_bad[lo]

    scored = (valid_counts >= lip.min_valid) & (bad_counts == 0)
    return WindowedSeries(windows=windows, scored=scored)


def speaking_flags(frames: FrameArrays, model: SpeakingCnn, config: ScoreConfig) -> np.ndarray:
    """Per-frame speaking flags of the windows ``model`` reads; unscored
    frames inherit the nearest scored frame's flag (earlier frame on ties),
    all-false when nothing scored."""
    series = build_windows(frames, model.windows)
    n = len(frames)
    flags = np.zeros(n, dtype=bool)
    scored_idx = np.flatnonzero(series.scored)
    if scored_idx.size == 0:
        return flags
    probs = model.predict_proba(series.windows[scored_idx])
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
    lip: LipWindows,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract (windows, labels) pairs for CNN training from one session.

    ``speak_active`` is the per-frame ground-truth speech activity. Only
    scored windows are kept; the label is the center frame's activity.
    """
    if len(speak_active) != len(frames):
        raise DataError("speak_active length does not match session")
    series = build_windows(frames, lip)
    idx = np.flatnonzero(series.scored)[::stride]
    return series.windows[idx], np.asarray(speak_active, dtype=np.float64)[idx]
