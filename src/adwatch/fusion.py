"""Fusion of the five distraction signals, and session summaries.

Signal order (and bit position in the per-frame mask):

    0  gaze_eye    off-screen gaze from the eye-gaze model
    1  gaze_head   off-screen gaze from the head-pose fallback
    2  speaking    speaking run longer than the engagement window
    3  drowsiness  prolonged eye closure or yawning
    4  unattended  neither tracker sees a face for over a second

A timeline stores only that mask: a frame is attentive exactly when its
mask is 0, and each signal's activations are one bit of it. The eye and head
gaze signals are made mutually exclusive upstream by the per-frame source
switch; the fuser itself accepts any combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError
from .temporal import find_runs

SIGNAL_NAMES = ("gaze_eye", "gaze_head", "speaking", "drowsiness", "unattended")


def signal_bits(names) -> int:
    """The mask bits of the named signals; an unknown name is an error."""
    bits = 0
    for name in names:
        if name not in SIGNAL_NAMES:
            raise DataError(f"unknown signal {name!r}; expected one of {SIGNAL_NAMES}")
        bits |= 1 << SIGNAL_NAMES.index(name)
    return bits


@dataclass
class DistractionTimeline:
    """Per-frame signal mask, from which the five activations and the fused
    attention label are read."""

    mask: np.ndarray               # (n,) uint8, bit i = SIGNAL_NAMES[i]
    frame_index: np.ndarray        # (n,) int
    # generator-only annotations, absent on scored timelines
    activity: Optional[list[str]] = field(default=None, repr=False)
    # (n, 2) float64, a NaN row where the participant is away
    target_cm: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def attentive(self) -> np.ndarray:
        """(n,) bool: no signal is active."""
        return self.mask == 0

    def __len__(self) -> int:
        return len(self.mask)

    def active_names(self, i: int) -> list[str]:
        return [name for b, name in enumerate(SIGNAL_NAMES) if self.mask[i] >> b & 1]

    def signal(self, name: str) -> np.ndarray:
        return (self.mask >> SIGNAL_NAMES.index(name) & 1).astype(bool)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistractionTimeline):
            return NotImplemented
        return (
            np.array_equal(self.mask, other.mask)
            and np.array_equal(self.frame_index, other.frame_index)
        )


def fuse(
    gaze_eye: np.ndarray,
    gaze_head: np.ndarray,
    speaking: np.ndarray,
    drowsiness: np.ndarray,
    unattended: np.ndarray,
    frame_index: Optional[np.ndarray] = None,
) -> DistractionTimeline:
    """OR the five aligned signals into a timeline with per-frame attribution."""
    cols = [np.asarray(s, dtype=bool) for s in (gaze_eye, gaze_head, speaking, drowsiness, unattended)]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise DataError("signal length mismatch in fuse()")
    mask = np.zeros(n, dtype=np.uint8)
    for b, col in enumerate(cols):
        mask |= col.astype(np.uint8) << b
    if frame_index is None:
        frame_index = np.arange(n, dtype=np.int64)
    return DistractionTimeline(mask=mask, frame_index=np.asarray(frame_index, dtype=np.int64))


def session_summary(timeline: DistractionTimeline, frame_rate_hz: float) -> dict:
    """The ``summary.json`` object: the frame count, the percentage
    inattentive and, under ``events``, each signal's event spans. An event's
    frames are the ``frame_index`` of its first and last rows, and its times
    are those frame numbers over ``frame_rate_hz``, so a session that does
    not start at frame 0 reports the frames and times of its own stream."""
    n = len(timeline)
    if n == 0:
        raise DataError("cannot summarize an empty timeline")
    percent = 100.0 * float(np.count_nonzero(~timeline.attentive)) / n
    index = np.asarray(timeline.frame_index).tolist()
    events = {name: [] for name in SIGNAL_NAMES}
    for name, spans in events.items():
        for start, end in find_runs(timeline.signal(name)):
            first, last = index[start], index[end]
            spans.append({
                "start_frame": first,
                "end_frame": last,
                "start_s": first / frame_rate_hz,
                "end_s": (last + 1) / frame_rate_hz,
                "duration_s": (last - first + 1) / frame_rate_hz,
            })
    return {"n_frames": n, "percent_inattentive": percent, "events": events}
