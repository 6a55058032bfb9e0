"""Unattended-screen detection and fusion of the five distraction signals.

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

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .config import PipelineConfig
from .errors import DataError
from .temporal import find_runs, long_runs

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
    target_cm: Optional[list[Optional[tuple[float, float]]]] = field(default=None, repr=False)

    @property
    def attentive(self) -> np.ndarray:
        """(n,) bool: no signal is active."""
        return self.mask == 0

    @property
    def signals(self) -> np.ndarray:
        """(n, 5) bool activations, column order = SIGNAL_NAMES."""
        bits = np.unpackbits(self.mask[:, None], axis=1, count=len(SIGNAL_NAMES), bitorder="little")
        return bits.astype(bool)

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


def unattended_signal(
    no_face_expr: np.ndarray,
    no_face_gaze: np.ndarray,
    frame_rate_hz: float,
    min_duration_s: float = PipelineConfig().unattended_min_s,
) -> np.ndarray:
    """Frames inside runs where BOTH trackers lost the face for > 1 s."""
    no_face_expr = np.asarray(no_face_expr, dtype=bool)
    no_face_gaze = np.asarray(no_face_gaze, dtype=bool)
    if no_face_expr.shape != no_face_gaze.shape:
        raise DataError("tracker no-face flags have mismatched lengths")
    return long_runs(no_face_expr & no_face_gaze, frame_rate_hz, min_duration_s)


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


@dataclass(frozen=True)
class SourceEvent:
    """Contiguous activation span of one signal, with timestamps."""

    start_frame: int
    end_frame: int
    start_s: float
    end_s: float
    duration_s: float


@dataclass
class SessionSummary:
    n_frames: int
    percent_inattentive: float
    events_by_source: dict[str, list[SourceEvent]]

    def to_dict(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "percent_inattentive": self.percent_inattentive,
            "events": {
                name: [asdict(ev) for ev in evs] for name, evs in self.events_by_source.items()
            },
        }


def session_summary(timeline: DistractionTimeline, frame_rate_hz: float) -> SessionSummary:
    """Percentage inattentive plus per-source event spans."""
    n = len(timeline)
    if n == 0:
        raise DataError("cannot summarize an empty timeline")
    percent = 100.0 * float(np.count_nonzero(~timeline.attentive)) / n
    by_source = {
        name: [
            SourceEvent(
                start_frame=start,
                end_frame=end,
                start_s=start / frame_rate_hz,
                end_s=(end + 1) / frame_rate_hz,
                duration_s=(end - start + 1) / frame_rate_hz,
            )
            for start, end in find_runs(timeline.signal(name))
        ]
        for name in SIGNAL_NAMES
    }
    return SessionSummary(
        n_frames=n, percent_inattentive=percent, events_by_source=by_source
    )
