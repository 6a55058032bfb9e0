"""Unattended-screen detection and fusion of the five distraction signals.

Signal order (and bit position in the per-frame mask):

    0  gaze_eye    off-screen gaze from the eye-gaze model
    1  gaze_head   off-screen gaze from the head-pose fallback
    2  speaking    speaking run longer than the engagement window
    3  drowsiness  prolonged eye closure or yawning
    4  unattended  neither tracker sees a face for over a second

A frame is attentive exactly when no signal is active. The eye and head gaze
signals are made mutually exclusive upstream by the per-frame source switch;
the fuser itself accepts any combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import PipelineConfig
from .errors import DataError
from .temporal import distracting_mask, events_from_flags

SIGNAL_NAMES = ("gaze_eye", "gaze_head", "speaking", "drowsiness", "unattended")


@dataclass
class DistractionTimeline:
    """Per-frame five-signal activations plus the fused attention label."""

    signals: np.ndarray            # (n, 5) bool, column order = SIGNAL_NAMES
    attentive: np.ndarray          # (n,) bool
    mask: np.ndarray               # (n,) uint8, bit i = SIGNAL_NAMES[i]
    frame_index: np.ndarray        # (n,) int
    # generator-only annotations, absent on scored timelines
    activity: Optional[list[str]] = field(default=None, repr=False)
    target_cm: Optional[list[Optional[tuple[float, float]]]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.attentive)

    def active_names(self, i: int) -> list[str]:
        return [name for b, name in enumerate(SIGNAL_NAMES) if self.signals[i, b]]

    def signal(self, name: str) -> np.ndarray:
        return self.signals[:, SIGNAL_NAMES.index(name)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistractionTimeline):
            return NotImplemented
        return (
            np.array_equal(self.signals, other.signals)
            and np.array_equal(self.attentive, other.attentive)
            and np.array_equal(self.mask, other.mask)
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
    both = no_face_expr & no_face_gaze
    return distracting_mask(events_from_flags(both, frame_rate_hz, min_duration_s), len(both))


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
    signals = np.stack(cols, axis=1)
    mask = np.zeros(n, dtype=np.uint8)
    for b in range(len(SIGNAL_NAMES)):
        mask |= (signals[:, b].astype(np.uint8) << b)
    attentive = mask == 0
    if frame_index is None:
        frame_index = np.arange(n, dtype=np.int64)
    return DistractionTimeline(
        signals=signals, attentive=attentive, mask=mask,
        frame_index=np.asarray(frame_index, dtype=np.int64),
    )


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
                name: [
                    {
                        "start_frame": ev.start_frame,
                        "end_frame": ev.end_frame,
                        "start_s": ev.start_s,
                        "end_s": ev.end_s,
                        "duration_s": ev.duration_s,
                    }
                    for ev in evs
                ]
                for name, evs in self.events_by_source.items()
            },
        }


def session_summary(timeline: DistractionTimeline, frame_rate_hz: float) -> SessionSummary:
    """Percentage inattentive plus per-source event spans."""
    n = len(timeline)
    if n == 0:
        raise DataError("cannot summarize an empty timeline")
    percent = 100.0 * float(np.count_nonzero(~timeline.attentive)) / n
    by_source: dict[str, list[SourceEvent]] = {}
    for b, name in enumerate(SIGNAL_NAMES):
        evs = []
        for ev in events_from_flags(timeline.signals[:, b], frame_rate_hz, 0.0):
            evs.append(
                SourceEvent(
                    start_frame=ev.start_frame,
                    end_frame=ev.end_frame,
                    start_s=ev.start_frame / frame_rate_hz,
                    end_s=(ev.end_frame + 1) / frame_rate_hz,
                    duration_s=ev.duration_s,
                )
            )
        by_source[name] = evs
    return SessionSummary(
        n_frames=n, percent_inattentive=percent, events_by_source=by_source
    )
