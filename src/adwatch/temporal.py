"""Run lengths, and the duration rule every per-signal detector shares.

A run is a maximal stretch of consecutive active frames. Its duration counts
whole frame periods, so a run of n frames at rate r lasts n/r seconds, and a
duration rule keeps only the runs strictly longer than its minimum.
"""

from __future__ import annotations

import numpy as np


def find_runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Return (start, end_inclusive) index pairs of maximal True runs."""
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return []
    padded = np.concatenate(([False], flags, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def long_runs(flags: np.ndarray, frame_rate_hz: float, min_duration_s: float) -> np.ndarray:
    """Per-frame mask of the runs of ``flags`` lasting strictly longer than
    ``min_duration_s`` at ``frame_rate_hz``."""
    if frame_rate_hz <= 0:
        raise ValueError(f"frame_rate_hz must be positive, got {frame_rate_hz}")
    flags = np.asarray(flags, dtype=bool)
    mask = np.zeros(len(flags), dtype=bool)
    for start, end in find_runs(flags):
        if (end - start + 1) / frame_rate_hz > min_duration_s:
            mask[start : end + 1] = True
    return mask
