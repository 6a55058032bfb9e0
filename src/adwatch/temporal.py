"""Run lengths, and the duration rule every per-signal detector shares.

A run is a maximal stretch of consecutive active frames, and its duration is
its number of frames: a duration rule keeps only the runs of more than its
minimum. ``frames_within`` is the one conversion from a minimum in seconds:
a run of n frames at rate r lasts n/r seconds.
"""

from __future__ import annotations

import math

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


def frames_within(seconds: float, rate_hz: float) -> int:
    """The most frames that last no longer than ``seconds`` at ``rate_hz``,
    so that a run of n frames lasts strictly longer exactly when it has more:
    n > frames_within(s, r) is the float comparison n / r > s."""
    n = math.floor(seconds * rate_hz)
    # the product may round to either side of the quotient's boundary
    while n > 0 and n / rate_hz > seconds:
        n -= 1
    while (n + 1) / rate_hz <= seconds:
        n += 1
    return n


def long_runs(flags: np.ndarray, min_frames: int) -> np.ndarray:
    """Per-frame mask of the runs of ``flags`` longer than ``min_frames``."""
    flags = np.asarray(flags, dtype=bool)
    mask = np.zeros(len(flags), dtype=bool)
    for start, end in find_runs(flags):
        if end - start + 1 > min_frames:
            mask[start : end + 1] = True
    return mask
