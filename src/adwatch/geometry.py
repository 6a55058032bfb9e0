"""Gaze ray intersection with the screen plane.

The screen plane is fixed at Z = 0 with the camera at the origin; a gaze ray
starts at the pupil position p and runs along the direction D, so the plane
is met where z_p + z_d * t = 0, i.e. t = -z_p / z_d, and the on-plane point
is (x_p + x_d * t, y_p + y_d * t). Rays nearly parallel to the plane are
reported as such instead of producing an exploding t.
"""

from __future__ import annotations

import numpy as np

# |z_d| / ||D|| below this counts as parallel to the plane.
PARALLEL_EPS = 1e-6


def intersect_gaze_batch(pupils: np.ndarray, directions: np.ndarray):
    """Intersect (n, 3) pupil positions and gaze directions with the plane.

    Returns (points (n, 2), t (n,), toward (n,), parallel (n,)). Points and t
    are NaN where the ray is parallel. Zero directions are rejected; the
    others need not be unit length, and the points and flags are invariant
    under positive scaling of them.
    """
    pupils = np.asarray(pupils, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    # each row over its largest component, so that no square overflows or
    # underflows in the norm
    largest = np.abs(directions).max(axis=1)
    if np.any(largest == 0.0):
        raise ValueError("gaze direction is the zero vector")
    scaled = directions / largest[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        parallel = np.abs(scaled[:, 2]) / np.linalg.norm(scaled, axis=1) < PARALLEL_EPS
        t = np.where(parallel, np.nan, -pupils[:, 2] / directions[:, 2])
        points = pupils[:, :2] + directions[:, :2] * t[:, None]
    toward = ~parallel & (t > 0)
    return points, t, toward, parallel
