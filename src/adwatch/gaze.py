"""Off-screen gaze detection from the eye-gaze stream.

The full chain per session: intersect every valid gaze ray with the screen
plane once, normalize the intersections by subtracting the session mean (this
anchors the average gaze at the screen center and absorbs unknown camera
placement), correct residual systematic error with trained per-axis boosted
regressors, pick a screen rectangle (estimated from viewing distance on
desktops, nominal with orientation-dependent swap on mobiles), and compare
each corrected point against the rectangle plus a margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .boosting import BoostedEnsemble
from .config import ScoreConfig
from .errors import DataError
from .geometry import intersect_gaze_batch
from .records import FrameArrays


class Orientation(Enum):
    CENTERED = "centered"
    CLOCKWISE = "clockwise"
    ANTICLOCKWISE = "anticlockwise"


@dataclass(frozen=True)
class ScreenGeometry:
    width_cm: float
    height_cm: float
    margin_cm: float = 1.0

    def __post_init__(self) -> None:
        if self.width_cm <= 0 or self.height_cm <= 0:
            raise DataError("screen dimensions must be positive")


@dataclass(frozen=True)
class SessionGazeStats:
    """Per-session means over valid frames (gaze tracked, quality above floor)."""

    mean_x_s: float
    mean_y_s: float
    mean_eye_distance_cm: float
    mean_yaw_deg: float
    mean_face_center_x: float


@dataclass(frozen=True)
class GazeRegressors:
    """Each device's x and y fine-tuning regressors, and the quality floor
    of the rays they were trained on: the rays they correct, the model's
    input contract, which the gaze artifact records."""

    by_device: dict[str, dict[str, BoostedEnsemble]]
    min_quality: float


def valid_gaze_rays(frames: FrameArrays, quality_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """(valid, points): the frames whose gaze is tracked at or above the
    quality floor, and where each frame's ray meets the screen plane, one
    (n, 2) row per frame. A point is NaN on every frame that is not valid and
    wherever the ray is parallel to the plane or points away from it. Only
    the valid rows are intersected, once per session."""
    valid = frames.face_gaze & (frames.quality >= quality_floor)
    hits, _, toward, _ = intersect_gaze_batch(frames.pupil[valid], frames.direction[valid])
    points = np.full((len(frames), 2), np.nan)
    points[valid] = np.where(toward[:, None], hits, np.nan)
    return valid, points


def compute_session_stats(
    frames: FrameArrays, rays: tuple[np.ndarray, np.ndarray]
) -> Optional[SessionGazeStats]:
    """First pass over a session: means of the raw screen-plane intersections
    (``rays`` from ``valid_gaze_rays``; its finite points), eye distance,
    head yaw, and face location. None when the gaze stream is untrackable:
    no valid ray meets the screen plane in front of the viewer.

    Eye-to-camera distance is the perpendicular distance to the camera plane
    (pupil z); unlike the full Euclidean norm this is invariant to where the
    camera sits within the plane, which keeps the screen-size estimate stable
    for displaced webcams.
    """
    valid, points = rays
    usable = np.all(np.isfinite(points), axis=1)
    if not np.any(usable):
        return None
    return SessionGazeStats(
        mean_x_s=float(np.mean(points[usable, 0])),
        mean_y_s=float(np.mean(points[usable, 1])),
        mean_eye_distance_cm=float(np.mean(frames.pupil[valid, 2])),
        mean_yaw_deg=float(np.mean(frames.yaw[valid])),
        mean_face_center_x=float(np.mean(frames.face_center_x[valid])),
    )


def normalize_gaze(points: np.ndarray, stats: SessionGazeStats) -> np.ndarray:
    """The (n, 2) points less the session mean."""
    return points - np.array([stats.mean_x_s, stats.mean_y_s])


def fine_tune(points: np.ndarray, models: dict[str, BoostedEnsemble]) -> np.ndarray:
    """Apply the trained per-axis correction to (n, 2) normalized points.

    The regressors predict the residual between the true on-screen location
    and the measured one; the corrected point is input plus predicted
    residual. (Trees cannot extrapolate beyond the on-screen training range,
    so predicting the residual rather than the absolute coordinate keeps
    far off-screen points far off-screen.)
    """
    points = np.asarray(points, dtype=np.float64)
    dx = models["x"].predict(points)
    dy = models["y"].predict(points)
    return points + np.stack([dx, dy], axis=1)


def detect_orientation(stats: SessionGazeStats, config: ScoreConfig) -> Orientation:
    """Majority vote of three session-level features; ties fall back to centered.

    A clockwise-rotated camera sits to the participant's right, so apparent
    gaze, face location, and head yaw all shift negative; anticlockwise is
    the mirror image.
    """
    votes = [
        _vote_signed(-stats.mean_x_s, config.orientation_gaze_cm),
        _vote_band(stats.mean_face_center_x, config.orientation_face_band),
        _vote_signed(-stats.mean_yaw_deg, config.orientation_yaw_deg),
    ]
    return majority_orientation(votes)


def _vote_signed(value: float, threshold: float) -> Orientation:
    if value > threshold:
        return Orientation.CLOCKWISE
    if value < -threshold:
        return Orientation.ANTICLOCKWISE
    return Orientation.CENTERED


def _vote_band(value: float, band: tuple[float, float]) -> Orientation:
    lo, hi = band
    if value < lo:
        return Orientation.CLOCKWISE
    if value > hi:
        return Orientation.ANTICLOCKWISE
    return Orientation.CENTERED


def majority_orientation(votes: list[Orientation]) -> Orientation:
    counts: dict[Orientation, int] = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    winners = [o for o, c in counts.items() if c == best]
    if len(winners) == 1:
        return winners[0]
    return Orientation.CENTERED


def estimate_screen(
    stats: SessionGazeStats,
    device_type: str,
    config: ScoreConfig,
    orientation: Orientation = Orientation.CENTERED,
    override_cm: Optional[tuple[float, float]] = None,
    use_size_detection: bool = True,
) -> ScreenGeometry:
    """Pick the physical screen rectangle for the boundary check.

    Desktop sizes follow the preferred-viewing-distance rule (distance is
    about ``pvd_coefficient`` times the picture height); mobiles use the
    nominal handset size with the long edge vertical when the camera is
    centered and horizontal when rotated. An explicit override wins.
    """
    if override_cm is not None:
        w, h = override_cm
        return ScreenGeometry(w, h, config.margin_cm)
    if device_type == "mobile":
        long_edge, short_edge = config.mobile_screen_cm
        if orientation is Orientation.CENTERED:
            return ScreenGeometry(short_edge, long_edge, config.margin_cm)
        return ScreenGeometry(long_edge, short_edge, config.margin_cm)
    if not use_size_detection:
        w, h = config.default_desktop_screen_cm
        return ScreenGeometry(w, h, config.margin_cm)
    if stats.mean_eye_distance_cm <= 0:
        raise DataError(
            f"nonpositive mean eye distance: {stats.mean_eye_distance_cm}"
        )
    height = stats.mean_eye_distance_cm / config.pvd_coefficient
    width = config.desktop_aspect * height
    return ScreenGeometry(width, height, config.margin_cm)


def gaze_on_screen(points: np.ndarray, geom: ScreenGeometry) -> np.ndarray:
    """True where the corrected (n, 2) point lies inside the rectangle plus
    margin; a NaN point, a ray that does not meet the plane in front of the
    viewer, is off-screen."""
    points = np.asarray(points, dtype=np.float64)
    half_w = geom.width_cm / 2 + geom.margin_cm
    half_h = geom.height_cm / 2 + geom.margin_cm
    with np.errstate(invalid="ignore"):
        return (np.abs(points[:, 0]) <= half_w) & (np.abs(points[:, 1]) <= half_h)
