"""Frame and session data model.

A session is a sequence of per-frame tracker outputs, held column by column
in ``FrameArrays`` and checked by ``frame_checks``. Two upstream trackers
contribute to each frame: an expression tracker (head pose, mouth landmarks,
action units, eye closure, face box) and a gaze tracker (3-D pupil position,
3-D gaze direction, tracking quality). Frames where a tracker lost the face
keep their slot in the sequence with sentinel values and the corresponding
``face_detected_*`` flag cleared; downstream consumers must check the flags
instead of dropping rows, so that timeline indices stay aligned.

Units: pupil position in cm (camera at origin, X right, Y up, Z pointing
from the screen toward the participant, so on-screen gaze has a negative Z
direction component); angles in degrees; mouth landmarks in interocular
units; AU intensities and eye closure on a 0-100 scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import _STRING, _check_fields, _choice, _optional, _or_null, _pair, _real
from .errors import SessionFormatError

# Fixed AU inventory; au_intensities is indexed by this list.
AU_NAMES = (
    "AU1", "AU2", "AU4", "AU5", "AU6", "AU7", "AU9", "AU10", "AU11", "AU12",
    "AU14", "AU15", "AU17", "AU20", "AU23", "AU24", "AU25", "AU26", "AU28",
    "AU43",
)
AU_INDEX = {name: i for i, name in enumerate(AU_NAMES)}

# mouth_points ordering
MOUTH_UPPER_INNER = 0
MOUTH_LOWER_INNER = 1
MOUTH_LEFT_CORNER = 2
MOUTH_RIGHT_CORNER = 3

DEVICE_TYPES = ("desktop", "mobile")


@dataclass(frozen=True)
class SessionManifest:
    """Session-level metadata pointing at the frame stream on disk."""

    session_id: str
    device_type: str
    frame_rate_hz: float
    frame_source: str
    ground_truth: Optional[str] = None
    screen_override_cm: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        _check_fields(vars(self), _MANIFEST_RULES, SessionFormatError, "manifest")


_MANIFEST_RULES = {
    "session_id": _STRING,
    "device_type": _choice(DEVICE_TYPES),
    "frame_rate_hz": _real(5, 120),         # a scenario script's rate too
    "frame_source": _STRING,
    "ground_truth": _optional(_or_null(_STRING)),
    "screen_override_cm": _optional(_or_null(_pair(_real(0, above=True)))),
}


@dataclass(eq=False)
class FrameArrays:
    """Columnar view of a frame sequence for vectorized processing.

    Arrays share index i with frame i; sentinel values on invalid frames are
    preserved, so every consumer must mask with the face flags. Equality is
    identity, as comparing arrays element-wise has no single truth value.
    """

    frame_index: np.ndarray
    timestamp_ms: np.ndarray
    pupil: np.ndarray             # (n, 3)
    direction: np.ndarray         # (n, 3)
    quality: np.ndarray
    yaw: np.ndarray
    pitch: np.ndarray
    roll: np.ndarray
    mouth: np.ndarray             # (n, 4, 2)
    aus: np.ndarray               # (n, 20)
    eye_closure: np.ndarray
    face_expr: np.ndarray
    face_gaze: np.ndarray
    face_center_x: np.ndarray

    def __len__(self) -> int:
        return len(self.frame_index)


def frame_checks(
    frames: FrameArrays, previous: Optional[tuple[int, float]] = None, period_ms: Optional[float] = None
) -> tuple:
    """The FORMATS.md invariants of a frame sequence, as ``first_failure``
    checks in row-by-row order.

    ``previous`` is the (frame_index, timestamp_ms) of the frame before the
    first one, when the sequence continues another. A sequence may start at
    any frame index; each later frame's index is the previous one's + 1.
    Given the manifest's ``period_ms``, each timestamp step must be more than
    half a period and less than one and a half. Shapes are not checked here;
    the loader enforces them per column.
    """
    fi, ts = frames.frame_index, frames.timestamp_ms
    q, eye, fcx, aus = frames.quality, frames.eye_closure, frames.face_center_x, frames.aus
    z = frames.pupil[:, 2]
    angles = np.stack([frames.yaw, frames.pitch, frames.roll], axis=1)
    before_fi, before_ts = (fi[:1] - 1, -np.inf) if previous is None else ([previous[0]], previous[1])
    prev_fi = np.concatenate((before_fi, fi[:-1]))
    prev_ts = np.concatenate(([before_ts], ts[:-1]))
    # A gaze ray's length, by FORMATS.md's rule: one whose squares all
    # underflow is zero, and one that overflows is not.
    with np.errstate(over="ignore"):
        zero_direction = np.linalg.norm(frames.direction, axis=1) == 0.0
    # Written as ~(in range) so that NaN counts as out of range.
    bad_aus = ~((aus >= 0.0) & (aus <= 100.0))

    def first_bad_au(i: int) -> str:
        j = int(np.flatnonzero(bad_aus[i])[0])
        return f"au_intensities[{j}] ({AU_NAMES[j]}) outside [0, 100]: {aus[i, j]}"

    checks = (
        (fi < 0, lambda i: f"frame_index must be >= 0, got {fi[i]}"),
        (~(np.isfinite(ts) & (ts >= 0.0)),
         lambda i: f"timestamp_ms must be a finite real >= 0, got {ts[i]}"),
        (~np.isfinite(frames.pupil).all(axis=1),
         lambda i: "pupil_position_cm has non-finite components"),
        (~np.isfinite(frames.direction).all(axis=1),
         lambda i: "gaze_direction has non-finite components"),
        (frames.face_gaze & zero_direction,
         lambda i: "gaze_direction must have a non-zero length on gaze-tracked frames"),
        (~((q >= 0.0) & (q <= 1.0)), lambda i: f"gaze_quality outside [0, 1]: {q[i]}"),
        (frames.face_gaze & (z <= 0.0),
         lambda i: f"pupil z must be > 0 on gaze-tracked frames, got {z[i]}"),
        (~np.isfinite(angles).all(axis=1), lambda i: "head pose angles must be finite"),
        (~np.isfinite(frames.mouth).all(axis=(1, 2)),
         lambda i: "mouth_points has non-finite coordinates"),
        (bad_aus.any(axis=1), first_bad_au),
        (~((eye >= 0.0) & (eye <= 100.0)), lambda i: f"eye_closure outside [0, 100]: {eye[i]}"),
        (~((fcx >= 0.0) & (fcx <= 1.0)), lambda i: f"face_center_x outside [0, 1]: {fcx[i]}"),
        (ts <= prev_ts, lambda i: f"timestamp_ms {ts[i]} not strictly increasing "
                                  f"(previous {prev_ts[i]})"),
        (fi <= prev_fi, lambda i: f"frame_index {fi[i]} not strictly increasing "
                                  f"(previous {prev_fi[i]})"),
        (fi > prev_fi + 1, lambda i: f"frame_index {fi[i]} skips frames after {prev_fi[i]}: "
                                     f"indices must be contiguous"),
    )
    if period_ms is None:
        return checks
    # the first frame of a stream (previous timestamp -inf) has no step
    step = ts - prev_ts
    off_rate = np.isfinite(prev_ts) & ~((step > 0.5 * period_ms) & (step < 1.5 * period_ms))
    return checks + (
        (off_rate, lambda i: f"timestamp_ms {ts[i]} is {step[i]:g} ms after {prev_ts[i]}, outside "
                             f"0.5 to 1.5 frame periods of {period_ms:g} ms at the manifest's rate"),
    )


def first_failure(checks) -> Optional[tuple[int, str]]:
    """The first index any check flags, with that check's message for it.

    ``checks`` is a sequence of (bad mask, message(i)) pairs over the same
    non-empty index range; at an index several checks flag, the earliest
    pair in ``checks`` wins.
    """
    first = None
    for bad, message in checks:
        i = int(np.argmax(bad))
        if bad[i] and (first is None or i < first[0]):
            first = (i, message)
    return None if first is None else (first[0], first[1](first[0]))
