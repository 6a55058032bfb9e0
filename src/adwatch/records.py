"""Frame and session data model.

A session is a sequence of per-frame tracker outputs, held column by column
in ``FrameArrays`` and checked by ``validate_frames``. Two upstream trackers
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
from typing import Optional, Sequence

import numpy as np

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
        if self.device_type not in DEVICE_TYPES:
            raise SessionFormatError(
                f"device_type must be one of {DEVICE_TYPES}, got {self.device_type!r}"
            )
        if not 5.0 <= self.frame_rate_hz <= 120.0:
            raise SessionFormatError(
                f"frame_rate_hz must be in [5, 120], got {self.frame_rate_hz}"
            )
        if self.screen_override_cm is not None:
            w, h = self.screen_override_cm
            if not (w > 0 and h > 0):
                raise SessionFormatError("screen_override_cm must be positive")


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


def validate_frames(frames: FrameArrays, rows: Sequence[int]) -> None:
    """Raise SessionFormatError if any frame violates a FORMATS.md invariant.

    ``rows[i]`` is the 1-based source row of frame i. The error names the
    first offending row and, within it, the first failed check below.
    Shapes are not checked here; the loader enforces them per column.
    """
    fi, ts = frames.frame_index, frames.timestamp_ms
    q, eye, fcx, aus = frames.quality, frames.eye_closure, frames.face_center_x, frames.aus
    z = frames.pupil[:, 2]
    angles = np.stack([frames.yaw, frames.pitch, frames.roll], axis=1)
    prev_fi = np.concatenate(([-1], fi[:-1]))
    prev_ts = np.concatenate(([-np.inf], ts[:-1]))
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
    )
    failure = first_failure(checks)
    if failure is not None:
        i, message = failure
        raise SessionFormatError(f"row {rows[i]}: {message}")


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
