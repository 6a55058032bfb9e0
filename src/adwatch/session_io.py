"""Readers and writers for all on-disk formats.

Formats are line-delimited JSON (frames, timelines) or a single JSON
document (manifests). Each frame field maps to one ``FrameArrays`` column
(``_FRAME_SCHEMA``); see FORMATS.md for the full schemas. Numbers are emitted with ``repr``
round-tripping semantics, so write-then-read is the identity.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import DataError, SessionFormatError
from .fusion import SIGNAL_NAMES, DistractionTimeline
from .records import AU_NAMES, FrameArrays, SessionManifest, validate_frames

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# frame files
# ---------------------------------------------------------------------------

# JSON field, FrameArrays column, dtype, shape of one frame's value, and the
# exact JSON type a value must have (None: any number numpy converts).
_FRAME_SCHEMA = (
    ("frame_index", "frame_index", np.int64, (), int),
    ("timestamp_ms", "timestamp_ms", np.float64, (), None),
    ("pupil_position_cm", "pupil", np.float64, (3,), None),
    ("gaze_direction", "direction", np.float64, (3,), None),
    ("gaze_quality", "quality", np.float64, (), None),
    ("head_yaw_deg", "yaw", np.float64, (), None),
    ("head_pitch_deg", "pitch", np.float64, (), None),
    ("head_roll_deg", "roll", np.float64, (), None),
    ("mouth_points", "mouth", np.float64, (4, 2), None),
    ("au_intensities", "aus", np.float64, (len(AU_NAMES),), None),
    ("eye_closure", "eye_closure", np.float64, (), None),
    ("face_detected_expr", "face_expr", np.bool_, (), bool),
    ("face_detected_gaze", "face_gaze", np.bool_, (), bool),
    ("face_center_x", "face_center_x", np.float64, (), None),
)
_JSON_TYPE_NAMES = {int: "an integer", bool: "a boolean"}
_LOAD_BLOCK_ROWS = 256


def write_frames(frames: FrameArrays, path: PathLike) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = [field for field, *_ in _FRAME_SCHEMA]
    columns = [getattr(frames, column).tolist() for _, column, *_ in _FRAME_SCHEMA]
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        for values in zip(*columns):
            fh.write(encode(dict(zip(names, values))))
            fh.write("\n")


def _has_shape(value, dtype, shape: tuple) -> bool:
    try:
        return np.asarray(value, dtype=dtype).shape == shape
    except (TypeError, ValueError, OverflowError):
        return False


def _frame_column(objs: list, rows: list[int], field: str, dtype, shape: tuple, exact) -> np.ndarray:
    """One column of the frame file, or SessionFormatError naming the first bad row."""
    try:
        values = [obj[field] for obj in objs]
    except (KeyError, TypeError):
        row = next(r for r, obj in zip(rows, objs) if not (isinstance(obj, dict) and field in obj))
        raise SessionFormatError(f"row {row}: malformed frame record (no {field!r} field)") from None
    if exact is not None and set(map(type, values)) != {exact}:
        row, value = next((r, v) for r, v in zip(rows, values) if type(v) is not exact)
        raise SessionFormatError(
            f"row {row}: {field} must be {_JSON_TYPE_NAMES[exact]}, got {json.dumps(value)}"
        )
    try:
        column = np.array(values, dtype=dtype)
        if column.shape[1:] == shape:
            return column
    except (TypeError, ValueError, OverflowError):
        pass
    row, value = next((r, v) for r, v in zip(rows, values) if not _has_shape(v, dtype, shape))
    expected = f"an array of shape {shape}" if shape else "a number"
    raise SessionFormatError(f"row {row}: {field} must be {expected}, got {json.dumps(value)}")


def load_frames(path: PathLike) -> FrameArrays:
    """Read a frame file straight into columns; rows are validated, never clamped.

    Rows are parsed and converted ``_LOAD_BLOCK_ROWS`` at a time, so only
    one block's parsed JSON (about 2.5 kB of small objects a row) is alive
    at once: whole-file parsing leaves enough scattered interpreter memory
    behind to raise the peak of a later ``adwatch train`` in the same
    process by up to 2 MB. A file with several bad rows is reported at the
    first bad row of the first block that has one.
    """
    path = Path(path)
    if not path.exists():
        raise SessionFormatError(f"frame file not found: {path}")
    parts: dict = {column: [] for _, column, *_ in _FRAME_SCHEMA}
    all_rows: list[int] = []
    objs, rows = [], []

    def flush():
        for field, column, dtype, shape, exact in _FRAME_SCHEMA:
            parts[column].append(_frame_column(objs, rows, field, dtype, shape, exact))
        all_rows.extend(rows)
        objs.clear()
        rows.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                objs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SessionFormatError(f"row {row}: invalid JSON ({exc.msg})") from exc
            rows.append(row)
            if len(objs) == _LOAD_BLOCK_ROWS:
                flush()
    if objs:
        flush()
    if not all_rows:
        raise SessionFormatError(f"empty session: {path}")
    frames = FrameArrays(**{column: np.concatenate(blocks) for column, blocks in parts.items()})
    validate_frames(frames, all_rows)
    return frames


def load_session(manifest: SessionManifest, base_dir: Optional[PathLike] = None) -> FrameArrays:
    """Load the frame stream referenced by ``manifest``.

    Relative frame paths resolve against ``base_dir`` (the manifest's
    directory when the manifest was loaded from disk).
    """
    src = Path(manifest.frame_source)
    if not src.is_absolute() and base_dir is not None:
        src = Path(base_dir) / src
    return load_frames(src)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_manifest(manifest: SessionManifest, path: PathLike) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "session_id": manifest.session_id,
        "device_type": manifest.device_type,
        "frame_rate_hz": manifest.frame_rate_hz,
        "frame_source": manifest.frame_source,
    }
    if manifest.ground_truth is not None:
        doc["ground_truth"] = manifest.ground_truth
    if manifest.screen_override_cm is not None:
        doc["screen_override_cm"] = list(manifest.screen_override_cm)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_manifest(path: PathLike) -> SessionManifest:
    path = Path(path)
    if not path.exists():
        raise SessionFormatError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SessionFormatError(f"manifest {path}: invalid JSON ({exc.msg})") from exc
    try:
        override = doc.get("screen_override_cm")
        return SessionManifest(
            session_id=str(doc["session_id"]),
            device_type=str(doc["device_type"]),
            frame_rate_hz=float(doc["frame_rate_hz"]),
            frame_source=str(doc["frame_source"]),
            ground_truth=doc.get("ground_truth"),
            screen_override_cm=tuple(float(v) for v in override) if override else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SessionFormatError(f"manifest {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------

def write_timeline(timeline: DistractionTimeline, path: PathLike) -> None:
    """One line per frame: index, attentive flag, signal mask, active names."""
    if len(timeline) == 0:
        raise DataError("refusing to write a 0-length timeline")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(timeline)):
            row = {
                "frame_index": int(timeline.frame_index[i]),
                "attentive": bool(timeline.attentive[i]),
                "mask": int(timeline.mask[i]),
                "sources": timeline.active_names(i),
            }
            if timeline.activity is not None:
                row["activity"] = timeline.activity[i]
            if timeline.target_cm is not None:
                tgt = timeline.target_cm[i]
                row["target_cm"] = list(tgt) if tgt is not None else None
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")


def read_timeline(path: PathLike) -> DistractionTimeline:
    path = Path(path)
    if not path.exists():
        raise DataError(f"timeline not found: {path}")
    indices, masks, activities, targets = [], [], [], []
    # the annotations repeat over whole segments, so equal values share one
    # object (targets keyed by their floats' exact bits): a fresh string and
    # tuple per frame cost about 160 bytes a frame for as long as it is loaded
    shared: dict = {}
    has_activity = False
    has_targets = False
    with open(path, "r", encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                idx = int(obj["frame_index"])
                mask = int(obj["mask"])
                attentive = bool(obj["attentive"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"timeline {path} row {row}: {exc}") from exc
            if not 0 <= mask < (1 << len(SIGNAL_NAMES)):
                raise DataError(f"timeline {path} row {row}: mask {mask} out of range")
            if attentive != (mask == 0):
                raise DataError(
                    f"timeline {path} row {row}: attentive flag inconsistent with mask"
                )
            indices.append(idx)
            masks.append(mask)
            if "activity" in obj:
                has_activity = True
            activity = obj.get("activity")
            if isinstance(activity, str):
                activity = shared.setdefault(activity, activity)
            activities.append(activity)
            tgt = obj.get("target_cm")
            if tgt is not None:
                has_targets = True
                point = (float(tgt[0]), float(tgt[1]))
                targets.append(shared.setdefault((point[0].hex(), point[1].hex()), point))
            else:
                targets.append(None)
    if not indices:
        raise DataError(f"empty timeline: {path}")
    mask_arr = np.array(masks, dtype=np.uint8)
    signals = np.zeros((len(masks), len(SIGNAL_NAMES)), dtype=bool)
    for b in range(len(SIGNAL_NAMES)):
        signals[:, b] = (mask_arr >> b) & 1
    return DistractionTimeline(
        signals=signals,
        attentive=mask_arr == 0,
        mask=mask_arr,
        frame_index=np.array(indices, dtype=np.int64),
        activity=activities if has_activity else None,
        target_cm=targets if has_targets else None,
    )
