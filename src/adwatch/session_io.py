"""Readers and writers for all on-disk formats.

Formats are line-delimited JSON (frames, timelines) or a single JSON
document (manifests). Each frame field maps to one ``FrameArrays`` column
(``_FRAME_SCHEMA``); see FORMATS.md for the full schemas. Numbers are emitted with ``repr``
round-tripping semantics, so write-then-read is the identity. The JSONL
writers fill row templates with text rendered a block of rows at a time and
write the bytes ``json.dumps(row, separators=(",", ":"))`` would.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .config import _read_json_object
from .errors import DataError, SessionFormatError
from .fusion import SIGNAL_NAMES, DistractionTimeline
from .records import AU_NAMES, FrameArrays, SessionManifest, first_failure, validate_frames

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
# rows per block, for reading and writing alike: only one block's parsed
# objects or rendered text is alive at once
_BLOCK_ROWS = 256

# json's spelling of the non-finite floats and of booleans
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL_TEXT = {False: "false", True: "true"}


def _json_texts(values: np.ndarray) -> list[str]:
    """The JSON text of every value, flattened in row-major order."""
    kind = values.dtype.kind
    if kind == "b":
        return list(map(_BOOL_TEXT.__getitem__, values.ravel().tolist()))
    if kind in "iu":
        return list(map(int.__repr__, values.ravel().tolist()))
    values = np.asarray(values, dtype=np.float64)
    texts = list(map(float.__repr__, values.ravel().tolist()))
    if not np.isfinite(values).all():
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def _row_texts(texts: list[str], shape: tuple) -> list[str]:
    """Join the flat texts of a block of values of one ``shape`` into one
    text per row, innermost axis first: shape (4, 2) gives "a,b],[c,d],[e,f],[g,h"
    for a row template's "[[%s]]"."""
    for depth, size in enumerate(reversed(shape)):
        separator = "]" * depth + "," + "[" * depth
        texts = list(map(separator.join, zip(*[iter(texts)] * size)))
    return texts


_FRAME_ROW = "{" + ",".join(
    json.dumps(field) + ":" + "[" * len(shape) + "%s" + "]" * len(shape)
    for field, _, _, shape, _ in _FRAME_SCHEMA
) + "}\n"


def write_frames(frames: FrameArrays, path: PathLike) -> None:
    """One JSON object per frame, in ``_FRAME_SCHEMA`` order (FORMATS.md).

    Each block of ``_BLOCK_ROWS`` frames is rendered column by column and
    written with one ``writelines``.
    """
    n = len(frames)
    columns = []
    for _, column, _, shape, _ in _FRAME_SCHEMA:
        values = np.asarray(getattr(frames, column))
        if values.shape != (n, *shape):
            raise DataError(f"frame column {column} has shape {values.shape}, expected {(n, *shape)}")
        columns.append((values, shape))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, n, _BLOCK_ROWS):
            block = [
                _row_texts(_json_texts(values[start:start + _BLOCK_ROWS]), shape)
                for values, shape in columns
            ]
            fh.writelines([_FRAME_ROW % row for row in zip(*block)])


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

    Rows are parsed and converted ``_BLOCK_ROWS`` at a time, so only
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
            if len(objs) == _BLOCK_ROWS:
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


# manifest field -> the JSON types its value may have, and their description
_MANIFEST_FIELDS = {
    "session_id": ((str,), "a string"),
    "device_type": ((str,), "a string"),
    "frame_rate_hz": ((int, float), "a number"),
    "frame_source": ((str,), "a string"),
    "ground_truth": ((str, type(None)), "a string or null"),
}


def load_manifest(path: PathLike) -> SessionManifest:
    path = Path(path)
    doc = _read_json_object(path, "manifest", SessionFormatError)
    for key, (types, described) in _MANIFEST_FIELDS.items():
        if key not in doc and key != "ground_truth":
            raise SessionFormatError(f"manifest {path}: missing key {key!r}")
        # type(), not isinstance: a JSON boolean is not a number here
        if type(doc.get(key)) not in types:
            raise SessionFormatError(
                f"manifest {path}: {key} must be {described}, got {json.dumps(doc[key])}"
            )
    try:
        override = doc.get("screen_override_cm")
        return SessionManifest(
            session_id=doc["session_id"],
            device_type=doc["device_type"],
            frame_rate_hz=float(doc["frame_rate_hz"]),
            frame_source=doc["frame_source"],
            ground_truth=doc.get("ground_truth"),
            screen_override_cm=tuple(float(v) for v in override) if override else None,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SessionFormatError(f"manifest {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------

_MASK_LIMIT = 1 << len(SIGNAL_NAMES)
# the names of each mask's set bits, in SIGNAL_NAMES order
_SOURCES = tuple(
    [name for b, name in enumerate(SIGNAL_NAMES) if mask >> b & 1] for mask in range(_MASK_LIMIT)
)
# what a timeline row holds after frame_index, by mask
_TIMELINE_TAILS = tuple(
    ',"attentive":%s,"mask":%d,"sources":%s' % (
        _BOOL_TEXT[mask == 0], mask, json.dumps(sources, separators=(",", ":"))
    )
    for mask, sources in enumerate(_SOURCES)
)
# the sources of a row that has none
_UNLISTED = object()


def _not_text(activities: list) -> np.ndarray:
    """Per activity: True unless it is a string or None (JSON null)."""
    return np.array([a is not None and not isinstance(a, str) for a in activities], dtype=bool)


def _check_timeline(timeline: DistractionTimeline, path: Path) -> None:
    """DataError unless the columns have one row per frame, each mask is an
    integer in [0, 32) and each activity is a string or None; the error
    names the first bad row."""
    n = len(timeline)
    lengths = {
        "frame_index": len(timeline.frame_index),
        "activity": n if timeline.activity is None else len(timeline.activity),
        "target_cm": n if timeline.target_cm is None else len(timeline.target_cm),
    }
    if set(lengths.values()) != {n}:
        raise DataError(f"timeline {path}: columns of mismatched shapes (mask {n}, {lengths})")
    mask = np.asarray(timeline.mask)
    # a mask outside [0, 32) would pick the wrong row tail, or wrap round to one
    in_range = np.zeros(n, dtype=bool)
    if mask.dtype.kind in "iu":
        in_range = (mask >= 0) & (mask < _MASK_LIMIT)
    checks = [(~in_range, lambda i: f"mask must be an integer in [0, {_MASK_LIMIT}), got {mask[i]}")]
    activity = timeline.activity
    if activity is not None:
        checks.append((_not_text(activity),
                       lambda i: f"activity must be a string or null, got {activity[i]!r}"))
    failure = first_failure(checks)
    if failure is not None:
        i, message = failure
        raise DataError(f"timeline {path} row {i + 1}: {message}")


def _activity_texts(activity: list, encoded: dict) -> list[str]:
    """The JSON text of each activity, a string or None; each distinct value
    is encoded once, into ``encoded``."""
    texts = []
    for value in activity:
        if value not in encoded:
            encoded[value] = json.dumps(value)
        texts.append(encoded[value])
    return texts


def _target_points(targets: list, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(the target_cm column as float pairs, which rows have one); a row
    without a target reads (0.0, 0.0)."""
    present = np.array([target is not None for target in targets])
    try:
        points = np.array([(0.0, 0.0) if t is None else t for t in targets], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        points = None
    if points is None or points.shape != (len(targets), 2):
        row, target = next((i, t) for i, t in enumerate(targets)
                           if t is not None and not _has_shape(t, np.float64, (2,)))
        raise DataError(f"timeline {path} row {row + 1}: target_cm must be null "
                        f"or a pair of numbers, got {target!r}")
    return points, present


def write_timeline(timeline: DistractionTimeline, path: PathLike) -> None:
    """One line per frame: index, attentive flag, signal mask, active names,
    and the generator's activity and target_cm where the timeline has them.

    A timeline with a mask outside [0, 32), or with an activity that is
    neither a string nor None, is refused with DataError before anything is
    written. Rows are rendered and written
    ``_BLOCK_ROWS`` at a time, as ``write_frames`` does.
    """
    if len(timeline) == 0:
        raise DataError("refusing to write a 0-length timeline")
    path = Path(path)
    _check_timeline(timeline, path)
    row = '{"frame_index":%s%s'
    if timeline.activity is not None:
        row += ',"activity":%s'
    if timeline.target_cm is not None:
        row += ',"target_cm":%s'
    row += "}\n"
    index = np.asarray(timeline.frame_index).astype(np.int64, copy=False)
    mask = np.asarray(timeline.mask)
    if timeline.target_cm is not None:
        points, present = _target_points(timeline.target_cm, path)
    encoded: dict = {}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(timeline), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = [
                _json_texts(index[start:stop]),
                list(map(_TIMELINE_TAILS.__getitem__, mask[start:stop].tolist())),
            ]
            if timeline.activity is not None:
                block.append(_activity_texts(timeline.activity[start:stop], encoded))
            if timeline.target_cm is not None:
                pairs = _row_texts(_json_texts(points[start:stop]), (2,))
                block.append(["[" + pair + "]" if has else "null"
                              for pair, has in zip(pairs, present[start:stop].tolist())])
            fh.writelines([row % texts for texts in zip(*block)])


_INT64 = np.iinfo(np.int64)


def _json_type_is(values: list, kind: type) -> np.ndarray:
    return np.fromiter(map(type, values), dtype=object, count=len(values)) == kind


def _int_column(values: list, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(int64 column, is a JSON integer, is an integer in [lo, hi]) per value;
    values that are not in range read as 0 in the column."""
    objs = np.fromiter(values, dtype=object, count=len(values))
    is_int = _json_type_is(values, int)
    in_range = is_int.copy()
    in_range[is_int] = (objs[is_int] >= lo) & (objs[is_int] <= hi)
    return np.where(in_range, objs, 0).astype(np.int64), is_int, in_range


def _target_column(targets: list, shared: dict) -> tuple[Optional[list], np.ndarray]:
    """(the targets as float-pair tuples, per-row flags of targets that are
    not a pair of numbers). The column is None if some target is bad.

    Equal points share one tuple object, the one ``shared`` holds under the
    points' float bits (so -0.0 keeps its own tuple): the annotations repeat
    over whole segments, and a fresh tuple per frame costs about 160 bytes a
    frame for as long as the timeline is loaded.
    """
    present = [tgt for tgt in targets if tgt is not None]
    all_good = np.zeros(len(targets), dtype=bool)
    if not present:
        return [None] * len(targets), all_good
    try:
        points = np.array(present, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        points = None
    if points is None or points.shape != (len(present), 2):
        bad = [tgt is not None and not _has_shape(tgt, np.float64, (2,)) for tgt in targets]
        return None, np.array(bad)
    # a target holds over a whole segment: look up one tuple per run of equal bits
    bits = points.view(np.int64)
    starts = np.ones(len(bits), dtype=bool)
    starts[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    runs = [
        shared.setdefault(tuple(key), tuple(point))
        for key, point in zip(bits[starts].tolist(), points[starts].tolist())
    ]
    column = iter([runs[k] for k in (np.cumsum(starts) - 1).tolist()])
    return [None if tgt is None else next(column) for tgt in targets], all_good


def _timeline_block(path: Path, rows: list[int], indices: list, masks: list, flags: list,
                    targets: list, activities: list, sources: list, shared: dict):
    """The frame_index, mask and target_cm columns of one block of rows,
    checked column-wise with its attentive flags, activities and sources.

    DataError names the block's first bad row and, within it, the first
    failed check below, as a row-by-row check in this order would.
    """
    index, _, index_ok = _int_column(indices, _INT64.min, _INT64.max)
    mask, mask_int, mask_ok = _int_column(masks, 0, _MASK_LIMIT - 1)
    flag_ok = _json_type_is(flags, bool)
    attentive = np.array([flag is True for flag in flags])
    target_cm, bad_target = _target_column(targets, shared)
    bad_sources = [listed is not _UNLISTED and listed != _SOURCES[m]
                   for listed, m in zip(sources, mask.tolist())]
    failure = first_failure((
        (~index_ok, lambda i: f"frame_index must be a 64-bit integer, got {json.dumps(indices[i])}"),
        (~mask_int, lambda i: f"mask must be an integer, got {json.dumps(masks[i])}"),
        (~flag_ok, lambda i: f"attentive must be a boolean, got {json.dumps(flags[i])}"),
        (~mask_ok, lambda i: f"mask {masks[i]} out of range"),
        (attentive != (mask == 0), lambda i: "attentive flag inconsistent with mask"),
        (bad_target, lambda i: "target_cm must be null or a pair of numbers, "
                               f"got {json.dumps(targets[i])}"),
        (_not_text(activities), lambda i: "activity must be a string or null, "
                                          f"got {json.dumps(activities[i])}"),
        (np.array(bad_sources), lambda i: f"sources {json.dumps(sources[i])} "
                                          f"do not match mask {masks[i]}"),
    ))
    if failure is not None:
        i, message = failure
        raise DataError(f"timeline {path} row {rows[i]}: {message}")
    return index, mask.astype(np.uint8), target_cm


def read_timeline(path: PathLike) -> DistractionTimeline:
    """Read a timeline file; a bad row raises DataError naming the first one.

    Each row is parsed on its own, and every ``_BLOCK_ROWS`` rows are
    checked column-wise before more are read, so only one block's parsed
    values are alive at once.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"timeline not found: {path}")
    rows, indices, masks, flags, targets, block_activities, sources = [], [], [], [], [], [], []
    blocks, activities, target_cm = [], [], []
    # annotations repeat over whole segments, so equal values share one object
    shared: dict = {}
    has_activity = False
    unparsed = None

    def flush():
        *columns, block_targets = _timeline_block(
            path, rows, indices, masks, flags, targets, block_activities, sources, shared
        )
        blocks.append(columns)
        target_cm.extend(block_targets)
        activities.extend(block_activities)
        for values in (rows, indices, masks, flags, targets, block_activities, sources):
            values.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
                fields = (obj["frame_index"], obj["mask"], obj["attentive"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                unparsed = (row, exc)
                break
            rows.append(row)
            indices.append(fields[0])
            masks.append(fields[1])
            flags.append(fields[2])
            if "activity" in obj:
                has_activity = True
            activity = obj.get("activity")
            if isinstance(activity, str):
                activity = shared.setdefault(activity, activity)
            block_activities.append(activity)
            sources.append(obj.get("sources", _UNLISTED))
            targets.append(obj.get("target_cm"))
            if len(rows) == _BLOCK_ROWS:
                flush()
    if rows:
        # the rows before an unparsable one are checked first: one may be bad
        flush()
    if unparsed is not None:
        row, exc = unparsed
        raise DataError(f"timeline {path} row {row}: {exc}") from exc
    if not blocks:
        raise DataError(f"empty timeline: {path}")
    index, mask = (np.concatenate(column) for column in zip(*blocks))
    return DistractionTimeline(
        mask=mask,
        frame_index=index,
        activity=activities if has_activity else None,
        target_cm=target_cm if any(tgt is not None for tgt in target_cm) else None,
    )
