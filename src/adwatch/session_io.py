"""Readers and writers for all on-disk formats.

Formats are line-delimited JSON (frames, timelines) or a single JSON
document (manifests, suite indexes); see FORMATS.md for the full schemas.
A suite is read here whatever wrote it: ``load_suite`` gives a split's
entries, ``load_entry_manifest`` the manifest of each. Each key of a
JSONL row is one ``_Field`` of its file's schema (``_FRAME_SCHEMA``,
``_TIMELINE_SCHEMA``) and fills one column. Both JSONL files are read by one
loop over their lines, ``_row_blocks``, and ``_read_jsonl`` checks every
block of rows in full before it reads the next, so an error names the
file's first bad row. Numbers are
emitted with ``repr`` round-tripping semantics, so write-then-read is the
identity. The JSONL writers fill row templates with text rendered a block
of rows at a time and write the bytes ``json.dumps(row, separators=(",",
":"))`` would. A float field whose values in a file are at most half
distinct (``_DICTIONARY_SHARE``) is rendered through a dictionary: each
distinct number once per field and file, each block taking its texts by
index, so the bytes do not change. Every writer lands its file whole
through ``config._replacing``.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .config import _check_fields, _read_json_object, _replacing
from .errors import ConfigError, DataError, SessionFormatError
from .fusion import SIGNAL_NAMES, DistractionTimeline
from .records import (
    _INDEX_RULES,
    AU_NAMES,
    FrameArrays,
    SessionManifest,
    SuiteEntry,
    first_failure,
    frame_checks,
)

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# JSONL rows and their columns
# ---------------------------------------------------------------------------

class _Field(NamedTuple):
    """One key of a JSONL row and the column it fills."""

    key: str
    column: str
    dtype: type
    shape: tuple            # of one row's value
    types: frozenset        # the JSON types its numbers (or strings) may have, by type()
    expected: str           # what a value must be, for the error message
    # may be absent or null: null reads as a row of NaN (so the numbers must be
    # finite) or, in an object column, as None
    optional: bool = False


_INT, _BOOL, _NUMBER = frozenset({int}), frozenset({bool}), frozenset({int, float})
# the dtype kinds of a column that a writer renders as its field's JSON
# types, and what they are for the error message
_KINDS = {_INT: ("iu", "integers"), _BOOL: ("b", "booleans"), _NUMBER: ("iuf", "integers or floats")}
_INT64_MAX = np.iinfo(np.int64).max

_FRAME_SCHEMA = (
    _Field("frame_index", "frame_index", np.int64, (), _INT, "an integer"),
    _Field("timestamp_ms", "timestamp_ms", np.float64, (), _NUMBER, "a number"),
    _Field("pupil_position_cm", "pupil", np.float64, (3,), _NUMBER, "an array of 3 numbers"),
    _Field("gaze_direction", "direction", np.float64, (3,), _NUMBER, "an array of 3 numbers"),
    _Field("gaze_quality", "quality", np.float64, (), _NUMBER, "a number"),
    _Field("head_yaw_deg", "yaw", np.float64, (), _NUMBER, "a number"),
    _Field("head_pitch_deg", "pitch", np.float64, (), _NUMBER, "a number"),
    _Field("head_roll_deg", "roll", np.float64, (), _NUMBER, "a number"),
    _Field("mouth_points", "mouth", np.float64, (4, 2), _NUMBER, "4 pairs of numbers"),
    _Field("au_intensities", "aus", np.float64, (len(AU_NAMES),), _NUMBER,
           f"an array of {len(AU_NAMES)} numbers"),
    _Field("eye_closure", "eye_closure", np.float64, (), _NUMBER, "a number"),
    _Field("face_detected_expr", "face_expr", np.bool_, (), _BOOL, "a boolean"),
    _Field("face_detected_gaze", "face_gaze", np.bool_, (), _BOOL, "a boolean"),
    _Field("face_center_x", "face_center_x", np.float64, (), _NUMBER, "a number"),
)
_TIMELINE_SCHEMA = (
    _Field("frame_index", "frame_index", np.int64, (), _INT, "a 64-bit integer"),
    _Field("mask", "mask", np.int64, (), _INT, "an integer"),
    _Field("attentive", "attentive", np.bool_, (), _BOOL, "a boolean"),
    _Field("target_cm", "target_cm", np.float64, (2,), _NUMBER, "null or a pair of numbers",
           optional=True),
    _Field("activity", "activity", object, (), frozenset({str, type(None)}), "a string or null",
           optional=True),
)
# rows per block, for reading and writing alike: only one block's parsed
# objects or rendered text is alive at once
_BLOCK_ROWS = 256


def _column(field: _Field, values: list):
    """The column of ``field`` over one block's values, an array of shape
    ``(len(values), *field.shape)`` (a list for an object field), or None if
    some value is not of the field's JSON types and shape."""
    null = field.optional and field.dtype is not object and None in values
    if null:
        null = [value is None for value in values]
        blank = np.zeros(field.shape).tolist()
        values = [blank if none else value for value, none in zip(values, null)]
    flat = values
    try:
        for size in field.shape:
            if set(map(len, flat)) != {size}:
                return None
            flat = list(chain.from_iterable(flat))
        if not field.types.issuperset(map(type, flat)):
            return None
        if field.dtype is object:
            # one object per distinct value: annotations repeat over whole segments
            shared: dict = {}
            return [shared.setdefault(value, value) for value in values]
        column = np.array(flat, dtype=field.dtype).reshape(len(values), *field.shape)
    except (TypeError, OverflowError):
        return None
    if field.optional and not np.isfinite(column).all():
        return None
    if null:
        column[null] = np.nan
    return column


def _bad_values(field: _Field, objs: list) -> tuple:
    """The ``first_failure`` check of ``field`` over a block's rows: a key
    that is missing or a value ``_column`` refuses."""
    bad = [_column(field, [obj.get(field.key)]) is None for obj in objs]

    def message(i: int) -> str:
        if field.key not in objs[i]:
            return f"missing key {field.key!r}"
        return f"{field.key} must be {field.expected}, got {json.dumps(objs[i][field.key])}"

    return np.array(bad), message


def _row_error(error: type, where: str):
    """The ``error(row, message)`` of ``_row_blocks``: ``error`` naming
    ``where`` and the row, if there is one."""
    return lambda row, message: error(f"{where}{'' if row is None else f' row {row}'}: {message}")


def _row_blocks(path: Path, error):
    """Yield (objects, 1-based row numbers) blocks of up to ``_BLOCK_ROWS``
    rows, skipping blank lines; a row that is not UTF-8 text holding a JSON
    object raises ``error(row, message)`` once the rows before it are
    yielded, and a file that cannot be opened ``error(None, message)``. Both
    lists are refilled for the next block, so only one block's rows are alive."""
    objs, rows = [], []
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise error(None, f"cannot be read ({exc.strerror})") from None
    with fh:
        for row, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                # decoded row by row, so that a bad byte names its row
                obj = json.loads(line.decode("utf-8"))
                problem = None if type(obj) is dict else "not a JSON object"
            except UnicodeDecodeError as exc:
                problem = f"not UTF-8 text (byte {exc.start}: {exc.reason})"
            except json.JSONDecodeError as exc:
                problem = f"invalid JSON ({exc.msg})"
            if problem is not None:
                if objs:
                    yield objs, rows
                raise error(row, problem)
            objs.append(obj)
            rows.append(row)
            if len(objs) == _BLOCK_ROWS:
                yield objs, rows
                objs.clear()
                rows.clear()
    if objs:
        yield objs, rows


def _checked_block(schema, checks, objs: list, rows: list, previous, error) -> dict:
    """One block's columns by name, once every row passes; otherwise
    ``error`` names the first bad row and, in it, the first failed check:
    each field's type and shape in schema order, then ``checks(columns,
    objs, previous)`` in its order."""
    columns, failures = {}, []
    for field in schema:
        try:
            values = [obj[field.key] for obj in objs]
        except KeyError:  # an absent key reads as null, which only an optional field takes
            values = [obj.get(field.key) for obj in objs]
        columns[field.column] = column = _column(field, values)
        if column is None:
            failures.append(_bad_values(field, objs))
    if failures:
        i, message = first_failure(failures)
        if i:
            # the rows before it parse, but one of them may fail a later check
            _checked_block(schema, checks, objs[:i], rows[:i], previous, error)
        raise error(rows[i], message)
    failure = first_failure(checks(columns, objs, previous))
    if failure is not None:
        raise error(rows[failure[0]], failure[1])
    return columns


def _read_jsonl(path: Path, schema, checks, error) -> Optional[dict]:
    """The columns of a JSONL file by name, or None if it has no rows; each
    block is checked before the next is read, and ``checks`` gets the previous
    block's columns (None for the first) for the checks that span rows."""
    blocks: list[dict] = []
    for objs, rows in _row_blocks(path, error):
        blocks.append(_checked_block(schema, checks, objs, rows, blocks[-1] if blocks else None, error))
    if not blocks:
        return None
    return {
        name: list(chain.from_iterable(b[name] for b in blocks)) if isinstance(first, list)
        else np.concatenate([b[name] for b in blocks])
        for name, first in blocks[0].items()
    }


def _unwritable(types: frozenset, values: np.ndarray) -> Optional[str]:
    """Why the column ``values`` of a field of JSON ``types`` would not read
    back equal, or None: its dtype kind must be one those types are written
    from, and integers must fit in int64."""
    kinds, expected = _KINDS[types]
    if values.dtype.kind not in kinds:
        return f"has dtype {values.dtype}, expected {expected}"
    if types is _INT and values.size and values.max() > _INT64_MAX:
        return f"holds {values.max()}, beyond int64"
    return None


# ---------------------------------------------------------------------------
# frame files
# ---------------------------------------------------------------------------

# json's spelling of booleans
_BOOL_TEXT = {False: "false", True: "true"}


def _json_texts(values: np.ndarray) -> list[str]:
    """The JSON text of every value, flattened in row-major order. Floats
    must be finite: the writers refuse the others, or write null for them."""
    kind = values.dtype.kind
    if kind == "b":
        return list(map(_BOOL_TEXT.__getitem__, values.ravel().tolist()))
    if kind in "iu":
        return list(map(int.__repr__, values.ravel().tolist()))
    return list(map(float.__repr__, np.asarray(values, dtype=np.float64).ravel().tolist()))


# A float field is rendered through a dictionary when at most this share of
# its values in a file are distinct. On the seed-7 suite that picks
# au_intensities (19% distinct) and face_center_x (30%) in every session,
# and gaze_quality (46-65%) in 8 of 20. Encoding every field made those
# three 55%, 65% and about 20% faster to render, and the fields that are
# 81-100% distinct 0-11% slower: mouth_points (87%) 7%, pupil_position_cm
# (93%) 8% (CPU time, best of 15, on a 2-vCPU VM).
_DICTIONARY_SHARE = 0.5


def _dictionary(values: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """For a float column, the JSON text of each distinct number, as an
    object array, and the index of each value's text, shaped like
    ``values``; None for any other column, or when more than
    ``_DICTIONARY_SHARE`` of the values are distinct. Numbers are told apart
    by their bits, so -0.0 and 0.0 keep texts of their own."""
    if values.dtype.kind != "f":
        return None
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    # counted on a plain sort first, which costs a field that is not encoded
    # a quarter or less of what np.unique's inverse would
    ordered = np.sort(bits)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + 1 > _DICTIONARY_SHARE * len(bits):
        return None
    # of a 1-D array: numpy 1.x and 2.x shape return_inverse differently for others
    distinct, index = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    return texts, index.reshape(values.shape)


def _block_texts(values: np.ndarray, dictionary, start: int, stop: int) -> list[str]:
    """``_json_texts`` of rows ``start:stop`` of ``values``, looked up in
    the ``_dictionary`` of ``values`` where it has one."""
    if dictionary is None:
        return _json_texts(values[start:stop])
    texts, index = dictionary
    return texts[index[start:stop].reshape(-1)].tolist()


def _row_texts(texts: list[str], shape: tuple) -> list[str]:
    """Join the flat texts of a block of values of one ``shape`` into one
    text per row, innermost axis first: shape (4, 2) gives "a,b],[c,d],[e,f],[g,h"
    for a row template's "[[%s]]"."""
    for depth, size in enumerate(reversed(shape)):
        separator = "]" * depth + "," + "[" * depth
        texts = list(map(separator.join, zip(*[iter(texts)] * size)))
    return texts


_FRAME_ROW = "{" + ",".join(
    json.dumps(field.key) + ":" + "[" * len(field.shape) + "%s" + "]" * len(field.shape)
    for field in _FRAME_SCHEMA
) + "}\n"


def write_frames(frames: FrameArrays, path: PathLike) -> None:
    """One JSON object per frame, in ``_FRAME_SCHEMA`` order (FORMATS.md).

    Each column has its field's shape and a dtype ``_unwritable`` takes,
    and the frames, at the dtypes ``load_frames`` reads them back at, pass
    its ``frame_checks`` before the file is opened: otherwise DataError
    names the first bad column or row and no file is written. Each block of
    ``_BLOCK_ROWS`` frames is rendered column by column, a column that has a
    ``_dictionary`` by looking its texts up, and written with one
    ``writelines``.
    """
    n = len(frames)
    path = Path(path)
    columns, checked = [], {}
    for field in _FRAME_SCHEMA:
        values = np.asarray(getattr(frames, field.column))
        if values.shape != (n, *field.shape):
            raise DataError(f"frame column {field.column} has shape {values.shape}, "
                            f"expected {(n, *field.shape)}")
        problem = _unwritable(field.types, values)
        if problem is not None:
            raise DataError(f"frame column {field.column} {problem}")
        columns.append((values, field.shape))
        checked[field.column] = values.astype(field.dtype, copy=False)
    failure = first_failure(frame_checks(FrameArrays(**checked))) if n else None
    if failure is not None:
        raise DataError(f"frame file {path} row {failure[0] + 1}: {failure[1]}")
    columns = [(values, _dictionary(values), shape) for values, shape in columns]
    with _replacing(path) as fh:
        for start in range(0, n, _BLOCK_ROWS):
            block = [
                _row_texts(_block_texts(values, dictionary, start, start + _BLOCK_ROWS), shape)
                for values, dictionary, shape in columns
            ]
            fh.writelines([_FRAME_ROW % row for row in zip(*block)])


def _frame_checks(columns: dict, objs: list, previous: Optional[dict], period_ms: Optional[float]) -> tuple:
    last = None if previous is None else (previous["frame_index"][-1], previous["timestamp_ms"][-1])
    return frame_checks(FrameArrays(**columns), last, period_ms)


def load_frames(path: PathLike, period_ms: Optional[float] = None) -> FrameArrays:
    """Read a frame file straight into columns; rows are validated, never
    clamped, and an error names the first bad row. Timestamp steps are held
    to ``period_ms`` when it is given, as ``load_session`` gives it.

    Only one block's parsed JSON (about 2.5 kB of small objects a row) is
    alive at once: whole-file parsing leaves enough scattered interpreter
    memory behind to raise the peak of a later ``adwatch train`` in the same
    process by up to 2 MB.
    """
    path = Path(path)
    if not path.exists():
        raise SessionFormatError(f"frame file not found: {path}")
    columns = _read_jsonl(
        path, _FRAME_SCHEMA, partial(_frame_checks, period_ms=period_ms),
        _row_error(SessionFormatError, f"frame file {path}"),
    )
    if columns is None:
        raise SessionFormatError(f"empty session: {path}")
    return FrameArrays(**columns)


def load_session(manifest: SessionManifest, base_dir: Optional[PathLike] = None) -> FrameArrays:
    """Load the frame stream referenced by ``manifest``, its timestamps
    stepping by about one period of the manifest's ``frame_rate_hz``.

    Relative frame paths resolve against ``base_dir`` (the manifest's
    directory when the manifest was loaded from disk).
    """
    src = Path(manifest.frame_source)
    if not src.is_absolute() and base_dir is not None:
        src = Path(base_dir) / src
    return load_frames(src, 1000.0 / manifest.frame_rate_hz)


# ---------------------------------------------------------------------------
# manifests and suite indexes
# ---------------------------------------------------------------------------

def write_manifest(manifest: SessionManifest, path: PathLike) -> None:
    """The manifest's fields in order, leaving out those that are None."""
    doc = {name: value for name, value in vars(manifest).items() if value is not None}
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_manifest(path: PathLike) -> SessionManifest:
    """The manifest at ``path``; keys that are not its fields are ignored."""
    path = Path(path)
    doc = _read_json_object(path, "manifest", SessionFormatError)
    return SessionManifest(
        **_check_fields(doc, SessionManifest, SessionFormatError, f"manifest {path}", unknown_ok=True)
    )


def write_suite(entries: list[SuiteEntry], config: dict, path: PathLike) -> None:
    """The index of a suite's ``entries``, with the ``config`` it was
    written from and that config's ``seed``."""
    doc = {"seed": config["seed"], "config": config, "sessions": [vars(e) for e in entries]}
    with _replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_suite(suite_dir: PathLike, split: str = "all") -> list[SuiteEntry]:
    """The entries of ``split`` in the index of ``suite_dir``, in index
    order. The index is checked by ``_INDEX_RULES`` and each entry by
    ``SuiteEntry``'s field rules, and a session listed twice is refused, all
    with ConfigError; keys the rules do not name are ignored."""
    path = Path(suite_dir) / "suite.json"
    where = f"suite index {path}"
    doc = _check_fields(_read_json_object(path, "suite index", ConfigError), _INDEX_RULES, ConfigError,
                        where, unknown_ok=True)
    entries, first = [], {}
    for i, e in enumerate(doc["sessions"]):
        entry = SuiteEntry(**_check_fields(e, SuiteEntry, ConfigError, f"{where}: sessions[{i}]", unknown_ok=True))
        j = first.setdefault(entry.session_id, i)
        if j != i:
            raise ConfigError(f"{where}: sessions[{i}]: session {entry.session_id} is listed twice, "
                              f"first at sessions[{j}]")
        entries.append(entry)
    return [e for e in entries if split in ("all", e.split)]


def load_entry_manifest(suite_dir: PathLike, entry: SuiteEntry) -> tuple[SessionManifest, Path]:
    """The manifest of a suite entry and the directory its paths are relative
    to. A manifest whose session id or device type is not the entry's raises
    SessionFormatError naming both values and the session."""
    path = Path(suite_dir) / entry.manifest_path
    manifest = load_manifest(path)
    for key in ("session_id", "device_type"):
        if getattr(manifest, key) != getattr(entry, key):
            raise SessionFormatError(
                f"manifest {path}: {key} {getattr(manifest, key)!r} differs from the suite "
                f"index's {getattr(entry, key)!r} for session {entry.session_id}"
            )
    return manifest, path.parent


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


def _check_timeline(timeline: DistractionTimeline, path: Path) -> Optional[np.ndarray]:
    """The target_cm column as an (n, 2) float array, if the timeline has one.

    DataError unless the columns have one row per frame, the frame_index
    and target_cm columns have dtypes ``_unwritable`` takes, each mask is an
    integer in [0, 32), each activity is a string or None and each target
    row is a pair of finite numbers or all NaN (null); the error names the
    first bad column or row.
    """
    n = len(timeline)
    activity, points = timeline.activity, timeline.target_cm
    lengths = {
        "frame_index": len(timeline.frame_index),
        "activity": n if activity is None else len(activity),
        "target_cm": n if points is None else len(points),
    }
    if set(lengths.values()) != {n}:
        raise DataError(f"timeline {path}: columns of mismatched shapes (mask {n}, {lengths})")
    problem = _unwritable(_INT, np.asarray(timeline.frame_index))
    if problem is not None:
        raise DataError(f"timeline {path}: column frame_index {problem}")
    mask = np.asarray(timeline.mask)
    # a mask outside [0, 32) would pick the wrong row tail, or wrap round to one
    in_range = np.zeros(n, dtype=bool)
    if mask.dtype.kind in "iu":
        in_range = (mask >= 0) & (mask < _MASK_LIMIT)
    checks = [(~in_range, lambda i: f"mask must be an integer in [0, {_MASK_LIMIT}), got {mask[i]}")]
    if activity is not None:
        checks.append((np.array([a is not None and not isinstance(a, str) for a in activity]),
                       lambda i: f"activity must be a string or null, got {activity[i]!r}"))
    if points is not None:
        try:
            points = np.asarray(points)
        except ValueError:   # rows of different lengths
            points = None
        if points is None or points.shape != (n, 2):
            raise DataError(f"timeline {path}: target_cm must be an ({n}, 2) array of numbers")
        problem = _unwritable(_NUMBER, points)
        if problem is not None:
            raise DataError(f"timeline {path}: column target_cm {problem}")
        points = points.astype(np.float64, copy=False)
        null_or_finite = np.isnan(points).all(axis=1) | np.isfinite(points).all(axis=1)
        checks.append((~null_or_finite, lambda i: "target_cm must be a pair of finite numbers "
                                                  f"or NaN for null, got {points[i].tolist()}"))
    failure = first_failure(checks)
    if failure is not None:
        i, message = failure
        raise DataError(f"timeline {path} row {i + 1}: {message}")
    return points


def write_timeline(timeline: DistractionTimeline, path: PathLike) -> None:
    """One line per frame: index, attentive flag, signal mask, active names,
    and the generator's activity and target_cm where the timeline has them.

    A timeline that ``_check_timeline`` refuses raises DataError before
    anything is written. Rows are rendered and written ``_BLOCK_ROWS`` at a
    time, as ``write_frames`` does, and each distinct activity is encoded
    once, as is each distinct target number where target_cm has a
    ``_dictionary``.
    """
    path = Path(path)
    if len(timeline) == 0:
        raise DataError("refusing to write a 0-length timeline")
    points = _check_timeline(timeline, path)
    row = '{"frame_index":%s%s'
    if timeline.activity is not None:
        row += ',"activity":%s'
        # each distinct activity, a string or None, is encoded once
        encoded = {value: json.dumps(value) for value in set(timeline.activity)}
    if points is not None:
        row += ',"target_cm":%s'
        null = np.isnan(points[:, 0])
        dictionary = _dictionary(points)
    row += "}\n"
    index = np.asarray(timeline.frame_index)
    mask = np.asarray(timeline.mask)
    with _replacing(path) as fh:
        for start in range(0, len(timeline), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = [
                _json_texts(index[start:stop]),
                list(map(_TIMELINE_TAILS.__getitem__, mask[start:stop].tolist())),
            ]
            if timeline.activity is not None:
                block.append(list(map(encoded.__getitem__, timeline.activity[start:stop])))
            if points is not None:
                pairs = _row_texts(_block_texts(points, dictionary, start, stop), (2,))
                block.append(["null" if none else "[" + pair + "]"
                              for pair, none in zip(pairs, null[start:stop].tolist())])
            fh.write("".join([row % texts for texts in zip(*block)]))


def _timeline_checks(columns: dict, objs: list, previous: Optional[dict]) -> tuple:
    mask, attentive = columns["mask"], columns["attentive"]
    in_range = (mask >= 0) & (mask < _MASK_LIMIT)
    # a row without sources agrees with its mask; a mask out of range fails first
    names = [_SOURCES[m] for m in np.where(in_range, mask, 0).tolist()]
    wrong_sources = np.array([obj.get("sources", listed) != listed for obj, listed in zip(objs, names)])
    return (
        (~in_range, lambda i: f"mask {mask[i]} out of range"),
        (attentive != (mask == 0), lambda i: "attentive flag inconsistent with mask"),
        (wrong_sources, lambda i: f"sources {json.dumps(objs[i]['sources'])} "
                                  f"do not match mask {mask[i]}"),
    )


def read_timeline(path: PathLike) -> DistractionTimeline:
    """Read a timeline file; a bad row raises DataError naming the first one.

    ``activity`` and ``target_cm`` are None when no row has a value; a row
    whose target is null reads as NaN.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"timeline not found: {path}")
    columns = _read_jsonl(path, _TIMELINE_SCHEMA, _timeline_checks, _row_error(DataError, f"timeline {path}"))
    if columns is None:
        raise DataError(f"empty timeline: {path}")
    activity, target = columns["activity"], columns["target_cm"]
    return DistractionTimeline(
        mask=columns["mask"].astype(np.uint8),
        frame_index=columns["frame_index"],
        activity=activity if any(a is not None for a in activity) else None,
        target_cm=None if np.isnan(target).all() else target,
    )
