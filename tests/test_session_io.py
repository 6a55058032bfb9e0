import dataclasses
import json
import multiprocessing
import re
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.artifacts import write_artifact
from adwatch.cli import main
from adwatch.errors import DataError, SessionFormatError
from adwatch.fusion import SIGNAL_NAMES, DistractionTimeline, fuse
from adwatch.records import AU_NAMES, FrameArrays, SessionManifest, first_failure, frame_checks
from adwatch import session_io
from adwatch.session_io import (
    _BLOCK_ROWS,
    _FRAME_SCHEMA,
    load_frames,
    load_manifest,
    load_session,
    read_timeline,
    write_frames,
    write_manifest,
    write_timeline,
)
from adwatch.synth import load_suite
from adwatch.training import load_suite_sessions
from oracles import json_write_frames, json_write_timeline, load_frames_rows, read_timeline_rows


def make_frames(n, **overrides):
    columns = dict(
        frame_index=np.arange(n),
        timestamp_ms=np.arange(n) * (1000.0 / 30.0),
        pupil=np.tile([0.5, -0.25, 60.0], (n, 1)),
        direction=np.tile([0.01, -0.02, -1.0], (n, 1)),
        quality=np.full(n, 0.9),
        yaw=np.full(n, 1.5),
        pitch=np.full(n, -2.0),
        roll=np.full(n, 0.25),
        mouth=np.tile([[0.0, 0.01], [0.0, -0.01], [-0.16, 0.0], [0.16, 0.0]], (n, 1, 1)),
        aus=np.tile(np.arange(float(len(AU_NAMES))), (n, 1)),
        eye_closure=np.full(n, 3.0),
        face_expr=np.ones(n, dtype=bool),
        face_gaze=np.ones(n, dtype=bool),
        face_center_x=np.full(n, 0.5),
    )
    columns.update(overrides)
    return FrameArrays(**columns)


def assert_same_frames(a, b):
    assert vars(a).keys() == vars(b).keys()
    for name, column in vars(a).items():
        np.testing.assert_array_equal(column, getattr(b, name), strict=True, err_msg=name)


def test_frames_round_trip_100_rows(tmp_path):
    frames = make_frames(100, quality=0.5 + 0.004 * np.arange(100))
    path = tmp_path / "frames.jsonl"
    write_frames(frames, path)
    assert_same_frames(load_frames(path), frames)


def test_frames_round_trip_across_load_blocks(tmp_path):
    # 600 rows span three loader blocks; the columns join in file order
    frames = make_frames(600, quality=np.linspace(0.0, 1.0, 600), yaw=np.sin(np.arange(600)))
    path = tmp_path / "frames.jsonl"
    write_frames(frames, path)
    assert_same_frames(load_frames(path), frames)


@pytest.mark.parametrize("row", [256, 257, 600])
def test_bad_row_in_later_block_names_row(tmp_path, row):
    path = tmp_path / "frames.jsonl"
    write_frames(make_frames(600), path)
    lines = path.read_text().splitlines()
    bad = json.loads(lines[row - 1])
    bad["gaze_quality"] = 1.5
    lines[row - 1] = json.dumps(bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionFormatError, match=f"row {row}: gaze_quality outside"):
        load_frames(path)


def test_round_trip_preserves_text_precision(tmp_path):
    # write -> read -> write must be byte-identical
    rng = np.random.default_rng(0)
    pupil = np.column_stack([rng.uniform(-5, 5, (40, 2)), 60 + rng.uniform(size=40)])
    frames = make_frames(40, pupil=pupil)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_frames(frames, p1)
    write_frames(load_frames(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_randomized_sessions_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    for k in range(10):
        n = int(rng.integers(1, 60))
        frames = make_frames(
            n,
            timestamp_ms=np.cumsum(rng.uniform(10, 40, n)),
            pupil=np.column_stack([rng.normal(0, 5, (n, 2)), rng.uniform(1e-3, 1e3, n)]),
            direction=rng.normal(0, 1, (n, 3)),
            quality=rng.uniform(0, 1, n),
            aus=rng.uniform(0, 100, (n, len(AU_NAMES))),
            eye_closure=rng.uniform(0, 100, n),
            face_center_x=rng.uniform(0, 1, n),
        )
        path = tmp_path / f"s{k}.jsonl"
        write_frames(frames, path)
        assert_same_frames(load_frames(path), frames)


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def nonzero_length(vectors):
    with np.errstate(over="ignore"):
        return np.linalg.norm(vectors, axis=1) > 0.0


# every dtype kind a column handed to a writer can have, at more than one size
_DTYPES = tuple(map(np.dtype, (np.bool_, np.int8, np.int32, np.int64, np.uint8, np.uint64,
                               np.float32, np.float64, np.complex128)))


def reads_back(types: frozenset, values: np.ndarray) -> bool:
    """Whether the reader of a field of JSON ``types`` returns the column
    ``values`` equal: booleans from bool, integers from integers within
    int64, numbers from integers or floats."""
    kind = values.dtype.kind
    if types == frozenset({bool}):
        return kind == "b"
    if types == frozenset({int}):
        return kind in "iu" and (values.size == 0 or int(values.max()) < 2**63)
    return kind in "iuf"


@st.composite
def valid_frames(draw, any_dtypes=False):
    """Frames that pass every check; with ``any_dtypes``, frame_index and
    the head pose may be of any dtype that reads back equal."""
    n = draw(st.integers(1, 12))

    def column(elements, shape=()):
        return draw(hnp.arrays(np.float64, (n, *shape), elements=elements))

    def angles():
        if not any_dtypes:
            return column(_finite())
        dtype = draw(st.sampled_from([d for d in _DTYPES if d.kind in "iuf"]))
        finite = hnp.from_dtype(dtype, allow_nan=False, allow_infinity=False) if dtype.kind == "f" else None
        return draw(hnp.arrays(dtype, n, elements=finite))

    index_dtype = draw(st.sampled_from((np.int64, np.uint64))) if any_dtypes else np.int64
    pupil = column(_finite(), (3,))
    direction = column(_finite(), (3,))
    return FrameArrays(
        # contiguous from any start
        frame_index=(draw(st.integers(0, 2**63 - n)) + np.arange(n)).astype(index_dtype),
        timestamp_ms=np.sort(draw(hnp.arrays(np.float64, n, elements=_finite(min_value=0.0), unique=True))),
        pupil=pupil,
        direction=direction,
        quality=column(_finite(min_value=0.0, max_value=1.0)),
        yaw=angles(),
        pitch=angles(),
        roll=angles(),
        mouth=column(_finite(), (4, 2)),
        aus=column(_finite(min_value=0.0, max_value=100.0), (len(AU_NAMES),)),
        eye_closure=column(_finite(min_value=0.0, max_value=100.0)),
        face_expr=draw(hnp.arrays(np.bool_, n)),
        # a gaze-tracked frame needs pupil z > 0 and a direction of non-zero
        # length; others keep any sentinel
        face_gaze=draw(hnp.arrays(np.bool_, n)) & (pupil[:, 2] > 0) & nonzero_length(direction),
        face_center_x=column(_finite(min_value=0.0, max_value=1.0)),
    )


@settings(max_examples=60, deadline=None)
@given(frames=valid_frames())
def test_loader_round_trip_property(frames):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
        write_frames(frames, p1)
        loaded = load_frames(p1)
        assert_same_frames(loaded, frames)
        write_frames(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("field, value, reason", [
    pytest.param("gaze_quality", 1.7, "gaze_quality outside", id="gaze_quality"),
    pytest.param("eye_closure", None, "eye_closure must be a number, got null", id="null_real"),
    pytest.param("gaze_quality", "0.9", 'gaze_quality must be a number, got "0.9"', id="string_quality"),
    pytest.param("eye_closure", True, "eye_closure must be a number, got true", id="boolean_real"),
    pytest.param("pupil_position_cm", [0.5, True, 60.0], "pupil_position_cm must be",
                 id="boolean_in_vector"),
    pytest.param("au_intensities", ["1.0"] + [1.0] * (len(AU_NAMES) - 1), "au_intensities must be",
                 id="string_in_aus"),
    pytest.param("mouth_points", [[0.0, 0.01], [0.0, -0.01], [-0.16, 0.0], [0.16, None]],
                 "mouth_points must be", id="null_in_mouth"),
    pytest.param("face_detected_gaze", "false", "must be a boolean", id="string_flag"),
    pytest.param("face_detected_expr", 1, "must be a boolean", id="integer_flag"),
    pytest.param("frame_index", 4.9, "must be an integer", id="fractional_index"),
    pytest.param("frame_index", True, "must be an integer", id="boolean_index"),
    pytest.param("frame_index", 3, "frame_index 3 not strictly increasing", id="duplicate_index"),
    pytest.param("frame_index", 2, "frame_index 2 not strictly increasing", id="out_of_order_index"),
    pytest.param("frame_index", 5, "frame_index 5 skips frames after 3", id="index_gap"),
    pytest.param("pupil_position_cm", [0.5, 60.0], "pupil_position_cm must be", id="short_vector"),
    pytest.param("mouth_points", [[0.0, 0.01], [0.0, -0.01], [-0.16, 0.0], [0.16]],
                 "mouth_points must be", id="ragged_mouth"),
    pytest.param("au_intensities", [1.0] * (len(AU_NAMES) - 1), "au_intensities must be",
                 id="short_aus"),
    pytest.param("head_yaw_deg", "left", "head_yaw_deg must be a number", id="string_real"),
])
def test_range_violation_names_row(tmp_path, field, value, reason):
    path = tmp_path / "frames.jsonl"
    write_frames(make_frames(10), path)
    lines = path.read_text().splitlines()
    bad = json.loads(lines[4])
    bad[field] = value
    lines[4] = json.dumps(bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionFormatError, match=f"row 5: .*{reason}"):
        load_frames(path)


def test_zero_gaze_direction_rejected_only_on_gaze_tracked_frames(tmp_path):
    # the ray intersection divides by the direction's length; a frame the
    # gaze tracker lost keeps its sentinel
    face_gaze = np.ones(10, dtype=bool)
    face_gaze[2] = False
    direction = np.tile([0.01, -0.02, -1.0], (10, 1))
    direction[2] = 0.0
    direction[6] = [-0.0, 5e-324, 0.0]              # its length underflows to zero
    path = tmp_path / "frames.jsonl"
    json_write_frames(make_frames(10, face_gaze=face_gaze, direction=direction), path)
    with pytest.raises(SessionFormatError) as got:
        load_frames(path)
    assert str(got.value) == (f"frame file {path} row 7: gaze_direction must have a non-zero length "
                              "on gaze-tracked frames")
    direction[6] = [0.0, 0.0, 1e-150]
    json_write_frames(make_frames(10, face_gaze=face_gaze, direction=direction), path)
    assert_same_frames(load_frames(path), make_frames(10, face_gaze=face_gaze, direction=direction))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("")
    with pytest.raises(SessionFormatError, match="empty session"):
        load_frames(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(SessionFormatError, match="not found"):
        load_frames(tmp_path / "nope.jsonl")


def test_malformed_row_names_row(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames(make_frames(1), path)
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(SessionFormatError, match="row 2"):
        load_frames(path)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def frame_lines(n):
    """The JSON lines of ``make_frames(n)``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.jsonl"
        write_frames(make_frames(n), path)
        return path.read_text().splitlines()


def with_value(line, key, value):
    row = json.loads(line)
    row[key] = value
    return json.dumps(row)


def test_frame_reader_names_a_bad_type_before_a_bad_type_in_a_later_row(tmp_path):
    # each field's column used to be checked in turn, so the index at row 3
    # was named before the flag at row 2
    lines = frame_lines(600)
    lines[1] = with_value(lines[1], "face_detected_gaze", "true")
    lines[2] = with_value(lines[2], "frame_index", 2.0)
    path = tmp_path / "frames.jsonl"
    write_lines(path, lines)
    message = f'frame file {path} row 2: face_detected_gaze must be a boolean, got "true"'
    with pytest.raises(SessionFormatError, match=f"^{re.escape(message)}$"):
        load_frames(path)


def test_frame_reader_names_a_bad_value_before_a_later_unparsable_row(tmp_path):
    # the value checks used to run only after the whole file was read
    lines = frame_lines(600)
    lines[4] = with_value(lines[4], "gaze_quality", 2.0)
    lines[299] = lines[299][:-7]
    path = tmp_path / "frames.jsonl"
    write_lines(path, lines)
    message = f"frame file {path} row 5: gaze_quality outside [0, 1]: 2.0"
    with pytest.raises(SessionFormatError, match=f"^{re.escape(message)}$"):
        load_frames(path)


@pytest.mark.parametrize("key, row", [("frame_index", 257), ("timestamp_ms", 257), ("frame_index", 513)])
def test_ordering_is_checked_across_blocks(tmp_path, key, row):
    lines = frame_lines(600)
    lines[row - 1] = with_value(lines[row - 1], key, json.loads(lines[row - 2])[key])
    path = tmp_path / "frames.jsonl"
    write_lines(path, lines)
    with pytest.raises(SessionFormatError, match=f"row {row}: {key} .* not strictly increasing"):
        load_frames(path)


@pytest.mark.parametrize("cut", [(0, 1), (100, 101), (255, 257), (256, 300), (511, 590)])
def test_cut_frame_run_names_the_first_row_after_it(tmp_path, cut):
    # the first row may start anywhere; every later row continues the one
    # before it, within a block and across blocks
    lines = frame_lines(600)
    start, stop = cut
    del lines[start:stop]
    path = tmp_path / "frames.jsonl"
    write_lines(path, lines)
    if start == 0:
        assert load_frames(path).frame_index[0] == stop
        return
    message = f"row {start + 1}: frame_index {stop} skips frames after {start - 1}"
    with pytest.raises(SessionFormatError, match=re.escape(message)):
        load_frames(path)


@pytest.mark.parametrize("suite", ["default", "gaze_offset", "orientation", "mini"])
def test_every_synth_suite_has_contiguous_frame_indices(tmp_path, suite):
    assert main(["simulate", "--suite", suite, "--sessions", "4", "--seed", "3",
                 "--output", str(tmp_path)]) == 0
    # loading runs every frame check, the contiguity rule included
    sessions = load_suite_sessions(tmp_path)
    assert len(sessions) == 4
    for frames, _, _ in sessions:
        assert np.array_equal(frames.frame_index, np.arange(len(frames)))


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    """Default-template suites of 2, 4 and 6 sessions: 1, 2 and 3 in each split."""
    root = tmp_path_factory.mktemp("suites")
    for n in (2, 4, 6):
        assert main(["simulate", "--suite", "default", "--sessions", str(n), "--seed", "8",
                     "--output", str(root / str(n))]) == 0
    return root


def assert_same_sessions(got, want):
    assert len(got) == len(want)
    for (frames, truth, manifest), (frames0, truth0, manifest0) in zip(got, want):
        assert manifest == manifest0
        pairs = [(getattr(frames, f.name), getattr(frames0, f.name)) for f in dataclasses.fields(FrameArrays)]
        pairs += [(truth.mask, truth0.mask), (truth.frame_index, truth0.frame_index)]
        for a, b in pairs:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=True)
            assert a.tobytes() == b.tobytes()
        assert (truth.target_cm is None) == (truth0.target_cm is None)
        if truth.target_cm is not None:
            assert truth.target_cm.dtype == truth0.target_cm.dtype
            assert truth.target_cm.tobytes() == truth0.target_cm.tobytes()
        assert truth.activity == truth0.activity


@pytest.mark.parametrize("n, split, selected", [
    (2, "train", 1),
    (4, "train", 2),
    (6, "train", 3),
    (6, "all", 6),
    (6, "held_out", 3),
])
def test_split_load_returns_what_the_serial_load_returns(suites, monkeypatch, n, split, selected):
    from adwatch import training

    pools = []

    class CountedPool(training.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", CountedPool)
    loaded = {}
    for cpus in (1, 2):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        loaded[cpus] = load_suite_sessions(suites / str(n), split=split)
        assert multiprocessing.active_children() == []
    assert len(loaded[1]) == selected
    assert pools == [1] * (selected > 1)
    assert [manifest.session_id for _, _, manifest in loaded[1]] == [
        entry.session_id for entry in load_suite(suites / str(n)).by_split(split)]
    assert_same_sessions(loaded[2], loaded[1])


_FRAME_KEYS = [field.key for field in _FRAME_SCHEMA]
_ARRAY_KEYS = [field.key for field in _FRAME_SCHEMA if field.shape]
# values of a wrong type or shape, out of range or fine, for any frame field
_ODD_VALUES = ("0.9", "x", True, False, None, 0, 1, -1, 1.5, 101.0, -0.5, 4.9, 2**63, float("nan"),
               float("inf"), [], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0, 2.0]] * 4, {"a": 1})
_FRAME_CHANGES = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_FRAME_KEYS), st.sampled_from(_ODD_VALUES)),
    st.tuples(st.just("item"), st.sampled_from(_ARRAY_KEYS),
              st.sampled_from(("1.0", True, None, 1, 150.0, -3.0, float("nan")))),
    st.tuples(st.just("drop"), st.sampled_from(_FRAME_KEYS), st.none()),
    st.tuples(st.just("repeat"), st.sampled_from(["frame_index", "timestamp_ms"]), st.none()),
    st.tuples(st.just("line"), st.none(),
              st.sampled_from(('{"frame_index":', "[1, 2]", "null", "", "  "))),
)
_GOOD_FRAME_LINES = frame_lines(600)


def changed_line(lines, i, change):
    """Line ``i`` after one change: a field set to a value, an item of an
    array field set, a key dropped, the previous row's index or timestamp
    repeated, or the whole line replaced."""
    kind, key, value = change
    if kind == "line":
        return value
    row = json.loads(lines[i])
    if kind == "set":
        row[key] = value
    elif kind == "item":
        first = row[key]
        while isinstance(first[0], list):
            first = first[0]
        first[0] = value
    elif kind == "drop":
        del row[key]
    else:
        row[key] = json.loads(lines[i - 1])[key] if i else -row[key] - 1
    return json.dumps(row)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 600),
       changes=st.lists(st.tuples(st.integers(0, 599), _FRAME_CHANGES), max_size=4))
def test_frame_reader_matches_row_by_row_oracle(n, changes):
    lines = _GOOD_FRAME_LINES[:n]
    for i, change in changes:
        if i < n:
            lines[i] = changed_line(_GOOD_FRAME_LINES, i, change)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.jsonl"
        write_lines(path, lines)
        try:
            expected = load_frames_rows(path)
        except SessionFormatError as exc:
            with pytest.raises(SessionFormatError) as got:
                load_frames(path)
            assert str(got.value) == str(exc)
            return
        frames = load_frames(path)
    for field in _FRAME_SCHEMA:
        np.testing.assert_array_equal(getattr(frames, field.column),
                                      np.array(expected[field.column], dtype=field.dtype),
                                      strict=True, err_msg=field.key)


def test_non_monotonic_timestamps_rejected(tmp_path):
    path = tmp_path / "frames.jsonl"
    frames = make_frames(2, timestamp_ms=np.zeros(2))
    # the writer refuses what the reader refuses, before any file is made
    with pytest.raises(DataError, match="row 2: timestamp_ms 0.0 not strictly increasing"):
        write_frames(frames, path)
    assert not path.exists()
    json_write_frames(frames, path)
    with pytest.raises(SessionFormatError, match="strictly increasing"):
        load_frames(path)


def test_gaze_frame_with_nonpositive_z_rejected(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames(make_frames(1), path)
    row = json.loads(path.read_text())
    row["pupil_position_cm"] = [0.0, 0.0, -2.0]
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(SessionFormatError, match="row 1"):
        load_frames(path)


def test_sentinel_frames_kept_not_dropped(tmp_path):
    frames = make_frames(3)
    frames.pupil[1] = 0.0
    frames.direction[1] = 0.0
    frames.quality[1] = 0.0
    frames.face_expr[1] = False
    frames.face_gaze[1] = False
    path = tmp_path / "frames.jsonl"
    write_frames(frames, path)
    loaded = load_frames(path)
    assert len(loaded) == 3
    assert not loaded.face_gaze[1]
    assert_same_frames(loaded, frames)


def test_manifest_round_trip(tmp_path):
    manifest = SessionManifest(
        session_id="s1",
        device_type="mobile",
        frame_rate_hz=30.0,
        frame_source="frames.jsonl",
        ground_truth="truth.jsonl",
        screen_override_cm=(34.5, 19.4),
    )
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    assert load_manifest(path) == manifest
    # the fields in order, each that is not None
    assert path.read_text(encoding="utf-8") == json.dumps(
        {"session_id": "s1", "device_type": "mobile", "frame_rate_hz": 30.0, "frame_source": "frames.jsonl",
         "ground_truth": "truth.jsonl", "screen_override_cm": [34.5, 19.4]}, indent=2) + "\n"
    write_manifest(dataclasses.replace(manifest, ground_truth=None, screen_override_cm=None), path)
    assert list(json.loads(path.read_text(encoding="utf-8"))) == [
        "session_id", "device_type", "frame_rate_hz", "frame_source"]


MANIFEST = {"session_id": "s", "device_type": "desktop", "frame_rate_hz": 30, "frame_source": "f.jsonl"}


@pytest.mark.parametrize("override, expected", [
    (None, None),
    ([34.5, 19], (34.5, 19.0)),
    ([1e-3, 1e300], (1e-3, 1e300)),
])
def test_manifest_screen_override_accepted(tmp_path, override, expected):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**MANIFEST, "screen_override_cm": override}))
    assert load_manifest(path).screen_override_cm == expected


@pytest.mark.parametrize("override", [
    ["34.5", True], [34.5, True], [True, 19.4], [34.5], [34.5, 19.4, 1.0], [], 0, 34.5,
    "34.5,19.4", {"w": 34.5, "h": 19.4}, [0, 19.4], [34.5, -1.0], [float("nan"), 19.4],
    [float("inf"), 19.4], [10**400, 19.4], [[34.5], 19.4], [None, 19.4],
], ids=lambda v: json.dumps(v))
def test_manifest_screen_override_must_be_two_positive_numbers(tmp_path, override):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**MANIFEST, "screen_override_cm": override}))
    with pytest.raises(SessionFormatError, match=rf"manifest {re.escape(str(path))}: screen_override_cm"):
        load_manifest(path)


def test_manifest_validation():
    with pytest.raises(SessionFormatError):
        SessionManifest("s", "tablet", 30.0, "f")
    with pytest.raises(SessionFormatError):
        SessionManifest("s", "desktop", 2.0, "f")
    with pytest.raises(SessionFormatError):
        SessionManifest("s", "desktop", 30.0, "f", screen_override_cm=(0.0, 10.0))


def test_load_session_resolves_relative_paths(tmp_path):
    frames = make_frames(5)
    write_frames(frames, tmp_path / "frames.jsonl")
    manifest = SessionManifest("s", "desktop", 30.0, "frames.jsonl")
    assert_same_frames(load_session(manifest, tmp_path), frames)


# 25 Hz: a 40 ms period, so these steps and timestamps are exact floats
@pytest.mark.parametrize("row, step, ok", [
    (2, 20.0, False), (300, 20.0, False), (300, 20.0 + 2**-20, True),
    (300, 60.0, False), (300, 60.0 - 2**-20, True), (257, 60.0, False), (600, 80.0, False),
])
def test_timestamp_steps_must_lie_within_half_and_one_and_a_half_periods(tmp_path, row, step, ok):
    timestamps = np.arange(600) * 40.0
    timestamps[row - 1:] += step - 40.0
    frames = make_frames(600, timestamp_ms=timestamps)
    write_frames(frames, tmp_path / "frames.jsonl")
    manifest = SessionManifest("s", "desktop", 25.0, "frames.jsonl")
    # without a manifest there is no period, so only the order is checked
    assert_same_frames(load_frames(tmp_path / "frames.jsonl"), frames)
    if ok:
        assert_same_frames(load_session(manifest, tmp_path), frames)
        return
    message = (f"row {row}: timestamp_ms {timestamps[row - 1]} is {step:g} ms after {timestamps[row - 2]}, "
               "outside 0.5 to 1.5 frame periods of 40 ms at the manifest's rate")
    with pytest.raises(SessionFormatError, match=f"{re.escape(message)}$"):
        load_session(manifest, tmp_path)


@pytest.mark.parametrize("rate, row", [(15.0, 2), (30.0, None), (60.0, 2)])
def test_a_manifest_rate_half_or_twice_the_frames_rate_is_refused(tmp_path, rate, row):
    write_frames(make_frames(40), tmp_path / "frames.jsonl")
    manifest = SessionManifest("s", "desktop", rate, "frames.jsonl")
    if row is None:
        assert len(load_session(manifest, tmp_path)) == 40
        return
    with pytest.raises(SessionFormatError, match=f"row {row}: timestamp_ms "):
        load_session(manifest, tmp_path)


def test_timeline_row_that_is_not_utf8_names_its_row(tmp_path):
    path = tmp_path / "t.jsonl"
    write_timeline(fuse(*[np.zeros(300, dtype=bool)] * 5), path)
    lines = path.read_bytes().split(b"\n")
    lines[279] = b"\xfe" + lines[279]
    path.write_bytes(b"\n".join(lines))
    message = f"timeline {path} row 280: not UTF-8 text (byte 0: invalid start byte)"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        read_timeline(path)


def same_bits(a, b):
    """Equal shapes and float bits, so -0.0 differs from 0.0 and NaN equals NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_timeline(rng, n):
    signals = rng.uniform(size=(n, 5)) < 0.25
    return fuse(*[signals[:, b] for b in range(5)])


def test_timeline_round_trip_all_attentive(tmp_path):
    tl = fuse(*[np.zeros(20, dtype=bool)] * 5)
    path = tmp_path / "t.jsonl"
    write_timeline(tl, path)
    assert read_timeline(path) == tl


def test_timeline_round_trip_all_signals_one_frame(tmp_path):
    signals = np.zeros((5, 5), dtype=bool)
    signals[2] = True
    tl = fuse(*[signals[:, b] for b in range(5)])
    path = tmp_path / "t.jsonl"
    write_timeline(tl, path)
    loaded = read_timeline(path)
    assert loaded == tl
    assert loaded.mask[2] == 0b11111
    assert loaded.active_names(2) == list(SIGNAL_NAMES)


def test_timeline_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(99)
    for k in range(25):
        tl = random_timeline(rng, int(rng.integers(1, 200)))
        path = tmp_path / f"t{k}.jsonl"
        write_timeline(tl, path)
        assert read_timeline(path) == tl


def test_zero_length_timeline_rejected(tmp_path):
    tl = DistractionTimeline(
        mask=np.zeros(0, dtype=np.uint8),
        frame_index=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(DataError):
        write_timeline(tl, tmp_path / "t.jsonl")


def test_timeline_generator_channels_round_trip(tmp_path):
    tl = fuse(*[np.zeros(3, dtype=bool)] * 5)
    tl.activity = ["dot", "speak", "leave"]
    tl.target_cm = np.array([(1.0, -2.0), (0.0, 0.0), (np.nan, np.nan)])
    path = tmp_path / "t.jsonl"
    write_timeline(tl, path)
    assert path.read_text().splitlines()[2].endswith('"target_cm":null}')
    loaded = read_timeline(path)
    assert loaded.activity == tl.activity
    np.testing.assert_array_equal(loaded.target_cm, tl.target_cm, strict=True)


def test_timeline_annotations_share_equal_values_exactly(tmp_path):
    tl = fuse(*[np.zeros(5, dtype=bool)] * 5)
    tl.activity = ["dot", "dot", "dot", "speak", "dot"]
    tl.target_cm = np.array([(0.0, 1.5), (0.0, 1.5), (-0.0, 1.5), (np.nan, np.nan), (0.0, 1.5)])
    path = tmp_path / "t.jsonl"
    write_timeline(tl, path)
    loaded = read_timeline(path)
    assert loaded.activity == tl.activity
    # one string object per distinct activity
    assert loaded.activity[0] is loaded.activity[4]
    # the targets are one float column: -0.0 keeps its sign and a null row reads NaN
    assert loaded.target_cm.dtype == np.float64 and loaded.target_cm.shape == (5, 2)
    assert same_bits(loaded.target_cm, tl.target_cm)
    assert np.signbit(loaded.target_cm[2, 0]) and not np.signbit(loaded.target_cm[0, 0])
    assert np.isnan(loaded.target_cm[3]).all()


GOOD_ROW = '{"frame_index":%d,"attentive":false,"mask":4,"sources":["speaking"],"target_cm":[1.0,2.0]}'
BAD_ROWS = {
    "mask out of range": ('{"frame_index":%d,"attentive":false,"mask":32}', "mask 32 out of range"),
    "negative mask": ('{"frame_index":%d,"attentive":false,"mask":-1}', "mask -1 out of range"),
    "inconsistent": ('{"frame_index":%d,"attentive":true,"mask":4}',
                     "attentive flag inconsistent with mask"),
    "mask not an integer": ('{"frame_index":%d,"attentive":false,"mask":4.0}',
                            "mask must be an integer, got 4.0"),
    "index not an integer": ('{"frame_index":"%d","attentive":false,"mask":4}',
                             "frame_index must be a 64-bit integer"),
    "index past int64": ('{"frame_index":1%d0000000000000000000,"attentive":false,"mask":4}',
                         "frame_index must be a 64-bit integer"),
    "attentive not a boolean": ('{"frame_index":%d,"attentive":0,"mask":4}',
                                "attentive must be a boolean, got 0"),
    "missing key": ('{"frame_index":%d,"mask":4}', "'attentive'"),
    # several faults in one row: the first check in row-by-row order names it
    "mistyped and out of range": ('{"frame_index":%d,"attentive":0,"mask":99}',
                                  "attentive must be a boolean, got 0"),
    "all fields mistyped": ('{"frame_index":[%d],"attentive":"x","mask":1.5}',
                            "frame_index must be a 64-bit integer, got ["),
    "invalid JSON": ('{"frame_index":%d,', "Expecting property name"),
    "bad target": ('{"frame_index":%d,"attentive":false,"mask":4,"target_cm":[1.0]}',
                   "target_cm must be null or a pair of numbers, got [1.0]"),
    "nested target": ('{"frame_index":%d,"attentive":false,"mask":4,"target_cm":[[1.0,2.0]]}',
                      "target_cm must be null or a pair of numbers"),
    "non-finite target": ('{"frame_index":%d,"attentive":false,"mask":4,"target_cm":[NaN,1.0]}',
                          "target_cm must be null or a pair of numbers, got [NaN, 1.0]"),
    "infinite target": ('{"frame_index":%d,"attentive":false,"mask":4,"target_cm":[0.0,-Infinity]}',
                        "target_cm must be null or a pair of numbers, got [0.0, -Infinity]"),
    "boolean in target": ('{"frame_index":%d,"attentive":false,"mask":4,"target_cm":[true,1.0]}',
                          "target_cm must be null or a pair of numbers, got [true, 1.0]"),
    "null sources": ('{"frame_index":%d,"attentive":false,"mask":4,"sources":null}',
                     "sources null do not match mask 4"),
    "not an object": ('[%d]', "not a JSON object"),
    "sources mismatch": ('{"frame_index":%d,"attentive":false,"mask":5,'
                         '"sources":["speaking","gaze_eye"]}',
                         'sources ["speaking", "gaze_eye"] do not match mask 5'),
    "activity not a string": ('{"frame_index":%d,"attentive":false,"mask":4,"activity":3}',
                              "activity must be a string or null, got 3"),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("position", [0, 4, 9])
def test_timeline_bad_row_named(tmp_path, kind, position):
    bad, message = BAD_ROWS[kind]
    lines = [(bad if i == position else GOOD_ROW) % i for i in range(10)]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"row {position + 1}: .*{re.escape(message)}"):
        read_timeline(path)


def test_timeline_first_bad_row_wins(tmp_path):
    lines = [GOOD_ROW % i for i in range(10)]
    lines[3] = BAD_ROWS["inconsistent"][0] % 3
    lines[6] = BAD_ROWS["mask out of range"][0] % 6
    lines[8] = "not json"
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 4: attentive flag inconsistent"):
        read_timeline(path)
    # within one row, the checks keep their row-by-row order
    lines[3] = '{"frame_index":"3","attentive":0,"mask":99}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 4: frame_index must be"):
        read_timeline(path)
    lines[3] = GOOD_ROW % 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 7: mask 32 out of range"):
        read_timeline(path)


def test_timeline_rows_count_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(GOOD_ROW % 0 + "\n\n" + BAD_ROWS["inconsistent"][0] % 1 + "\n")
    with pytest.raises(DataError, match="row 3: attentive flag inconsistent"):
        read_timeline(path)


def test_timeline_bad_target_before_bad_mask_is_named(tmp_path):
    lines = [GOOD_ROW % i for i in range(6)]
    lines[1] = BAD_ROWS["bad target"][0] % 1
    lines[4] = BAD_ROWS["mask out of range"][0] % 4
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 2: target_cm must be null or a pair"):
        read_timeline(path)


def test_timeline_with_wrong_sources_and_activities_refused(tmp_path):
    path = tmp_path / "t.jsonl"
    rows = ['{"frame_index":0,"attentive":true,"mask":0,"sources":["speaking"],"activity":3}',
            '{"frame_index":1,"attentive":true,"mask":0,"sources":[],"activity":[1]}']
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="row 1: activity must be a string or null, got 3"):
        read_timeline(path)
    rows[0] = rows[0].replace('"activity":3', '"activity":null')
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r'row 1: sources \["speaking"\] do not match mask 0'):
        read_timeline(path)
    rows[0] = rows[0].replace('["speaking"]', "[]")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match=r"row 2: activity must be a string or null, got \[1\]"):
        read_timeline(path)


_GOOD_ROW_TEMPLATES = (
    '{"frame_index":%d,"attentive":true,"mask":0,"sources":[]}',
    '{"frame_index":%d,"attentive":false,"mask":17,"sources":["gaze_eye","unattended"],'
    '"activity":"leave","target_cm":null}',
    '{"frame_index":%d,"attentive":false,"mask":4,"activity":"speak","target_cm":[-0.0,2]}',
    '{"frame_index":%d,"attentive":true,"mask":0,"activity":"dot","target_cm":[0.0,2.0]}',
)


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(
        st.one_of(
            st.sampled_from(range(len(_GOOD_ROW_TEMPLATES))),
            st.sampled_from(sorted(BAD_ROWS)),
            st.just("blank"),
        ),
        min_size=1, max_size=30,
    )
)
def test_timeline_reader_matches_row_by_row_oracle(kinds):
    lines = []
    for i, kind in enumerate(kinds):
        if kind == "blank":
            lines.append("")
        elif isinstance(kind, int):
            lines.append(_GOOD_ROW_TEMPLATES[kind] % i)
        else:
            lines.append(BAD_ROWS[kind][0] % i)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        try:
            expected = read_timeline_rows(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                read_timeline(path)
            assert str(got.value) == str(exc)
            return
        tl = read_timeline(path)
    index, mask, attentive, activity, target = expected
    assert tl.frame_index.tolist() == index
    assert tl.mask.tolist() == mask
    assert tl.attentive.tolist() == attentive
    assert tl.activity == activity
    assert (tl.target_cm is None) == (target is None)
    if target is not None:
        assert same_bits(tl.target_cm, [(np.nan, np.nan) if t is None else t for t in target])


def test_timeline_checks_and_sharing_span_blocks(tmp_path):
    lines = [GOOD_ROW % i for i in range(600)]      # longer than one checked block
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    loaded = read_timeline(path)
    assert loaded.frame_index.tolist() == list(range(600))
    assert same_bits(loaded.target_cm, np.tile([1.0, 2.0], (600, 1)))
    lines[519] = BAD_ROWS["mask out of range"][0] % 519
    lines[299] = BAD_ROWS["inconsistent"][0] % 299
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="row 300: attentive flag inconsistent"):
        read_timeline(path)


# ---------------------------------------------------------------------------
# the template writers write what the stdlib JSON encoder writes
# ---------------------------------------------------------------------------

_SPECIAL_FLOATS = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)
_INT64_EXTREMES = (-(2**63), -1, 0, 2**63 - 1)
# around one writer block of 256 rows, and several blocks
_WRITER_LENGTHS = (1, 255, 256, 257, 600)


def assert_written_like_oracle(write, oracle, value):
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = Path(tmp) / "got.jsonl", Path(tmp) / "expected.jsonl"
        write(value, got)
        oracle(value, expected)
        assert got.read_bytes() == expected.read_bytes()


@st.composite
def any_frames(draw):
    """Frame columns holding any values, valid or not, of the schema's dtypes
    but for up to two columns of any dtype."""
    n = draw(st.sampled_from(_WRITER_LENGTHS))

    def floats(*shape):
        return draw(hnp.arrays(np.float64, (n, *shape),
                               elements=st.floats() | st.sampled_from(_SPECIAL_FLOATS),
                               fill=st.sampled_from(_SPECIAL_FLOATS)))

    columns = dict(
        frame_index=draw(hnp.arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1),
                                    fill=st.sampled_from(_INT64_EXTREMES))),
        timestamp_ms=floats(),
        pupil=floats(3),
        direction=floats(3),
        quality=floats(),
        yaw=floats(),
        pitch=floats(),
        roll=floats(),
        mouth=floats(4, 2),
        aus=floats(len(AU_NAMES)),
        eye_closure=floats(),
        face_expr=draw(hnp.arrays(np.bool_, n)),
        face_gaze=draw(hnp.arrays(np.bool_, n)),
        face_center_x=floats(),
    )
    for name in draw(st.sets(st.sampled_from(list(columns)), max_size=2)):
        columns[name] = draw(hnp.arrays(draw(st.sampled_from(_DTYPES)), columns[name].shape))
    return FrameArrays(**columns)


def assert_frames_read_back_equal(frames):
    """``load_frames`` returns what ``write_frames`` wrote, at the schema's dtypes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.jsonl"
        write_frames(frames, path)
        expected = {f.column: getattr(frames, f.column).astype(f.dtype) for f in _FRAME_SCHEMA}
        assert_same_frames(load_frames(path), FrameArrays(**expected))


def assert_frames_written_or_refused(frames):
    """Refused, naming the first column whose dtype would not read back
    equal, if there is one. Otherwise written as the JSON encoder writes
    them and read back equal, if the reader's oracle takes the encoder's
    file, or else refused with the oracle's message for that file. A
    refusal makes no file."""
    odd = [f.column for f in _FRAME_SCHEMA if not reads_back(f.types, getattr(frames, f.column))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.jsonl"
        if odd:
            with pytest.raises(DataError, match=f"^frame column {odd[0]} (has dtype|holds)"):
                write_frames(frames, path)
            assert list(Path(tmp).iterdir()) == []
            return
        json_write_frames(frames, path)
        try:
            load_frames_rows(path)
        except SessionFormatError as exc:
            path.unlink()
            with pytest.raises(DataError) as got:
                write_frames(frames, path)
            assert str(got.value) == str(exc)
            assert not path.exists()
            return
    assert_written_like_oracle(write_frames, json_write_frames, frames)
    assert_frames_read_back_equal(frames)


@settings(max_examples=40, deadline=None)
@given(frames=any_frames())
def test_write_frames_matches_json_encoder_property(frames):
    assert_frames_written_or_refused(frames)


@settings(max_examples=40, deadline=None)
@given(frames=valid_frames(any_dtypes=True))
def test_write_frames_of_valid_frames_matches_json_encoder_property(frames):
    assert_written_like_oracle(write_frames, json_write_frames, frames)
    assert_frames_read_back_equal(frames)


def special_valid_frames(n):
    """Valid frames whose every float field holds each special value its
    range allows somewhere, shifted per field, and whose frame_index runs up
    to the largest int64."""
    unbounded = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                 0.1, -2.5e-7)
    in_range = {"quality": 1.0, "face_center_x": 1.0, "aus": 100.0, "eye_closure": 100.0}
    columns = {}
    for k, field in enumerate(_FRAME_SCHEMA):
        size = n * int(np.prod(field.shape, dtype=int))
        if field.column == "frame_index":
            values = np.arange(2**63 - n, 2**63 - 1, dtype=np.int64)
            values = np.append(values, np.int64(2**63 - 1))
        elif field.column == "timestamp_ms":
            values = np.array(([-0.0, 5e-324, 0.1, 1 + 2.5e-7] + [2.0 + i for i in range(n - 5)]
                               + [1.7976931348623157e308])[:n])
        elif field.dtype is np.bool_:
            values = np.arange(size) % 2 == 0
        elif field.column in in_range:
            values = np.roll(np.resize(np.array((-0.0, 0.0, 5e-324, 0.1, in_range[field.column])), size), k)
        else:
            values = np.roll(np.resize(np.array(unbounded), size), k)
        columns[field.column] = values.reshape(n, *field.shape)
    # a gaze-tracked frame needs pupil z > 0 and a direction of non-zero
    # length, which a direction of subnormal components lacks
    columns["pupil"][:, 2] = np.resize([5e-324, 0.1, 1.7976931348623157e308], n)
    columns["face_gaze"] &= nonzero_length(columns["direction"])
    return FrameArrays(**columns)


@pytest.mark.parametrize("n", _WRITER_LENGTHS)
def test_write_frames_special_values_in_every_field(n):
    # every float field holds every special value somewhere, shifted per
    # field: the writer refuses the frames where the reader would
    columns = {}
    for k, field in enumerate(_FRAME_SCHEMA):
        size = n * int(np.prod(field.shape, dtype=int))
        if field.dtype is np.int64:
            values = np.resize(np.array(_INT64_EXTREMES, dtype=np.int64), size)
        elif field.dtype is np.bool_:
            values = np.arange(size) % 2 == 0
        else:
            values = np.roll(np.resize(np.array(_SPECIAL_FLOATS + (0.1, -2.5e-7)), size), k)
        columns[field.column] = values.reshape(n, *field.shape)
    assert_frames_written_or_refused(FrameArrays(**columns))
    # and writes the finite ones, where each field's range allows them
    frames = special_valid_frames(n)
    assert first_failure(frame_checks(frames)) is None
    assert_frames_written_or_refused(frames)


def test_write_frames_other_numeric_dtypes_match_json_encoder():
    frames = make_frames(
        300,
        frame_index=np.arange(300, dtype=np.int32),
        quality=np.linspace(0.0, 1.0, 300, dtype=np.float32),
        yaw=np.arange(300, dtype=np.int16),
    )
    assert_written_like_oracle(write_frames, json_write_frames, frames)


@pytest.mark.parametrize("column, value, message", [
    ("quality", np.nan, "gaze_quality outside [0, 1]: nan"),
    ("yaw", np.inf, "head pose angles must be finite"),
    ("timestamp_ms", 0.0, "timestamp_ms 0.0 not strictly increasing (previous 100.0)"),
    ("direction", 0.0, "gaze_direction must have a non-zero length on gaze-tracked frames"),
], ids=["nan_quality", "infinite_yaw", "timestamp_back", "zero_direction"])
def test_write_frames_refuses_a_bad_row_before_opening_the_file(tmp_path, column, value, message):
    frames = make_frames(10)
    getattr(frames, column)[4] = value
    path = tmp_path / "new" / "frames.jsonl"
    with pytest.raises(DataError) as got:
        write_frames(frames, path)
    assert str(got.value) == f"frame file {path} row 5: {message}"
    assert not path.parent.exists()


_BEYOND_INT64 = np.arange(2**63, 2**63 + 3, dtype=np.uint64)


@pytest.mark.parametrize("column, values, message", [
    ("frame_index", np.arange(3.0), "has dtype float64, expected integers"),
    ("frame_index", _BEYOND_INT64, "holds 9223372036854775810, beyond int64"),
    ("face_expr", np.ones(3, dtype=np.int64), "has dtype int64, expected booleans"),
    ("face_gaze", np.ones(3), "has dtype float64, expected booleans"),
    ("yaw", np.ones(3, dtype=bool), "has dtype bool, expected integers or floats"),
], ids=["float_index", "index_beyond_int64", "integer_flag", "float_flag", "boolean_number"])
def test_write_frames_refuses_a_column_its_reader_would_not_read_back(tmp_path, column, values, message):
    path = tmp_path / "new" / "frames.jsonl"
    with pytest.raises(DataError) as got:
        write_frames(make_frames(3, **{column: values}), path)
    assert str(got.value) == f"frame column {column} {message}"
    assert not path.parent.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column, values, message", [
    ("frame_index", np.array([0.5, 1.0, 2.0]), "has dtype float64, expected integers"),
    ("frame_index", np.array([np.nan, 1.0, 2.0]), "has dtype float64, expected integers"),
    ("frame_index", np.array([True, False, True]), "has dtype bool, expected integers"),
    ("frame_index", _BEYOND_INT64, "holds 9223372036854775810, beyond int64"),
    ("target_cm", np.ones((3, 2), dtype=bool), "has dtype bool, expected integers or floats"),
], ids=["half_index", "nan_index", "boolean_index", "index_beyond_int64", "boolean_target"])
def test_write_timeline_refuses_a_column_its_reader_would_not_read_back(tmp_path, column, values, message):
    timeline = fuse(*[np.zeros(3, dtype=bool)] * 5)
    setattr(timeline, column, values)
    path = tmp_path / "new" / "t.jsonl"
    with pytest.raises(DataError) as got:
        write_timeline(timeline, path)
    assert str(got.value) == f"timeline {path}: column {column} {message}"
    assert not path.parent.exists()


def test_write_frames_rejects_misshapen_column(tmp_path):
    frames = make_frames(4, pupil=np.zeros((4, 2)))
    with pytest.raises(DataError, match=r"pupil has shape \(4, 2\), expected \(4, 3\)"):
        write_frames(frames, tmp_path / "f.jsonl")


_ACTIVITIES = ("dot", 'say "hi"', "back\\slash", "caf\u00e9", "line\nbreak", "speak")
_TARGETS = ((-0.0, 0.0), (0.0, 0.0), (0.0, -0.0), (np.nan, np.inf), (-np.inf, 5e-324))


def target_column(targets):
    """The (n, 2) target_cm column of per-row pairs, a NaN row for None."""
    return np.array([(np.nan, np.nan) if t is None else t for t in targets], dtype=np.float64)


def assert_timeline_written_or_refused(timeline):
    """Refused, naming the column, if its frame_index or target_cm has a
    dtype that would not read back equal. Otherwise written as the JSON
    encoder writes it, with the frame_index read back equal, unless a target
    row is neither a finite pair nor all NaN: then refused, naming the first
    such row."""
    targets = timeline.target_cm
    odd = [name for name, types, values in (("frame_index", frozenset({int}), timeline.frame_index),
                                            ("target_cm", frozenset({int, float}), targets))
           if values is not None and not reads_back(types, values)]
    ok = (True if targets is None or odd
          else np.isfinite(targets).all(axis=1) | np.isnan(targets).all(axis=1))
    if np.all(ok) and not odd:
        assert_written_like_oracle(write_timeline, json_write_timeline, timeline)
        with tempfile.TemporaryDirectory() as tmp:
            write_timeline(timeline, Path(tmp) / "t.jsonl")
            read = read_timeline(Path(tmp) / "t.jsonl")
        np.testing.assert_array_equal(read.frame_index, timeline.frame_index.astype(np.int64), strict=True)
        return
    message = (f"column {odd[0]} (has dtype|holds)" if odd
               else f"row {np.argmin(ok) + 1}: target_cm must be a pair of finite numbers or NaN for null")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        with pytest.raises(DataError, match=message):
            write_timeline(timeline, path)
        # the timeline is checked before any row is rendered: no file, and no temp file
        assert list(Path(tmp).iterdir()) == []


@st.composite
def any_timelines(draw):
    n = draw(st.sampled_from(_WRITER_LENGTHS))
    signals = draw(hnp.arrays(np.bool_, (n, len(SIGNAL_NAMES))))
    timeline = fuse(*signals.T)
    # the frame_index and target_cm columns are of their schema's dtypes or, now and then, any
    odd = draw(st.sets(st.sampled_from(("frame_index", "target_cm"))))
    if "frame_index" in odd:
        timeline.frame_index = draw(hnp.arrays(draw(st.sampled_from(_DTYPES)), n))
    else:
        timeline.frame_index = draw(hnp.arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1),
                                               fill=st.sampled_from(_INT64_EXTREMES)))
    if draw(st.booleans()):
        choices = st.sampled_from(_ACTIVITIES) | st.text() | st.none()
        timeline.activity = draw(st.lists(choices, min_size=n, max_size=n))
    if draw(st.booleans()):
        choices = (st.none() | st.sampled_from(_TARGETS)
                   | st.tuples(st.floats(), st.floats()))
        # segments repeat one target over many rows
        runs = draw(st.lists(st.tuples(choices, st.integers(1, 300)), min_size=1))
        targets = [target for target, length in runs for _ in range(length)]
        timeline.target_cm = target_column((targets * n)[:n])
        if "target_cm" in odd:
            timeline.target_cm = draw(hnp.arrays(draw(st.sampled_from(_DTYPES)), (n, 2)))
    return timeline


@settings(max_examples=60, deadline=None)
@given(timeline=any_timelines())
def test_write_timeline_matches_json_encoder_property(timeline):
    assert_timeline_written_or_refused(timeline)


@pytest.mark.parametrize("targets", [None, [None] * 5, list(_TARGETS)],
                         ids=["no_targets", "all_null", "signed_zeros_and_non_finite"])
@pytest.mark.parametrize("activity", [None, list(_ACTIVITIES[1:])], ids=["no_activity", "escapes"])
def test_write_timeline_annotations_match_json_encoder(activity, targets):
    signals = np.eye(5, dtype=bool)
    tl = fuse(*signals.T)
    tl.activity = activity
    tl.target_cm = None if targets is None else target_column(targets)
    assert_timeline_written_or_refused(tl)


def test_write_timeline_refuses_targets_that_are_not_a_column_of_pairs(tmp_path):
    tl = fuse(*[np.zeros(3, dtype=bool)] * 5)
    path = tmp_path / "t.jsonl"
    for targets in ([(1.0, 2.0), None, (3.0, 4.0)], np.zeros((3, 3))):
        tl.target_cm = targets
        with pytest.raises(DataError, match=r"target_cm must be an \(3, 2\) array of numbers"):
            write_timeline(tl, path)
    assert not path.exists()


@pytest.mark.parametrize("bad,dtype", [(32, np.uint8), (-1, np.int64)], ids=["32", "-1"])
def test_write_timeline_refuses_mask_outside_0_to_31(tmp_path, bad, dtype):
    tl = random_timeline(np.random.default_rng(3), 300)
    tl.mask = tl.mask.astype(dtype)
    tl.mask[270] = bad
    path = tmp_path / "t.jsonl"
    with pytest.raises(DataError, match=rf"row 271: mask must be an integer in \[0, 32\), got {bad}"):
        write_timeline(tl, path)
    assert not path.exists()


def test_write_timeline_refuses_activity_that_is_not_a_string(tmp_path):
    tl = fuse(*[np.zeros(300, dtype=bool)] * 5)
    tl.activity = ["dot"] * 300
    tl.activity[280] = None     # null is written as null
    tl.activity[290] = 3
    path = tmp_path / "t.jsonl"
    with pytest.raises(DataError, match="row 291: activity must be a string or null, got 3"):
        write_timeline(tl, path)
    assert not path.exists()


def test_write_timeline_refuses_annotations_of_another_length(tmp_path):
    tl = fuse(*[np.zeros(300, dtype=bool)] * 5)
    tl.activity = ["dot"] * 299
    path = tmp_path / "t.jsonl"
    with pytest.raises(DataError, match="columns of mismatched shapes"):
        write_timeline(tl, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# every writer lands its file whole
# ---------------------------------------------------------------------------

def fail_on_call(monkeypatch, owner, name: str, call: int, directory: Path) -> None:
    """Make ``owner.name`` raise on its ``call``-th call (1-based), which must
    come while the writer's temp file exists in ``directory``."""
    real = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            assert list(directory.glob(".*.tmp")), "rendering outside the temp file"
            raise RuntimeError("rendering failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


def assert_lands_whole(tmp_path: Path, failing_write) -> None:
    """``failing_write(path)`` fails part way: the file it replaces is
    unchanged, a new one is not created, and no temp file remains."""
    old = tmp_path / "old.out"
    old.write_text("previous\n", encoding="utf-8")
    new = tmp_path / "new" / "new.out"
    for path in (old, new):
        with pytest.raises((RuntimeError, UnicodeEncodeError)):
            failing_write(path)
    assert old.read_text(encoding="utf-8") == "previous\n"
    assert not new.exists()
    assert list(tmp_path.rglob(".*.tmp")) == []


_TWO_BLOCKS = 2 * _BLOCK_ROWS
_MANIFEST = SessionManifest(session_id="s", device_type="desktop", frame_rate_hz=30.0, frame_source="f.jsonl")

# writer: (write, renderer's owner and name, the call of it that fails: the
# first of the second block, or of the only one)
LANDING_WRITERS = {
    "write_frames": (lambda path: write_frames(make_frames(_TWO_BLOCKS), path),
                     session_io, "_row_texts", len(_FRAME_SCHEMA) + 1),
    "write_timeline": (lambda path: write_timeline(fuse(*np.zeros((5, _TWO_BLOCKS), dtype=bool)), path),
                       session_io, "_json_texts", 2),       # one call a block, for frame_index
    "write_manifest": (lambda path: write_manifest(_MANIFEST, path), session_io.json, "dumps", 1),
}


@pytest.mark.parametrize("writer", sorted(LANDING_WRITERS))
def test_a_writer_whose_rendering_fails_leaves_the_old_file_or_none(tmp_path, monkeypatch, writer):
    write, owner, renderer, call = LANDING_WRITERS[writer]

    def failing_write(path):
        with monkeypatch.context() as mp:
            fail_on_call(mp, owner, renderer, call, path.parent)
            write(path)

    assert_lands_whole(tmp_path, failing_write)
    write(tmp_path / "new" / "new.out")     # the same write, unbroken, lands
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["new", "new.out", "old.out"]


def test_write_artifact_whose_text_cannot_be_encoded_leaves_the_old_file_or_none(tmp_path):
    # a lone surrogate has no UTF-8 encoding, so the write fails in the open temp file
    assert_lands_whole(tmp_path, lambda path: write_artifact("{}\n" * 50_000 + "\ud800", path))
