import json
import re
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.errors import DataError, SessionFormatError
from adwatch.fusion import SIGNAL_NAMES, DistractionTimeline, fuse
from adwatch.records import AU_NAMES, FrameArrays, SessionManifest
from adwatch.session_io import (
    _FRAME_SCHEMA,
    load_frames,
    load_manifest,
    load_session,
    read_timeline,
    write_frames,
    write_manifest,
    write_timeline,
)
from oracles import json_write_frames, json_write_timeline, read_timeline_rows


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


@st.composite
def valid_frames(draw):
    n = draw(st.integers(1, 12))

    def column(elements, shape=()):
        return draw(hnp.arrays(np.float64, (n, *shape), elements=elements))

    def ascending(dtype, elements):
        return np.sort(draw(hnp.arrays(dtype, n, elements=elements, unique=True)))

    pupil = column(_finite(), (3,))
    return FrameArrays(
        frame_index=ascending(np.int64, st.integers(0, 2**63 - 1)),
        timestamp_ms=ascending(np.float64, _finite(min_value=0.0)),
        pupil=pupil,
        direction=column(_finite(), (3,)),
        quality=column(_finite(min_value=0.0, max_value=1.0)),
        yaw=column(_finite()),
        pitch=column(_finite()),
        roll=column(_finite()),
        mouth=column(_finite(), (4, 2)),
        aus=column(_finite(min_value=0.0, max_value=100.0), (len(AU_NAMES),)),
        eye_closure=column(_finite(min_value=0.0, max_value=100.0)),
        face_expr=draw(hnp.arrays(np.bool_, n)),
        # a gaze-tracked frame needs pupil z > 0; others keep any sentinel
        face_gaze=draw(hnp.arrays(np.bool_, n)) & (pupil[:, 2] > 0),
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
    pytest.param("eye_closure", None, "eye_closure outside", id="null_real"),
    pytest.param("face_detected_gaze", "false", "must be a boolean", id="string_flag"),
    pytest.param("face_detected_expr", 1, "must be a boolean", id="integer_flag"),
    pytest.param("frame_index", 4.9, "must be an integer", id="fractional_index"),
    pytest.param("frame_index", True, "must be an integer", id="boolean_index"),
    pytest.param("frame_index", 3, "frame_index 3 not strictly increasing", id="duplicate_index"),
    pytest.param("frame_index", 2, "frame_index 2 not strictly increasing", id="out_of_order_index"),
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


def test_non_monotonic_timestamps_rejected(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames(make_frames(2, timestamp_ms=np.zeros(2)), path)
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
    tl.target_cm = [(1.0, -2.0), (0.0, 0.0), None]
    path = tmp_path / "t.jsonl"
    write_timeline(tl, path)
    loaded = read_timeline(path)
    assert loaded.activity == tl.activity
    assert loaded.target_cm == tl.target_cm


def test_timeline_annotations_share_equal_values_exactly(tmp_path):
    tl = fuse(*[np.zeros(5, dtype=bool)] * 5)
    tl.activity = ["dot", "dot", "dot", "speak", "dot"]
    tl.target_cm = [(0.0, 1.5), (0.0, 1.5), (-0.0, 1.5), None, (0.0, 1.5)]
    path = tmp_path / "t.jsonl"
    write_timeline(tl, path)
    loaded = read_timeline(path)
    assert loaded.activity == tl.activity
    assert loaded.target_cm == tl.target_cm
    # one object per distinct value; -0.0 keeps its sign and its own tuple
    assert loaded.activity[0] is loaded.activity[4]
    assert loaded.target_cm[0] is loaded.target_cm[1] is loaded.target_cm[4]
    assert np.signbit(loaded.target_cm[2][0]) and not np.signbit(loaded.target_cm[0][0])


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
        assert [None if t is None else tuple(map(float.hex, t)) for t in tl.target_cm] == [
            None if t is None else tuple(map(float.hex, t)) for t in target
        ]


def test_timeline_checks_and_sharing_span_blocks(tmp_path):
    lines = [GOOD_ROW % i for i in range(600)]      # longer than one checked block
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    loaded = read_timeline(path)
    assert loaded.frame_index.tolist() == list(range(600))
    assert loaded.target_cm[0] is loaded.target_cm[599]
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
    """Frame columns of the schema's dtypes holding any values, valid or not."""
    n = draw(st.sampled_from(_WRITER_LENGTHS))

    def floats(*shape):
        return draw(hnp.arrays(np.float64, (n, *shape),
                               elements=st.floats() | st.sampled_from(_SPECIAL_FLOATS),
                               fill=st.sampled_from(_SPECIAL_FLOATS)))

    return FrameArrays(
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


@settings(max_examples=40, deadline=None)
@given(frames=any_frames())
def test_write_frames_matches_json_encoder_property(frames):
    assert_written_like_oracle(write_frames, json_write_frames, frames)


@pytest.mark.parametrize("n", _WRITER_LENGTHS)
def test_write_frames_special_values_in_every_field(n):
    # every float field holds every special value somewhere, shifted per field
    columns = {}
    for k, (_, column, dtype, shape, _) in enumerate(_FRAME_SCHEMA):
        size = n * int(np.prod(shape, dtype=int))
        if dtype is np.int64:
            values = np.resize(np.array(_INT64_EXTREMES, dtype=np.int64), size)
        elif dtype is np.bool_:
            values = np.arange(size) % 2 == 0
        else:
            values = np.roll(np.resize(np.array(_SPECIAL_FLOATS + (0.1, -2.5e-7)), size), k)
        columns[column] = values.reshape(n, *shape)
    assert_written_like_oracle(write_frames, json_write_frames, FrameArrays(**columns))


def test_write_frames_other_numeric_dtypes_match_json_encoder():
    frames = make_frames(
        300,
        frame_index=np.arange(300, dtype=np.int32),
        quality=np.linspace(0.0, 1.0, 300, dtype=np.float32),
        yaw=np.arange(300, dtype=np.int16),
    )
    assert_written_like_oracle(write_frames, json_write_frames, frames)


def test_write_frames_rejects_misshapen_column(tmp_path):
    frames = make_frames(4, pupil=np.zeros((4, 2)))
    with pytest.raises(DataError, match=r"pupil has shape \(4, 2\), expected \(4, 3\)"):
        write_frames(frames, tmp_path / "f.jsonl")


_ACTIVITIES = ("dot", 'say "hi"', "back\\slash", "caf\u00e9", "line\nbreak", "speak")
_TARGETS = ((-0.0, 0.0), (0.0, 0.0), (0.0, -0.0), (np.nan, np.inf), (-np.inf, 5e-324))


@st.composite
def any_timelines(draw):
    n = draw(st.sampled_from(_WRITER_LENGTHS))
    signals = draw(hnp.arrays(np.bool_, (n, len(SIGNAL_NAMES))))
    timeline = fuse(*signals.T, frame_index=draw(hnp.arrays(
        np.int64, n, elements=st.integers(-(2**63), 2**63 - 1),
        fill=st.sampled_from(_INT64_EXTREMES))))
    if draw(st.booleans()):
        choices = st.sampled_from(_ACTIVITIES) | st.text() | st.none()
        timeline.activity = draw(st.lists(choices, min_size=n, max_size=n))
    if draw(st.booleans()):
        choices = (st.none() | st.sampled_from(_TARGETS)
                   | st.tuples(st.floats(), st.floats()))
        # segments repeat one target over many rows
        runs = draw(st.lists(st.tuples(choices, st.integers(1, 300)), min_size=1))
        targets = [target for target, length in runs for _ in range(length)]
        timeline.target_cm = (targets * n)[:n]
    return timeline


@settings(max_examples=60, deadline=None)
@given(timeline=any_timelines())
def test_write_timeline_matches_json_encoder_property(timeline):
    assert_written_like_oracle(write_timeline, json_write_timeline, timeline)


@pytest.mark.parametrize("targets", [None, [None] * 5, list(_TARGETS)],
                         ids=["no_targets", "all_null", "signed_zeros_and_non_finite"])
@pytest.mark.parametrize("activity", [None, list(_ACTIVITIES[1:])], ids=["no_activity", "escapes"])
def test_write_timeline_annotations_match_json_encoder(activity, targets):
    signals = np.eye(5, dtype=bool)
    tl = fuse(*signals.T)
    tl.activity, tl.target_cm = activity, targets
    assert_written_like_oracle(write_timeline, json_write_timeline, tl)


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
