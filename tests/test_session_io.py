import json
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
    load_frames,
    load_manifest,
    load_session,
    read_timeline,
    write_frames,
    write_manifest,
    write_timeline,
)


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
        signals=np.zeros((0, 5), dtype=bool),
        attentive=np.zeros(0, dtype=bool),
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
