import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from adwatch.errors import ConfigError
from adwatch.geometry import intersect_gaze_batch
from adwatch.records import ORIENTATIONS, SuiteEntry, first_failure, frame_checks
from adwatch.session_io import load_frames, load_manifest, load_suite, read_timeline
from adwatch.synth import (
    LIZARD_HEAD_MIX,
    OFF_DIRECTIONS,
    OWL_HEAD_MIX,
    SEGMENT_KINDS,
    ScenarioScript,
    Segment,
    SuiteConfig,
    _write_session,
    build_suite_scripts,
    generate,
    generate_suite,
    load_script,
    script_world,
    validate_script,
)
from adwatch.training import load_suite_sessions


def simple_script(**overrides):
    segments = [
        Segment("dot_at", 0.0, 4.0, dot=(0.0, 0.0)),
        Segment("off_screen", 4.0, 2.0, direction="left"),
        Segment("leave", 6.0, 2.0),
    ]
    base = dict(
        seed=3, device_type="desktop", duration_s=8.0, segments=segments,
        gaze_noise_deg=0.0, landmark_jitter=0.0, gaze_scale=1.0,
        viewing_distance_cm=60.0,
    )
    base.update(overrides)
    return ScenarioScript(**base)


def test_center_dot_reintersection_recovers_target():
    script = simple_script(segments=[Segment("dot_at", 0.0, 5.0, dot=(0.3, -0.4))],
                           duration_s=5.0)
    frames, truth = generate(script)
    assert truth.attentive.all()
    pts, _, toward, _ = intersect_gaze_batch(frames.pupil, frames.direction)
    assert toward.all()
    _, _, camera, _ = script_world(script)
    targets = truth.target_cm
    assert np.abs((pts + camera) - targets).max() <= 1e-6


def test_off_screen_reintersection_recovers_target():
    script = simple_script()
    frames, truth = generate(script)
    live = frames.face_gaze
    pts, _, _, _ = intersect_gaze_batch(frames.pupil[live], frames.direction[live])
    _, _, camera, _ = script_world(script)
    targets = truth.target_cm[live]
    # the rows where the participant is away have no target
    assert np.isnan(truth.target_cm[~live]).all() and not np.isnan(targets).any()
    assert np.abs((pts + camera) - targets).max() <= 1e-6


def test_generated_frames_satisfy_invariants():
    script = simple_script(gaze_noise_deg=0.8, landmark_jitter=0.01, gaze_scale=1.12)
    frames, _ = generate(script)
    assert first_failure(frame_checks(frames)) is None
    assert np.all(np.diff(frames.timestamp_ms) > 0)


def test_pure_lizard_keeps_head_still():
    script = simple_script(behavior_mix=0.0, gaze_noise_deg=0.8)
    frames, truth = generate(script)
    off = np.array([a.startswith("off_screen") for a in truth.activity])
    dots = np.array([a == "dot" for a in truth.activity])
    baseline = frames.yaw[dots].mean()
    assert np.abs(frames.yaw[off] - baseline).max() <= 3.0
    assert (~truth.attentive[off]).all()


def test_owl_moves_head():
    script = simple_script(behavior_mix=0.85)
    frames, truth = generate(script)
    off = np.array([a.startswith("off_screen") for a in truth.activity])
    dots = np.array([a == "dot" for a in truth.activity])
    assert np.abs(frames.yaw[off] - frames.yaw[dots].mean()).min() > 15.0


def test_leave_marks_unattended_exactly():
    script = simple_script()
    frames, truth = generate(script)
    leave = np.array([a == "leave" for a in truth.activity])
    # 2 s leave > 1 s rule: every leave frame unattended, nothing else
    assert np.array_equal(truth.signal("unattended"), leave)
    assert not frames.face_expr[leave].any()
    assert not frames.face_gaze[leave].any()
    # sub-second occlusion stays attentive
    script2 = simple_script(segments=[
        Segment("dot_at", 0.0, 4.0, dot=(0.0, 0.0)),
        Segment("leave", 4.0, 0.9),
        Segment("dot_at", 4.9, 2.0, dot=(0.0, 0.0)),
    ], duration_s=6.9)
    _, truth2 = generate(script2)
    assert truth2.attentive.all()


def test_ground_truth_segment_alignment_is_exact():
    script = simple_script()
    frames, truth = generate(script)
    fps = script.frame_rate_hz
    for seg in script.segments:
        i0 = int(round(seg.start_s * fps))
        i1 = int(round(seg.end_s * fps))
        acts = set(truth.activity[i0:i1])
        if seg.kind == "off_screen":
            assert acts == {f"off_screen_{seg.direction}"}
        elif seg.kind == "dot_at":
            assert acts == {"dot"}
        elif seg.kind == "leave":
            assert acts == {"leave"}


def test_determinism_same_seed_same_arrays():
    script = simple_script(gaze_noise_deg=0.8, landmark_jitter=0.01)
    f1, t1 = generate(script)
    f2, t2 = generate(script)
    assert np.array_equal(f1.direction, f2.direction)
    assert np.array_equal(f1.mouth, f2.mouth)
    assert t1 == t2


def test_suite_files_byte_identical_across_runs(tmp_path):
    cfg = SuiteConfig(seed=7, n_sessions=3, template="mini", device="mixed")
    a, b = tmp_path / "a", tmp_path / "b"
    generate_suite(cfg, a)
    generate_suite(cfg, b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_suite_sessions_loadable(tmp_path):
    cfg = SuiteConfig(seed=1, n_sessions=5, template="mini", device="mixed")
    entries = generate_suite(cfg, tmp_path)
    assert len(entries) == 5
    loaded = load_suite(tmp_path)
    assert [e.session_id for e in loaded] == [e.session_id for e in entries]
    for entry in loaded:
        manifest = load_manifest(tmp_path / entry.manifest_path)
        frames = load_frames((tmp_path / entry.manifest_path).parent / manifest.frame_source)
        truth = read_timeline((tmp_path / entry.manifest_path).parent / manifest.ground_truth)
        assert len(frames) == len(truth)


def test_yawn_prevalence_configurable():
    cfg = SuiteConfig(seed=3, n_sessions=6, template="full", device="desktop",
                      yawn_prevalence=0.026)
    active = total = 0
    for _, script, _ in build_suite_scripts(cfg):
        _, truth = generate(script)
        active += sum(a == "yawn_active" for a in truth.activity)
        total += len(truth)
    prevalence = active / total
    assert prevalence == pytest.approx(0.026, abs=0.006)


def test_overlapping_segments_rejected_with_indices():
    segments = [
        Segment("dot_at", 0.0, 4.0, dot=(0.0, 0.0)),
        Segment("speak", 3.0, 2.0),
    ]
    script = simple_script(segments=segments, duration_s=5.0)
    with pytest.raises(ConfigError, match="overlapping segments 0 and 1"):
        validate_script(script)


def test_gap_between_segments_rejected():
    segments = [
        Segment("dot_at", 0.0, 2.0, dot=(0.0, 0.0)),
        Segment("speak", 3.0, 2.0),
    ]
    script = simple_script(segments=segments, duration_s=5.0)
    with pytest.raises(ConfigError, match="gap"):
        validate_script(script)


def test_script_field_validation():
    with pytest.raises(ConfigError, match="direction"):
        validate_script(simple_script(segments=[Segment("off_screen", 0.0, 8.0)]))
    with pytest.raises(ConfigError, match="dot"):
        validate_script(simple_script(segments=[Segment("dot_at", 0.0, 8.0)]))
    with pytest.raises(ConfigError, match="segments must be a non-empty list"):
        validate_script(simple_script(segments=[]))


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_seed_that_numpy_cannot_take_is_a_config_error(tmp_path, seed):
    with pytest.raises(ConfigError, match="seed"):
        validate_script(simple_script(seed=seed))
    with pytest.raises(ConfigError, match="seed"):
        generate_suite(SuiteConfig(seed=seed, n_sessions=1, template="mini"), tmp_path / "suite")
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("field, value, message", [
    ("template", "huge", "template must be one of ['full', 'gaze_only', 'mini'], got \"huge\""),
    ("device", "tablet", "device must be one of ['desktop', 'mobile', 'mixed']"),
    ("train_fraction", 1.5, "train_fraction must be a finite number in [0, 1], got 1.5"),
    ("camera_offset_max_cm", 150.0, "camera_offset_max_cm must be a finite number in [0, 100]"),
    ("yawn_prevalence", 0.7, "yawn_prevalence must be a finite number in (0, 0.7) or null, got 0.7"),
    ("yawn_prevalence", float("nan"), "yawn_prevalence must be a finite number in (0, 0.7) or null, got NaN"),
])
@pytest.mark.parametrize("template", ["full", "mini"])
def test_suite_config_field_out_of_its_rule_is_a_config_error(tmp_path, field, value, message, template):
    config = SuiteConfig(seed=1, n_sessions=1, **{"template": template, field: value})
    with pytest.raises(ConfigError, match=f"^suite config: {re.escape(message)}"):
        generate_suite(config, tmp_path / "suite")
    assert not (tmp_path / "suite").exists()


def test_script_file_round_trip(tmp_path):
    script = simple_script(gaze_noise_deg=0.4)
    path = tmp_path / "script.json"
    doc = dataclasses.asdict(script)
    doc["segments"] = [
        {k: v for k, v in dataclasses.asdict(s).items() if v is not None}
        for s in script.segments
    ]
    path.write_text(json.dumps(doc))
    loaded = load_script(path)
    assert loaded == script


def test_orientation_feature_offsets():
    for orientation, gaze_sign, face_low in (
        ("clockwise", -1.0, True), ("anticlockwise", 1.0, False)
    ):
        script = simple_script(
            device_type="mobile", orientation=orientation, viewing_distance_cm=30.0,
            segments=[Segment("dot_at", 0.0, 8.0, dot=(0.0, 0.0))],
        )
        frames, _ = generate(script)
        pts, _, _, _ = intersect_gaze_batch(frames.pupil, frames.direction)
        assert np.sign(pts[:, 0].mean()) == gaze_sign
        assert abs(pts[:, 0].mean()) > 4.0
        if face_low:
            assert frames.face_center_x.mean() < 0.35
        else:
            assert frames.face_center_x.mean() > 0.65


def test_camera_offset_translates_intersections_only():
    script = simple_script(gaze_noise_deg=0.8, landmark_jitter=0.01, gaze_scale=1.12)
    offset_script = dataclasses.replace(script, camera_offset_cm=(6.0, -3.0))
    f0, t0 = generate(script)
    f1, t1 = generate(offset_script)
    live = f0.face_gaze
    # directions and pupil depth identical; lateral pupil shifted by -offset
    assert np.array_equal(f0.direction, f1.direction)
    assert np.array_equal(f0.pupil[:, 2], f1.pupil[:, 2])
    assert np.allclose(f1.pupil[live, 0] - f0.pupil[live, 0], -6.0)
    assert np.allclose(f1.pupil[live, 1] - f0.pupil[live, 1], 3.0)
    p0, _, _, _ = intersect_gaze_batch(f0.pupil[live], f0.direction[live])
    p1, _, _, _ = intersect_gaze_batch(f1.pupil[live], f1.direction[live])
    assert np.allclose(p1 - p0, [-6.0, 3.0], atol=1e-9)
    assert t0 == t1


# ---------------------------------------------------------------------------
# every script validate_script accepts writes files every loader accepts
# ---------------------------------------------------------------------------

def _reals(low, high, **kwargs):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def small_scripts(draw):
    """Scripts of up to four segments and about 2 s, every other field drawn
    from the whole range ``validate_script`` accepts, its ends included."""
    segments, t = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(SEGMENT_KINDS))
        duration = draw(_reals(0.0, 0.5, exclude_min=True))
        pair = st.tuples(_reals(-10, 10), _reals(-10, 10))
        dot = draw(pair if kind == "dot_at" else st.none() | pair)
        direction = st.sampled_from(OFF_DIRECTIONS)
        segments.append(Segment(kind, t, duration, dot=dot,
                                direction=draw(direction if kind == "off_screen" else st.none() | direction)))
        t += duration
    return ScenarioScript(
        seed=draw(st.integers(0, 2**64)),
        device_type=draw(st.sampled_from(("desktop", "mobile"))),
        duration_s=t,
        segments=segments,
        camera_offset_cm=draw(st.tuples(_reals(-100, 100), _reals(-100, 100))),
        orientation=draw(st.sampled_from(ORIENTATIONS)),
        behavior_mix=draw(_reals(0, 1)),
        gaze_noise_deg=draw(_reals(0, 180)),
        landmark_jitter=draw(_reals(0, 1)),
        gaze_scale=draw(_reals(0, 10, exclude_min=True)),
        viewing_distance_cm=draw(st.none() | _reals(1, 1000)),
        frame_rate_hz=draw(_reals(5, 120)),
    )


@settings(max_examples=60, deadline=None)
@given(
    config=st.builds(
        SuiteConfig,
        seed=st.integers(0, 2**64),
        n_sessions=st.integers(1, 4),
        template=st.sampled_from(("full", "gaze_only", "mini")),
        device=st.sampled_from(("desktop", "mobile", "mixed")),
        train_fraction=_reals(0, 1),
        camera_offset_max_cm=_reals(0, 100),
        yawn_prevalence=st.none() | _reals(0, 0.7, exclude_min=True, exclude_max=True),
    )
)
def test_every_suite_config_within_its_rules_builds_valid_scripts(config):
    # the tracker's noise, jitter, magnification and rate are the script's
    # own defaults, and each session is an owl or a lizard
    tracker = {f.name: f.default for f in dataclasses.fields(ScenarioScript)
               if f.name in ("gaze_noise_deg", "landmark_jitter", "gaze_scale", "frame_rate_hz")}
    scripts = build_suite_scripts(config)
    assert len(scripts) == config.n_sessions
    for _, script, _ in scripts:
        validate_script(script)
        assert script.behavior_mix in (OWL_HEAD_MIX, LIZARD_HEAD_MIX)
        assert {name: getattr(script, name) for name in tracker} == tracker
    splits = [split for _, _, split in scripts]
    assert splits.count("train") == round(config.train_fraction * config.n_sessions)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=small_scripts())
def test_every_accepted_script_writes_files_every_loader_accepts(script):
    try:
        validate_script(script)
    except ConfigError:
        # the draws meet every field rule; only a script of less than one
        # frame is refused
        assert round(script.duration_s * script.frame_rate_hz) < 1
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_session(script, "s000", root / "sessions" / "s000")
        entry = SuiteEntry("s000", script.device_type, "sessions/s000/manifest.json", "held_out",
                           script.orientation)
        (root / "suite.json").write_text(json.dumps({"seed": 0, "sessions": [dataclasses.asdict(entry)]}))
        assert load_suite(root) == [entry]
        manifest = load_manifest(root / entry.manifest_path)
        assert manifest.frame_rate_hz == script.frame_rate_hz
        frames = load_frames(root / "sessions" / "s000" / manifest.frame_source)
        truth = read_timeline(root / "sessions" / "s000" / manifest.ground_truth)
        assert len(frames) == len(truth) == round(script.duration_s * script.frame_rate_hz)
        [(_, _, loaded)] = load_suite_sessions(root, split="held_out")
        assert loaded == manifest
