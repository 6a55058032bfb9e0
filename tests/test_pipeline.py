import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch import artifacts as artifacts_io
from adwatch import evaluation, gaze, geometry, pipeline
from adwatch.errors import DataError, MissingArtifactError
from adwatch.fusion import SIGNAL_NAMES, signal_bits
from adwatch.gaze import Orientation
from adwatch.pipeline import (
    TABLE1_VARIANTS,
    TABLE3_VARIANTS,
    ArtifactSet,
    PipelineVariant,
    SessionDetectors,
    score_session,
)
from adwatch.evaluation import frame_metrics, run_ablation
from adwatch.records import SessionManifest
from adwatch.synth import ScenarioScript, Segment, generate

from oracles import intersect_gaze


def test_clean_session_scores_close_to_truth(heldout_sessions, artifacts, config):
    frames, truth, manifest = heldout_sessions[0]
    timeline = score_session(SessionDetectors(frames, manifest, artifacts, config))
    assert len(timeline) == len(frames)
    rep = frame_metrics(~timeline.attentive, ~truth.attentive)
    assert rep["g_mean"] > 0.9


# every config field the session clock times; the speaking model's window
# span is the other duration
CLOCKED_FIELDS = ("speaking_min_event_s", "closure_min_event_s", "unattended_min_s", "yawn_smooth_s")


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-2, 2), index=st.integers(0, 7))
def test_scaling_the_clock_changes_no_label(heldout_sessions, artifacts, config, k, index):
    # timestamps and durations times 2**k over a rate times 2**-k is the same
    # session on a slower or faster clock; powers of two scale floats exactly
    frames, _, manifest = heldout_sessions[index]
    scale = 2.0 ** k
    speaking = artifacts.speaking
    lip = dataclasses.replace(speaking.windows, span_s=speaking.windows.span_s * scale)
    scaled = SessionDetectors(
        dataclasses.replace(frames, timestamp_ms=frames.timestamp_ms * scale),
        dataclasses.replace(manifest, frame_rate_hz=manifest.frame_rate_hz / scale),
        dataclasses.replace(artifacts, speaking=dataclasses.replace(speaking, windows=lip)),
        dataclasses.replace(config, **{name: getattr(config, name) * scale for name in CLOCKED_FIELDS}),
    )
    expected = score_session(SessionDetectors(frames, manifest, artifacts, config))
    assert score_session(scaled) == expected


def test_gaze_source_exclusive_per_frame(heldout_sessions, artifacts, config):
    for frames, _, manifest in heldout_sessions:
        timeline = score_session(SessionDetectors(frames, manifest, artifacts, config))
        both = timeline.signal("gaze_eye") & timeline.signal("gaze_head")
        assert not both.any()


def test_all_no_face_session_is_unattended(artifacts, config):
    script = ScenarioScript(
        seed=1, device_type="desktop", duration_s=5.0,
        segments=[Segment("leave", 0.0, 5.0)],
    )
    frames, _ = generate(script)
    manifest = SessionManifest("gone", "desktop", 30.0, "f")
    timeline = score_session(SessionDetectors(frames, manifest, artifacts, config))
    assert not timeline.attentive.any()
    assert timeline.signal("unattended").all()
    assert timeline.mask.max() == 0b10000


def test_untrackable_gaze_stream_leaves_every_tracked_frame_to_the_head(artifacts, config):
    script = ScenarioScript(
        seed=3, device_type="desktop", duration_s=6.0,
        segments=[Segment("dot_at", 0.0, 3.0, dot=(0.0, 0.0)),
                  Segment("off_screen", 3.0, 3.0, direction="left")],
    )
    frames, _ = generate(script)
    frames.direction = frames.direction.copy()
    frames.direction[:, 2] = np.abs(frames.direction[:, 2]) + 0.1   # every ray looks away
    session = SessionDetectors(frames, SessionManifest("away", "desktop", 30.0, "f"),
                               artifacts, config)
    assert frames.face_gaze.any() and session.stats() is None
    assert not session.eye_path().any()
    timeline = score_session(session)
    without_eye = score_session(
        session, PipelineVariant(name="no eye", signals=frozenset(SIGNAL_NAMES) - {"gaze_eye"})
    )
    assert (session.orientation(), session.screen(True), session.screen(False)) == (
        Orientation.CENTERED, None, None)
    assert not timeline.signal("gaze_eye").any()
    head = timeline.signal("gaze_head")
    assert head.any() and np.array_equal(head, without_eye.signal("gaze_head"))


def untrackable(frames, how, amount, quality_floor):
    """``frames`` with no gaze ray the stats can use: every ``gaze_quality``
    scaled below ``quality_floor``, or every ray turned away from the plane."""
    if how == "quality":
        return dataclasses.replace(frames, quality=frames.quality * amount * quality_floor)
    direction = frames.direction.copy()
    direction[:, 2] = np.abs(direction[:, 2]) + amount
    return dataclasses.replace(frames, direction=direction)


@settings(max_examples=12, deadline=None)
@given(index=st.integers(0, 7), how=st.sampled_from(["quality", "away"]),
       amount=st.floats(0.0, 1.0, exclude_max=True))
def test_an_untrackable_stream_leaves_the_gaze_to_the_head_and_every_other_signal_as_it_was(
        heldout_sessions, artifacts, config, index, how, amount):
    frames, _, manifest = heldout_sessions[index]
    original = SessionDetectors(frames, manifest, artifacts, config)
    session = SessionDetectors(untrackable(frames, how, amount, artifacts.gaze.min_quality), manifest,
                               artifacts, config)
    assert session.stats() is None and original.stats() is not None
    assert session.orientation() is Orientation.CENTERED
    timeline, before = score_session(session), score_session(original)
    assert not timeline.signal("gaze_eye").any()
    assert np.array_equal(timeline.signal("gaze_head"), original.head_gaze(False))
    for name in ("speaking", "drowsiness", "unattended"):
        assert np.array_equal(timeline.signal(name), before.signal(name)), name


def test_variant_switches_disable_signals(heldout_sessions, artifacts, config):
    head_only = PipelineVariant(name="head", signals=frozenset({"gaze_head"}))
    head_takes_eye_frames = False
    for frames, _, manifest in heldout_sessions:
        session = SessionDetectors(frames, manifest, artifacts, config)
        tl = score_session(session, head_only)
        assert not tl.signal("gaze_eye").any()
        assert not tl.signal("speaking").any()
        assert not tl.signal("drowsiness").any()
        assert not tl.signal("unattended").any()
        # without the eye gaze, the head pose scores every tracked frame
        assert np.array_equal(tl.signal("gaze_head"), session.head_gaze(False))
        head_takes_eye_frames |= not np.array_equal(session.head_gaze(False), session.head_gaze(True))
    assert head_takes_eye_frames


def test_signal_rows_are_the_full_mask_and_their_bits(heldout_sessions, artifacts, config):
    # every Table 3 row but "head model only", whose head pose also scores the
    # frames the eye path would take, keeps bits of the full model's mask
    rows = [v for v in TABLE3_VARIANTS if "gaze_eye" in v.signals]
    assert [v.name for v in TABLE3_VARIANTS if v not in rows] == ["head model only"]
    for frames, _, manifest in heldout_sessions:
        full = score_session(SessionDetectors(frames, manifest, artifacts, config))
        for variant in rows:
            # a fresh session: nothing is shared with the full model's scoring
            session = SessionDetectors(frames, manifest, artifacts, config)
            mask = score_session(session, variant).mask
            expected = full.mask & signal_bits(variant.signals)
            assert np.array_equal(mask, expected), (manifest.session_id, variant.name)
        assert full.mask.any(), manifest.session_id


def test_signal_bits_follow_the_signal_order():
    assert [signal_bits([name]) for name in SIGNAL_NAMES] == [1, 2, 4, 8, 16]
    assert signal_bits(SIGNAL_NAMES) == 0b11111
    assert signal_bits(["speaking", "speaking"]) == signal_bits(["speaking"]) == 4
    assert signal_bits([]) == 0
    with pytest.raises(DataError, match="gaze"):
        signal_bits(["gaze"])


def test_screen_override_is_used(artifacts, config):
    script = ScenarioScript(
        seed=2, device_type="desktop", duration_s=6.0,
        segments=[Segment("dot_at", 0.0, 6.0, dot=(0.0, 0.0))],
        gaze_noise_deg=0.0, gaze_scale=1.0, viewing_distance_cm=60.0,
    )
    frames, _ = generate(script)
    manifest = SessionManifest("s", "desktop", 30.0, "f", screen_override_cm=(100.0, 100.0))
    assert SessionDetectors(frames, manifest, artifacts, config).screen(True).width_cm == 100.0


def test_artifact_set_load_missing_names_files(tmp_path):
    with pytest.raises(MissingArtifactError, match="gaze_regressors.json"):
        ArtifactSet.load(tmp_path)


def test_shared_artifact_set_matches_a_fresh_load_per_session(
    heldout_sessions, artifacts, config, tmp_path
):
    # adwatch score loads once per command; no detector may change a model it shares
    artifacts_io.save_gaze_regressors(artifacts.gaze, {}, tmp_path / artifacts_io.GAZE_ARTIFACT)
    artifacts_io.save_speaking_cnn(artifacts.speaking, {}, tmp_path / artifacts_io.SPEAKING_ARTIFACT)
    artifacts_io.save_yawn_classifier(artifacts.yawn, {}, tmp_path / artifacts_io.YAWN_ARTIFACT)
    assert {m.device_type for _, _, m in heldout_sessions} == {"desktop", "mobile"}
    shared = ArtifactSet.load(tmp_path)
    for frames, _, manifest in heldout_sessions:
        kept = SessionDetectors(frames, manifest, shared, config)
        fresh = SessionDetectors(frames, manifest, ArtifactSet.load(tmp_path), config)
        assert score_session(kept) == score_session(fresh), manifest.session_id
        assert kept.orientation() is fresh.orientation(), manifest.session_id
        assert kept.screen(True) == fresh.screen(True), manifest.session_id
        assert kept.stats() == fresh.stats(), manifest.session_id


ABLATE_ORDER = TABLE1_VARIANTS + TABLE3_VARIANTS


def test_shared_session_matches_fresh_session_scoring(heldout_sessions, artifacts, config):
    for frames, _, manifest in heldout_sessions:
        session = SessionDetectors(frames, manifest, artifacts, config)
        for variant in ABLATE_ORDER:
            alone = SessionDetectors(frames, manifest, artifacts, config)
            assert score_session(session, variant) == score_session(alone, variant), variant.name
            assert session.orientation() is alone.orientation(), variant.name
            assert session.screen(variant.screen_size) == alone.screen(variant.screen_size), variant.name
            assert session.stats() == alone.stats(), variant.name
        cached = [
            *session.rays(), session.eye_path(), session.corrected_points(True, True),
            session.eye_gaze(True, True, True), session.head_gaze(True), session.head_gaze(False),
            session.speaking(), session.drowsiness(), session.unattended(),
        ]
        assert not any(a.flags.writeable for a in cached)
        # every step's array is a column of the session's frames
        assert all(len(a) == len(frames) for a in cached)


def with_missing_rays(frames):
    """``frames`` with every 11th gaze ray turned away from the plane and
    every 13th parallel to it."""
    direction = frames.direction.copy()
    direction[::11, 2] = np.abs(direction[::11, 2]) + 0.1
    direction[::13, 2] = 0.0
    return dataclasses.replace(frames, direction=direction)


def scalar_gaze_points(frames, quality_floor):
    """Frame by frame: the scalar intersection of each valid frame's ray, for
    a ray that meets the plane in front of the viewer at finite coordinates."""
    hits = {}
    for i in range(len(frames)):
        if frames.face_gaze[i] and frames.quality[i] >= quality_floor:
            x, y, _, status = intersect_gaze(frames.pupil[i], frames.direction[i])
            if status == "toward_plane" and np.isfinite(x) and np.isfinite(y):
                hits[i] = (x, y)
    return hits


def test_valid_gaze_points_are_the_scalar_intersection_of_each_valid_frame(heldout_sessions, train_config):
    for session_frames, _, manifest in heldout_sessions:
        # as it is, and with rays that miss the screen
        for frames in (session_frames, with_missing_rays(session_frames)):
            _, points = gaze.valid_gaze_rays(frames, train_config.quality_floor)
            hits = scalar_gaze_points(frames, train_config.quality_floor)
            finite = np.isfinite(points).all(axis=1)
            assert np.flatnonzero(finite).tolist() == sorted(hits), manifest.session_id
            assert np.isnan(points[~finite]).all(), manifest.session_id
            assert np.array_equal(points[finite], np.array(list(hits.values()))), manifest.session_id


def test_eye_gaze_matches_a_frame_by_frame_oracle(heldout_sessions, artifacts, config):
    # a one-row fine_tune costs most of a millisecond, so one session per device
    first = {}
    for frames, _, manifest in heldout_sessions:
        first.setdefault(manifest.device_type, (with_missing_rays(frames), manifest))
    assert sorted(first) == ["desktop", "mobile"]
    for frames, manifest in first.values():
        session = SessionDetectors(frames, manifest, artifacts, config)
        hits = scalar_gaze_points(frames, artifacts.gaze.min_quality)
        mean = [np.mean(np.array([hit[axis] for hit in hits.values()])) for axis in (0, 1)]
        assert mean == [session.stats().mean_x_s, session.stats().mean_y_s], manifest.session_id
        on_path = [i for i in range(len(frames))
                   if frames.face_gaze[i] and frames.quality[i] >= artifacts.gaze.min_quality
                   and frames.quality[i] >= config.quality_gate]
        assert any(i not in hits for i in on_path), manifest.session_id
        corrected = {}   # (normalize, tune) -> the corrected point of each frame with a hit
        for variant in TABLE1_VARIANTS:
            key = (variant.normalize, variant.fine_tune)
            if key not in corrected:
                corrected[key] = {}
                for i, hit in hits.items():
                    point = np.array([hit])
                    if variant.normalize:
                        point = point - mean
                    if variant.fine_tune:
                        point = gaze.fine_tune(point, artifacts.gaze.by_device[manifest.device_type])
                    corrected[key][i] = point[0]
            screen = session.screen(variant.screen_size)
            half_w = screen.width_cm / 2 + screen.margin_cm
            half_h = screen.height_cm / 2 + screen.margin_cm
            expected = np.zeros(len(frames), dtype=bool)
            for i in on_path:
                # a ray that misses the screen in front of the viewer is off it
                x, y = corrected[key].get(i, (np.nan, np.nan))
                expected[i] = not (abs(x) <= half_w and abs(y) <= half_h)
            got = session.eye_gaze(variant.normalize, variant.fine_tune, variant.screen_size)
            assert np.array_equal(got, expected), (manifest.session_id, variant.name)


def test_ablation_runs_each_detector_once_per_session(
    heldout_sessions, artifacts, config, monkeypatch
):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each name is patched where its caller looks it up: run_ablation scores
    # through evaluation's import of score_session, the steps through pipeline's
    monkeypatch.setattr(evaluation, "score_session", counted("score_session", evaluation.score_session))
    for name in ("compute_session_stats", "select_gaze_source", "fine_tune", "speaking_flags", "yawn_flags"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    # the ray intersection runs inside gaze.valid_gaze_rays; a second one in
    # the pipeline would import it there
    intersect = counted("intersect_gaze_batch", geometry.intersect_gaze_batch)
    for module in (gaze, pipeline):
        monkeypatch.setattr(module, "intersect_gaze_batch", intersect, raising=False)
    sessions = heldout_sessions
    table = run_ablation(sessions, artifacts, ABLATE_ORDER, config)
    assert [row["variant"] for row in table["rows"]] == [v.name for v in ABLATE_ORDER]
    assert calls["score_session"] == len(ABLATE_ORDER) * len(sessions)
    # the session facts: once per session
    assert calls["compute_session_stats"] == len(sessions)
    assert calls["select_gaze_source"] == len(sessions)
    # every valid ray once: the eye path slices its rows of them
    assert calls["intersect_gaze_batch"] == len(sessions)
    # once per distinct (normalize, fine_tune) setting that fine-tunes: full and
    # w/o normalization ("w/o screen size detection" reuses the full model's points)
    assert calls["fine_tune"] == 2 * len(sessions)
    assert calls["speaking_flags"] == len(sessions)
    assert calls["yawn_flags"] == len(sessions)
