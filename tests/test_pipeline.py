from collections import Counter

import numpy as np
import pytest

from adwatch import pipeline
from adwatch.errors import MissingArtifactError
from adwatch.pipeline import (
    TABLE1_VARIANTS,
    TABLE3_VARIANTS,
    ArtifactSet,
    PipelineVariant,
    score_session,
)
from adwatch.evaluation import frame_metrics, run_ablation
from adwatch.records import SessionManifest
from adwatch.synth import ScenarioScript, Segment, generate


def test_clean_session_scores_close_to_truth(heldout_sessions, artifacts, config):
    frames, truth, manifest = heldout_sessions[0]
    scored = score_session(frames, manifest, artifacts, config)
    assert len(scored.timeline) == len(frames)
    rep = frame_metrics(~scored.timeline.attentive, ~truth.attentive)
    assert rep.g_mean > 0.9


def test_gaze_source_exclusive_per_frame(heldout_sessions, artifacts, config):
    for frames, _, manifest in heldout_sessions:
        scored = score_session(frames, manifest, artifacts, config)
        both = scored.timeline.signal("gaze_eye") & scored.timeline.signal("gaze_head")
        assert not both.any()


def test_all_no_face_session_is_unattended(artifacts, config):
    script = ScenarioScript(
        seed=1, device_type="desktop", duration_s=5.0,
        segments=[Segment("leave", 0.0, 5.0)],
    )
    frames, _ = generate(script)
    manifest = SessionManifest("gone", "desktop", 30.0, "f")
    scored = score_session(frames, manifest, artifacts, config)
    assert not scored.timeline.attentive.any()
    assert scored.timeline.signal("unattended").all()
    assert scored.timeline.mask.max() == 0b10000


def test_missing_gaze_artifact_raises(heldout_sessions, config):
    frames, _, manifest = heldout_sessions[0]
    empty = ArtifactSet(gaze=None, speaking=None, yawn=None)
    with pytest.raises(MissingArtifactError):
        score_session(frames, manifest, empty, config)


def test_variant_switches_disable_signals(heldout_sessions, artifacts, config):
    frames, _, manifest = heldout_sessions[0]
    head_only = PipelineVariant(
        name="head", use_gaze=False, use_speaking=False,
        use_drowsiness=False, use_unattended=False,
    )
    scored = score_session(frames, manifest, artifacts, config, head_only)
    tl = scored.timeline
    assert not tl.signal("gaze_eye").any()
    assert not tl.signal("speaking").any()
    assert not tl.signal("drowsiness").any()
    assert not tl.signal("unattended").any()


def test_screen_override_is_used(artifacts, config):
    script = ScenarioScript(
        seed=2, device_type="desktop", duration_s=6.0,
        segments=[Segment("dot_at", 0.0, 6.0, dot=(0.0, 0.0))],
        gaze_noise_deg=0.0, gaze_scale=1.0, viewing_distance_cm=60.0,
    )
    frames, _ = generate(script)
    manifest = SessionManifest("s", "desktop", 30.0, "f", screen_override_cm=(100.0, 100.0))
    scored = score_session(frames, manifest, artifacts, config)
    assert scored.screen.width_cm == 100.0


def test_artifact_set_load_missing_names_files(tmp_path):
    with pytest.raises(MissingArtifactError, match="gaze_regressors.json"):
        ArtifactSet.load(tmp_path)


ABLATE_ORDER = TABLE1_VARIANTS + TABLE3_VARIANTS


def test_shared_memo_matches_memo_free_scoring(heldout_sessions, artifacts, config):
    for frames, _, manifest in heldout_sessions:
        memo = {}
        for variant in ABLATE_ORDER:
            shared = score_session(frames, manifest, artifacts, config, variant, memo)
            alone = score_session(frames, manifest, artifacts, config, variant)
            assert shared.timeline == alone.timeline, variant.name
            assert shared.orientation is alone.orientation, variant.name
            assert shared.screen == alone.screen, variant.name
            assert shared.stats == alone.stats, variant.name
        stored = [v for out in memo.values() for v in (out if isinstance(out, tuple) else (out,))]
        arrays = [v for v in stored if isinstance(v, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


def test_ablation_runs_each_detector_once_per_session(
    heldout_sessions, artifacts, config, monkeypatch
):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("score_session", "speaking_flags", "yawn_flags", "fine_tune"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    sessions = heldout_sessions
    table = run_ablation(sessions, artifacts, ABLATE_ORDER, config)
    assert [row.variant for row in table.rows] == [v.name for v in ABLATE_ORDER]
    assert calls["score_session"] == len(ABLATE_ORDER) * len(sessions)
    assert calls["speaking_flags"] == len(sessions)
    assert calls["yawn_flags"] == len(sessions)
    # one eye-gaze run per distinct fine-tuned step setting: full, w/o normalization,
    # w/o screen size detection
    assert calls["fine_tune"] == 3 * len(sessions)
