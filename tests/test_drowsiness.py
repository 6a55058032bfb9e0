import numpy as np
import pytest

from adwatch.config import PipelineConfig
from adwatch.drowsiness import (
    drowsiness_signal,
    mouth_aspect_series,
    refined_eye_closure,
    smooth_flags,
    yawn_features,
    yawn_probability,
)
from adwatch.errors import DataError, MissingArtifactError
from adwatch.artifacts import data_hash
from adwatch.records import AU_INDEX
from adwatch.temporal import events_from_flags
from adwatch.training import yawn_training_set
from oracles import concatenating_yawn_training_set

CFG = PipelineConfig()


def au_row(**values):
    row = np.zeros(20)
    for name, v in values.items():
        row[AU_INDEX[name]] = v
    return row


def test_clean_closure_flagged():
    flags = refined_eye_closure(np.array([80.0]), au_row()[None, :], CFG)
    assert flags[0]


def test_au12_excludes_closure():
    flags = refined_eye_closure(np.array([80.0]), au_row(AU12=60.0)[None, :], CFG)
    assert not flags[0]


def test_au6_excludes_closure():
    flags = refined_eye_closure(np.array([80.0]), au_row(AU6=35.0)[None, :], CFG)
    assert not flags[0]


def test_open_eyes_not_flagged():
    flags = refined_eye_closure(np.array([5.0]), au_row()[None, :], CFG)
    assert not flags[0]


def test_no_flagged_frame_has_high_au12():
    rng = np.random.default_rng(0)
    closure = rng.uniform(0, 100, 500)
    aus = rng.uniform(0, 60, (500, 20))
    flags = refined_eye_closure(closure, aus, CFG)
    assert not np.any(flags & (aus[:, AU_INDEX["AU12"]] >= CFG.au_gate))
    assert not np.any(flags & (aus[:, AU_INDEX["AU6"]] >= CFG.au_gate))


def test_blink_not_distracting():
    flags = np.zeros(300, dtype=bool)
    flags[10:19] = True   # 0.3 s at 30 fps
    events = events_from_flags(flags, 30.0, CFG.closure_min_event_s)
    assert len(events) == 1 and not events[0].distracting


def test_long_closure_distracting():
    flags = np.zeros(300, dtype=bool)
    flags[10:85] = True   # 2.5 s
    events = events_from_flags(flags, 30.0, CFG.closure_min_event_s)
    assert events[0].distracting


def test_alternating_frames_never_distract():
    flags = np.zeros(100, dtype=bool)
    flags[::2] = True
    events = events_from_flags(flags, 30.0, CFG.closure_min_event_s)
    assert all(not ev.distracting for ev in events)


def test_extending_a_run_keeps_it_distracting():
    flags = np.zeros(300, dtype=bool)
    flags[0:70] = True
    assert events_from_flags(flags, 30.0, CFG.closure_min_event_s)[0].distracting
    flags[0:90] = True
    assert events_from_flags(flags, 30.0, CFG.closure_min_event_s)[0].distracting


def mar(points):
    """Ratio and validity of one frame's mouth points."""
    ratios, valid = mouth_aspect_series(np.asarray(points)[None])
    return ratios[0], valid[0]


def test_mar_examples():
    square = np.array([[0.0, 0.2], [0.0, -0.2], [-0.2, 0.0], [0.2, 0.0]])
    closed = np.array([[0.0, 0.0], [0.0, 0.0], [-0.2, 0.0], [0.2, 0.0]])
    half = np.array([[0.0, 0.1], [0.0, -0.1], [-0.2, 0.0], [0.2, 0.0]])
    ratios, valid = mouth_aspect_series(np.stack([square, closed, half]))
    assert ratios == pytest.approx([1.0, 0.0, 0.5])
    assert valid.all()


def test_mar_degenerate_width_invalid():
    pts = np.array([[0.0, 0.1], [0.0, -0.1], [0.0, 0.0], [0.0, 0.0]])
    ratio, valid = mar(pts)
    assert not valid
    assert ratio == 0.0


def test_mar_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pts = rng.uniform(-0.3, 0.3, (4, 2))
        scale = rng.uniform(0.1, 5.0)
        center = rng.uniform(-2, 2, 2)
        ratio, _ = mar(pts)
        assert mar(pts * scale)[0] == pytest.approx(ratio, abs=1e-12)
        assert mar((pts - center) * scale + center)[0] == pytest.approx(ratio, abs=1e-12)


def test_mar_series_matches_per_frame():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.3, 0.3, (40, 4, 2))
    pts[5, 3] = pts[5, 2]                 # one degenerate width among valid frames
    ratios, valid = mouth_aspect_series(pts)
    assert valid.tolist() == [i != 5 for i in range(40)]
    assert ratios[5] == 0.0
    for i in range(len(pts)):
        if i != 5:
            height = np.hypot(*(pts[i, 0] - pts[i, 1]))
            width = np.hypot(*(pts[i, 2] - pts[i, 3]))
            assert ratios[i] == pytest.approx(height / width, rel=1e-12)


def test_yawn_probability_dimensionality(artifacts):
    with pytest.raises(DataError):
        yawn_probability(np.zeros((1, 5)), artifacts.yawn)
    with pytest.raises(DataError):
        yawn_probability(np.zeros(21), artifacts.yawn)      # one row must be a batch of one
    with pytest.raises(MissingArtifactError):
        yawn_probability(np.zeros((1, 21)), None)


def test_yawn_probability_deterministic(artifacts):
    feats = np.zeros((1, 21))
    feats[0, 0] = 0.8
    feats[0, 1 + AU_INDEX["AU26"]] = 60.0
    assert np.array_equal(yawn_probability(feats, artifacts.yawn),
                          yawn_probability(feats, artifacts.yawn))


def test_yawn_vs_speech_features(artifacts):
    yawn = np.zeros(21)
    yawn[0] = 0.75                      # large sustained mouth aspect
    yawn[1 + AU_INDEX["AU26"]] = 60.0
    yawn[1 + AU_INDEX["AU25"]] = 38.0
    speech = np.zeros(21)
    speech[0] = 0.2                     # small oscillating opening
    speech[1 + AU_INDEX["AU26"]] = 15.0
    speech[1 + AU_INDEX["AU25"]] = 20.0
    assert yawn_probability(yawn[None], artifacts.yawn)[0] >= 0.5
    assert yawn_probability(speech[None], artifacts.yawn)[0] < 0.5


def test_smoothing_majority_suppresses_single_flips():
    flags = np.zeros(60, dtype=bool)
    flags[30] = True
    assert not smooth_flags(flags, 30.0, 0.5).any()
    flags[20:50] = True
    smoothed = smooth_flags(flags, 30.0, 0.5)
    assert smoothed[25:45].all()


def test_drowsiness_or_combination():
    n = 120
    closure = np.zeros(n, dtype=bool)
    closure[0:70] = True
    events = events_from_flags(closure, 30.0, CFG.closure_min_event_s)
    yawns = np.zeros(n, dtype=bool)
    yawns[100:110] = True
    signal = drowsiness_signal(events, yawns, n)
    assert signal[0:70].all()          # closure event only
    assert signal[100:110].all()       # yawn only
    assert not signal[80:95].any()     # neither
    with pytest.raises(DataError):
        drowsiness_signal(events, yawns[:-1], n)


def test_yawn_features_shape(artifacts, heldout_sessions):
    frames = heldout_sessions[0][0]
    feats = yawn_features(frames)
    assert feats.shape == (len(frames), 21)


@pytest.mark.parametrize("cap", [CFG.max_yawn_train_rows, 10**6], ids=["subsampled", "all_rows"])
def test_yawn_training_set_matches_concatenating_oracle(train_sessions, cap):
    # drawing the subsample before gathering features keeps the rows and their order
    config = PipelineConfig(max_yawn_train_rows=cap)
    X, y = yawn_training_set(train_sessions, config, seed=7)
    X_ref, y_ref = concatenating_yawn_training_set(train_sessions, config, seed=7)
    np.testing.assert_array_equal(X, X_ref, strict=True)
    np.testing.assert_array_equal(y, y_ref, strict=True)
    assert data_hash(X, y) == data_hash(X_ref, y_ref)
    tracked = sum(int(np.count_nonzero(f.face_expr)) for f, _, _ in train_sessions)
    assert len(X) == min(cap, tracked) and tracked > CFG.max_yawn_train_rows
