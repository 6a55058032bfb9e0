import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.boosting import MODE_CLASSIFICATION, BoostedEnsemble
from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.drowsiness import (
    _WIDTH_EPS,
    mouth_aspect_series,
    refined_eye_closure,
    smooth_flags,
    yawn_features,
    yawn_flags,
)
from adwatch.errors import DataError
from adwatch.artifacts import data_hash
from adwatch.records import AU_INDEX, FrameArrays
from adwatch.pipeline import SessionDetectors
from adwatch.temporal import frames_within, long_runs
from adwatch.training import yawn_training_set
from oracles import concatenating_yawn_training_set

CFG = ScoreConfig()
# the closure rule's minimum at 30 fps: 60 frames
CLOSURE_FRAMES = frames_within(CFG.closure_min_event_s, 30.0)


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
    assert not long_runs(flags, CLOSURE_FRAMES).any()


def test_long_closure_distracting():
    flags = np.zeros(300, dtype=bool)
    flags[10:85] = True   # 2.5 s
    assert np.array_equal(long_runs(flags, CLOSURE_FRAMES), flags)


def test_alternating_frames_never_distract():
    flags = np.zeros(100, dtype=bool)
    flags[::2] = True
    assert not long_runs(flags, CLOSURE_FRAMES).any()


def test_extending_a_run_keeps_it_distracting():
    flags = np.zeros(300, dtype=bool)
    flags[0:70] = True
    assert np.array_equal(long_runs(flags, CLOSURE_FRAMES), flags)
    flags[0:90] = True
    assert np.array_equal(long_runs(flags, CLOSURE_FRAMES), flags)


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


def test_mouth_corners_exactly_the_width_floor_apart_are_valid():
    # the norm of a (1e-9, 0) offset is exactly 1e-9, so the width is the floor itself
    assert _WIDTH_EPS == 1e-9
    assert np.linalg.norm(np.array([[_WIDTH_EPS, 0.0]]), axis=1)[0] == _WIDTH_EPS
    pts = np.array([[0.0, _WIDTH_EPS], [0.0, 0.0], [0.0, 0.0], [_WIDTH_EPS, 0.0]])
    ratio, valid = mar(pts)
    assert valid
    assert ratio == 1.0


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
    # the classifier reads yawn_features' 21 columns and refuses any other width
    for width in (5, 20, 22):
        with pytest.raises(DataError, match=f"expected 21 features, got {width}"):
            artifacts.yawn.predict(np.zeros((1, width)))


def test_yawn_probability_deterministic(artifacts):
    feats = np.zeros((1, 21))
    feats[0, 0] = 0.8
    feats[0, 1 + AU_INDEX["AU26"]] = 60.0
    assert np.array_equal(artifacts.yawn.predict(feats), artifacts.yawn.predict(feats))


def test_yawn_vs_speech_features(artifacts):
    yawn = np.zeros(21)
    yawn[0] = 0.75                      # large sustained mouth aspect
    yawn[1 + AU_INDEX["AU26"]] = 60.0
    yawn[1 + AU_INDEX["AU25"]] = 38.0
    speech = np.zeros(21)
    speech[0] = 0.2                     # small oscillating opening
    speech[1 + AU_INDEX["AU26"]] = 15.0
    speech[1 + AU_INDEX["AU25"]] = 20.0
    assert artifacts.yawn.predict(yawn[None])[0] >= 0.5
    assert artifacts.yawn.predict(speech[None])[0] < 0.5


def still_frames(face_expr: np.ndarray) -> FrameArrays:
    """Frames with a closed mouth and no AU, tracked where ``face_expr``."""
    n = len(face_expr)
    mouth = np.zeros((n, 4, 2))
    mouth[:, 2, 0], mouth[:, 3, 0] = -0.16, 0.16
    return FrameArrays(
        frame_index=np.arange(n), timestamp_ms=np.arange(n) * (1000.0 / 30.0),
        pupil=np.tile([0.0, 0.0, 60.0], (n, 1)), direction=np.tile([0.0, 0.0, -1.0], (n, 1)),
        quality=np.full(n, 0.9), yaw=np.zeros(n), pitch=np.zeros(n), roll=np.zeros(n),
        mouth=mouth, aus=np.zeros((n, 20)), eye_closure=np.zeros(n),
        face_expr=face_expr, face_gaze=face_expr.copy(), face_center_x=np.full(n, 0.5),
    )


def test_yawn_probability_at_the_threshold_flags():
    # with no trees and a zero base, a classifier predicts sigmoid(0) = 0.5 exactly
    model = BoostedEnsemble(mode=MODE_CLASSIFICATION, learning_rate=0.1, max_depth=1,
                            base_prediction=0.0, n_features=21)
    tracked = np.array([True, True, False, True, False, True])
    frames = still_frames(tracked)
    assert np.all(model.predict(yawn_features(frames)) == 0.5)
    config = ScoreConfig(yawn_threshold=0.5)
    assert np.array_equal(yawn_flags(frames, model, config, 0), tracked)


def test_smoothing_majority_suppresses_single_flips():
    flags = np.zeros(60, dtype=bool)
    flags[30] = True
    assert not smooth_flags(flags, 15).any()
    flags[20:50] = True
    smoothed = smooth_flags(flags, 15)
    assert smoothed[25:45].all()


def same_mode_smooth(flags, w):
    """The vote as np.convolve(mode="same") gives it, which has one sum per
    frame only while there are at least w frames."""
    ones = np.ones(w, dtype=np.int64)
    counts = np.convolve(flags.astype(np.int64), ones, mode="same")
    return counts * 2 > np.convolve(np.ones(len(flags), dtype=np.int64), ones, mode="same")


@settings(max_examples=200, deadline=None)
@given(
    flags=st.lists(st.booleans(), max_size=80).map(lambda f: np.array(f, dtype=bool)),
    w=st.integers(0, 120),
)
def test_smoothing_gives_one_flag_per_frame(flags, w):
    smoothed = smooth_flags(flags, w)
    assert smoothed.shape == flags.shape and smoothed.dtype == bool
    if w <= 1:
        assert np.array_equal(smoothed, flags)
        return
    w += w % 2 == 0
    # each frame's vote is over the frames within w // 2 of it
    for i in range(len(flags)):
        window = flags[max(0, i - w // 2) : i + w // 2 + 1]
        assert smoothed[i] == (2 * window.sum() > len(window))
    if len(flags) >= w:
        assert np.array_equal(smoothed, same_mode_smooth(flags, w))


def test_drowsiness_or_combination(artifacts, heldout_sessions):
    # the drowsiness signal is the long closure runs OR the yawn flags
    for frames, _, manifest in heldout_sessions:
        fps = manifest.frame_rate_hz
        closure = refined_eye_closure(frames.eye_closure, frames.aus, CFG) & frames.face_expr
        closure = long_runs(closure, frames_within(CFG.closure_min_event_s, fps))
        yawns = yawn_flags(frames, artifacts.yawn, CFG, int(round(CFG.yawn_smooth_s * fps)))
        if (closure & ~yawns).any() and (yawns & ~closure).any():
            break
    else:
        pytest.fail("no held-out session has both closure-only and yawn-only frames")
    signal = SessionDetectors(frames, manifest, artifacts, CFG).drowsiness()
    assert signal[closure].all()        # closure runs
    assert signal[yawns].all()          # yawns
    assert not signal[~closure & ~yawns].any()


def test_yawn_features_shape(artifacts, heldout_sessions):
    frames = heldout_sessions[0][0]
    feats = yawn_features(frames)
    assert feats.shape == (len(frames), 21)


@pytest.mark.parametrize("cap", [PipelineConfig().max_yawn_train_rows, 10**6], ids=["subsampled", "all_rows"])
def test_yawn_training_set_matches_concatenating_oracle(train_sessions, cap):
    # drawing the subsample before gathering features keeps the rows and their order
    config = PipelineConfig(max_yawn_train_rows=cap)
    X, y = yawn_training_set(train_sessions, config, seed=7)
    X_ref, y_ref = concatenating_yawn_training_set(train_sessions, config, seed=7)
    np.testing.assert_array_equal(X, X_ref, strict=True)
    np.testing.assert_array_equal(y, y_ref, strict=True)
    assert data_hash(X, y) == data_hash(X_ref, y_ref)
    tracked = sum(int(np.count_nonzero(f.face_expr)) for f, _, _ in train_sessions)
    assert len(X) == min(cap, tracked) and tracked > PipelineConfig().max_yawn_train_rows
