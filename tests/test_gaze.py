import dataclasses

import numpy as np
import pytest

from adwatch.boosting import BoostConfig, fit_boosted
from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.errors import DataError
from adwatch.gaze import (
    Orientation,
    ScreenGeometry,
    SessionGazeStats,
    compute_session_stats,
    detect_orientation,
    estimate_screen,
    fine_tune,
    gaze_on_screen,
    majority_orientation,
    normalize_gaze,
    valid_gaze_rays,
)
from adwatch.records import FrameArrays
from adwatch.synth import ScenarioScript, Segment, generate
from adwatch.training import gaze_training_rows, train_gaze_regressors

CFG = ScoreConfig()
TRAIN = PipelineConfig()
# the floor a gaze model trained at the defaults reads rays at
FLOOR = TRAIN.quality_floor


def frames_with_targets(targets, z=60.0, quality=0.9, face_gaze=True):
    """Build a minimal session whose rays hit exactly the given plane points."""
    n = len(targets)
    pupil = np.tile([0.0, 0.0, z], (n, 1))
    direction = np.array([[t[0], t[1], 0.0] for t in targets]) - pupil
    return FrameArrays(
        frame_index=np.arange(n),
        timestamp_ms=np.arange(n) * 33.0,
        pupil=pupil,
        direction=direction,
        quality=np.full(n, quality),
        yaw=np.full(n, 2.0),
        pitch=np.zeros(n),
        roll=np.zeros(n),
        mouth=np.zeros((n, 4, 2)),
        aus=np.zeros((n, 20)),
        eye_closure=np.zeros(n),
        face_expr=np.ones(n, dtype=bool),
        face_gaze=np.full(n, face_gaze, dtype=bool),
        face_center_x=np.full(n, 0.5),
    )


def make_stats(**overrides):
    base = dict(
        mean_x_s=0.0, mean_y_s=0.0, mean_eye_distance_cm=60.0,
        mean_yaw_deg=0.0, mean_face_center_x=0.5,
    )
    base.update(overrides)
    return SessionGazeStats(**base)


# ---------------------------------------------------------------------------
# session stats
# ---------------------------------------------------------------------------

def test_stats_constant_stream():
    frames = frames_with_targets([(3.0, -2.0)] * 10)
    stats = compute_session_stats(frames, valid_gaze_rays(frames, FLOOR))
    assert (stats.mean_x_s, stats.mean_y_s) == pytest.approx((3.0, -2.0))
    assert stats.mean_eye_distance_cm == pytest.approx(60.0)


def test_stats_arithmetic_mean():
    frames = frames_with_targets([(0.0, 0.0), (4.0, 2.0)])
    stats = compute_session_stats(frames, valid_gaze_rays(frames, FLOOR))
    assert (stats.mean_x_s, stats.mean_y_s) == pytest.approx((2.0, 1.0))


def test_stats_without_valid_frames_is_untrackable():
    frames = frames_with_targets([(0.0, 0.0)] * 5, face_gaze=False)
    assert compute_session_stats(frames, valid_gaze_rays(frames, FLOOR)) is None


def test_stats_whose_valid_rays_all_miss_the_plane_is_untrackable():
    frames = frames_with_targets([(0.0, 0.0)] * 5)
    frames.direction[:, 2] = np.abs(frames.direction[:, 2])   # every ray looks away
    rays = valid_gaze_rays(frames, FLOOR)
    assert rays[0].all() and compute_session_stats(frames, rays) is None


def test_stats_quality_floor_masks_frames():
    frames = frames_with_targets([(0.0, 0.0), (8.0, 8.0)])
    frames.quality[1] = 0.1   # below floor: excluded from the means
    rays = valid_gaze_rays(frames, FLOOR)
    stats = compute_session_stats(frames, rays)
    assert rays[0].tolist() == [True, False]
    assert stats.mean_x_s == pytest.approx(0.0)


def test_valid_rays_slice_to_a_fresh_intersection_of_any_subset():
    # the eye path and the dot frames read their rows of the session's one
    # frame-aligned column; each row must be what intersecting that subset
    # alone gives, NaN where the ray misses the plane in front of the viewer
    from adwatch.geometry import intersect_gaze_batch

    frames, _ = generate(gaze_only_script(11, scale=1.1, noise=1.0))
    frames.quality[::7] = 0.1
    frames.direction = frames.direction.copy()
    frames.direction[::13, 2] = 0.0   # parallel rays: NaN points
    frames.direction[5::17, 2] *= -1.0   # rays that point away: NaN points
    valid, points = valid_gaze_rays(frames, FLOOR)
    assert points.shape == (len(frames), 2)
    assert np.array_equal(valid, frames.face_gaze & (frames.quality >= FLOOR))
    assert np.isnan(points[~valid]).all() and not valid.all()
    assert np.isnan(points[valid]).any()
    rng = np.random.default_rng(0)
    for _ in range(5):
        subset = valid & (rng.random(len(frames)) < 0.4)
        fresh, _, fresh_toward, _ = intersect_gaze_batch(
            frames.pupil[subset], frames.direction[subset]
        )
        assert not fresh_toward.all()
        expected = np.where(fresh_toward[:, None], fresh, np.nan)
        assert np.array_equal(points[subset], expected, equal_nan=True)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_self_centering():
    stats = make_stats(mean_x_s=5.0, mean_y_s=5.0)
    assert normalize_gaze(np.array([[5.0, 5.0]]), stats).tolist() == [[0.0, 0.0]]


def test_normalize_subtraction():
    stats = make_stats(mean_x_s=2.0, mean_y_s=-1.0)
    assert normalize_gaze(np.array([[8.0, 1.0], [2.0, -1.0]]), stats).tolist() == [[6.0, 2.0], [0.0, 0.0]]


def test_normalized_session_mean_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.uniform(-20, 20, (int(rng.integers(2, 400)), 2))
        stats = make_stats(mean_x_s=float(pts[:, 0].mean()), mean_y_s=float(pts[:, 1].mean()))
        centered = normalize_gaze(pts, stats)
        assert np.abs(centered.mean(axis=0)).max() < 1e-9


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def identity_pair():
    rng = np.random.default_rng(3)
    X = rng.uniform(-15, 15, (400, 2))
    cfgb = BoostConfig(n_stages=40)
    return {
        "x": fit_boosted(X, np.zeros(400), cfgb),
        "y": fit_boosted(X, np.zeros(400), cfgb),
    }


def test_fine_tune_identity_regressors():
    pair = identity_pair()
    pts = np.array([[3.0, -7.0], [0.0, 0.0], [-12.0, 9.0]])
    out = fine_tune(pts, pair)
    assert np.abs(out - pts).max() < 0.5


def gaze_only_script(seed, scale, noise, offset=(0.0, 0.0)):
    segments = []
    t = 0.0
    for fx, fy in [(0, 0), (-0.9, 0), (0.9, 0), (0, -0.9), (0, 0.9), (0.7, 0.7), (-0.7, -0.7)]:
        segments.append(Segment("dot_at", t, 2.0, dot=(fx, fy)))
        t += 2.0
    for d in ("left", "right", "up", "down"):
        segments.append(Segment("off_screen", t, 2.0, direction=d))
        t += 2.0
    return ScenarioScript(
        seed=seed, device_type="desktop", duration_s=t, segments=segments,
        camera_offset_cm=offset, gaze_scale=scale, gaze_noise_deg=noise,
        landmark_jitter=0.0, viewing_distance_cm=60.0,
    )


def sessions_for(scripts):
    from adwatch.records import SessionManifest

    out = []
    for s in scripts:
        frames, truth = generate(s)
        m = SessionManifest("x", s.device_type, s.frame_rate_hz, "f")
        out.append((frames, truth, m))
    return out


def heldout_mae(pair, sessions):
    raw_err, tuned_err = [], []
    for frames, truth, m in sessions:
        rows = gaze_training_rows([(frames, truth, m)], TRAIN)["desktop"]
        X, targets = rows
        raw_err.append(np.abs(X - targets))
        tuned_err.append(np.abs(fine_tune(X, pair) - targets))
    return float(np.concatenate(raw_err).mean()), float(np.concatenate(tuned_err).mean())


def test_regressor_clean_world_mae_below_half_cm():
    train = sessions_for([gaze_only_script(i, scale=1.0, noise=0.0) for i in range(4)])
    held = sessions_for([gaze_only_script(100 + i, scale=1.0, noise=0.0) for i in range(2)])
    models, _ = train_gaze_regressors(train, TRAIN, seed=0)
    _, tuned = heldout_mae(models.by_device["desktop"], held)
    assert tuned <= 0.5


def test_regressor_corrects_systematic_bias():
    train = sessions_for([gaze_only_script(i, scale=1.15, noise=1.0) for i in range(5)])
    held = sessions_for([gaze_only_script(200 + i, scale=1.15, noise=1.0) for i in range(3)])
    models, _ = train_gaze_regressors(train, TRAIN, seed=0)
    raw, tuned = heldout_mae(models.by_device["desktop"], held)
    assert tuned < raw


def test_regressor_requires_sessions():
    with pytest.raises(DataError):
        train_gaze_regressors([], TRAIN)


# ---------------------------------------------------------------------------
# orientation voting
# ---------------------------------------------------------------------------

def test_orientation_unanimous_centered():
    stats = make_stats()
    assert detect_orientation(stats, CFG) is Orientation.CENTERED


def test_orientation_majority():
    # gaze and face vote clockwise, yaw votes centered
    stats = make_stats(mean_x_s=-7.0, mean_face_center_x=0.2, mean_yaw_deg=0.0)
    assert detect_orientation(stats, CFG) is Orientation.CLOCKWISE


def test_orientation_tie_resolves_centered():
    stats = make_stats(mean_x_s=-7.0, mean_face_center_x=0.8, mean_yaw_deg=0.0)
    assert detect_orientation(stats, CFG) is Orientation.CENTERED


def test_majority_orientation_exhaustive_27():
    labels = [Orientation.CENTERED, Orientation.CLOCKWISE, Orientation.ANTICLOCKWISE]
    for a in labels:
        for b in labels:
            for c in labels:
                votes = [a, b, c]
                got = majority_orientation(votes)
                counts = {o: votes.count(o) for o in labels}
                best = max(counts.values())
                winners = [o for o, k in counts.items() if k == best]
                expected = winners[0] if len(winners) == 1 else Orientation.CENTERED
                assert got is expected, votes


def test_orientation_invariant_to_frame_count():
    # constant per-frame features give the same stats regardless of length
    for n in (10, 100, 1000):
        frames = frames_with_targets([(-7.0, 0.0)] * n)
        frames.face_center_x[:] = 0.2
        frames.yaw[:] = -15.0
        stats = compute_session_stats(frames, valid_gaze_rays(frames, FLOOR))
        assert detect_orientation(stats, CFG) is Orientation.CLOCKWISE


# ---------------------------------------------------------------------------
# screen estimation
# ---------------------------------------------------------------------------

def test_estimate_screen_desktop_pvd_rule():
    stats = make_stats(mean_eye_distance_cm=60.0)
    geom = estimate_screen(stats, "desktop", CFG)
    assert geom.height_cm == pytest.approx(20.0)
    assert geom.width_cm == pytest.approx(35.6, abs=0.1)


def test_estimate_screen_mobile_swap():
    stats = make_stats()
    portrait = estimate_screen(stats, "mobile", CFG, orientation=Orientation.CENTERED)
    rotated = estimate_screen(stats, "mobile", CFG, orientation=Orientation.CLOCKWISE)
    # the orientation picks the rectangle; the screen is only its size and margin
    assert portrait == ScreenGeometry(7.0, 14.0, CFG.margin_cm)
    assert rotated == ScreenGeometry(14.0, 7.0, CFG.margin_cm)


def test_estimate_screen_override_wins():
    stats = make_stats()
    geom = estimate_screen(stats, "desktop", CFG, override_cm=(34.5, 19.4))
    assert (geom.width_cm, geom.height_cm) == (34.5, 19.4)


def test_estimate_screen_rejects_bad_distance():
    stats = make_stats(mean_eye_distance_cm=-1.0)
    with pytest.raises(DataError):
        estimate_screen(stats, "desktop", CFG)


def test_estimate_screen_fixed_fallback():
    stats = make_stats(mean_eye_distance_cm=90.0)
    geom = estimate_screen(stats, "desktop", CFG, use_size_detection=False)
    assert (geom.width_cm, geom.height_cm) == CFG.default_desktop_screen_cm


# ---------------------------------------------------------------------------
# boundary check
# ---------------------------------------------------------------------------

def test_on_screen_center():
    geom = ScreenGeometry(35.6, 20.0, margin_cm=1.0)
    assert gaze_on_screen(np.array([[0.0, 0.0]]), geom).tolist() == [True]


def test_just_outside_boundary():
    geom = ScreenGeometry(35.6, 20.0, margin_cm=1.0)
    x = 35.6 / 2 + 1.0 + 0.1
    assert gaze_on_screen(np.array([[x, 0.0]]), geom).tolist() == [False]


def test_away_from_plane_is_off_screen():
    # the ray's line meets the plane at the screen center, but behind the viewer
    geom = ScreenGeometry(35.6, 20.0, margin_cm=1.0)
    frames = frames_with_targets([(0.0, 0.0)])
    frames.direction[0] = [0.0, 0.0, 1.0]
    _, points = valid_gaze_rays(frames, FLOOR)
    assert np.isnan(points).all()
    assert gaze_on_screen(points, geom).tolist() == [False]


def test_shrinking_screen_is_monotone():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-30, 30, (500, 2))
    pts[::25] = np.nan   # rays that miss the plane in front of the viewer
    big = ScreenGeometry(40.0, 24.0, margin_cm=1.0)
    small = ScreenGeometry(30.0, 18.0, margin_cm=1.0)
    on_big = gaze_on_screen(pts, big)
    on_small = gaze_on_screen(pts, small)
    assert not np.any(on_small & ~on_big)
    assert not on_big[::25].any()


def test_translation_invariance_of_labels():
    # shifting every raw intersection by a constant changes no label
    script = gaze_only_script(7, scale=1.0, noise=0.5)
    frames, _ = generate(script)
    rays = valid_gaze_rays(frames, FLOOR)
    stats = compute_session_stats(frames, rays)
    _, pts = rays
    geom = estimate_screen(stats, "desktop", CFG)
    base = gaze_on_screen(normalize_gaze(pts, stats), geom)
    for offset in ([3.0, -2.0], [-9.9, 0.4]):
        shifted = pts + np.asarray(offset)
        stats2 = dataclasses.replace(
            stats,
            mean_x_s=stats.mean_x_s + offset[0],
            mean_y_s=stats.mean_y_s + offset[1],
        )
        labels = gaze_on_screen(normalize_gaze(shifted, stats2), geom)
        assert np.array_equal(base, labels)
