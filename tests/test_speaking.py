import numpy as np
import pytest

from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.records import FrameArrays
from adwatch.speaking import (
    SpeakingCnn,
    build_windows,
    lip_distance,
    speaking_flags,
)
from adwatch.synth import ScenarioScript, Segment, generate
from adwatch.temporal import find_runs, frames_within, long_runs
from adwatch.training import lip_windows

CFG = ScoreConfig()
# the windows of a speaking CNN trained at the defaults
LIP = lip_windows(PipelineConfig())


def mouth_session(gaps, face_expr=None, fps=30.0):
    n = len(gaps)
    mouth = np.zeros((n, 4, 2))
    mouth[:, 0, 1] = np.asarray(gaps) / 2
    mouth[:, 1, 1] = -np.asarray(gaps) / 2
    mouth[:, 2, 0] = -0.16
    mouth[:, 3, 0] = 0.16
    expr = np.ones(n, dtype=bool) if face_expr is None else np.asarray(face_expr, dtype=bool)
    return FrameArrays(
        frame_index=np.arange(n),
        timestamp_ms=np.arange(n) * (1000.0 / fps),
        pupil=np.tile([0.0, 0.0, 60.0], (n, 1)),
        direction=np.tile([0.0, 0.0, -1.0], (n, 1)),
        quality=np.full(n, 0.9),
        yaw=np.zeros(n),
        pitch=np.zeros(n),
        roll=np.zeros(n),
        mouth=mouth,
        aus=np.zeros((n, 20)),
        eye_closure=np.zeros(n),
        face_expr=expr,
        face_gaze=expr.copy(),
        face_center_x=np.full(n, 0.5),
    )


def test_lip_distance_closed_mouth():
    pts = np.array([[[0.0, 0.1], [0.0, 0.1], [-0.1, 0.0], [0.1, 0.0]]])
    assert lip_distance(pts).tolist() == [0.0]


def test_lip_distance_direct():
    pts = np.array([[[0.0, 0.1], [0.0, -0.1], [-0.1, 0.0], [0.1, 0.0]]])
    assert lip_distance(pts) == pytest.approx([0.2])


def test_lip_distance_rotation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.uniform(-0.3, 0.3, (4, 2))
        theta = rng.uniform(0, 2 * np.pi)
        center = rng.uniform(-1, 1, 2)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = (pts - center) @ rot.T + center
        assert lip_distance(moved[None]) == pytest.approx(lip_distance(pts[None]), abs=1e-12)


def test_windows_fixed_length_and_scored():
    frames = mouth_session(np.full(90, 0.05))
    windows, scored = build_windows(frames, LIP)
    assert windows.shape == (90, LIP.samples)
    assert scored.shape == (90,) and scored.dtype == bool
    assert scored.all()
    assert np.allclose(windows, 0.05)


def test_window_quota_rule():
    # a long face loss leaves too few valid samples around nearby frames
    expr = np.ones(120, dtype=bool)
    expr[40:80] = False
    frames = mouth_session(np.full(120, 0.05), face_expr=expr)
    _, scored = build_windows(frames, LIP)
    assert not scored[55]                  # middle of the gap
    assert scored[10]
    assert scored[110]


def test_short_gap_held_and_scored():
    expr = np.ones(120, dtype=bool)
    expr[60:64] = False                    # 4 missing frames <= hold budget
    frames = mouth_session(np.full(120, 0.05), face_expr=expr)
    _, scored = build_windows(frames, LIP)
    assert scored[61]
    long_gap = np.ones(120, dtype=bool)
    long_gap[60:70] = False                # 10 missing frames: poisoned
    frames = mouth_session(np.full(120, 0.05), face_expr=long_gap)
    _, scored = build_windows(frames, LIP)
    assert not scored[61]


@pytest.mark.parametrize("extra, bridged", [(0, True), (1, False)], ids=["budget", "one_more"])
def test_face_loss_of_exactly_the_hold_budget_is_bridged(extra, bridged):
    gap = LIP.max_hold + extra
    expr = np.ones(120, dtype=bool)
    expr[60 : 60 + gap] = False
    _, scored = build_windows(mouth_session(np.full(120, 0.05), face_expr=expr), LIP)
    if bridged:
        assert scored.all()
    else:
        assert not scored[60 : 60 + gap].any()
        assert scored[:40].all() and scored[90:].all()


class SpeaksFirst:
    """A stand-in speaking CNN that flags the first ``n`` windows it is given."""

    def __init__(self, n: int):
        self.n = n

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        return (np.arange(len(windows)) < self.n).astype(np.float64)


def test_a_frame_midway_between_two_scored_frames_takes_the_earlier_flag():
    expr = np.ones(150, dtype=bool)
    expr[70:81] = False
    frames = mouth_session(np.full(150, 0.05), face_expr=expr)
    _, scored = build_windows(frames, LIP)
    unscored = np.flatnonzero(~scored)
    left, right = unscored[0] - 1, unscored[-1] + 1
    # one unscored run, of odd length, so that its middle frame is a tie
    assert unscored.size == right - left - 1 and unscored.size % 2 == 1
    mid = (left + right) // 2
    flags = speaking_flags(frames, SpeakingCnn(SpeaksFirst(np.count_nonzero(scored[: left + 1])), LIP), CFG)
    assert flags[: mid + 1].all()
    assert not flags[mid + 1 :].any()


def test_unscored_frames_inherit_nearest_flag(artifacts):
    expr = np.ones(150, dtype=bool)
    expr[100:140] = False
    gaps = np.full(150, 0.02)
    t = np.arange(150) / 30.0
    gaps[:100] = 0.055 + 0.035 * np.sin(2 * np.pi * 4.5 * t[:100])
    frames = mouth_session(gaps, face_expr=expr)
    flags = speaking_flags(frames, artifacts.speaking, CFG)
    _, scored = build_windows(frames, artifacts.speaking.windows)
    unscored = np.flatnonzero(~scored)
    assert unscored.size
    # frames in the dead zone take the nearest scored frame's value
    scored_idx = np.flatnonzero(scored)
    for i in unscored[:10]:
        nearest = scored_idx[np.argmin(np.abs(scored_idx - i))]
        assert flags[i] == flags[nearest]


def test_window_centered_on_frame(artifacts):
    # lip gap rising linearly in time, so a window's samples show its span
    gaps = 0.02 + 0.001 * np.arange(90)
    windows, scored = build_windows(mouth_session(gaps), LIP)
    assert scored[45]
    window = windows[45]
    assert window.shape == (LIP.samples,)
    # the second centered on frame 45 runs from frame 30 to frame 60 at 30 fps
    assert window[0] == pytest.approx(gaps[30], abs=1e-12)
    assert window[-1] == pytest.approx(gaps[60], abs=1e-12)
    flat, _ = build_windows(mouth_session(np.full(90, 0.02)), LIP)
    assert artifacts.speaking.predict_proba(flat[[45]])[0] < 0.5
    # unscorable frame inside a long face loss
    expr = np.ones(90, dtype=bool)
    expr[30:60] = False
    gappy = mouth_session(np.full(90, 0.02), face_expr=expr)
    assert not build_windows(gappy, LIP)[1][45]


def test_probability_deterministic(artifacts):
    w = np.full((1, 30), 0.05)
    first = artifacts.speaking.predict_proba(w)
    assert np.array_equal(first, artifacts.speaking.predict_proba(w))


def test_flat_window_is_silent(artifacts):
    # constant lip distance, as in a silent segment
    assert artifacts.speaking.predict_proba(np.full((1, 30), 0.02))[0] < 0.5


def test_oscillating_window_is_speech(artifacts):
    t = np.linspace(0, 1, 30)
    w = 0.055 + 0.035 * np.sin(2 * np.pi * 4.5 * t)
    assert artifacts.speaking.predict_proba(w[None, :])[0] >= 0.5


def test_events_boundary_strictness():
    # the speaking rule's minimum at 30 fps: 30 frames
    min_frames = frames_within(CFG.speaking_min_event_s, 30.0)
    flags = np.zeros(200, dtype=bool)
    flags[0:27] = True     # 0.9 s at 30 fps
    assert not long_runs(flags, min_frames).any()
    flags[0:45] = True     # 1.5 s
    assert np.array_equal(long_runs(flags, min_frames), flags)
    assert not long_runs(np.zeros(10, dtype=bool), min_frames).any()


def test_event_decomposition_partition():
    rng = np.random.default_rng(3)
    flags = rng.uniform(size=500) < 0.3
    flags[100:140] = True   # one run over a second, so some frames are kept
    kept = long_runs(flags, frames_within(CFG.speaking_min_event_s, 30.0))
    runs = find_runs(flags)
    assert sum(end - start + 1 for start, end in runs) == int(np.count_nonzero(flags))
    long = [(start, end) for start, end in runs if end - start + 1 > 30]
    assert int(np.count_nonzero(kept)) == sum(end - start + 1 for start, end in long) > 0
    assert not np.any(kept & ~flags)


def test_end_to_end_speaking_detection(artifacts):
    segments = [
        Segment("dot_at", 0.0, 3.0, dot=(0.0, 0.0)),
        Segment("speak", 3.0, 2.0),
        Segment("dot_at", 5.0, 3.0, dot=(0.0, 0.0)),
    ]
    script = ScenarioScript(
        seed=42, device_type="desktop", duration_s=8.0, segments=segments,
        gaze_noise_deg=0.0, landmark_jitter=0.01, gaze_scale=1.0,
    )
    frames, truth = generate(script)
    flags = speaking_flags(frames, artifacts.speaking, CFG)
    active = np.array([a == "speak" for a in truth.activity])
    # inside the bout (away from edges) the detector should agree
    core = active.copy()
    core[:96] = False
    core[144:] = False
    assert flags[core].mean() > 0.9
    silent = ~active
    silent[80:160] = False  # ignore transition zone
    assert flags[silent].mean() < 0.1
