import numpy as np
import pytest

from adwatch.config import PipelineConfig
from adwatch.errors import SessionUntrackableError
from adwatch.head import (
    HeadPoseStats,
    compute_head_stats,
    head_off_screen,
    select_gaze_source,
)
from adwatch.records import FrameArrays

CFG = PipelineConfig()


def pose_frames(yaw, pitch, face_expr=True):
    n = len(yaw)
    return FrameArrays(
        frame_index=np.arange(n),
        timestamp_ms=np.arange(n) * 33.0,
        pupil=np.tile([0.0, 0.0, 60.0], (n, 1)),
        direction=np.tile([0.0, 0.0, -1.0], (n, 1)),
        quality=np.full(n, 0.9),
        yaw=np.asarray(yaw, dtype=float),
        pitch=np.asarray(pitch, dtype=float),
        roll=np.zeros(n),
        mouth=np.zeros((n, 4, 2)),
        aus=np.zeros((n, 20)),
        eye_closure=np.zeros(n),
        face_expr=np.full(n, face_expr, dtype=bool),
        face_gaze=np.ones(n, dtype=bool),
        face_center_x=np.full(n, 0.5),
    )


def test_centered_pose_not_flagged():
    stats = HeadPoseStats(mean_yaw_deg=5.0, mean_pitch_deg=-3.0)
    assert not head_off_screen(np.array([5.0]), np.array([-3.0]), stats, CFG)[0]


def test_just_over_threshold_flagged():
    stats = HeadPoseStats(mean_yaw_deg=0.0, mean_pitch_deg=0.0)
    yaw = np.array([CFG.head_yaw_threshold_deg + 1.0])
    assert head_off_screen(yaw, np.array([0.0]), stats, CFG)[0]
    pitch = np.array([CFG.head_pitch_threshold_deg + 1.0])
    assert head_off_screen(np.array([0.0]), pitch, stats, CFG)[0]


def test_constant_pose_session_never_flags():
    rng = np.random.default_rng(0)
    for _ in range(20):
        yaw0, pitch0 = rng.uniform(-60, 60, 2)
        frames = pose_frames(np.full(50, yaw0), np.full(50, pitch0))
        stats = compute_head_stats(frames)
        flags = head_off_screen(frames.yaw, frames.pitch, stats, CFG)
        assert not flags.any()


def test_offset_invariance():
    rng = np.random.default_rng(1)
    yaw = rng.normal(0, 10, 200)
    pitch = rng.normal(0, 8, 200)
    frames = pose_frames(yaw, pitch)
    base = head_off_screen(frames.yaw, frames.pitch, compute_head_stats(frames), CFG)
    for off in (-40.0, 13.5, 90.0):
        shifted = pose_frames(yaw + off, pitch)
        flags = head_off_screen(shifted.yaw, shifted.pitch, compute_head_stats(shifted), CFG)
        assert np.array_equal(base, flags)


def test_lowering_thresholds_never_unflags():
    rng = np.random.default_rng(2)
    yaw = rng.normal(0, 15, 300)
    pitch = rng.normal(0, 10, 300)
    stats = HeadPoseStats(0.0, 0.0)
    loose = head_off_screen(yaw, pitch, stats, CFG)
    import dataclasses
    tight_cfg = dataclasses.replace(
        CFG, head_yaw_threshold_deg=CFG.head_yaw_threshold_deg / 2,
        head_pitch_threshold_deg=CFG.head_pitch_threshold_deg / 2,
    )
    tight = head_off_screen(yaw, pitch, stats, tight_cfg)
    assert not np.any(loose & ~tight)


def test_head_stats_requires_tracked_frames():
    frames = pose_frames(np.zeros(5), np.zeros(5), face_expr=False)
    with pytest.raises(SessionUntrackableError):
        compute_head_stats(frames)


def test_source_selection():
    # True selects the eye path: a tracked face whose quality reaches the gate
    eye = select_gaze_source(
        np.array([0.9, 0.2, 0.9, 0.5]), np.array([True, True, False, True]), 0.5
    )
    assert eye.tolist() == [True, False, False, True]
