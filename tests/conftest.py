import numpy as np
import pytest

from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.pipeline import ArtifactSet, SessionDetectors
from adwatch.records import FrameArrays, SessionManifest
from adwatch.synth import SuiteConfig, build_suite_scripts, generate
from adwatch.training import (
    train_gaze_regressors,
    train_speaking_cnn,
    train_yawn_classifier,
)


def sessions_from_config(suite: SuiteConfig):
    """Generate a suite in memory as (frames, truth, manifest, split) tuples."""
    out = []
    for sid, script, split in build_suite_scripts(suite):
        frames, truth = generate(script)
        manifest = SessionManifest(
            session_id=sid,
            device_type=script.device_type,
            frame_rate_hz=script.frame_rate_hz,
            frame_source="frames.jsonl",
            ground_truth="truth.jsonl",
        )
        out.append((frames, truth, manifest, split))
    return out


def unattended_of(no_face_expr, no_face_gaze, frame_rate_hz=30.0, config=ScoreConfig()):
    """``SessionDetectors.unattended`` of a session whose expression and gaze
    trackers lose the face on the flagged frames; it reads no model."""
    n = len(no_face_expr)
    zeros = np.zeros(n)
    frames = FrameArrays(
        frame_index=np.arange(n), timestamp_ms=np.arange(n) * 1000.0 / frame_rate_hz,
        pupil=np.zeros((n, 3)), direction=np.zeros((n, 3)), quality=zeros, yaw=zeros, pitch=zeros,
        roll=zeros, mouth=np.zeros((n, 4, 2)), aus=np.zeros((n, 20)), eye_closure=zeros,
        face_expr=~np.asarray(no_face_expr), face_gaze=~np.asarray(no_face_gaze), face_center_x=zeros,
    )
    manifest = SessionManifest("s", "desktop", frame_rate_hz, "frames.jsonl")
    return SessionDetectors(frames, manifest, None, config).unattended()


@pytest.fixture(scope="session")
def config():
    """What scoring reads."""
    return ScoreConfig()


@pytest.fixture(scope="session")
def train_config():
    return PipelineConfig()


# 16 mixed-device sessions with every distractor; first half is the
# training split. Yawn prevalence matches the production imbalance.
MIXED_SUITE = SuiteConfig(seed=5, n_sessions=16, template="full", device="mixed",
                          train_fraction=0.5, yawn_prevalence=0.026)


@pytest.fixture(scope="session")
def mixed_suite():
    """``MIXED_SUITE``, generated in memory."""
    return sessions_from_config(MIXED_SUITE)


@pytest.fixture(scope="session")
def train_sessions(mixed_suite):
    return [(f, t, m) for f, t, m, s in mixed_suite if s == "train"]


@pytest.fixture(scope="session")
def heldout_sessions(mixed_suite):
    return [(f, t, m) for f, t, m, s in mixed_suite if s == "held_out"]


@pytest.fixture(scope="session")
def artifacts(train_sessions, train_config):
    """All three trained models, shared across the whole test run."""
    gaze, _ = train_gaze_regressors(train_sessions, train_config, seed=1)
    speaking, _ = train_speaking_cnn(train_sessions, train_config, seed=1)
    yawn, _ = train_yawn_classifier(train_sessions, train_config, seed=1)
    return ArtifactSet(gaze=gaze, speaking=speaking, yawn=yawn)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in rep.nodeid:
                name = rep.nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}")
