"""Offline attention scoring for ad-viewing sessions.

Consumes per-frame facial feature streams (gaze rays, head pose, mouth
landmarks, action units, face flags) and emits per-frame attentive /
inattentive labels with per-distractor attribution: off-screen gaze (eye or
head model), speaking, drowsiness, and unattended screen. Ships with a
seeded synthetic-session generator that doubles as the verification oracle.
"""

from .boosting import BoostConfig, BoostedEnsemble, fit_boosted
from .cnn import CnnTrainConfig, TemporalCnn, gradient_check, train_cnn
from .config import PipelineConfig, ScoreConfig
from .errors import (
    AdwatchError,
    ConfigError,
    DataError,
    MissingArtifactError,
    SessionFormatError,
)
from .evaluation import frame_metrics, roc_auc, run_ablation
from .fusion import (
    SIGNAL_NAMES,
    DistractionTimeline,
    fuse,
    session_summary,
    signal_bits,
)
from .gaze import (
    Orientation,
    ScreenGeometry,
    SessionGazeStats,
    compute_session_stats,
    detect_orientation,
    estimate_screen,
    fine_tune,
    gaze_on_screen,
    normalize_gaze,
    valid_gaze_rays,
)
from .geometry import intersect_gaze_batch
from .head import HeadPoseStats, compute_head_stats, head_off_screen, select_gaze_source
from .pipeline import ArtifactSet, PipelineVariant, SessionDetectors, score_session
from .records import AU_NAMES, FrameArrays, SessionManifest
from .session_io import (
    load_frames,
    load_manifest,
    load_session,
    read_timeline,
    write_frames,
    write_manifest,
    write_timeline,
)
from .synth import ScenarioScript, Segment, SuiteConfig, generate, generate_suite

__version__ = "0.1.0"
