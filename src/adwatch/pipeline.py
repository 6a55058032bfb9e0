"""End-to-end per-session scoring.

Runs five detectors over one session and fuses their signals: the eye gaze
(gaze stats, orientation and screen geometry, the per-frame eye-vs-head
source switch), the head gaze, speaking, drowsiness and unattended screen.
A ``PipelineVariant`` switches individual processing steps or signals off,
which is how the ablation harness removes one step at a time while
everything else stays identical; a per-session memo of detector outputs
lets it compute each output once for all the variants that share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from . import artifacts as artifacts_io
from .boosting import BoostedEnsemble
from .cnn import TemporalCnn
from .config import PipelineConfig
from .drowsiness import drowsiness_signal, refined_eye_closure, yawn_flags
from .errors import MissingArtifactError, SessionUntrackableError
from .fusion import DistractionTimeline, fuse, unattended_signal
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
    valid_gaze_mask,
)
from .geometry import intersect_gaze_batch
from .head import compute_head_stats, head_off_screen, select_gaze_source
from .records import FrameArrays, SessionManifest
from .speaking import speaking_flags
from .temporal import distracting_mask, events_from_flags

PathLike = Union[str, Path]

GAZE_ARTIFACT = "gaze_regressors.json"
SPEAKING_ARTIFACT = "speaking_cnn.json"
YAWN_ARTIFACT = "yawn_classifier.json"


@dataclass
class ArtifactSet:
    gaze: Optional[dict[str, dict[str, BoostedEnsemble]]] = None
    speaking: Optional[TemporalCnn] = None
    yawn: Optional[BoostedEnsemble] = None

    @classmethod
    def load(cls, artifact_dir: PathLike) -> "ArtifactSet":
        artifact_dir = Path(artifact_dir)
        missing = [
            name
            for name in (GAZE_ARTIFACT, SPEAKING_ARTIFACT, YAWN_ARTIFACT)
            if not (artifact_dir / name).exists()
        ]
        if missing:
            raise MissingArtifactError(
                f"missing model artifacts in {artifact_dir}: {', '.join(missing)}"
            )
        return cls(
            gaze=artifacts_io.load_gaze_regressors(artifact_dir / GAZE_ARTIFACT),
            speaking=artifacts_io.load_speaking_cnn(artifact_dir / SPEAKING_ARTIFACT),
            yawn=artifacts_io.load_yawn_classifier(artifact_dir / YAWN_ARTIFACT),
        )

    def gaze_pair(self, device_type: str) -> dict[str, BoostedEnsemble]:
        if self.gaze is None or device_type not in self.gaze:
            raise MissingArtifactError(
                f"no gaze regressors for device type {device_type!r}"
            )
        return self.gaze[device_type]


@dataclass(frozen=True)
class PipelineVariant:
    """Feature switches for ablation runs; the default is the full model."""

    name: str = "full"
    normalize: bool = True
    fine_tune: bool = True
    screen_size: bool = True
    use_gaze: bool = True
    use_head: bool = True
    use_speaking: bool = True
    use_drowsiness: bool = True
    use_unattended: bool = True


FULL_VARIANT = PipelineVariant()

TABLE1_VARIANTS = (
    PipelineVariant(name="w/o normalization", normalize=False),
    PipelineVariant(name="w/o fine-tuning", fine_tune=False),
    PipelineVariant(name="w/o screen size detection", screen_size=False),
    PipelineVariant(name="full model"),
)

TABLE3_VARIANTS = (
    PipelineVariant(
        name="head model only",
        use_gaze=False, use_speaking=False, use_drowsiness=False, use_unattended=False,
    ),
    PipelineVariant(
        name="+ gaze model",
        use_speaking=False, use_drowsiness=False, use_unattended=False,
    ),
    PipelineVariant(name="+ drowsiness", use_speaking=False, use_unattended=False),
    PipelineVariant(name="+ speaking", use_unattended=False),
    PipelineVariant(name="+ unattended screen (all)"),
)


@dataclass
class ScoredSession:
    timeline: DistractionTimeline
    orientation: Orientation
    screen: Optional[ScreenGeometry] = None
    stats: Optional[SessionGazeStats] = None


class _EyeGaze(NamedTuple):
    """The eye-gaze detector's signal plus the session facts it decided on."""

    signal: np.ndarray                  # (n,) bool, off-screen by the eye path
    eye_path: np.ndarray                # (n,) bool, frames the eye path scores
    stats: Optional[SessionGazeStats]   # None when the gaze stream is untrackable
    orientation: Orientation
    screen: Optional[ScreenGeometry]


def _eye_gaze(
    frames: FrameArrays,
    manifest: SessionManifest,
    artifacts: ArtifactSet,
    config: PipelineConfig,
    normalize: bool,
    tune: bool,
    size_detection: bool,
) -> _EyeGaze:
    n = len(frames)
    signal = np.zeros(n, dtype=bool)
    try:
        stats = compute_session_stats(frames, config.quality_floor)
    except SessionUntrackableError:
        return _EyeGaze(signal, np.zeros(n, dtype=bool), None, Orientation.CENTERED, None)
    orientation = Orientation.CENTERED
    if manifest.device_type == "mobile":
        orientation = detect_orientation(stats, config)
    screen = estimate_screen(
        stats,
        manifest.device_type,
        config,
        orientation=orientation,
        override_cm=manifest.screen_override_cm,
        use_size_detection=size_detection,
    )
    eye_path = select_gaze_source(frames.quality, frames.face_gaze, config.quality_gate)
    # below the stats floor the ray is too unreliable even for the eye path
    eye_path &= valid_gaze_mask(frames, config.quality_floor)
    if np.any(eye_path):
        points, _, toward, _ = intersect_gaze_batch(
            frames.pupil[eye_path], frames.direction[eye_path]
        )
        finite = np.all(np.isfinite(points), axis=1)
        pts = points.copy()
        if normalize:
            pts[finite] = normalize_gaze(pts[finite], stats)
        if tune:
            pair = artifacts.gaze_pair(manifest.device_type)
            pts[finite] = fine_tune(pts[finite], pair)
        on = gaze_on_screen(pts, toward, screen)
        signal[eye_path] = ~on
    return _EyeGaze(signal, eye_path, stats, orientation, screen)


def _head_gaze(frames: FrameArrays, eye_path: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """Off-screen head pose on the tracked frames the eye path leaves over."""
    signal = np.zeros(len(frames), dtype=bool)
    try:
        head_stats = compute_head_stats(frames)
    except SessionUntrackableError:
        return signal
    head_candidates = frames.face_expr & ~eye_path
    if np.any(head_candidates):
        signal[head_candidates] = head_off_screen(
            frames.yaw[head_candidates], frames.pitch[head_candidates], head_stats, config
        )
    return signal


def _speaking(
    frames: FrameArrays, net: Optional[TemporalCnn], config: PipelineConfig, fps: float
) -> np.ndarray:
    flags = speaking_flags(frames, net, config)
    events = events_from_flags(flags, fps, config.speaking_min_event_s)
    return distracting_mask(events, len(frames))


def _drowsiness(
    frames: FrameArrays, yawn_model: Optional[BoostedEnsemble], config: PipelineConfig, fps: float
) -> np.ndarray:
    closure = refined_eye_closure(frames.eye_closure, frames.aus, config) & frames.face_expr
    events = events_from_flags(closure, fps, config.closure_min_event_s)
    yawns = yawn_flags(frames, yawn_model, config, fps)
    return drowsiness_signal(events, yawns, len(frames))


def _unattended(frames: FrameArrays, config: PipelineConfig, fps: float) -> np.ndarray:
    return unattended_signal(~frames.face_expr, ~frames.face_gaze, fps, config.unattended_min_s)


def _memoised(memo: Optional[dict], key: tuple, detect: Callable[[], Any]) -> Any:
    """``detect()``, computed once per ``key`` when a memo is given.

    Stored arrays are made read-only: every variant that reads them gets the
    same objects, so a write through one would change the others' results.
    """
    if memo is None:
        return detect()
    if key not in memo:
        out = detect()
        for value in out if isinstance(out, tuple) else (out,):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        memo[key] = out
    return memo[key]


def score_session(
    frames: FrameArrays,
    manifest: SessionManifest,
    artifacts: ArtifactSet,
    config: PipelineConfig = PipelineConfig(),
    variant: PipelineVariant = FULL_VARIANT,
    memo: Optional[dict] = None,
) -> ScoredSession:
    """Run the detectors ``variant`` switches on and fuse their signals.

    ``memo`` is an optional per-session store of detector outputs, for
    scoring one session under several variants. Each output is keyed by its
    detector plus exactly the variant switches it reads: the eye gaze by
    ``normalize``, ``fine_tune`` and ``screen_size``, the head gaze by
    ``use_gaze`` (it scores the frames the eye path leaves over), and the
    speaking, drowsiness and unattended detectors by nothing. Share a memo
    only between calls with the same frames, manifest, artifacts and config.
    """
    n = len(frames)
    fps = manifest.frame_rate_hz
    off = np.zeros(n, dtype=bool)

    eye = _EyeGaze(off, off, None, Orientation.CENTERED, None)
    if variant.use_gaze:
        switches = (variant.normalize, variant.fine_tune, variant.screen_size)
        eye = _memoised(
            memo, ("eye_gaze", *switches),
            lambda: _eye_gaze(frames, manifest, artifacts, config, *switches),
        )
    gaze_head = off
    if variant.use_head:
        gaze_head = _memoised(
            memo, ("head_gaze", variant.use_gaze),
            lambda: _head_gaze(frames, eye.eye_path, config),
        )
    speaking = off
    if variant.use_speaking:
        speaking = _memoised(
            memo, ("speaking",), lambda: _speaking(frames, artifacts.speaking, config, fps)
        )
    drowsy = off
    if variant.use_drowsiness:
        drowsy = _memoised(
            memo, ("drowsiness",), lambda: _drowsiness(frames, artifacts.yawn, config, fps)
        )
    unattended = off
    if variant.use_unattended:
        unattended = _memoised(memo, ("unattended",), lambda: _unattended(frames, config, fps))

    timeline = fuse(
        eye.signal, gaze_head, speaking, drowsy, unattended, frame_index=frames.frame_index
    )
    return ScoredSession(
        timeline=timeline, orientation=eye.orientation, screen=eye.screen, stats=eye.stats
    )
