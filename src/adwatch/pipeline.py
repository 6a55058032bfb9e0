"""End-to-end per-session scoring.

Five detectors run over one session and their signals are fused: the eye
gaze (gaze stats, orientation and screen geometry, the per-frame eye-vs-head
source switch), the head gaze, speaking, drowsiness and unattended screen.
A ``PipelineVariant`` switches individual processing steps off and names
the signals whose bits of the fused mask it keeps, which is how the
ablation harness removes one step or adds one signal at a time while
everything else stays identical; variants scored through one
``SessionDetectors`` share every step they have in common.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import artifacts as artifacts_io
from .artifacts import GAZE_ARTIFACT, SPEAKING_ARTIFACT, YAWN_ARTIFACT
from .boosting import BoostedEnsemble
from .cnn import TemporalCnn
from .config import PipelineConfig
from .drowsiness import refined_eye_closure, yawn_flags
from .errors import MissingArtifactError, SessionUntrackableError
from .fusion import SIGNAL_NAMES, DistractionTimeline, fuse, signal_bits
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
from .head import compute_head_stats, head_off_screen, select_gaze_source
from .records import FrameArrays, SessionManifest
from .speaking import speaking_flags
from .temporal import frames_within, long_runs

PathLike = Union[str, Path]


@dataclass
class ArtifactSet:
    """The three trained models every session is scored with."""

    gaze: dict[str, dict[str, BoostedEnsemble]]
    speaking: TemporalCnn
    yawn: BoostedEnsemble

    @classmethod
    def load(cls, artifact_dir: PathLike) -> "ArtifactSet":
        """The set in ``artifact_dir``; a missing file, named with every other
        missing one, or a model that does not load raises MissingArtifactError."""
        artifact_dir = Path(artifact_dir)
        paths = [artifact_dir / name for name in (GAZE_ARTIFACT, SPEAKING_ARTIFACT, YAWN_ARTIFACT)]
        missing = [path.name for path in paths if not path.exists()]
        if missing:
            raise MissingArtifactError(
                f"missing model artifacts in {artifact_dir}: {', '.join(missing)}"
            )
        gaze, speaking, yawn = paths
        return cls(
            gaze=artifacts_io.load_gaze_regressors(gaze),
            speaking=artifacts_io.load_speaking_cnn(speaking),
            yawn=artifacts_io.load_yawn_classifier(yawn),
        )


@dataclass(frozen=True)
class PipelineVariant:
    """Step switches and kept signals for ablation runs; the default is the
    full model. Without ``gaze_eye`` the head pose scores every tracked frame."""

    name: str = "full"
    normalize: bool = True
    fine_tune: bool = True
    screen_size: bool = True
    signals: frozenset[str] = frozenset(SIGNAL_NAMES)


FULL_VARIANT = PipelineVariant()

TABLE1_VARIANTS = (
    PipelineVariant(name="w/o normalization", normalize=False),
    PipelineVariant(name="w/o fine-tuning", fine_tune=False),
    PipelineVariant(name="w/o screen size detection", screen_size=False),
    PipelineVariant(name="full model"),
)

# each row keeps one more signal than the row before it
_TABLE3_SIGNALS = ("gaze_head", "gaze_eye", "drowsiness", "speaking", "unattended")
TABLE3_VARIANTS = tuple(
    PipelineVariant(name=name, signals=frozenset(_TABLE3_SIGNALS[: k + 1]))
    for k, name in enumerate(
        ("head model only", "+ gaze model", "+ drowsiness", "+ speaking", "+ unattended screen (all)")
    )
)


@dataclass
class ScoredSession:
    timeline: DistractionTimeline
    orientation: Orientation
    screen: Optional[ScreenGeometry] = None
    stats: Optional[SessionGazeStats] = None


def _step(method):
    """Run ``method`` once per setting of its arguments, the switches it reads.

    Cached arrays are made read-only: every variant that reads them gets the
    same objects, so a write through one would change the others' results.
    """
    @functools.wraps(method)
    def cached(self, *switches):
        key = (method.__name__, *switches)
        if key not in self._cache:
            out = method(self, *switches)
            for value in out if isinstance(out, tuple) else (out,):
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            self._cache[key] = out
        return self._cache[key]
    return cached


@dataclass(eq=False)
class SessionDetectors:
    """One session's detector steps, each computed once for every setting of
    exactly the ``PipelineVariant`` switches it reads, which are its arguments.
    The session facts (``rays``, ``stats``, ``orientation``, ``eye_path``,
    ``eye_rays``) read none; the orientation, screen and corrected points need
    a trackable gaze stream, one whose ``stats()`` is not None. Only here are
    the config's durations turned into frames of the manifest's rate."""

    frames: FrameArrays
    manifest: SessionManifest
    artifacts: ArtifactSet
    config: PipelineConfig
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @_step
    def rays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(valid, points, toward) of every valid gaze ray, intersected once."""
        return valid_gaze_rays(self.frames, self.config.quality_floor)

    @_step
    def stats(self) -> Optional[SessionGazeStats]:
        """The session gaze stats; None when the gaze stream is untrackable."""
        try:
            return compute_session_stats(self.frames, self.rays())
        except SessionUntrackableError:
            return None

    @_step
    def orientation(self) -> Orientation:
        if self.manifest.device_type != "mobile":
            return Orientation.CENTERED
        return detect_orientation(self.stats(), self.config)

    @_step
    def eye_path(self) -> np.ndarray:
        """Frames the eye gaze scores: none when the gaze stream is untrackable."""
        frames, config = self.frames, self.config
        if self.stats() is None:
            return np.zeros(len(frames), dtype=bool)
        path = select_gaze_source(frames.quality, frames.face_gaze, config.quality_gate)
        # below the stats floor the ray is too unreliable even for the eye path
        return path & self.rays()[0]

    @_step
    def eye_rays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, toward, finite) where the eye path's rays meet the screen plane."""
        valid, points, toward = self.rays()
        keep = self.eye_path()[valid]
        points = points[keep]
        return points, toward[keep], np.all(np.isfinite(points), axis=1)

    @_step
    def corrected_points(self, normalize: bool, tune: bool) -> np.ndarray:
        points, _, finite = self.eye_rays()
        points = points.copy()
        if normalize:
            points[finite] = normalize_gaze(points[finite], self.stats())
        if tune:
            points[finite] = fine_tune(points[finite], self.artifacts.gaze[self.manifest.device_type])
        return points

    @_step
    def screen(self, screen_size: bool) -> ScreenGeometry:
        return estimate_screen(
            self.stats(),
            self.manifest.device_type,
            self.config,
            orientation=self.orientation(),
            override_cm=self.manifest.screen_override_cm,
            use_size_detection=screen_size,
        )

    @_step
    def eye_gaze(self, normalize: bool, tune: bool, screen_size: bool) -> np.ndarray:
        """Off-screen by the eye path."""
        signal = np.zeros(len(self.frames), dtype=bool)
        path = self.eye_path()
        if np.any(path):
            _, toward, _ = self.eye_rays()
            points = self.corrected_points(normalize, tune)
            signal[path] = ~gaze_on_screen(points, toward, self.screen(screen_size))
        return signal

    @_step
    def head_gaze(self, after_eye: bool) -> np.ndarray:
        """Off-screen head pose on the tracked frames the eye path leaves over,
        or on every tracked frame when not ``after_eye``."""
        frames = self.frames
        signal = np.zeros(len(frames), dtype=bool)
        candidates = frames.face_expr & ~self.eye_path() if after_eye else frames.face_expr
        # with a candidate there is a tracked face, so the head stats exist
        if np.any(candidates):
            signal[candidates] = head_off_screen(
                frames.yaw[candidates], frames.pitch[candidates],
                compute_head_stats(frames), self.config,
            )
        return signal

    def _frames(self, seconds: float) -> int:
        return frames_within(seconds, self.manifest.frame_rate_hz)

    @_step
    def speaking(self) -> np.ndarray:
        flags = speaking_flags(self.frames, self.artifacts.speaking, self.config)
        return long_runs(flags, self._frames(self.config.speaking_min_event_s))

    @_step
    def drowsiness(self) -> np.ndarray:
        frames, config = self.frames, self.config
        closure = refined_eye_closure(frames.eye_closure, frames.aus, config) & frames.face_expr
        vote = int(round(config.yawn_smooth_s * self.manifest.frame_rate_hz))
        return long_runs(closure, self._frames(config.closure_min_event_s)) | yawn_flags(
            frames, self.artifacts.yawn, config, vote
        )

    @_step
    def unattended(self) -> np.ndarray:
        lost = ~self.frames.face_expr & ~self.frames.face_gaze
        return long_runs(lost, self._frames(self.config.unattended_min_s))


def score_session(
    session: SessionDetectors, variant: PipelineVariant = FULL_VARIANT
) -> ScoredSession:
    """Fuse all five signals and keep the bits of ``variant.signals``. The eye
    gaze of an untrackable stream is all false, and its facts stay unset."""
    eye = np.zeros(len(session.frames), dtype=bool)
    facts = {"orientation": Orientation.CENTERED}
    if session.stats() is not None:
        facts = {
            "orientation": session.orientation(),
            "screen": session.screen(variant.screen_size),
            "stats": session.stats(),
        }
        eye = session.eye_gaze(variant.normalize, variant.fine_tune, variant.screen_size)
    timeline = fuse(
        eye,
        session.head_gaze("gaze_eye" in variant.signals),
        session.speaking(),
        session.drowsiness(),
        session.unattended(),
        frame_index=session.frames.frame_index,
    )
    timeline.mask &= signal_bits(variant.signals)
    return ScoredSession(timeline=timeline, **facts)
