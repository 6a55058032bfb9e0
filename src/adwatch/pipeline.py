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
from .config import ScoreConfig
from .drowsiness import refined_eye_closure, yawn_flags
from .errors import MissingArtifactError
from .fusion import SIGNAL_NAMES, DistractionTimeline, fuse, signal_bits
from .gaze import (
    GazeRegressors,
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
from .speaking import SpeakingCnn, speaking_flags
from .temporal import frames_within, long_runs

PathLike = Union[str, Path]


@dataclass
class ArtifactSet:
    """The three trained models every session is scored with. The gaze and
    speaking models carry the input contract they were trained at."""

    gaze: GazeRegressors
    speaking: SpeakingCnn
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
    The session facts (``rays``, ``stats``, ``orientation``, ``eye_path``)
    read none. The facts a caller reports (``stats()``, ``orientation()``,
    ``screen(...)``) are read from here; ``score_session`` returns only the
    timeline. A gaze stream is untrackable when ``stats()`` is None, the one
    test of it: then the eye path is empty, ``eye_gaze`` is all false,
    ``orientation()`` is centered, ``screen(...)`` is None, and the head pose
    scores every tracked frame. Every array a step returns has one row per
    frame. Only here are the config's durations turned into frames of the
    manifest's rate."""

    frames: FrameArrays
    manifest: SessionManifest
    artifacts: ArtifactSet
    config: ScoreConfig
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @_step
    def rays(self) -> tuple[np.ndarray, np.ndarray]:
        """(valid, points) of every frame's gaze ray at the gaze model's
        quality floor, the valid ones intersected once."""
        return valid_gaze_rays(self.frames, self.artifacts.gaze.min_quality)

    @_step
    def stats(self) -> Optional[SessionGazeStats]:
        """The session gaze stats; None when the gaze stream is untrackable."""
        return compute_session_stats(self.frames, self.rays())

    @_step
    def orientation(self) -> Orientation:
        if self.manifest.device_type != "mobile" or self.stats() is None:
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
    def corrected_points(self, normalize: bool, tune: bool) -> np.ndarray:
        """The gaze points, corrected on the eye-path frames whose ray meets
        the screen plane in front of the viewer."""
        points = self.rays()[1].copy()
        rows = self.eye_path() & np.all(np.isfinite(points), axis=1)
        if normalize:
            points[rows] = normalize_gaze(points[rows], self.stats())
        if tune:
            points[rows] = fine_tune(points[rows], self.artifacts.gaze.by_device[self.manifest.device_type])
        return points

    @_step
    def screen(self, screen_size: bool) -> Optional[ScreenGeometry]:
        """The screen rectangle; None when the gaze stream is untrackable."""
        if self.stats() is None:
            return None
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
        """Off-screen by the eye path; all false when the gaze stream is untrackable."""
        if self.stats() is None:
            return np.zeros(len(self.frames), dtype=bool)
        points = self.corrected_points(normalize, tune)
        return self.eye_path() & ~gaze_on_screen(points, self.screen(screen_size))

    @_step
    def head_gaze(self, after_eye: bool) -> np.ndarray:
        """Off-screen head pose on the tracked frames the eye path leaves over,
        or on every tracked frame when not ``after_eye``."""
        frames = self.frames
        candidates = frames.face_expr & ~self.eye_path() if after_eye else frames.face_expr
        # with a candidate there is a tracked face, so the head stats exist
        if not np.any(candidates):
            return np.zeros(len(frames), dtype=bool)
        return candidates & head_off_screen(frames.yaw, frames.pitch, compute_head_stats(frames), self.config)

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
) -> DistractionTimeline:
    """The session's timeline: all five signals fused, with the bits of
    ``variant.signals`` kept."""
    timeline = fuse(
        session.eye_gaze(variant.normalize, variant.fine_tune, variant.screen_size),
        session.head_gaze("gaze_eye" in variant.signals),
        session.speaking(),
        session.drowsiness(),
        session.unattended(),
        frame_index=session.frames.frame_index,
    )
    timeline.mask &= signal_bits(variant.signals)
    return timeline
