"""Pipeline configuration.

All tunable thresholds live here with their defaults. A config can be
loaded from a JSON file and overridden field by field; unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError, MissingArtifactError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class PipelineConfig:
    # gaze model
    quality_floor: float = 0.3          # stats inclusion gate
    quality_gate: float = 0.5           # eye-vs-head source switch
    margin_cm: float = 1.0              # screen boundary tolerance
    pvd_coefficient: float = 3.0        # viewing distance = coeff * screen height
    desktop_aspect: float = 16.0 / 9.0
    default_desktop_screen_cm: tuple[float, float] = (35.6, 20.0)
    mobile_screen_cm: tuple[float, float] = (14.0, 7.0)   # (long edge, short edge)
    # orientation voting
    orientation_yaw_deg: float = 10.0
    orientation_face_band: tuple[float, float] = (0.35, 0.65)
    orientation_gaze_cm: float = 4.0
    # head model
    head_yaw_threshold_deg: float = 15.0
    head_pitch_threshold_deg: float = 12.0
    # speaking
    speaking_threshold: float = 0.5
    speaking_min_event_s: float = 1.0
    window_samples: int = 30
    window_span_s: float = 1.0
    min_valid_samples: int = 15
    max_hold_samples: int = 5
    # drowsiness
    closure_gate: float = 50.0
    au_gate: float = 20.0
    closure_min_event_s: float = 2.0
    yawn_smooth_s: float = 0.5
    yawn_threshold: float = 0.5
    # unattended
    unattended_min_s: float = 1.0
    # training
    gaze_stages: int = 100
    gaze_depth: int = 3
    yawn_stages: int = 100
    yawn_depth: int = 3
    max_gaze_train_rows: int = 4000
    max_yawn_train_rows: int = 6000
    cnn_epochs: int = 50
    cnn_learning_rate: float = 0.02
    cnn_batch_size: int = 128
    max_speaking_train_windows: int = 2000
    speaking_window_stride: int = 3

    def __post_init__(self) -> None:
        _validate(self)
        for name in _TUPLE_FIELDS:
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))


_FIELDS = {f.name for f in fields(PipelineConfig)}
_TUPLE_FIELDS = {"default_desktop_screen_cm", "mobile_screen_cm", "orientation_face_band"}


def config_from_mapping(mapping: dict, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    base = base or PipelineConfig()
    unknown = set(mapping) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return replace(base, **mapping)


def _read_json_object(path: Path, what: str, error: type) -> dict:
    """The JSON object in the ``what`` file at ``path``, or ``error`` if the
    file is missing, is not JSON or holds another JSON value.

    Every JSON document loader reads through this. It is private so that a
    tracer of the public functions counts the parse in the caller's module.
    """
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path}: expected a JSON object")
    return doc


def load_config(path: PathLike, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    return config_from_mapping(_read_json_object(Path(path), "config", ConfigError), base=base)


def _is_real(value) -> bool:
    """An int or float within the float range; bools are not numbers here."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    """A Python or numpy integer; bools are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _artifact_field(obj: dict, name: str, ok, what: str):
    """``obj[name]`` of a model artifact document if ``ok`` holds for it,
    otherwise a ``MissingArtifactError`` naming the field."""
    if name not in obj:
        raise MissingArtifactError(f"field {name!r} is missing")
    value = obj[name]
    if not ok(value):
        raise MissingArtifactError(f"field {name!r}: expected {what}, got {value!r:.60}")
    return value


def _artifact_curve(obj: dict) -> list[float]:
    """A model artifact's optional ``train_loss_curve``, a list of finite
    numbers."""
    curve = obj.get("train_loss_curve", [])
    if not (isinstance(curve, list) and all(map(_is_real, curve))):
        raise MissingArtifactError("field 'train_loss_curve': expected a list of finite numbers")
    return [float(v) for v in curve]


def _is_real_pair(value) -> bool:
    """A list or tuple of exactly two numbers, each as ``_is_real`` counts them."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))


def _at_least(least):
    return (lambda v: v >= least), f"be at least {least}"


def _within(lo, hi):
    return (lambda v: lo <= v <= hi), f"lie in [{lo}, {hi}]"


_POSITIVE = ((lambda v: v > 0), "be positive")

# every scalar field's range; its type (int or float) comes from its annotation
_RANGES = {
    # probabilities and the quality gates on the 0-1 tracker quality
    "quality_floor": _within(0, 1),
    "quality_gate": _within(0, 1),
    "speaking_threshold": _within(0, 1),
    "yawn_threshold": _within(0, 1),
    # eye closure and AU intensities are on a 0-100 scale (FORMATS.md)
    "closure_gate": _within(0, 100),
    "au_gate": _within(0, 100),
    "margin_cm": _at_least(0),
    "pvd_coefficient": _POSITIVE,
    "desktop_aspect": _POSITIVE,
    "orientation_yaw_deg": _at_least(0),
    "orientation_gaze_cm": _at_least(0),
    "head_yaw_threshold_deg": _at_least(0),
    "head_pitch_threshold_deg": _at_least(0),
    "window_span_s": _POSITIVE,
    # durations a run must exceed; 0 counts every run
    "speaking_min_event_s": _at_least(0),
    "closure_min_event_s": _at_least(0),
    "unattended_min_s": _at_least(0),
    # 0 turns the yawn vote smoothing off
    "yawn_smooth_s": _at_least(0),
    "window_samples": _at_least(5),
    "min_valid_samples": _at_least(0),
    "max_hold_samples": _at_least(0),
    "gaze_stages": _at_least(1),
    "gaze_depth": _at_least(1),
    "yawn_stages": _at_least(1),
    "yawn_depth": _at_least(1),
    "max_gaze_train_rows": _at_least(1),
    "max_yawn_train_rows": _at_least(1),
    "cnn_epochs": _at_least(0),
    "cnn_learning_rate": ((lambda v: 0 < v <= 1), "lie in (0, 1]"),
    "cnn_batch_size": _at_least(1),
    "max_speaking_train_windows": _at_least(1),
    "speaking_window_stride": _at_least(1),
}


def _validate(cfg: PipelineConfig) -> None:
    for f in fields(PipelineConfig):
        value = getattr(cfg, f.name)
        if f.name in _TUPLE_FIELDS:
            if not _is_real_pair(value):
                raise ConfigError(f"{f.name} must be a pair of finite numbers, got {value!r}")
            continue
        if f.type == "int":     # annotations are strings (postponed evaluation)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        elif not _is_real(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        ok, rule = _RANGES[f.name]
        if not ok(value):
            raise ConfigError(f"{f.name} must {rule}, got {value!r}")
    for name in ("default_desktop_screen_cm", "mobile_screen_cm"):
        if any(v <= 0 for v in getattr(cfg, name)):
            raise ConfigError(f"{name}: screen dimensions must be positive")
    lo, hi = cfg.orientation_face_band
    if not 0 <= lo < hi <= 1:
        raise ConfigError(
            f"orientation_face_band must be an increasing pair in [0, 1], got {[lo, hi]}"
        )
    if cfg.min_valid_samples > cfg.window_samples:
        raise ConfigError(
            f"min_valid_samples ({cfg.min_valid_samples}) must not exceed "
            f"window_samples ({cfg.window_samples})"
        )


def check_seed(seed, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``seed`` is an integer of at least 0, which is
    what numpy's generators accept; a bool is not a seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise error(f"seed must be an integer of at least 0, got {seed!r}")
