"""Pipeline configuration.

All tunable thresholds live here with their defaults. A config can be
loaded from a JSON file and overridden field by field; unknown keys are
rejected rather than ignored so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError

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
    cnn_epochs: int = 200
    cnn_learning_rate: float = 0.02
    cnn_batch_size: int = 128
    max_speaking_train_windows: int = 2000
    speaking_window_stride: int = 3


_FIELDS = {f.name for f in fields(PipelineConfig)}
_TUPLE_FIELDS = {"default_desktop_screen_cm", "mobile_screen_cm", "orientation_face_band"}


def config_from_mapping(mapping: dict, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    base = base or PipelineConfig()
    unknown = set(mapping) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    coerced = {}
    for key, value in mapping.items():
        if key in _TUPLE_FIELDS:
            try:
                coerced[key] = tuple(float(v) for v in value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key}: expected a pair of numbers") from exc
        else:
            coerced[key] = value
    try:
        cfg = replace(base, **coerced)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _validate(cfg)
    return cfg


def load_config(path: PathLike, base: Optional[PipelineConfig] = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        mapping = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(mapping, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return config_from_mapping(mapping, base=base)


# training fields: integer counts and their least allowed value
_TRAINING_COUNTS = {
    "gaze_stages": 1,
    "gaze_depth": 1,
    "yawn_stages": 1,
    "yawn_depth": 1,
    "max_gaze_train_rows": 1,
    "max_yawn_train_rows": 1,
    "cnn_epochs": 0,
    "cnn_batch_size": 1,
    "max_speaking_train_windows": 1,
    "speaking_window_stride": 1,
}


def _validate(cfg: PipelineConfig) -> None:
    for name, least in _TRAINING_COUNTS.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
    rate = cfg.cnn_learning_rate
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 < rate <= 1.0:
        raise ConfigError(f"cnn_learning_rate must lie in (0, 1], got {rate!r}")
    if not 0.0 <= cfg.quality_floor <= 1.0 or not 0.0 <= cfg.quality_gate <= 1.0:
        raise ConfigError("quality gates must lie in [0, 1]")
    if cfg.pvd_coefficient <= 0:
        raise ConfigError("pvd_coefficient must be positive")
    if cfg.window_samples < 5:
        raise ConfigError("window_samples must be at least 5")
    for name in ("speaking_min_event_s", "closure_min_event_s", "unattended_min_s"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be nonnegative")
    if any(v <= 0 for v in cfg.mobile_screen_cm) or any(
        v <= 0 for v in cfg.default_desktop_screen_cm
    ):
        raise ConfigError("screen dimensions must be positive")


def config_to_dict(cfg: PipelineConfig) -> dict:
    doc = asdict(cfg)
    for key in _TUPLE_FIELDS:
        doc[key] = list(doc[key])
    return doc
