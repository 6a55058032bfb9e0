import json

import pytest

from adwatch.config import PipelineConfig, config_from_mapping, config_to_dict, load_config
from adwatch.errors import ConfigError


def test_defaults_are_sane():
    cfg = PipelineConfig()
    assert cfg.quality_floor <= cfg.quality_gate
    assert cfg.speaking_min_event_s == 1.0
    assert cfg.closure_min_event_s == 2.0
    assert cfg.unattended_min_s == 1.0
    assert cfg.window_samples == 30


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping({"margn_cm": 2.0})


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"margin_cm": 2.5, "mobile_screen_cm": [15.0, 7.5]}))
    cfg = load_config(path)
    assert cfg.margin_cm == 2.5
    assert cfg.mobile_screen_cm == (15.0, 7.5)
    assert cfg.quality_gate == PipelineConfig().quality_gate


def test_layered_overrides():
    base = config_from_mapping({"margin_cm": 2.5})
    top = config_from_mapping({"quality_gate": 0.6}, base=base)
    assert top.margin_cm == 2.5
    assert top.quality_gate == 0.6


def test_validation_failures():
    with pytest.raises(ConfigError):
        config_from_mapping({"quality_gate": 1.5})
    with pytest.raises(ConfigError):
        config_from_mapping({"pvd_coefficient": 0.0})
    with pytest.raises(ConfigError):
        config_from_mapping({"mobile_screen_cm": [0.0, 7.0]})
    with pytest.raises(ConfigError):
        config_from_mapping({"mobile_screen_cm": "wide"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("cnn_batch_size", 0),
        ("gaze_stages", 2.5),
        ("yawn_depth", -1),
        ("cnn_epochs", -3),
        ("gaze_depth", True),
        ("yawn_stages", "100"),
        ("max_gaze_train_rows", 0),
        ("max_yawn_train_rows", 0),
        ("max_speaking_train_windows", 0),
        ("speaking_window_stride", 0),
        ("cnn_learning_rate", 0.0),
        ("cnn_learning_rate", 1.5),
        ("cnn_learning_rate", "abc"),
    ],
)
def test_validation_failures_training_fields(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: value})


def test_training_field_limits_accepted():
    cfg = config_from_mapping({"cnn_epochs": 0, "cnn_learning_rate": 1, "gaze_depth": 1})
    assert (cfg.cnn_epochs, cfg.cnn_learning_rate, cfg.gaze_depth) == (0, 1, 1)


@pytest.mark.parametrize(
    "key, value",
    [
        ("quality_gate", "abc"),
        ("quality_floor", None),
        ("window_samples", 5.5),
        ("max_hold_samples", 2.0),
        ("min_valid_samples", -1),
        ("min_valid_samples", 31),              # more than window_samples (30)
        ("window_span_s", -1),
        ("window_span_s", 0),
        ("speaking_threshold", 7),
        ("yawn_threshold", -0.1),
        ("closure_gate", 150),
        ("au_gate", -1),
        ("margin_cm", True),
        ("margin_cm", float("nan")),
        ("margin_cm", 10**400),
        ("desktop_aspect", 0),
        ("head_yaw_threshold_deg", -5),
        ("orientation_gaze_cm", "4"),
        ("unattended_min_s", float("inf")),
        ("yawn_smooth_s", -0.5),
        ("speaking_min_event_s", "1"),
        ("orientation_face_band", [0.9, 0.1]),
        ("orientation_face_band", [0.2, 1.5]),
        ("orientation_face_band", [0.1, 0.2, 0.3]),
        ("mobile_screen_cm", [True, 7.0]),
        ("mobile_screen_cm", [10**400, 7.0]),
        ("default_desktop_screen_cm", ["35.6", "20"]),
    ],
)
def test_validation_failures_scoring_fields(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({key: value})


def test_scoring_field_limits_accepted():
    limits = {
        "quality_floor": 0, "quality_gate": 1, "speaking_threshold": 1, "yawn_threshold": 0,
        "closure_gate": 100, "au_gate": 0, "margin_cm": 0, "yawn_smooth_s": 0,
        "speaking_min_event_s": 0, "window_span_s": 0.25, "min_valid_samples": 30,
        "max_hold_samples": 0, "orientation_face_band": [0, 1],
    }
    cfg = config_from_mapping(limits)
    assert config_to_dict(cfg) == {**config_to_dict(PipelineConfig()), **limits}


def test_missing_or_invalid_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(bad)


def test_round_trip_through_dict():
    cfg = config_from_mapping({"margin_cm": 3.0})
    again = config_from_mapping(config_to_dict(cfg))
    assert again == cfg
