import inspect
import json
from dataclasses import asdict, fields

import pytest

from adwatch.boosting import _BOOST_RULES, fit_boosted
from adwatch.cnn import _TRAIN_RULES, train_cnn
from adwatch.config import (
    _PIPELINE_RULES,
    _SCORE_RULES,
    PipelineConfig,
    ScoreConfig,
    _check_fields,
    _int,
    _optional,
    _or_null,
    _pair,
    _read_json_object,
    _real,
    config_from_mapping,
)
from adwatch.errors import ConfigError
from adwatch.records import _MANIFEST_RULES, SessionManifest
from adwatch.synth import (
    _ENTRY_RULES,
    _SCRIPT_RULES,
    _SEGMENT_RULES,
    _SUITE_RULES,
    ScenarioScript,
    Segment,
    SuiteConfig,
    SuiteEntry,
)


def config_to_dict(cfg) -> dict:
    """The config as ``config_from_mapping`` reads it: pairs as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}


def holder(key: str):
    """A default instance of the config object that has the field ``key``."""
    return PipelineConfig() if key in _PIPELINE_RULES else ScoreConfig()


def test_defaults_are_sane():
    train, score = PipelineConfig(), ScoreConfig()
    assert train.quality_floor <= score.quality_gate
    assert score.speaking_min_event_s == 1.0
    assert score.closure_min_event_s == 2.0
    assert score.unattended_min_s == 1.0
    assert train.window_samples == 30


def test_the_two_objects_split_the_fields_by_reader():
    # train reads 16 fields, score and ablate 19; no field is in both
    train = {f.name for f in fields(PipelineConfig)}
    score = {f.name for f in fields(ScoreConfig)}
    assert (len(train), len(score)) == (16, 19)
    assert not train & score


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match=r"^config: unknown keys \['margn_cm'\]$"):
        config_from_mapping(ScoreConfig(), ("config", {"margn_cm": 2.0}))
    # a field of the other object is not one of this one's
    with pytest.raises(ConfigError, match=r"^config: unknown keys \['window_span_s'\]$"):
        config_from_mapping(ScoreConfig(), ("config", {"window_span_s": 1.0}))
    with pytest.raises(ConfigError, match=r"^config: unknown keys \['margin_cm'\]$"):
        config_from_mapping(PipelineConfig(), ("config", {"margin_cm": 1.0}))


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"margin_cm": 2.5, "mobile_screen_cm": [15.0, 7.5]}))
    cfg = config_from_mapping(ScoreConfig(), ("config", _read_json_object(path, "config", ConfigError)))
    assert cfg.margin_cm == 2.5
    assert cfg.mobile_screen_cm == (15.0, 7.5)
    assert cfg.quality_gate == ScoreConfig().quality_gate


def test_layered_overrides():
    base = config_from_mapping(ScoreConfig(), ("config", {"margin_cm": 2.5}))
    top = config_from_mapping(base, ("config", {"quality_gate": 0.6}))
    assert top.margin_cm == 2.5
    assert top.quality_gate == 0.6
    # in one call, a later layer wins
    both = config_from_mapping(ScoreConfig(), ("a", {"margin_cm": 2.5, "quality_gate": 0.7}),
                               ("b", {"quality_gate": 0.6}))
    assert both == top


def test_each_layer_is_named_and_a_rule_over_two_fields_reads_the_merged_object():
    with pytest.raises(ConfigError, match=r"^b: unknown keys \['margn_cm'\]$"):
        config_from_mapping(ScoreConfig(), ("a", {"margin_cm": 2.0}), ("b", {"margn_cm": 2.0}))
    with pytest.raises(ConfigError, match=r'^a: margin_cm must be a finite number >= 0, got "2"$'):
        config_from_mapping(ScoreConfig(), ("a", {"margin_cm": "2"}), ("b", {"margin_cm": 2.0}))
    # the first layer alone breaks min_valid_samples <= window_samples; the
    # second mends it
    cfg = config_from_mapping(PipelineConfig(), ("a", {"window_samples": 10}), ("b", {"min_valid_samples": 5}))
    assert (cfg.window_samples, cfg.min_valid_samples) == (10, 5)
    with pytest.raises(ConfigError, match=r"^config: min_valid_samples \(15\) must not exceed window_samples \(12\)$"):
        config_from_mapping(PipelineConfig(), ("a", {"window_samples": 10}), ("b", {"window_samples": 12}))


def test_validation_failures():
    with pytest.raises(ConfigError):
        config_from_mapping(ScoreConfig(), ("config", {"quality_gate": 1.5}))
    with pytest.raises(ConfigError):
        config_from_mapping(ScoreConfig(), ("config", {"pvd_coefficient": 0.0}))
    with pytest.raises(ConfigError):
        config_from_mapping(ScoreConfig(), ("config", {"mobile_screen_cm": [0.0, 7.0]}))
    with pytest.raises(ConfigError):
        config_from_mapping(ScoreConfig(), ("config", {"mobile_screen_cm": "wide"}))


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
        config_from_mapping(PipelineConfig(), ("config", {key: value}))


def test_training_field_limits_accepted():
    limits = {"cnn_epochs": 0, "cnn_learning_rate": 1, "gaze_depth": 1}
    cfg = config_from_mapping(PipelineConfig(), ("config", limits))
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
    # each on the object that has the field: the model-input ones are train's
    with pytest.raises(ConfigError, match=key):
        config_from_mapping(holder(key), ("config", {key: value}))


@pytest.mark.parametrize("limits", [
    {"quality_gate": 1, "speaking_threshold": 1, "yawn_threshold": 0, "closure_gate": 100, "au_gate": 0,
     "margin_cm": 0, "yawn_smooth_s": 0, "speaking_min_event_s": 0, "orientation_face_band": [0, 1]},
    {"quality_floor": 0, "window_span_s": 0.25, "min_valid_samples": 30, "max_hold_samples": 0},
], ids=["score", "model_inputs"])
def test_scoring_field_limits_accepted(limits):
    base = holder(next(iter(limits)))
    cfg = config_from_mapping(base, ("config", limits))
    assert config_to_dict(cfg) == {**config_to_dict(base), **limits}


def test_missing_or_invalid_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        _read_json_object(tmp_path / "nope.json", "config", ConfigError)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        _read_json_object(bad, "config", ConfigError)


@pytest.mark.parametrize("mapping, base", [
    ({"margin_cm": 3.0}, ScoreConfig()),
    ({"window_span_s": 2.0}, PipelineConfig()),
], ids=["score", "train"])
def test_round_trip_through_dict(mapping, base):
    cfg = config_from_mapping(base, ("config", mapping))
    again = config_from_mapping(base, ("config", config_to_dict(cfg)))
    assert again == cfg


@pytest.mark.parametrize(
    "key, value",
    [
        ("speaking_threshold", 7),
        ("quality_gate", -3.0),
        ("window_samples", 5.5),
        ("mobile_screen_cm", ("a", 1)),
    ],
)
def test_constructor_validates(key, value):
    # configs built in code are checked like those read from files
    with pytest.raises(ConfigError, match=key):
        type(holder(key))(**{key: value})


def test_constructor_stores_pairs_as_float_tuples():
    cfg = ScoreConfig(mobile_screen_cm=[15, 7])
    assert cfg.mobile_screen_cm == (15.0, 7.0)
    assert all(type(v) is float for v in cfg.mobile_screen_cm)


@pytest.mark.parametrize("cls, rules", [
    (PipelineConfig, _PIPELINE_RULES),
    (ScoreConfig, _SCORE_RULES),
    (ScenarioScript, _SCRIPT_RULES),
    (Segment, _SEGMENT_RULES),
    (SessionManifest, _MANIFEST_RULES),
    (SuiteEntry, _ENTRY_RULES),
    (SuiteConfig, _SUITE_RULES),
], ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_every_field_has_a_rule(cls, rules):
    # a new field cannot go unchecked, and a rule cannot outlive its field
    assert sorted(rules) == sorted(f.name for f in fields(cls))


@pytest.mark.parametrize("fit, rules", [(train_cnn, _TRAIN_RULES), (fit_boosted, _BOOST_RULES)],
                         ids=lambda v: getattr(v, "__name__", ""))
def test_every_budget_parameter_of_a_fit_has_a_rule(fit, rules):
    # the keyword-only parameters are a fit's budget, each checked by its rule
    budget = [p.name for p in inspect.signature(fit).parameters.values() if p.kind is p.KEYWORD_ONLY]
    assert sorted(rules) == sorted(budget)


RULES = {
    "count": _int(1),
    "rate": _real(0, 1, above=True),
    "pair": _optional(_pair(_real())),
    "name": _optional(_or_null(_real(0))),
}


@pytest.mark.parametrize("doc, message", [
    ({"rate": 0.5}, "doc: missing key count"),
    ({"count": 1, "rate": 0.5, "extra": 1, "more": 2}, "doc: unknown keys ['extra', 'more']"),
    ({"count": True, "rate": 0.5}, "doc: count must be an integer of at least 1, got true"),
    ({"count": 1, "rate": 0}, "doc: rate must be a finite number in (0, 1], got 0"),
    ({"count": 1, "rate": float("nan")}, "doc: rate must be a finite number in (0, 1], got NaN"),
    ({"count": 1, "rate": 1, "pair": [1, "2"]}, 'doc: pair must be a pair, each a finite number, got [1, "2"]'),
    ({"count": 1, "rate": 1, "name": -1}, "doc: name must be a finite number >= 0 or null, got -1"),
    ({"count": 1, "rate": 1, "pair": list(range(40))},
     "doc: pair must be a pair, each a finite number, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16..."),
], ids=["missing", "unknown", "boolean_count", "open_low_end", "nan", "text_in_pair", "negative_or_null",
        "long_value_cut"])
def test_check_fields_message_forms(doc, message):
    with pytest.raises(ConfigError) as got:
        _check_fields(doc, RULES, ConfigError, "doc")
    assert str(got.value) == message


def test_check_fields_converts_and_leaves_out_absent_optional_fields():
    assert _check_fields({"count": 3, "rate": 1, "name": None, "extra": 0}, RULES, ConfigError, "doc",
                         unknown_ok=True) == {"count": 3, "rate": 1.0, "name": None}
    checked = _check_fields({"count": 3, "rate": 1, "pair": [1, 2]}, RULES, ConfigError, "doc")
    assert checked["pair"] == (1.0, 2.0) and all(type(v) is float for v in checked["pair"])
