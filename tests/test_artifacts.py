import json

import numpy as np
import pytest

from adwatch import artifacts as artifacts_io
from adwatch.boosting import fit_boosted
from adwatch.cnn import train_cnn
from adwatch.errors import MissingArtifactError
from adwatch.gaze import GazeRegressors
from adwatch.speaking import LipWindows, SpeakingCnn


def gaze_model(min_quality=0.3) -> GazeRegressors:
    rng = np.random.default_rng(0)
    X = rng.uniform(-10, 10, (50, 2))
    return GazeRegressors({
        "desktop": {
            "x": fit_boosted(X, X[:, 0] * 0.1, n_stages=10),
            "y": fit_boosted(X, X[:, 1] * -0.1, n_stages=10),
        }
    }, min_quality)


def speaking_model(span_s=1.0, min_valid=15, max_hold=5) -> SpeakingCnn:
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (64, 30))
    y = (X.mean(axis=1) > 0).astype(float)
    return SpeakingCnn(train_cnn(X, y, epochs=2, seed=0), LipWindows(30, span_s, min_valid, max_hold))


def test_gaze_artifact_round_trip(tmp_path):
    model = gaze_model()
    path = tmp_path / "gaze_regressors.json"
    artifacts_io.save_gaze_regressors(model, {"seed": 1, "data_hash": "x"}, path)
    loaded = artifacts_io.load_gaze_regressors(path)
    probe = np.random.default_rng(2).uniform(-10, 10, (20, 2))
    assert np.array_equal(loaded.by_device["desktop"]["x"].predict(probe),
                          model.by_device["desktop"]["x"].predict(probe))
    doc = json.loads(path.read_text())
    assert doc["metadata"]["seed"] == 1
    assert doc["quality_floor"] == loaded.min_quality == 0.3


def test_a_loaded_ensemble_writes_the_document_it_was_loaded_from(tmp_path):
    path = tmp_path / "gaze_regressors.json"
    artifacts_io.save_gaze_regressors(gaze_model(), {}, path)
    written = json.loads(path.read_text())["models"]["desktop"]
    loaded = artifacts_io.load_gaze_regressors(path).by_device["desktop"]
    assert loaded["x"].trees and written["x"]["trees"]
    for axis in ("x", "y"):
        assert json.loads(json.dumps(loaded[axis].to_dict())) == written[axis], axis


def test_cnn_artifact_round_trip(tmp_path):
    model = speaking_model()
    path = tmp_path / "speaking_cnn.json"
    artifacts_io.save_speaking_cnn(model, {"seed": 0}, path)
    loaded = artifacts_io.load_speaking_cnn(path)
    X = np.random.default_rng(3).normal(0, 1, (64, 30))
    assert np.array_equal(loaded.predict_proba(X), model.net.predict_proba(X))
    assert loaded.windows == model.windows


@pytest.mark.parametrize("floor", [0.0, 0.45, 1 / 3, 1.0])
def test_gaze_contract_round_trips_exactly(tmp_path, floor):
    path = tmp_path / "gaze_regressors.json"
    text = artifacts_io.gaze_regressors_text(gaze_model(floor), {})
    path.write_text(text)
    loaded = artifacts_io.load_gaze_regressors(path)
    assert loaded.min_quality == floor
    assert artifacts_io.gaze_regressors_text(loaded, {}) == text


@pytest.mark.parametrize("span_s, min_valid, max_hold", [(1.0, 15, 5), (0.7, 30, 0), (1 / 3, 0, 12)])
def test_speaking_contract_round_trips_exactly(tmp_path, span_s, min_valid, max_hold):
    path = tmp_path / "speaking_cnn.json"
    text = artifacts_io.speaking_cnn_text(speaking_model(span_s, min_valid, max_hold), {})
    path.write_text(text)
    loaded = artifacts_io.load_speaking_cnn(path)
    assert loaded.windows == LipWindows(30, span_s, min_valid, max_hold)
    assert artifacts_io.speaking_cnn_text(loaded, {}) == text


def test_speaking_artifact_records_no_second_sample_count(tmp_path):
    # the sample count is the network's window_len, and only that
    doc = json.loads(artifacts_io.speaking_cnn_text(speaking_model(), {"hyperparameters": {}}))
    assert (doc["window_span_s"], doc["min_valid_samples"], doc["max_hold_samples"]) == (1.0, 15, 5)
    assert doc["model"]["window_len"] == 30
    assert "window_samples" not in json.dumps(doc)


def edited(path, model_text, edit):
    doc = json.loads(model_text)
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


CONTRACT_EDITS = [
    pytest.param("gaze", lambda doc: doc.pop("quality_floor"), "missing key quality_floor", id="gaze_no_floor"),
    pytest.param("speaking", lambda doc: doc.pop("window_span_s"), "missing key window_span_s", id="no_span"),
    pytest.param("speaking", lambda doc: doc.pop("min_valid_samples"), "missing key min_valid_samples",
                 id="no_min_valid"),
    pytest.param("speaking", lambda doc: doc.pop("max_hold_samples"), "missing key max_hold_samples",
                 id="no_hold"),
    pytest.param("gaze", lambda doc: doc.update(quality_floor=1.5),
                 "quality_floor must be a finite number in [0, 1], got 1.5", id="floor_1_5"),
    pytest.param("speaking", lambda doc: doc.update(window_span_s=0),
                 "window_span_s must be a finite number > 0, got 0", id="span_0"),
    pytest.param("speaking", lambda doc: doc.update(min_valid_samples=31),
                 "min_valid_samples (31) must not exceed model.window_len (30)", id="min_valid_31"),
    pytest.param("speaking", lambda doc: doc.update(max_hold_samples=2.0),
                 "max_hold_samples must be an integer of at least 0, got 2.0", id="hold_float"),
]


@pytest.mark.parametrize("kind, edit, message", CONTRACT_EDITS)
def test_artifact_whose_contract_is_missing_or_breaks_its_rule_fails_to_load(tmp_path, kind, edit, message):
    if kind == "gaze":
        path = edited(tmp_path / "gaze_regressors.json", artifacts_io.gaze_regressors_text(gaze_model(), {}), edit)
        load = artifacts_io.load_gaze_regressors
    else:
        path = edited(tmp_path / "speaking_cnn.json", artifacts_io.speaking_cnn_text(speaking_model(), {}), edit)
        load = artifacts_io.load_speaking_cnn
    with pytest.raises(MissingArtifactError) as got:
        load(path)
    assert str(got.value).startswith(f"artifact {path}: {message}")


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(MissingArtifactError, match="not found"):
        artifacts_io.load_yawn_classifier(tmp_path / "nope.json")


def test_wrong_kind_rejected(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (30, 3))
    model = fit_boosted(X, X[:, 0], n_stages=5)
    path = tmp_path / "m.json"
    artifacts_io.save_yawn_classifier(model, {}, path)
    with pytest.raises(MissingArtifactError, match="kind"):
        artifacts_io.load_speaking_cnn(path)


def test_corrupt_artifact_rejected(tmp_path):
    path = tmp_path / "gaze_regressors.json"
    path.write_text("{broken")
    with pytest.raises(MissingArtifactError, match="JSON"):
        artifacts_io.load_gaze_regressors(path)


def test_data_hash_sensitive_to_content():
    a = np.arange(10, dtype=np.float64)
    b = a.copy()
    b[3] += 1e-9
    assert artifacts_io.data_hash(a) == artifacts_io.data_hash(a.copy())
    assert artifacts_io.data_hash(a) != artifacts_io.data_hash(b)
