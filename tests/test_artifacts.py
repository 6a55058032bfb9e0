import json

import numpy as np
import pytest

from adwatch import artifacts as artifacts_io
from adwatch.boosting import BoostConfig, fit_boosted
from adwatch.cnn import CnnTrainConfig, train_cnn
from adwatch.errors import MissingArtifactError


def test_gaze_artifact_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(-10, 10, (50, 2))
    pair = {
        "desktop": {
            "x": fit_boosted(X, X[:, 0] * 0.1, BoostConfig(n_stages=10)),
            "y": fit_boosted(X, X[:, 1] * -0.1, BoostConfig(n_stages=10)),
        }
    }
    path = tmp_path / "gaze_regressors.json"
    artifacts_io.save_gaze_regressors(pair, {"seed": 1, "data_hash": "x"}, path)
    loaded = artifacts_io.load_gaze_regressors(path)
    probe = rng.uniform(-10, 10, (20, 2))
    assert np.array_equal(loaded["desktop"]["x"].predict(probe), pair["desktop"]["x"].predict(probe))
    assert json.loads(path.read_text())["metadata"]["seed"] == 1


def test_cnn_artifact_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (64, 30))
    y = (X.mean(axis=1) > 0).astype(float)
    net = train_cnn(X, y, CnnTrainConfig(epochs=2, seed=0))
    path = tmp_path / "speaking_cnn.json"
    artifacts_io.save_speaking_cnn(net, {"seed": 0}, path)
    loaded = artifacts_io.load_speaking_cnn(path)
    assert np.array_equal(loaded.predict_proba(X), net.predict_proba(X))


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(MissingArtifactError, match="not found"):
        artifacts_io.load_yawn_classifier(tmp_path / "nope.json")


def test_wrong_kind_rejected(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (30, 3))
    model = fit_boosted(X, X[:, 0], BoostConfig(n_stages=5))
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
