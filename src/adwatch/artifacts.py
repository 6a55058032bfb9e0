"""Model artifact files.

Every trained model is stored as a single JSON document carrying a schema
version, a `kind` tag, a training-metadata header (seed, data hash,
hyperparameters) and the model payload, in the file this module names for
its kind. Numbers round-trip exactly, so reloading a model reproduces its
predictions bit for bit. A kind's ``*_text`` function gives the document's
exact text, wherever it runs, and ``write_artifact`` writes it through
``config._replacing``, to a temp file renamed into place; each ``save_*`` is
the two in turn. Each ``load_*`` checks its model whole, down to the number
of input columns the pipeline gives it.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path
from typing import Union

import numpy as np

from .boosting import BoostedEnsemble
from .cnn import TemporalCnn
from .config import _OBJECT, _check_fields, _equal, _read_json_object, _replacing
from .errors import MissingArtifactError
from .records import AU_NAMES

SCHEMA_VERSION = 1

GAZE_ARTIFACT = "gaze_regressors.json"
SPEAKING_ARTIFACT = "speaking_cnn.json"
YAWN_ARTIFACT = "yawn_classifier.json"

KIND_GAZE = "gaze_regressors"
KIND_SPEAKING = "speaking_cnn"
KIND_YAWN = "yawn_classifier"

PathLike = Union[str, Path]


def data_hash(*arrays: np.ndarray) -> str:
    """Stable fingerprint of the training data."""
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _text(kind: str, metadata: dict, key: str, model: dict) -> str:
    """The JSON text of a ``kind`` artifact holding ``model`` under ``key``."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "metadata": metadata, key: model}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_artifact(text: str, path: PathLike) -> None:
    """Write ``text``, an artifact's or a report's, whole to ``path``."""
    with _replacing(path) as fh:
        fh.write(text)


def _model(path: PathLike, kind: str, key: str, from_dict):
    """``from_dict(model, key)`` of the ``key`` object of the ``kind``
    artifact at ``path``; a malformed document raises MissingArtifactError
    naming the file and the field. Keys it does not read are ignored."""
    path = Path(path)
    rules = {"schema_version": _equal(SCHEMA_VERSION), "kind": _equal(kind), key: _OBJECT}
    doc = _read_json_object(path, "model artifact", MissingArtifactError)
    model = _check_fields(doc, rules, MissingArtifactError, f"artifact {path}", unknown_ok=True)[key]
    try:
        return from_dict(model, key)
    except MissingArtifactError as exc:
        raise MissingArtifactError(f"artifact {path}: {exc}") from None


def _ensemble(model: dict, where: str, n_features: int) -> BoostedEnsemble:
    """The ensemble ``model`` describes, which must read ``n_features`` columns."""
    ensemble = BoostedEnsemble.from_dict(model, where)
    _check_fields(vars(ensemble), {"n_features": _equal(n_features)}, MissingArtifactError, where,
                  unknown_ok=True)
    return ensemble


def _gaze_models(models: dict, where: str) -> dict[str, dict[str, BoostedEnsemble]]:
    """Each device's x and y regressors, which read normalised (x, y) points."""
    _check_fields(models, dict.fromkeys(models, _OBJECT), MissingArtifactError, where)
    out = {}
    for device, pair in models.items():
        axes = _check_fields(pair, {"x": _OBJECT, "y": _OBJECT}, MissingArtifactError, f"{where}.{device}",
                             unknown_ok=True)
        out[device] = {axis: _ensemble(model, f"{where}.{device}.{axis}", 2) for axis, model in axes.items()}
    return out


def gaze_regressors_text(models: dict[str, dict[str, BoostedEnsemble]], metadata: dict) -> str:
    """``models`` maps device type -> {"x": ensemble, "y": ensemble}."""
    return _text(KIND_GAZE, metadata, "models", {
        device: {axis: m.to_dict() for axis, m in pair.items()} for device, pair in models.items()
    })


def save_gaze_regressors(
    models: dict[str, dict[str, BoostedEnsemble]], metadata: dict, path: PathLike
) -> None:
    write_artifact(gaze_regressors_text(models, metadata), path)


def load_gaze_regressors(path: PathLike) -> dict[str, dict[str, BoostedEnsemble]]:
    return _model(path, KIND_GAZE, "models", _gaze_models)


def speaking_cnn_text(net: TemporalCnn, metadata: dict) -> str:
    return _text(KIND_SPEAKING, metadata, "model", net.to_dict())


def save_speaking_cnn(net: TemporalCnn, metadata: dict, path: PathLike) -> None:
    write_artifact(speaking_cnn_text(net, metadata), path)


def load_speaking_cnn(path: PathLike) -> TemporalCnn:
    return _model(path, KIND_SPEAKING, "model", TemporalCnn.from_dict)


def yawn_classifier_text(model: BoostedEnsemble, metadata: dict) -> str:
    return _text(KIND_YAWN, metadata, "model", model.to_dict())


def save_yawn_classifier(model: BoostedEnsemble, metadata: dict, path: PathLike) -> None:
    write_artifact(yawn_classifier_text(model, metadata), path)


def load_yawn_classifier(path: PathLike) -> BoostedEnsemble:
    # the classifier reads yawn_features' columns: the mouth aspect ratio and the AUs
    return _model(path, KIND_YAWN, "model", partial(_ensemble, n_features=1 + len(AU_NAMES)))
