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

The gaze and speaking artifacts also record the ``PipelineConfig`` values
that shaped their model's input, beside the model: ``quality_floor`` for the
gaze rays, and ``window_span_s``, ``min_valid_samples`` and
``max_hold_samples`` for the lip windows, whose sample count is the
network's ``window_len``. Loading checks them by the config's own rules and
hands them to scoring with the model.
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
from .config import _OBJECT, _PIPELINE_RULES, _check_fields, _equal, _read_json_object, _replacing
from .errors import MissingArtifactError
from .gaze import GazeRegressors
from .records import AU_NAMES
from .speaking import LipWindows, SpeakingCnn

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


def _text(kind: str, metadata: dict, key: str, model: dict, **recorded) -> str:
    """The JSON text of a ``kind`` artifact holding ``model`` under ``key``,
    and the ``recorded`` config values beside it."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "metadata": metadata, key: model, **recorded}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_artifact(text: str, path: PathLike) -> None:
    """Write ``text``, an artifact's or a report's, whole to ``path``."""
    with _replacing(path) as fh:
        fh.write(text)


def _model(path: PathLike, kind: str, key: str, from_dict, recorded: tuple = ()):
    """``from_dict(model, key, **values)`` of the ``key`` object of the
    ``kind`` artifact at ``path``, where ``values`` are its values of the
    ``recorded`` config fields, each of which it must hold by the field's
    rule. A malformed document raises MissingArtifactError naming the file
    and the field. Keys it does not read are ignored."""
    path = Path(path)
    rules = {"schema_version": _equal(SCHEMA_VERSION), "kind": _equal(kind), key: _OBJECT}
    rules.update({name: _PIPELINE_RULES[name]._replace(optional=False) for name in recorded})
    doc = _read_json_object(path, "model artifact", MissingArtifactError)
    values = _check_fields(doc, rules, MissingArtifactError, f"artifact {path}", unknown_ok=True)
    try:
        return from_dict(values[key], key, **{name: values[name] for name in recorded})
    except MissingArtifactError as exc:
        raise MissingArtifactError(f"artifact {path}: {exc}") from None


def _ensemble(model: dict, where: str, n_features: int) -> BoostedEnsemble:
    """The ensemble ``model`` describes, which must read ``n_features`` columns."""
    ensemble = BoostedEnsemble.from_dict(model, where)
    _check_fields(vars(ensemble), {"n_features": _equal(n_features)}, MissingArtifactError, where,
                  unknown_ok=True)
    return ensemble


def _gaze_regressors(models: dict, where: str, quality_floor: float) -> GazeRegressors:
    """Each device's x and y regressors, which read normalised (x, y)
    points of the rays at ``quality_floor``."""
    _check_fields(models, dict.fromkeys(models, _OBJECT), MissingArtifactError, where)
    out = {}
    for device, pair in models.items():
        axes = _check_fields(pair, {"x": _OBJECT, "y": _OBJECT}, MissingArtifactError, f"{where}.{device}",
                             unknown_ok=True)
        out[device] = {axis: _ensemble(model, f"{where}.{device}.{axis}", 2) for axis, model in axes.items()}
    return GazeRegressors(out, quality_floor)


def gaze_regressors_text(model: GazeRegressors, metadata: dict) -> str:
    return _text(KIND_GAZE, metadata, "models", {
        device: {axis: m.to_dict() for axis, m in pair.items()} for device, pair in model.by_device.items()
    }, quality_floor=model.min_quality)


def save_gaze_regressors(model: GazeRegressors, metadata: dict, path: PathLike) -> None:
    write_artifact(gaze_regressors_text(model, metadata), path)


def load_gaze_regressors(path: PathLike) -> GazeRegressors:
    return _model(path, KIND_GAZE, "models", _gaze_regressors, ("quality_floor",))


def _speaking_cnn(model: dict, where: str, window_span_s: float, min_valid_samples: int,
                  max_hold_samples: int) -> SpeakingCnn:
    """The network ``model`` describes, with the windows it reads."""
    net = TemporalCnn.from_dict(model, where)
    if min_valid_samples > net.window_len:
        raise MissingArtifactError(
            f"min_valid_samples ({min_valid_samples}) must not exceed {where}.window_len ({net.window_len})"
        )
    return SpeakingCnn(net, LipWindows(net.window_len, window_span_s, min_valid_samples, max_hold_samples))


def speaking_cnn_text(model: SpeakingCnn, metadata: dict) -> str:
    lip = model.windows
    return _text(KIND_SPEAKING, metadata, "model", model.net.to_dict(), window_span_s=lip.span_s,
                 min_valid_samples=lip.min_valid, max_hold_samples=lip.max_hold)


def save_speaking_cnn(model: SpeakingCnn, metadata: dict, path: PathLike) -> None:
    write_artifact(speaking_cnn_text(model, metadata), path)


def load_speaking_cnn(path: PathLike) -> SpeakingCnn:
    return _model(path, KIND_SPEAKING, "model", _speaking_cnn,
                  ("window_span_s", "min_valid_samples", "max_hold_samples"))


def yawn_classifier_text(model: BoostedEnsemble, metadata: dict) -> str:
    return _text(KIND_YAWN, metadata, "model", model.to_dict())


def save_yawn_classifier(model: BoostedEnsemble, metadata: dict, path: PathLike) -> None:
    write_artifact(yawn_classifier_text(model, metadata), path)


def load_yawn_classifier(path: PathLike) -> BoostedEnsemble:
    # the classifier reads yawn_features' columns: the mouth aspect ratio and the AUs
    return _model(path, KIND_YAWN, "model", partial(_ensemble, n_features=1 + len(AU_NAMES)))
