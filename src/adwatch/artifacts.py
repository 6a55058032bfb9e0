"""Model artifact files.

Every trained model is stored as a single JSON document carrying a schema
version, a `kind` tag, a training-metadata header (seed, data hash,
hyperparameters) and the model payload. Numbers round-trip exactly, so
reloading a model reproduces its predictions bit for bit. Each file is
written to a temp file and renamed into place.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Union

import numpy as np

from .boosting import BoostedEnsemble
from .cnn import TemporalCnn
from .config import _OBJECT, _check_fields, _equal, _read_json_object
from .errors import MissingArtifactError

SCHEMA_VERSION = 1

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


def _write(doc: dict, path: PathLike) -> None:
    """Write to a temp file beside ``path``, then rename it into place, so a
    reader never sees a half-written artifact and a failed write leaves none."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def _gaze_models(models: dict, where: str) -> dict[str, dict[str, BoostedEnsemble]]:
    _check_fields(models, dict.fromkeys(models, _OBJECT), MissingArtifactError, where)
    out = {}
    for device, pair in models.items():
        axes = _check_fields(pair, {"x": _OBJECT, "y": _OBJECT}, MissingArtifactError, f"{where}.{device}",
                             unknown_ok=True)
        out[device] = {axis: BoostedEnsemble.from_dict(model, f"{where}.{device}.{axis}")
                       for axis, model in axes.items()}
    return out


def save_gaze_regressors(
    models: dict[str, dict[str, BoostedEnsemble]], metadata: dict, path: PathLike
) -> None:
    """``models`` maps device type -> {"x": ensemble, "y": ensemble}."""
    _write(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND_GAZE,
            "metadata": metadata,
            "models": {
                device: {axis: m.to_dict() for axis, m in pair.items()}
                for device, pair in models.items()
            },
        },
        path,
    )


def load_gaze_regressors(path: PathLike) -> dict[str, dict[str, BoostedEnsemble]]:
    return _model(path, KIND_GAZE, "models", _gaze_models)


def save_speaking_cnn(net: TemporalCnn, metadata: dict, path: PathLike) -> None:
    _write(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND_SPEAKING,
            "metadata": metadata,
            "model": net.to_dict(),
        },
        path,
    )


def load_speaking_cnn(path: PathLike) -> TemporalCnn:
    return _model(path, KIND_SPEAKING, "model", TemporalCnn.from_dict)


def save_yawn_classifier(model: BoostedEnsemble, metadata: dict, path: PathLike) -> None:
    _write(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND_YAWN,
            "metadata": metadata,
            "model": model.to_dict(),
        },
        path,
    )


def load_yawn_classifier(path: PathLike) -> BoostedEnsemble:
    return _model(path, KIND_YAWN, "model", BoostedEnsemble.from_dict)
