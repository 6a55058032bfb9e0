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
from .config import _artifact_field, _read_json_object
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


def _read(path: PathLike, expected_kind: str) -> dict:
    path = Path(path)
    doc = _read_json_object(path, "model artifact", MissingArtifactError)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise MissingArtifactError(
            f"artifact {path}: unsupported schema version {doc.get('schema_version')}"
        )
    if doc.get("kind") != expected_kind:
        raise MissingArtifactError(
            f"artifact {path}: kind {doc.get('kind')!r}, expected {expected_kind!r}"
        )
    return doc


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _model(path: PathLike, doc: dict, key: str, from_dict):
    """``from_dict`` of the document's ``key`` object; a malformed model
    raises ``MissingArtifactError`` naming the file and the field."""
    try:
        return from_dict(_artifact_field(doc, key, _is_object, "a JSON object"))
    except MissingArtifactError as exc:
        raise MissingArtifactError(f"artifact {path}: {exc}") from None


def _gaze_models(models: dict) -> dict[str, dict[str, BoostedEnsemble]]:
    out = {}
    for device, pair in models.items():
        if not _is_object(pair):
            raise MissingArtifactError(f"models.{device}: expected a JSON object")
        out[device] = {}
        for axis in ("x", "y"):
            try:
                out[device][axis] = BoostedEnsemble.from_dict(
                    _artifact_field(pair, axis, _is_object, "a JSON object")
                )
            except MissingArtifactError as exc:
                raise MissingArtifactError(f"models.{device}.{axis}: {exc}") from None
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
    return _model(path, _read(path, KIND_GAZE), "models", _gaze_models)


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
    return _model(path, _read(path, KIND_SPEAKING), "model", TemporalCnn.from_dict)


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
    return _model(path, _read(path, KIND_YAWN), "model", BoostedEnsemble.from_dict)
