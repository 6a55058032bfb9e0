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
    if not path.exists():
        raise MissingArtifactError(f"model artifact not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MissingArtifactError(f"artifact {path} is not valid JSON: {exc.msg}") from exc
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise MissingArtifactError(
            f"artifact {path}: unsupported schema version {doc.get('schema_version')}"
        )
    if doc.get("kind") != expected_kind:
        raise MissingArtifactError(
            f"artifact {path}: kind {doc.get('kind')!r}, expected {expected_kind!r}"
        )
    return doc


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
    doc = _read(path, KIND_GAZE)
    return {
        device: {axis: BoostedEnsemble.from_dict(m) for axis, m in pair.items()}
        for device, pair in doc["models"].items()
    }


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
    doc = _read(path, KIND_SPEAKING)
    return TemporalCnn.from_dict(doc["model"])


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
    doc = _read(path, KIND_YAWN)
    return BoostedEnsemble.from_dict(doc["model"])


def read_metadata(path: PathLike) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"model artifact not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.get("metadata", {})
