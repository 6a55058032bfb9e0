"""Pipeline configuration, and the field rules every document is checked by.

Every tunable value lives here with its default, in the config object of
the command that reads it: ``PipelineConfig`` for ``train``, ``ScoreConfig``
for ``score`` and ``ablate``. A config is overridden field by field from a
mapping; a key that is not one of its fields is rejected rather than
ignored, so typos fail loudly. ``_check_fields`` checks every JSON
document and config object against one ``_Rule`` per field. A document
that has a dataclass (the config objects, a manifest, a suite entry, a
script and its segments, a suite config) declares each field once, with
its rule and its default (``_Rule.as_field``), and may leave out exactly
the fields that have a default; one with no dataclass has a table of rules.
"""

from __future__ import annotations

import functools
import json
import numbers
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import takewhile
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO, TypeVar, Union

from .errors import ConfigError

PathLike = Union[str, Path]


class _Rule(NamedTuple):
    """What one field must hold."""

    ok: Callable[[object], bool]
    expected: str                       # what ``ok`` accepts, for the message
    optional: bool = False              # may be absent from a document: its default applies
    convert: Callable = lambda v: v     # to the field's annotated type, once ``ok`` holds

    def as_field(self, default=MISSING):
        """A dataclass field that this rule checks, which a document may
        leave out exactly when it has a ``default``."""
        return field(default=default, metadata={"rule": self._replace(optional=default is not MISSING)})


def _is_real(value) -> bool:
    """An int or float within the float range; bools are not numbers here."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    """A Python or numpy integer; bools are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(low=None, high=None, *, above: bool = False) -> _Rule:
    """A finite number from ``low`` to ``high`` (None: unbounded); ``above``
    leaves ``low`` itself out."""
    if low is None:
        return _Rule(_is_real, "a finite number", convert=float)
    top = sys.float_info.max if high is None else high
    ok = (lambda v: _is_real(v) and low < v <= top) if above else (lambda v: _is_real(v) and low <= v <= top)
    bounds = f"{'>' if above else '>='} {low}" if high is None else f"in {'(' if above else '['}{low}, {high}]"
    return _Rule(ok, f"a finite number {bounds}", convert=float)


def _int(least: int) -> _Rule:
    return _Rule(lambda v: _is_int(v) and v >= least, f"an integer of at least {least}")


# what numpy's generators take
_SEED = _int(0)


def _choice(options: tuple) -> _Rule:
    return _Rule(lambda v: type(v) is str and v in options, f"one of {list(options)}")


def _pair(item: _Rule) -> _Rule:
    """A list or tuple of two values that ``item`` accepts, stored as a tuple."""
    return _Rule(
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(item.ok, v)),
        f"a pair, each {item.expected}",
        convert=lambda v: tuple(map(item.convert, v)),
    )


def _or_null(rule: _Rule) -> _Rule:
    return rule._replace(
        ok=lambda v: v is None or rule.ok(v),
        expected=f"{rule.expected} or null",
        convert=lambda v: None if v is None else rule.convert(v),
    )


def _equal(value) -> _Rule:
    return _Rule(lambda v: v == value, _shown(value))


_STRING = _Rule(lambda v: type(v) is str, "a string")
_OBJECT = _Rule(lambda v: isinstance(v, dict), "a JSON object")
# a learning rate, of any of the models
_RATE = _real(0, 1, above=True)
# a model artifact's record of its training loss, by epoch or stage
_LOSS_CURVE = _Rule(
    lambda v: isinstance(v, list) and all(map(_is_real, v)), "a list of finite numbers",
    optional=True, convert=lambda v: [float(x) for x in v],
)


def _shown(value) -> str:
    """``value`` as JSON (its repr if it has none), cut to 60 characters."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


@functools.cache
def _field_rules(cls: type) -> dict:
    """The rule of each field of the dataclass ``cls``, in field order, as
    ``_Rule.as_field`` declared it; a field without one is a TypeError."""
    ruleless = [f.name for f in fields(cls) if "rule" not in f.metadata]
    if ruleless:
        raise TypeError(f"{cls.__name__}: fields without a rule: {ruleless}")
    return {f.name: f.metadata["rule"] for f in fields(cls)}


def _check_fields(doc: dict, rules: Union[dict, type], error: type, where: str, *,
                  unknown_ok: bool = False) -> dict:
    """``doc``'s values of the fields ``rules`` names, each converted by its
    rule; an absent optional field is left out, so its default applies.
    ``rules`` is a table of rules by field name, or a dataclass whose fields
    carry theirs (``_field_rules``).

    The first field that fails, in the order of ``rules``, raises ``error``
    naming ``where`` and the field; keys that ``rules`` does not name fail
    first, unless ``unknown_ok``."""
    if isinstance(rules, type):
        rules = _field_rules(rules)
    if not unknown_ok and not doc.keys() <= rules.keys():
        raise error(f"{where}: unknown keys {sorted(doc.keys() - rules.keys())}")
    values = {}
    for name, rule in rules.items():
        if name not in doc:
            if rule.optional:
                continue
            raise error(f"{where}: missing key {name}")
        value = doc[name]
        if not rule.ok(value):
            raise error(f"{where}: {name} must be {rule.expected}, got {_shown(value)}")
        values[name] = rule.convert(value)
    return values


_SCREEN = _pair(_real(0, above=True))
# a duration on the session clock: an hour at most, as a script's
# duration_s, so that its frame count stays a finite integer
_DURATION = _real(0, 3600)


@dataclass(frozen=True)
class PipelineConfig:
    """What ``train`` reads: the model budgets, and the values that shape
    each model's input, which the artifacts record so that scoring builds
    the same inputs. A config file may leave out any field."""

    # model inputs; quality is on the tracker's 0-1 scale
    quality_floor: float = _real(0, 1).as_field(0.3)        # gaze rays below it are left out
    window_samples: int = _int(5).as_field(30)
    window_span_s: float = _real(0, above=True).as_field(1.0)
    min_valid_samples: int = _int(0).as_field(15)           # and at most window_samples
    max_hold_samples: int = _int(0).as_field(5)
    # training
    gaze_stages: int = _int(1).as_field(100)
    gaze_depth: int = _int(1).as_field(3)
    yawn_stages: int = _int(1).as_field(100)
    yawn_depth: int = _int(1).as_field(3)
    max_gaze_train_rows: int = _int(1).as_field(4000)
    max_yawn_train_rows: int = _int(1).as_field(6000)
    cnn_epochs: int = _int(0).as_field(50)
    cnn_learning_rate: float = _RATE.as_field(0.02)
    cnn_batch_size: int = _int(1).as_field(128)
    max_speaking_train_windows: int = _int(1).as_field(2000)
    speaking_window_stride: int = _int(1).as_field(3)

    def __post_init__(self) -> None:
        # a scalar keeps its type, as the artifacts' metadata records it
        _check_fields(vars(self), PipelineConfig, ConfigError, "config")
        if self.min_valid_samples > self.window_samples:
            raise ConfigError(
                f"config: min_valid_samples ({self.min_valid_samples}) must not exceed "
                f"window_samples ({self.window_samples})"
            )


@dataclass(frozen=True)
class ScoreConfig:
    """What ``score`` and ``ablate`` read. A config file may leave out any
    field."""

    # gaze model; quality is on the tracker's 0-1 scale
    quality_gate: float = _real(0, 1).as_field(0.5)         # eye-vs-head source switch
    margin_cm: float = _real(0).as_field(1.0)               # screen boundary tolerance
    pvd_coefficient: float = _real(0, above=True).as_field(3.0)     # viewing distance = coeff * screen height
    desktop_aspect: float = _real(0, above=True).as_field(16.0 / 9.0)
    default_desktop_screen_cm: tuple[float, float] = _SCREEN.as_field((35.6, 20.0))
    mobile_screen_cm: tuple[float, float] = _SCREEN.as_field((14.0, 7.0))     # (long edge, short edge)
    # orientation voting
    orientation_yaw_deg: float = _real(0).as_field(10.0)
    # also increasing, within [0, 1], which __post_init__ checks
    orientation_face_band: tuple[float, float] = _pair(_real()).as_field((0.35, 0.65))
    orientation_gaze_cm: float = _real(0).as_field(4.0)
    # head model
    head_yaw_threshold_deg: float = _real(0).as_field(15.0)
    head_pitch_threshold_deg: float = _real(0).as_field(12.0)
    # speaking
    speaking_threshold: float = _real(0, 1).as_field(0.5)
    speaking_min_event_s: float = _DURATION.as_field(1.0)   # a run must exceed it; 0 counts every run
    # drowsiness; eye closure and AU intensities are on a 0-100 scale (FORMATS.md)
    closure_gate: float = _real(0, 100).as_field(50.0)
    au_gate: float = _real(0, 100).as_field(20.0)
    closure_min_event_s: float = _DURATION.as_field(2.0)
    yawn_smooth_s: float = _DURATION.as_field(0.5)          # 0 turns the yawn vote smoothing off
    yawn_threshold: float = _real(0, 1).as_field(0.5)
    # unattended
    unattended_min_s: float = _DURATION.as_field(1.0)

    def __post_init__(self) -> None:
        checked = _check_fields(vars(self), ScoreConfig, ConfigError, "config")
        # pairs are stored as tuples of floats
        for name in ("default_desktop_screen_cm", "mobile_screen_cm", "orientation_face_band"):
            object.__setattr__(self, name, checked[name])
        lo, hi = self.orientation_face_band
        if not 0 <= lo < hi <= 1:
            raise ConfigError(
                f"config: orientation_face_band must be an increasing pair in [0, 1], got {[lo, hi]}"
            )


_Config = TypeVar("_Config", PipelineConfig, ScoreConfig)


def config_from_mapping(base: _Config, *layers: tuple[str, dict]) -> _Config:
    """``base`` with the values of ``layers``, each a (source, mapping) pair
    whose mapping sets ``base``'s own fields; a later layer wins. A key or
    value that fails its field's rule raises ``ConfigError`` naming its
    layer's source. The rules over two fields are checked once, on the
    merged object, and name ``config``."""
    merged = {}
    for where, mapping in layers:
        _check_fields(mapping, type(base), ConfigError, where)
        merged.update(mapping)
    return replace(base, **merged)


def _read_json_object(path: Path, what: str, error: type) -> dict:
    """The JSON object in the ``what`` file at ``path``, or ``error`` if the
    file is missing or unreadable, is not UTF-8 JSON or holds another JSON value.

    Every JSON document loader reads through this. It is private so that a
    tracer of the public functions counts the parse in the caller's module.
    """
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # a directory, say
        raise error(f"{what} {path}: cannot be read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path}: expected a JSON object")
    return doc


@contextmanager
def _replacing(path: PathLike) -> Iterator[TextIO]:
    """A text file that takes the place of the file at ``path`` whole.

    It writes to ``.{name}.{pid}.tmp`` beside ``path``, creating the
    directory if need be, and is renamed onto ``path`` when the block ends
    without an error, or removed when it raises: a reader never sees a
    half-written file, and a failed write leaves the old file, or none.
    Every file adwatch writes goes through this, and nothing else writes
    but ``_replacing_dirs``, which renames whole directories of such files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _replacing_dirs(root: PathLike, names: Sequence[str]) -> Iterator[Path]:
    """A temporary directory inside ``root`` in which to fill one directory
    per name, which then take the places of ``root``'s directories of those
    names, all or none.

    When the block ends without an error each ``name`` is renamed to
    ``root / name``, replacing a directory of that name whole: its old files
    go, whoever wrote them. When the block raises, nothing is moved and the
    directories made for ``root`` are removed again. Either way the
    temporary directory is removed.
    """
    root = Path(root)
    made = list(takewhile(lambda p: not (p.exists() or p.is_symlink()), (root, *root.parents)))
    root.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=root))
    try:
        try:
            yield staging
        except BaseException:
            shutil.rmtree(staging)
            for path in made:       # deepest first, and only while empty
                with suppress(OSError):
                    path.rmdir()
            raise
        replaced = staging / ".replaced"
        replaced.mkdir()
        for name in names:
            if (root / name).is_dir():
                os.replace(root / name, replaced / name)
            os.replace(staging / name, root / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _check_writes(root: Path, files: Iterable[str] = (), dirs: Iterable[str] = ()) -> None:
    """ConfigError naming the first path that blocks a write below ``root``:
    a file, or a dangling link, where a directory goes (one of ``dirs``, or
    one above a name of ``files`` or ``dirs``), or a directory where one of
    ``files`` goes. Names are relative to ``root``."""
    for name, is_file in [(name, True) for name in files] + [(name, False) for name in dirs]:
        target, parts = root / name, Path(name).parts
        for depth in range(1, len(parts) + 1):
            path = root.joinpath(*parts[:depth])
            if not (path.exists() or path.is_symlink()):
                break
            if is_file and depth == len(parts):
                if path.is_dir():
                    raise ConfigError(f"cannot write {target}: it is a directory")
            elif not path.is_dir():
                raise ConfigError(f"cannot write {target}: {path} is not a directory")
