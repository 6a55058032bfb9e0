"""Command-line entry point: simulate -> train -> score -> evaluate -> ablate.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 missing model
artifact. Each command takes only the flags it reads: ``--seed`` goes to
simulate and train, ``--config`` and ``--set`` to train, score and ablate,
and any other use of them is a usage error (exit 2).

The same holds for config fields. ``train`` reads ``PipelineConfig`` and
``score`` and ``ablate`` read ``ScoreConfig``; their defaults can be set in
a JSON config file, and command-line values win over the file, the file over
the defaults. A key that is not a field of the command's own object, from
``--config`` or ``--set``, exits 2 before any input is read, naming the
command that reads it. The values that shaped a model's input are
``train``'s: scoring reads them from the artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Union

from .artifacts import GAZE_ARTIFACT, write_artifact
from .config import (
    PipelineConfig,
    ScoreConfig,
    _check_writes,
    _read_json_object,
    _replacing_dirs,
    config_from_mapping,
)
from .errors import AdwatchError, ConfigError, DataError, MissingArtifactError
from .evaluation import ablation_pairs, ablation_table, pooled_report, render_table
from .fusion import DistractionTimeline, session_summary
from .pipeline import (
    TABLE1_VARIANTS,
    TABLE3_VARIANTS,
    ArtifactSet,
    SessionDetectors,
    score_session,
)
from .session_io import (
    load_manifest,
    load_session,
    read_timeline,
    write_timeline,
)
from .synth import (
    SuiteConfig,
    _write_session,
    generate_suite,
    load_entry_manifest,
    load_script,
    load_suite,
)
from .training import _in_halves, _in_order, check_truth, parse_session, select_sessions, train_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ARTIFACT = 4


def _output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", type=Path, required=True, help="output directory")


def _seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")


def _config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config value (repeatable; wins over --config)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each flag's default, except where it is None: such a flag's
    help says what leaving it out means."""

    def _get_help_string(self, action: argparse.Action) -> str:
        return action.help if action.default is None else super()._get_help_string(action)


# What simulate's suite flags are when not given. Each defaults to None in
# the parser, so that one given with --script, which reads none of them,
# can be refused.
_SUITE_DEFAULTS = {"suite": "default", "sessions": 20, "seed": 0, "yawn_prevalence": 0.026}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adwatch",
        description="Offline attention scoring for ad-viewing sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _HelpFormatter

    p = sub.add_parser("simulate", help="generate a synthetic suite or session",
                       formatter_class=fmt)
    p.add_argument("--seed", type=int, default=None,
                   help=f"master random seed (default: {_SUITE_DEFAULTS['seed']})")
    _output_flag(p)
    p.add_argument("--suite", choices=["default", "gaze_offset", "orientation", "mini"],
                   default=None, help=f"suite template (default: {_SUITE_DEFAULTS['suite']})")
    p.add_argument("--sessions", type=int, default=None,
                   help=f"number of sessions (default: {_SUITE_DEFAULTS['sessions']})")
    p.add_argument("--device", choices=["desktop", "mobile", "mixed"], default=None,
                   help="device mix; when not given, the suite's own device, else mixed")
    p.add_argument("--script", type=Path, default=None,
                   help="generate a single session from a script file instead")
    p.add_argument("--yawn-prevalence", type=float, default=None,
                   help="target fraction of active-yawn frames, full template only "
                        f"(default: {_SUITE_DEFAULTS['yawn_prevalence']})")

    p = sub.add_parser("train", help="train model artifacts from a suite",
                       formatter_class=fmt)
    _seed_flag(p)
    _config_flags(p)
    _output_flag(p)
    p.add_argument("--suite-dir", type=Path, required=True, help="generated suite directory")
    p.add_argument("--only", choices=["gaze", "speaking", "yawn"], default=None,
                   help="train a single artifact")

    p = sub.add_parser("score", help="score sessions into timelines + summaries",
                       formatter_class=fmt)
    _config_flags(p)
    _output_flag(p)
    p.add_argument("--suite-dir", type=Path, default=None, help="suite to score")
    p.add_argument("--manifest", type=Path, default=None, help="single session manifest")
    p.add_argument("--artifacts", type=Path, required=True, help="trained artifact directory")
    p.add_argument("--device", choices=["desktop", "mobile"], default=None,
                   help="score only this device type")
    p.add_argument("--split", choices=["train", "held_out", "all"], default=None,
                   help="suite split to score (default: all)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="sessions scored in parallel worker processes")

    p = sub.add_parser("evaluate", help="compare scored timelines against ground truth",
                       formatter_class=fmt)
    _output_flag(p)
    p.add_argument("--suite-dir", type=Path, required=True, help="suite with ground truth")
    p.add_argument("--scored", type=Path, required=True, help="directory of scored timelines")

    p = sub.add_parser("ablate", help="run the ablation tables", formatter_class=fmt)
    _config_flags(p)
    _output_flag(p)
    p.add_argument("--suite-dir", type=Path, required=True, help="suite with ground truth")
    p.add_argument("--artifacts", type=Path, required=True, help="trained artifact directory")
    p.add_argument("--split", choices=["train", "held_out", "all"], default="held_out",
                   help="suite split to ablate on")
    p.add_argument("--tables", choices=["steps", "signals", "both"], default="both",
                   help="which ablation family to run")
    return parser


def _parse_overrides(pairs: list[str]) -> dict:
    mapping = {}
    for item in pairs:
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        mapping[key.strip()] = value
    return mapping


# the config object each command reads
_CONFIGS = {"train": PipelineConfig, "score": ScoreConfig, "ablate": ScoreConfig}


def _load_config(args: argparse.Namespace) -> Union[PipelineConfig, ScoreConfig]:
    """The command's config object: its defaults, then the --config file's
    values, then those of --set. A key of another command's object is a
    ConfigError naming the commands that read it."""
    layers = [] if args.config is None else [
        (f"config {args.config}", _read_json_object(args.config, "config", ConfigError))]
    layers.append(("--set", _parse_overrides(args.set)))
    for source, mapping in layers:
        for key in mapping:
            readers = [command for command, cls in _CONFIGS.items() if key in cls.__dataclass_fields__]
            if readers and args.command not in readers:
                raise ConfigError(f"{source}: {key} is read by {' and '.join(readers)}, not by {args.command}")
    return config_from_mapping(_CONFIGS[args.command](), *layers)


def _check_gaze_devices(artifacts: ArtifactSet, artifact_dir: Path, manifests) -> None:
    """Fail before any frame file is read when one of ``manifests`` is of a
    device that the gaze regressors lack."""
    for manifest in manifests:
        if manifest.device_type not in artifacts.gaze.by_device:
            raise MissingArtifactError(
                f"artifact {artifact_dir / GAZE_ARTIFACT}: no gaze regressors for device type "
                f"{manifest.device_type!r} (session {manifest.session_id})"
            )


def _check_output(out: Path) -> None:
    """ConfigError unless ``--output`` is a directory or can be made one: the
    first of it and its parents that exists, a dangling link included, must
    be a directory. Every command checks this before it reads any input, and
    then, with ``config._check_writes``, each path it writes inside it."""
    for path in (out, *out.parents):
        if path.exists() or path.is_symlink():
            if not path.is_dir():
                raise ConfigError(f"--output {out}: {path} is not a directory")
            return


def cmd_simulate(args: argparse.Namespace) -> int:
    out: Path = args.output
    if args.script is not None:
        for dest in ("device", *_SUITE_DEFAULTS):
            if getattr(args, dest) is not None:
                raise ConfigError(f"--{dest.replace('_', '-')} does not apply to --script: "
                                  "the script names its own device, seed and segments")
        _check_writes(out, dirs=["sessions/scripted"])
        script = load_script(args.script)
        with _replacing_dirs(out / "sessions", ["scripted"]) as staging:
            _write_session(script, "scripted", staging / "scripted")
        print(f"wrote 1 scripted session to {out / 'sessions' / 'scripted'}")
        return EXIT_OK
    for dest, default in _SUITE_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    template, fixed = {"default": ("full", None), "gaze_offset": ("gaze_only", "desktop"),
                       "orientation": ("full", "mobile"), "mini": ("mini", None)}[args.suite]
    if fixed is not None and args.device not in (None, fixed):
        raise ConfigError(f"--suite {args.suite} writes {fixed} sessions only, got --device {args.device}")
    config = SuiteConfig(
        seed=args.seed,
        n_sessions=args.sessions,
        template=template,
        device=fixed or args.device or "mixed",
        camera_offset_max_cm=10.0 if args.suite == "gaze_offset" else 0.0,
        yawn_prevalence=args.yawn_prevalence,
    )
    index = generate_suite(config, out)
    print(f"wrote {len(index.entries)} sessions to {out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    written = train_all(args.suite_dir, args.output, cfg, seed=args.seed, only=args.only)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _score_one(manifest, base_dir: Path, cfg: ScoreConfig, artifacts: ArtifactSet) -> DistractionTimeline:
    """The session's timeline, not yet written: ``score`` writes every
    session's files once every session has scored."""
    frames = load_session(manifest, base_dir)
    return score_session(SessionDetectors(frames, manifest, artifacts, cfg))


def cmd_score(args: argparse.Namespace) -> int:
    if (args.suite_dir is None) == (args.manifest is None):
        raise ConfigError("score needs exactly one of --suite-dir or --manifest")
    if args.manifest is not None and args.split is not None:
        raise ConfigError("--split does not apply to --manifest: it scores the one session it names")
    split = args.split or "all"
    cfg = _load_config(args)
    entries = None if args.suite_dir is None else load_suite(args.suite_dir).by_split(split)
    # the one load per command: it fails before any session is read, and
    # every session scores against it, so each ensemble compiles its lookup
    # tables once (once per worker with --jobs)
    artifacts = ArtifactSet.load(args.artifacts)
    if entries is None:
        manifests = [(load_manifest(args.manifest), args.manifest.parent)]
    else:
        manifests = [load_entry_manifest(args.suite_dir, e) for e in entries]
    selected = []
    for manifest, base_dir in manifests:
        if args.device is not None and manifest.device_type != args.device:
            print(
                f"warning: skipping {manifest.session_id} (device {manifest.device_type}, "
                f"filter {args.device})",
                file=sys.stderr,
            )
            continue
        selected.append((manifest, base_dir))
    if not selected:
        where = "" if args.suite_dir is None else f"split={split!r} and "
        raise DataError(f"no sessions for {where}device={args.device!r} in {args.suite_dir or args.manifest}")
    _check_writes(args.output, files=[f"{manifest.session_id}.{kind}" for manifest, _ in selected
                                      for kind in ("timeline.jsonl", "summary.json")])
    _check_gaze_devices(artifacts, args.artifacts, [manifest for manifest, _ in selected])
    # all or nothing: a session that fails leaves no file of any session
    timelines = _in_order(
        [partial(_score_one, manifest, base_dir, cfg, artifacts) for manifest, base_dir in selected],
        [args.jobs > 1] * len(selected),
        workers=args.jobs,
    )
    for (manifest, _), timeline in zip(selected, timelines):
        write_timeline(timeline, args.output / f"{manifest.session_id}.timeline.jsonl")
        summary = session_summary(timeline, manifest.frame_rate_hz)
        write_artifact(json.dumps(summary, indent=2) + "\n",
                       args.output / f"{manifest.session_id}.summary.json")
    print(f"scored {len(timelines)} session(s) into {args.output}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_writes(args.output, files=["evaluation.json"])
    suite_dir: Path = args.suite_dir
    index = load_suite(suite_dir)
    pairs_by_device: dict[str, list] = {}
    n = 0
    for entry in index.entries:
        manifest, base_dir = load_entry_manifest(suite_dir, entry)
        scored_path = args.scored / f"{entry.session_id}.timeline.jsonl"
        if not scored_path.exists():
            continue
        if manifest.ground_truth is None:
            raise DataError(f"session {entry.session_id} has no ground truth")
        truth = read_timeline(base_dir / manifest.ground_truth)
        predicted = read_timeline(scored_path)
        check_truth(entry.session_id, "scored timeline", predicted.frame_index, truth)
        pairs_by_device.setdefault(entry.device_type, []).append(
            (~predicted.attentive, ~truth.attentive)
        )
        n += 1
    if n == 0:
        raise DataError(f"no scored timelines matching the suite found in {args.scored}")
    if n < len(index.entries):
        print(
            f"warning: only {n} of {len(index.entries)} suite sessions have "
            f"scored timelines in {args.scored}",
            file=sys.stderr,
        )
    report = {"n_sessions": n, "by_device": {
        device: pooled_report(pairs) for device, pairs in sorted(pairs_by_device.items())
    }}
    out_path = args.output / "evaluation.json"
    write_artifact(json.dumps(report, indent=2) + "\n", out_path)
    for device, rep in report["by_device"].items():
        g = rep["g_mean"]
        g_str = f"{g:.3f}" if g is not None else "n/a"
        print(f"{device}: g-mean {g_str}  F1 {rep['f1']:.3f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def _ablate_one(manifest, base_dir: Path, artifacts: ArtifactSet, variants: list, cfg: ScoreConfig) -> list:
    frames, truth = parse_session(manifest, base_dir)
    return ablation_pairs(frames, truth, manifest, artifacts, variants, cfg)


def cmd_ablate(args: argparse.Namespace) -> int:
    _check_writes(args.output, files=["ablation.json", "ablation.txt"])
    cfg = _load_config(args)
    artifacts = ArtifactSet.load(args.artifacts)
    selected = select_sessions(args.suite_dir, args.split)
    _check_gaze_devices(artifacts, args.artifacts, [manifest for manifest, _ in selected])
    families = [
        (name, variants)
        for name, variants, choice in (
            ("processing_steps", TABLE1_VARIANTS, "steps"),
            ("distraction_signals", TABLE3_VARIANTS, "signals"),
        )
        if args.tables in (choice, "both")
    ]
    # one run over both families shares each session's detector outputs, and
    # a session's task hands back only its masks, never its frames
    variants = [v for _, vs in families for v in vs]
    pairs = _in_halves([partial(_ablate_one, manifest, base_dir, artifacts, variants, cfg)
                        for manifest, base_dir in selected])
    rows = ablation_table(variants, [(manifest.device_type, p) for (manifest, _), p in zip(selected, pairs)])["rows"]
    doc = {}
    for name, variants in families:
        doc[name] = {"rows": rows[: len(variants)]}
        rows = rows[len(variants) :]
    rendered = []
    for name, table in doc.items():
        rendered.append(f"== {name} ==")
        rendered.append(render_table(table))
    text = "\n".join(rendered)
    # both files are rendered before either is written
    write_artifact(json.dumps(doc, indent=2) + "\n", args.output / "ablation.json")
    write_artifact(text, args.output / "ablation.txt")
    print(text)
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args.output)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AdwatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
