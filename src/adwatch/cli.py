"""Command-line entry point: simulate -> train -> score -> evaluate -> ablate.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 missing model
artifact. Threshold defaults come from ``PipelineConfig`` and can be set in
a JSON config file; command-line values win over the file, the file over
the defaults. Each command takes only the flags it reads: ``--seed`` goes to
simulate and train, ``--config`` and ``--set`` to train, score and ablate,
and any other use of them is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

from .config import PipelineConfig, config_from_mapping, load_config
from .errors import AdwatchError, ConfigError, DataError, MissingArtifactError
from .evaluation import (
    AblationTable,
    per_session_mean,
    pooled_report,
    render_table,
    run_ablation,
)
from .fusion import session_summary
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
    load_script,
    load_suite,
)
from .training import load_suite_sessions, train_all

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adwatch",
        description="Offline attention scoring for ad-viewing sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("simulate", help="generate a synthetic suite or session",
                       formatter_class=fmt)
    _seed_flag(p)
    _output_flag(p)
    p.add_argument("--suite", choices=["default", "gaze_offset", "orientation", "mini"],
                   default="default", help="suite template")
    p.add_argument("--sessions", type=int, default=20, help="number of sessions")
    p.add_argument("--device", choices=["desktop", "mobile", "mixed"], default="mixed",
                   help="device mix")
    p.add_argument("--script", type=Path, default=None,
                   help="generate a single session from a script file instead")
    p.add_argument("--yawn-prevalence", type=float, default=0.026,
                   help="target fraction of active-yawn frames (full template only)")

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
    p.add_argument("--split", choices=["train", "held_out", "all"], default="all",
                   help="suite split to score")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="sessions scored in parallel worker processes")

    p = sub.add_parser("evaluate", help="compare scored timelines against ground truth",
                       formatter_class=fmt)
    _output_flag(p)
    p.add_argument("--suite-dir", type=Path, required=True, help="suite with ground truth")
    p.add_argument("--scored", type=Path, required=True, help="directory of scored timelines")
    p.add_argument("--macro", action="store_true",
                   help="also report per-session macro averages")

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


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    # precedence: --set > --config file > defaults
    cfg = PipelineConfig()
    if args.config is not None:
        cfg = load_config(args.config, base=cfg)
    overrides = _parse_overrides(args.set)
    if overrides:
        cfg = config_from_mapping(overrides, base=cfg)
    return cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    out: Path = args.output
    if args.script is not None:
        sdir = out / "sessions" / "scripted"
        _write_session(load_script(args.script), "scripted", sdir)
        print(f"wrote 1 scripted session to {sdir}")
        return EXIT_OK
    template = {"default": "full", "gaze_offset": "gaze_only",
                "orientation": "full", "mini": "mini"}[args.suite]
    device = args.device
    offset_max = 0.0
    if args.suite == "gaze_offset":
        device = "desktop"
        offset_max = 10.0
    if args.suite == "orientation":
        device = "mobile"
    config = SuiteConfig(
        seed=args.seed,
        n_sessions=args.sessions,
        template=template,
        device=device,
        camera_offset_max_cm=offset_max,
        yawn_prevalence=args.yawn_prevalence,
    )
    index = generate_suite(config, out)
    print(f"wrote {len(index.entries)} sessions to {out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    written = train_all(args.suite_dir, args.output, cfg, seed=args.seed, only=args.only)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _score_one(task, artifacts: ArtifactSet):
    manifest_path, device_filter, cfg, out_dir = task
    manifest = load_manifest(manifest_path)
    if device_filter is not None and manifest.device_type != device_filter:
        print(
            f"warning: skipping {manifest.session_id} (device {manifest.device_type}, "
            f"filter {device_filter})",
            file=sys.stderr,
        )
        return None
    frames = load_session(manifest, Path(manifest_path).parent)
    scored = score_session(SessionDetectors(frames, manifest, artifacts, cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_timeline(scored.timeline, out_dir / f"{manifest.session_id}.timeline.jsonl")
    summary = session_summary(scored.timeline, manifest.frame_rate_hz)
    (out_dir / f"{manifest.session_id}.summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    return manifest.session_id


# Set only inside ``score --jobs N`` worker processes, once per worker, by
# the pool initializer; the parent process never assigns it.
_worker_artifacts: Optional[ArtifactSet] = None


def _init_worker(artifacts: ArtifactSet) -> None:
    global _worker_artifacts
    _worker_artifacts = artifacts


def _score_in_worker(task):
    return _score_one(task, _worker_artifacts)


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    if (args.suite_dir is None) == (args.manifest is None):
        raise ConfigError("score needs exactly one of --suite-dir or --manifest")
    if args.manifest is not None:
        manifest_paths = [args.manifest]
    else:
        index = load_suite(args.suite_dir)
        manifest_paths = [
            args.suite_dir / e.manifest_path for e in index.by_split(args.split)
        ]
    # the one load per command: it fails before any session is read, and
    # every session scores against it, so each ensemble compiles its lookup
    # tables once (once per worker with --jobs)
    artifacts = ArtifactSet.load(args.artifacts)
    tasks = [(p, args.device, cfg, args.output) for p in manifest_paths]
    if args.jobs > 1:
        with ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_init_worker, initargs=(artifacts,)
        ) as pool:
            results = list(pool.map(_score_in_worker, tasks))
    else:
        results = [_score_one(t, artifacts) for t in tasks]
    scored = [r for r in results if r is not None]
    print(f"scored {len(scored)} session(s) into {args.output}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    suite_dir: Path = args.suite_dir
    index = load_suite(suite_dir)
    pairs_by_device: dict[str, list] = {}
    n = 0
    for entry in index.entries:
        manifest_path = suite_dir / entry.manifest_path
        manifest = load_manifest(manifest_path)
        scored_path = args.scored / f"{entry.session_id}.timeline.jsonl"
        if not scored_path.exists():
            continue
        if manifest.ground_truth is None:
            raise DataError(f"session {entry.session_id} has no ground truth")
        truth = read_timeline(manifest_path.parent / manifest.ground_truth)
        predicted = read_timeline(scored_path)
        if len(predicted) != len(truth):
            raise DataError(
                f"session {entry.session_id}: scored timeline length "
                f"{len(predicted)} != ground truth {len(truth)}"
            )
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
    report = {"n_sessions": n, "by_device": {}}
    for device, pairs in sorted(pairs_by_device.items()):
        rep = pooled_report(pairs)
        report["by_device"][device] = rep.to_dict()
        if args.macro:
            report["by_device"][device]["per_session"] = per_session_mean(pairs)
    args.output.mkdir(parents=True, exist_ok=True)
    out_path = args.output / "evaluation.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for device, rep in report["by_device"].items():
        g = rep["g_mean"]
        g_str = f"{g:.3f}" if g is not None else "n/a"
        print(f"{device}: g-mean {g_str}  F1 {rep['f1']:.3f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    artifacts = ArtifactSet.load(args.artifacts)
    sessions = load_suite_sessions(args.suite_dir, split=args.split)
    args.output.mkdir(parents=True, exist_ok=True)
    families = [
        (name, variants)
        for name, variants, choice in (
            ("processing_steps", TABLE1_VARIANTS, "steps"),
            ("distraction_signals", TABLE3_VARIANTS, "signals"),
        )
        if args.tables in (choice, "both")
    ]
    # one run over both families shares each session's detector outputs
    rows = run_ablation(sessions, artifacts, [v for _, vs in families for v in vs], cfg).rows
    tables = {}
    for name, variants in families:
        tables[name] = AblationTable(rows=rows[: len(variants)])
        rows = rows[len(variants) :]
    doc = {name: tbl.to_dict() for name, tbl in tables.items()}
    (args.output / "ablation.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    rendered = []
    for name, tbl in tables.items():
        rendered.append(f"== {name} ==")
        rendered.append(render_table(tbl))
    text = "\n".join(rendered)
    (args.output / "ablation.txt").write_text(text, encoding="utf-8")
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
