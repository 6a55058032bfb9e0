import json
import multiprocessing
import os
import shutil
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from adwatch import training
from adwatch.cli import build_parser, main
from adwatch.errors import DataError
from adwatch.fusion import SIGNAL_NAMES
from adwatch.pipeline import ArtifactSet

FAST_CONFIG = {
    "cnn_epochs": 30,
    "gaze_stages": 30,
    "yawn_stages": 30,
    "max_speaking_train_windows": 400,
    "max_gaze_train_rows": 800,
    "max_yawn_train_rows": 1500,
}


def write_fast_config(tmp_path) -> Path:
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return path


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small suite plus artifacts trained through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    suite = root / "suite"
    art = root / "artifacts"
    cfg = write_fast_config(root)
    assert main(["simulate", "--suite", "default", "--sessions", "4",
                 "--seed", "3", "--output", str(suite)]) == 0
    assert main(["train", "--suite-dir", str(suite), "--config", str(cfg),
                 "--seed", "3", "--output", str(art)]) == 0
    return root, suite, art, cfg


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--suite", "mini", "--sessions", "3",
                     "--seed", "7", "--output", str(out)]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_simulate_creates_missing_output_dir(tmp_path):
    nested = tmp_path / "deep" / "nested" / "dir"
    assert main(["simulate", "--suite", "mini", "--sessions", "1",
                 "--seed", "1", "--output", str(nested)]) == 0
    assert (nested / "suite.json").exists()


def suite_devices(suite: Path) -> set:
    return {s["device_type"] for s in json.loads((suite / "suite.json").read_text())["sessions"]}


@pytest.mark.parametrize("suite, fixed, device", [
    ("gaze_offset", "desktop", "mobile"), ("gaze_offset", "desktop", "mixed"),
    ("orientation", "mobile", "desktop"), ("orientation", "mobile", "mixed"),
])
def test_simulate_device_that_conflicts_with_the_suite_exits_2(tmp_path, capsys, suite, fixed, device):
    code = main(["simulate", "--suite", suite, "--device", device, "--sessions", "2",
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"config error: --suite {suite} writes {fixed} sessions only, got --device {device}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("device", ["desktop", "mobile", "mixed"])
def test_simulate_device_with_a_script_exits_2(tmp_path, capsys, device):
    script = {
        "device_type": "desktop",
        "duration_s": 2.0,
        "segments": [{"kind": "dot_at", "start_s": 0.0, "duration_s": 2.0, "dot": [0, 0]}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = main(["simulate", "--script", str(path), "--device", device,
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert "--device does not apply to --script" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--suite", "mini"), ("--sessions", "3"), ("--seed", "0"), ("--yawn-prevalence", "0.026"),
])
def test_simulate_suite_flag_with_a_script_exits_2(tmp_path, capsys, flag, value):
    # even a value equal to the suite default is refused: the flag was given
    script = {
        "device_type": "desktop",
        "duration_s": 2.0,
        "segments": [{"kind": "dot_at", "start_s": 0.0, "duration_s": 2.0, "dot": [0, 0]}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    out = tmp_path / "out"
    code = main(["simulate", "--script", str(path), flag, value, "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {flag} does not apply to --script: the script names its own device, seed and segments\n")
    assert not out.exists()
    assert main(["simulate", "--script", str(path), "--output", str(out)]) == 0


def test_simulate_suite_flags_keep_their_defaults(tmp_path):
    unset, given = tmp_path / "unset", tmp_path / "given"
    assert main(["simulate", "--output", str(unset)]) == 0
    assert main(["simulate", "--suite", "default", "--sessions", "20", "--seed", "0",
                 "--yawn-prevalence", "0.026", "--output", str(given)]) == 0
    assert tree_bytes(unset) == tree_bytes(given)
    assert len(json.loads((unset / "suite.json").read_text())["sessions"]) == 20


IN_ORDER = training._in_order


def split_by(monkeypatch, cpus: int) -> list:
    """Make ``cpus`` CPUs usable; returns the list to which each process
    split appends its worker marks. With one CPU, starting a process pool
    raises."""
    marks = []

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started with one usable CPU")

    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(training, "_in_order",
                        lambda tasks, in_worker: marks.append(list(in_worker)) or IN_ORDER(tasks, in_worker))
    monkeypatch.setattr(training, "ProcessPoolExecutor", NoPool if cpus == 1 else ProcessPoolExecutor)
    return marks


def halves(n: int) -> list:
    """The marks of a split of ``n`` sessions in two processes: this
    process takes the first half, and one more when ``n`` is odd."""
    return [i >= (n + 1) // 2 for i in range(n)]


@pytest.mark.parametrize("seed, sessions", [(7, 20), (31, 6), (59, 6), (59, 5)])
def test_simulate_writes_the_same_bytes_in_one_process_and_in_two(tmp_path, monkeypatch, seed, sessions):
    trees = {}
    for cpus in (1, 2):
        marks = split_by(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["simulate", "--seed", str(seed), "--sessions", str(sessions),
                     "--output", str(out)]) == 0
        assert marks == [halves(sessions) if cpus == 2 else [False] * sessions]
        assert multiprocessing.active_children() == []
        trees[cpus] = tree_bytes(out)
    assert len(trees[1]) == 3 * sessions + 1
    assert trees[1] == trees[2]


@pytest.mark.parametrize("suite, device", [
    ("gaze_offset", "desktop"), ("orientation", "mobile"), ("mini", "mixed"), ("default", "mixed"),
])
def test_simulate_without_device_writes_the_suite_its_own_device_writes(tmp_path, suite, device):
    unset, given = tmp_path / "unset", tmp_path / "given"
    args = ["simulate", "--suite", suite, "--sessions", "2", "--seed", "4"]
    assert main([*args, "--output", str(unset)]) == 0
    assert main([*args, "--device", device, "--output", str(given)]) == 0
    assert tree_bytes(unset) == tree_bytes(given)
    assert suite_devices(unset) == ({"desktop", "mobile"} if device == "mixed" else {device})


@pytest.mark.parametrize("device", ["desktop", "mobile"])
def test_simulate_device_sets_the_mix_of_a_suite_without_its_own(tmp_path, device):
    out = tmp_path / "out"
    assert main(["simulate", "--suite", "mini", "--sessions", "2", "--device", device,
                 "--output", str(out)]) == 0
    assert suite_devices(out) == {device}


def test_overlapping_script_exits_2(tmp_path, capsys):
    script = {
        "duration_s": 5.0,
        "segments": [
            {"kind": "dot_at", "start_s": 0.0, "duration_s": 4.0, "dot": [0, 0]},
            {"kind": "speak", "start_s": 3.0, "duration_s": 2.0},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = main(["simulate", "--script", str(path), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "segments 0 and 1" in err


def test_negative_seed_to_simulate_exits_2(tmp_path, capsys):
    code = main(["simulate", "--suite", "mini", "--seed", "-1", "--output", str(tmp_path / "out")])
    assert code == 2
    assert "seed must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite", ["mini", "default"])
@pytest.mark.parametrize("value", ["5", "nan"])
def test_out_of_range_yawn_prevalence_exits_2_for_every_suite(tmp_path, capsys, suite, value):
    code = main(["simulate", "--suite", suite, "--sessions", "1", "--yawn-prevalence", value,
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert "config error: suite config: yawn_prevalence must be a finite number in (0, 0.7)" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_negative_seed_to_train_exits_2_before_reading_the_suite(tmp_path, capsys):
    # the suite directory does not exist: the seed is checked first
    code = main(["train", "--suite-dir", str(tmp_path / "missing"), "--seed", "-1",
                 "--only", "speaking", "--output", str(tmp_path / "art")])
    assert code == 2
    assert "seed must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


# each command's input flags, all naming paths that do not exist
MISSING_INPUTS = {
    "simulate": ["--script", "script.json"],
    "train": ["--suite-dir", "suite"],
    "score": ["--suite-dir", "suite", "--artifacts", "art"],
    "evaluate": ["--suite-dir", "suite", "--scored", "scored"],
    "ablate": ["--suite-dir", "suite", "--artifacts", "art"],
}


@pytest.mark.parametrize("command", list(MISSING_INPUTS))
@pytest.mark.parametrize("kind", ["file", "below_a_file", "dangling_link"])
def test_output_that_is_or_is_below_a_file_exits_2_before_reading_any_input(tmp_path, capsys, command, kind):
    # no input exists, so a command that read one first would fail on it instead
    taken = tmp_path / "taken"
    if kind == "dangling_link":
        taken.symlink_to(tmp_path / "nowhere")
    else:
        taken.write_text("kept\n")
    out = taken / "out" if kind == "below_a_file" else taken
    inputs = [arg if arg.startswith("--") else str(tmp_path / "missing" / arg)
              for arg in MISSING_INPUTS[command]]
    assert main([command, *inputs, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: --output {out}: {taken} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert taken.is_symlink() if kind == "dangling_link" else taken.read_text() == "kept\n"


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_script_seed_that_is_not_a_non_negative_integer_exits_2(tmp_path, capsys, seed):
    script = {
        "seed": seed,
        "duration_s": 2.0,
        "segments": [{"kind": "dot_at", "start_s": 0.0, "duration_s": 2.0, "dot": [0, 0]}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = main(["simulate", "--script", str(path), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "seed" in err
    assert not (tmp_path / "out").exists()


def test_train_produces_three_loadable_artifacts(trained):
    _, _, art, _ = trained
    arts = ArtifactSet.load(art)
    assert arts.speaking is not None
    assert arts.yawn is not None
    assert set(arts.gaze) == {"desktop", "mobile"}


def test_train_only_speaking(tmp_path, trained):
    _, suite, _, cfg = trained
    out = tmp_path / "only"
    assert main(["train", "--suite-dir", str(suite), "--config", str(cfg),
                 "--only", "speaking", "--output", str(out)]) == 0
    files = [p.name for p in out.iterdir()]
    assert files == ["speaking_cnn.json"]


def test_train_rerun_byte_identical(tmp_path, trained):
    _, suite, _, cfg = trained
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["train", "--suite-dir", str(suite), "--config", str(cfg),
                     "--seed", "11", "--output", str(out)]) == 0
    assert tree_bytes(a) == tree_bytes(b)


def assert_side_by_side_writes_the_bytes_of_each_model_trained_alone(suite, cfg, tmp_path, monkeypatch):
    # the worker processes load and fit whatever the CPU count; --only always
    # fits in turn, and with one CPU the suite loads in this process
    marks = []
    in_order = training._in_order
    monkeypatch.setattr(training, "_in_order",
                        lambda tasks, in_worker: marks.append(list(in_worker)) or in_order(tasks, in_worker))
    both, alone = tmp_path / "both", tmp_path / "alone"
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    assert main(["train", "--suite-dir", str(suite), "--config", str(cfg),
                 "--seed", "11", "--output", str(both)]) == 0
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    for only in ("gaze", "speaking", "yawn"):
        assert main(["train", "--suite-dir", str(suite), "--config", str(cfg),
                     "--seed", "11", "--only", only, "--output", str(alone)]) == 0
    # gaze and yawn go to the worker in the one side-by-side train only
    assert marks.count([True, False, True]) == 1
    assert tree_bytes(both) == tree_bytes(alone)
    assert multiprocessing.active_children() == []


def test_train_side_by_side_writes_the_bytes_of_each_model_trained_alone(tmp_path, trained, monkeypatch):
    _, suite, _, cfg = trained
    assert_side_by_side_writes_the_bytes_of_each_model_trained_alone(suite, cfg, tmp_path, monkeypatch)


def test_train_side_by_side_on_an_odd_train_split_writes_the_bytes_of_each_model_trained_alone(
        tmp_path, trained, monkeypatch):
    # three train sessions: this process parses two, the worker one
    _, _, _, cfg = trained
    suite = tmp_path / "suite"
    assert main(["simulate", "--suite", "default", "--sessions", "6",
                 "--seed", "4", "--output", str(suite)]) == 0
    assert len(split_manifests(suite, "train")) == 3
    assert_side_by_side_writes_the_bytes_of_each_model_trained_alone(suite, cfg, tmp_path, monkeypatch)


def test_failing_yawn_fit_writes_no_artifact(tmp_path, capsys, monkeypatch):
    # the mini template has no yawns, so the yawn fit fails in the worker
    # process, after the gaze regressors and while the speaking CNN trains
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    suite, out = tmp_path / "suite", tmp_path / "art"
    assert main(["simulate", "--suite", "mini", "--sessions", "2",
                 "--seed", "5", "--output", str(suite)]) == 0
    code = main(["train", "--suite-dir", str(suite), "--config", str(write_fast_config(tmp_path)),
                 "--output", str(out)])
    assert code == 3
    assert "both classes" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


class EmptyModel:
    """Encodes as a model of any kind with nothing in it."""

    def items(self):
        return ()

    def to_dict(self):
        return {}


@dataclass(frozen=True)
class FakeFit:
    """A fit that fails or returns an empty model, which the fit worker
    encodes as any kind."""

    target: str
    fails: bool

    def __call__(self, sessions, config, seed=0):
        if self.fails:
            raise DataError(f"the {self.target} fit failed")
        return EmptyModel(), {}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing, reported", [
    ("gaze speaking yawn", "gaze"),
    ("speaking yawn", "speaking"),
    ("gaze", "gaze"),
    ("yawn", "yawn"),
])
def test_train_reports_the_first_failing_fit_in_series_order(trained, tmp_path, capsys, monkeypatch,
                                                             cpus, failing, reported):
    _, suite, _, _ = trained
    monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
    for name in ("train_gaze_regressors", "train_speaking_cnn", "train_yawn_classifier"):
        target = name.split("_")[1]
        monkeypatch.setattr(training, name, FakeFit(target, target in failing.split()))
    out = tmp_path / "art"
    assert main(["train", "--suite-dir", str(suite), "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: the {reported} fit failed\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def split_manifests(suite: Path, split: str) -> list[Path]:
    """The manifest paths of the sessions of ``split``, in index order."""
    index = json.loads((suite / "suite.json").read_text())
    return [suite / e["manifest_path"] for e in index["sessions"] if e["split"] == split]


def break_frame_row(manifest_path: Path, row: int) -> str:
    """Make frame ``row`` (1-based) of the session's frame file a text
    quality; returns the message the loader gives for it."""
    frames_path = manifest_path.parent / json.loads(manifest_path.read_text())["frame_source"]
    lines = frames_path.read_text().splitlines()
    doc = json.loads(lines[row - 1])
    doc["gaze_quality"] = "0.9"
    lines[row - 1] = json.dumps(doc)
    frames_path.write_text("\n".join(lines) + "\n")
    return f'frame file {frames_path} row {row}: gaze_quality must be a number, got "0.9"'


def count_frame_loads(monkeypatch) -> list:
    from adwatch import session_io

    calls = []
    load_frames = session_io.load_frames
    monkeypatch.setattr(session_io, "load_frames",
                        lambda path, *rest: calls.append(path) or load_frames(path, *rest))
    return calls


def test_train_on_a_session_without_ground_truth_exits_3_before_parsing_any_frames(
        trained, tmp_path, capsys, monkeypatch):
    _, suite, _, cfg = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    last = split_manifests(copy, "train")[-1]
    doc = json.loads(last.read_text())
    doc["ground_truth"] = None
    last.write_text(json.dumps(doc))
    loads = count_frame_loads(monkeypatch)
    out = tmp_path / "art"
    code = main(["train", "--suite-dir", str(copy), "--config", str(cfg), "--output", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"data error: session {doc['session_id']} has no ground truth\n"
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("command, split", [("train", "train"), ("ablate", "held_out")])
@pytest.mark.parametrize("broken", ["first", "second", "both"])
def test_bad_frame_row_in_either_half_of_a_split_load_reports_the_first_in_index_order(
        trained, tmp_path, capsys, monkeypatch, command, split, broken):
    # two sessions: this process parses (and for ablate scores) the first,
    # the worker the second
    _, suite, art, cfg = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    manifests = split_manifests(copy, split)
    assert len(manifests) == 2
    if broken in ("second", "both"):
        message = break_frame_row(manifests[1], 40)
    if broken in ("first", "both"):
        message = break_frame_row(manifests[0], 70)
    out = tmp_path / "o"
    argv = ["train", "--config", str(cfg)] if command == "train" else ["ablate", "--artifacts", str(art)]
    argv += ["--suite-dir", str(copy), "--output", str(out)]
    for cpus in (1, 2):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        assert main(argv) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []


def one_row_short(rows: list) -> list:
    return rows[:-1]


def one_frame_late(rows: list) -> list:
    return [{**row, "frame_index": row["frame_index"] + 1} for row in rows]


@pytest.mark.parametrize("command, split", [("train", "train"), ("ablate", "held_out")])
@pytest.mark.parametrize("edit", [one_row_short, one_frame_late])
def test_ground_truth_that_is_not_the_frames_row_for_row_exits_3_naming_the_row(
        trained, tmp_path, capsys, command, split, edit):
    # refused before any fit or score: a short truth file misaligns the
    # training rows, and a late one labels each frame with its neighbour's truth
    _, suite, art, cfg = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    manifest_path = split_manifests(copy, split)[-1]
    manifest = json.loads(manifest_path.read_text())
    truth_path = manifest_path.parent / manifest["ground_truth"]
    rows = [json.loads(line) for line in truth_path.read_text().splitlines()]
    truth_path.write_text("".join(json.dumps(row) + "\n" for row in edit(rows)))
    n = len(rows)
    message = {
        one_row_short: f"frame file length {n} != ground truth {n - 1} (first unmatched row {n})",
        one_frame_late: "frame file row 1 has frame_index 0, ground truth 1",
    }[edit]
    out = tmp_path / "o"
    argv = ["train", "--config", str(cfg)] if command == "train" else ["ablate", "--artifacts", str(art)]
    code = main([*argv, "--suite-dir", str(copy), "--output", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"data error: session {manifest['session_id']}: {message}\n"
    assert not out.exists()


def test_out_of_range_training_value_exits_2(trained, tmp_path, capsys):
    _, suite, _, _ = trained
    out = tmp_path / "o"
    code = main(["train", "--suite-dir", str(suite), "--set", "cnn_batch_size=0",
                 "--output", str(out)])
    assert code == 2
    assert "cnn_batch_size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("item", ['quality_gate="abc"', "window_samples=5.5"])
def test_mistyped_scoring_value_exits_2(trained, tmp_path, capsys, item):
    _, suite, art, _ = trained
    code = main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--set", item, "--output", str(tmp_path / "s")])
    assert code == 2
    assert item.split("=")[0] in capsys.readouterr().err


def test_score_suite_and_evaluate(trained, tmp_path):
    root, suite, art, cfg = trained
    scored = tmp_path / "scored"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--output", str(scored)]) == 0
    timelines = list(scored.glob("*.timeline.jsonl"))
    summaries = list(scored.glob("*.summary.json"))
    assert len(timelines) == 4 and len(summaries) == 4
    evaldir = tmp_path / "eval"
    assert main(["evaluate", "--suite-dir", str(suite), "--scored", str(scored),
                 "--output", str(evaldir)]) == 0
    report = json.loads((evaldir / "evaluation.json").read_text())
    assert report["n_sessions"] == 4
    for rep in report["by_device"].values():
        assert 0.0 <= rep["f1"] <= 1.0


def test_score_single_manifest_timeline_length(trained, tmp_path):
    _, suite, art, _ = trained
    from adwatch.session_io import load_frames, load_manifest, read_timeline
    from adwatch.synth import load_suite

    entry = load_suite(suite).entries[0]
    manifest_path = suite / entry.manifest_path
    out = tmp_path / "one"
    assert main(["score", "--manifest", str(manifest_path), "--artifacts", str(art),
                 "--output", str(out)]) == 0
    manifest = load_manifest(manifest_path)
    frames = load_frames(manifest_path.parent / manifest.frame_source)
    timeline = read_timeline(out / f"{entry.session_id}.timeline.jsonl")
    assert len(timeline) == len(frames)


def test_device_filter_skips_with_warning(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    from adwatch.synth import load_suite

    entries = load_suite(suite).entries
    out = tmp_path / "filtered"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--device", "desktop", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    for entry in entries:
        skipped = f"warning: skipping {entry.session_id} (device mobile, filter desktop)" in err
        assert skipped == (entry.device_type == "mobile")
        assert (out / f"{entry.session_id}.timeline.jsonl").exists() == (not skipped)


def test_score_that_selects_no_session_from_a_manifest_exits_3_before_any_output(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    from adwatch.synth import load_suite

    desktop_entry = next(e for e in load_suite(suite).entries if e.device_type == "desktop")
    manifest = suite / desktop_entry.manifest_path
    out = tmp_path / "filtered"
    code = main(["score", "--manifest", str(manifest), "--artifacts", str(art),
                 "--device", "mobile", "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"warning: skipping {desktop_entry.session_id}" in err
    assert err.endswith(f"data error: no sessions for device='mobile' in {manifest}\n")
    assert not out.exists()


def test_score_that_selects_no_session_from_a_suite_exits_3_before_any_output(trained, tmp_path, capsys):
    _, _, art, _ = trained
    suite, out = tmp_path / "desktop_only", tmp_path / "o"
    assert main(["simulate", "--suite", "gaze_offset", "--sessions", "2", "--seed", "2",
                 "--output", str(suite)]) == 0
    capsys.readouterr()
    code = main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--device", "mobile", "--output", str(out)])
    assert code == 3
    assert capsys.readouterr().err.endswith(
        f"data error: no sessions for split='all' and device='mobile' in {suite}\n")
    assert not out.exists()


def test_missing_artifacts_exit_4(trained, tmp_path, capsys):
    _, suite, _, _ = trained
    code = main(["score", "--suite-dir", str(suite),
                 "--artifacts", str(tmp_path / "void"), "--output", str(tmp_path / "o")])
    assert code == 4
    assert "gaze_regressors.json" in capsys.readouterr().err
    # the load comes before any session is read or any output is written
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.rglob("*.timeline.jsonl"))


def first_node(model, leaf):
    """The first leaf (or split) of an ensemble document, trees in order,
    nodes in preorder."""
    stack = list(reversed(model["trees"]))
    while stack:
        node = stack.pop()
        if ("value" in node) == leaf:
            return node
        if "value" not in node:
            stack += [node["right"], node["left"]]
    raise AssertionError("no such node")


def on_model(change):
    """A mutation of the artifact's model: the speaking or yawn ``model``,
    or the first device's x ensemble of the gaze ``models``."""
    def mutate(doc):
        models = doc.get("models")
        change(models[sorted(models)[0]]["x"] if models else doc["model"])
    return mutate


def shorten_rows(matrix):
    for row in matrix:
        row.pop()


ARTIFACT_MUTATIONS = [
    pytest.param("speaking_cnn.json", "missing key model", lambda doc: doc.pop("model"), id="speaking_no_model"),
    pytest.param("speaking_cnn.json", "model: missing key w3", on_model(lambda m: m.pop("w3")), id="speaking_missing_w3"),
    pytest.param("speaking_cnn.json", "model: w1 must be", on_model(lambda m: m.update(w1="abc")), id="speaking_w1_text"),
    pytest.param("speaking_cnn.json", "model: input_center must be", on_model(lambda m: m.update(input_center="x")),
                 id="speaking_center_text"),
    pytest.param("speaking_cnn.json", "model: w3 must be", on_model(lambda m: shorten_rows(m["w3"])),
                 id="speaking_w3_column_short"),
    pytest.param("speaking_cnn.json", "model: b4 must be", on_model(lambda m: m.update(b4=[[0.0]])), id="speaking_b4_shape"),
    pytest.param("speaking_cnn.json", "model: window_len must be", on_model(lambda m: m.update(window_len="30")),
                 id="speaking_window_len_text"),
    pytest.param("speaking_cnn.json", "model: w3 must be", on_model(lambda m: m["w3"][0].__setitem__(0, float("nan"))),
                 id="speaking_w3_nan"),
    pytest.param("speaking_cnn.json", "model: train_loss_curve must be",
                 on_model(lambda m: m.update(train_loss_curve=["x"])), id="speaking_curve_text"),
    pytest.param("yawn_classifier.json", "model: missing key trees", on_model(lambda m: m.pop("trees")), id="yawn_missing_trees"),
    pytest.param("yawn_classifier.json", "model: n_features must be", on_model(lambda m: m.update(n_features="x")),
                 id="yawn_n_features_text"),
    pytest.param("yawn_classifier.json", "model: tree 0: value must be", on_model(lambda m: first_node(m, True).update(value="x")),
                 id="yawn_leaf_text"),
    pytest.param("yawn_classifier.json", "model: tree 0: threshold must be",
                 on_model(lambda m: first_node(m, False).update(threshold=float("nan"))), id="yawn_threshold_nan"),
    pytest.param("yawn_classifier.json", "model: tree 0: feature must be",
                 on_model(lambda m: first_node(m, False).update(feature=m["n_features"])),
                 id="yawn_feature_past_the_end"),
    pytest.param("yawn_classifier.json", "model: tree 0: feature must be",
                 on_model(lambda m: first_node(m, False).update(feature=-1)), id="yawn_feature_negative"),
    pytest.param("yawn_classifier.json", "model: tree 0: missing key left", on_model(lambda m: first_node(m, False).pop("left")),
                 id="yawn_split_without_left"),
    pytest.param("gaze_regressors.json", "models.desktop.x: missing key trees", on_model(lambda m: m.pop("trees")), id="gaze_missing_trees"),
    pytest.param("gaze_regressors.json", "models.desktop.x: tree 0: threshold must be",
                 on_model(lambda m: first_node(m, False).update(threshold=float("nan"))), id="gaze_threshold_nan"),
    pytest.param("gaze_regressors.json", "models.desktop.x: tree 0: feature must be",
                 on_model(lambda m: first_node(m, False).update(feature=m["n_features"])),
                 id="gaze_feature_past_the_end"),
    pytest.param("gaze_regressors.json", "models.desktop: missing key y",
                 lambda doc: doc["models"][sorted(doc["models"])[0]].pop("y"), id="gaze_missing_axis"),
]


@pytest.mark.parametrize("name, field, mutate", ARTIFACT_MUTATIONS)
def test_malformed_artifact_exits_4(trained, tmp_path, capsys, name, field, mutate):
    _, suite, art, _ = trained
    bad = tmp_path / "artifacts"
    shutil.copytree(art, bad)
    doc = json.loads((bad / name).read_text())
    mutate(doc)
    (bad / name).write_text(json.dumps(doc))
    code = main(["score", "--suite-dir", str(suite), "--artifacts", str(bad),
                 "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4, err
    assert name in err and field in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, where, mutate", [
    pytest.param("gaze_regressors.json", "models.desktop.x: n_features must be 2, got 3",
                 lambda doc: doc["models"]["desktop"]["x"].update(n_features=3), id="gaze_3_features"),
    pytest.param("yawn_classifier.json", "model: n_features must be 21, got 22",
                 lambda doc: doc["model"].update(n_features=22), id="yawn_22_features"),
])
def test_artifact_that_does_not_fit_the_features_exits_4(trained, tmp_path, capsys, name, where, mutate):
    # well-formed models that used to load and then fail at first use with exit 3
    _, suite, art, _ = trained
    bad = tmp_path / "artifacts"
    shutil.copytree(art, bad)
    doc = json.loads((bad / name).read_text())
    mutate(doc)
    (bad / name).write_text(json.dumps(doc))
    code = main(["score", "--suite-dir", str(suite), "--artifacts", str(bad),
                 "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4, err
    assert f"artifact {bad / name}: {where}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["score", "ablate"])
def test_gaze_regressors_without_a_device_exit_4_before_any_output(trained, tmp_path, capsys, monkeypatch,
                                                                   command):
    _, suite, art, _ = trained
    bad = tmp_path / "artifacts"
    shutil.copytree(art, bad)
    doc = json.loads((bad / "gaze_regressors.json").read_text())
    del doc["models"]["mobile"]
    (bad / "gaze_regressors.json").write_text(json.dumps(doc))
    loads = count_frame_loads(monkeypatch)
    out = tmp_path / "o"
    code = main([command, "--suite-dir", str(suite), "--artifacts", str(bad), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert f"artifact {bad / 'gaze_regressors.json'}: no gaze regressors for device type 'mobile'" in err
    assert loads == []
    assert not out.exists()
    if command == "score":
        # only the selected sessions need their device
        assert main(["score", "--suite-dir", str(suite), "--artifacts", str(bad),
                     "--device", "desktop", "--output", str(out)]) == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_ablate_with_a_gaze_device_gap_exits_4_before_opening_any_frame_file(trained, tmp_path, capsys,
                                                                             monkeypatch, cpus):
    from adwatch import session_io

    _, suite, art, _ = trained
    bad = tmp_path / "artifacts"
    shutil.copytree(art, bad)
    doc = json.loads((bad / "gaze_regressors.json").read_text())
    del doc["models"]["desktop"]
    (bad / "gaze_regressors.json").write_text(json.dumps(doc))
    marks = split_by(monkeypatch, cpus)
    opened = []
    row_blocks = session_io._row_blocks
    monkeypatch.setattr(session_io, "_row_blocks", lambda path, error: opened.append(path) or row_blocks(path, error))
    out = tmp_path / "o"
    code = main(["ablate", "--suite-dir", str(suite), "--artifacts", str(bad), "--output", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        f"missing artifact: artifact {bad / 'gaze_regressors.json'}: no gaze regressors for device type 'desktop'")
    assert opened == [] and marks == []
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["score", "ablate"])
def test_window_samples_that_do_not_fit_the_speaking_cnn_exit_4(trained, tmp_path, capsys, command):
    _, suite, art, _ = trained
    code = main([command, "--suite-dir", str(suite), "--artifacts", str(art),
                 "--set", "window_samples=40", "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4, err
    assert (f"artifact {art / 'speaking_cnn.json'}: model: window_len must be "
            "window_samples = 40, got 30") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    ("gaze_quality", "0.9", 'gaze_quality must be a number, got "0.9"'),
    ("eye_closure", True, "eye_closure must be a number, got true"),
], ids=["text_quality", "boolean_closure"])
def test_frame_field_that_is_not_a_number_exits_3(trained, tmp_path, capsys, key, value, message):
    _, suite, art, _ = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    manifest_path = sorted(copy.glob("sessions/*/manifest.json"))[0]
    frames_path = manifest_path.parent / json.loads(manifest_path.read_text())["frame_source"]
    lines = frames_path.read_text().splitlines()
    row = json.loads(lines[100])
    row[key] = value
    lines[100] = json.dumps(row)
    frames_path.write_text("\n".join(lines) + "\n")
    code = main(["score", "--manifest", str(manifest_path), "--artifacts", str(art),
                 "--output", str(tmp_path / "o")])
    assert code == 3
    assert f"row 101: {message}" in capsys.readouterr().err


def test_cut_frame_run_exits_3_naming_the_row(trained, tmp_path, capsys):
    # durations are counted in frames, so a gap would mis-time every event over it
    _, suite, art, _ = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    manifest_path = sorted(copy.glob("sessions/*/manifest.json"))[0]
    frames_path = manifest_path.parent / json.loads(manifest_path.read_text())["frame_source"]
    lines = frames_path.read_text().splitlines()
    del lines[300:330]
    frames_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    code = main(["score", "--manifest", str(manifest_path), "--artifacts", str(art), "--output", str(out)])
    assert code == 3
    assert f"{frames_path} row 301: frame_index 330 skips frames after 299" in capsys.readouterr().err
    assert not out.exists()


def rewrite_frames(manifest_path: Path, edit) -> Path:
    """Apply ``edit(doc, rows)`` to the manifest's document and its frame
    rows, in place; returns the frame file's path."""
    doc = json.loads(manifest_path.read_text())
    frames_path = manifest_path.parent / doc["frame_source"]
    rows = [json.loads(line) for line in frames_path.read_text().splitlines()]
    edit(doc, rows)
    manifest_path.write_text(json.dumps(doc))
    frames_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return frames_path


def doubled_timestamps(doc, rows):
    for row in rows:
        row["timestamp_ms"] *= 2


def manifest_at_60_hz(doc, rows):
    doc["frame_rate_hz"] = 60.0


def hole_after_row_600(doc, rows):
    for row in rows[600:]:
        row["timestamp_ms"] += 5000.0


# each edit's first step off the manifest's rate, a 1-based row
CLOCK_EDITS = [(doubled_timestamps, 2), (manifest_at_60_hz, 2), (hole_after_row_600, 601)]


@pytest.mark.parametrize("edit, row", CLOCK_EDITS, ids=["doubled", "60hz_manifest", "5s_hole"])
@pytest.mark.parametrize("command, split", [("score", "all"), ("train", "train"), ("ablate", "held_out")])
def test_timestamps_off_the_manifest_rate_exit_3_naming_the_row(trained, tmp_path, capsys, edit, row,
                                                               command, split):
    # a duration counted in frames is a duration only at the manifest's rate
    _, suite, art, cfg = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    index = json.loads((copy / "suite.json").read_text())
    first = None
    for entry in index["sessions"]:
        frames_path = rewrite_frames(copy / entry["manifest_path"], edit)
        if entry["split"] == split or split == "all":
            first = first or frames_path
    out = tmp_path / "o"
    argv = ["train", "--config", str(cfg)] if command == "train" else [command, "--artifacts", str(art)]
    assert main(argv + ["--suite-dir", str(copy), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: frame file {first} row {row}: timestamp_ms "), err
    assert "frame periods of 33.3333 ms" in err or "frame periods of 16.6667 ms" in err
    assert not out.exists()


def test_timestamps_jittered_within_the_tolerance_score(trained, tmp_path):
    # a webcam's steps wander; each here is 0.6 to 1.4 periods
    _, suite, art, _ = trained
    source = sorted(suite.glob("sessions/*/manifest.json"))[0]
    rng = np.random.default_rng(11)

    def jitter(doc, rows):
        steps = 1000.0 / doc["frame_rate_hz"] * rng.uniform(0.6, 1.4, len(rows))
        for row, t in zip(rows, np.cumsum(steps).tolist()):
            row["timestamp_ms"] = t

    manifest, doc = copy_session(source, tmp_path / "session", lambda lines: lines)
    rewrite_frames(manifest, jitter)
    files = score_one(manifest, art, tmp_path / "o")
    timeline = files[f"{doc['session_id']}.timeline.jsonl"].splitlines()
    assert len(timeline) == len((manifest.parent / "frames.jsonl").read_text().splitlines())


def not_utf8(path: Path) -> None:
    """Replace ``path`` with a UTF-16 text of its own, which begins \\xff\\xfe."""
    text = path.read_text()
    path.unlink()
    path.write_bytes(text.encode("utf-16"))


def a_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("spoil, problem", [
    (a_directory, "cannot be read (Is a directory)"),
    (not_utf8, "not UTF-8 text (byte 0: invalid start byte)"),
], ids=["directory", "utf16"])
@pytest.mark.parametrize("kind, code", [
    ("config", 2), ("suite index", 2), ("script", 2), ("manifest", 3), ("model artifact", 4),
])
def test_json_document_that_is_a_directory_or_not_utf8_exits_with_its_code(trained, tmp_path, capsys,
                                                                         spoil, problem, kind, code):
    _, suite, art, cfg = trained
    copy, art_copy = tmp_path / "suite", tmp_path / "artifacts"
    shutil.copytree(suite, copy)
    shutil.copytree(art, art_copy)
    config = tmp_path / "config.json"
    shutil.copy(cfg, config)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"duration_s": 2.0, "segments": [{"kind": "dot_at", "start_s": 0.0,
                                                                  "duration_s": 2.0, "dot": [0, 0]}]}))
    manifest = sorted(copy.glob("sessions/*/manifest.json"))[0]
    path, argv = {
        "config": (config, ["score", "--config", str(config), "--suite-dir", str(copy)]),
        "suite index": (copy / "suite.json", ["score", "--suite-dir", str(copy)]),
        "script": (script, ["simulate", "--script", str(script)]),
        "manifest": (manifest, ["score", "--manifest", str(manifest)]),
        "model artifact": (art_copy / "yawn_classifier.json", ["score", "--suite-dir", str(copy)]),
    }[kind]
    if argv[0] == "score":
        argv += ["--artifacts", str(art_copy)]
    spoil(path)
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == code
    assert f"{kind} {path}: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_frame_file_that_is_a_directory_exits_3(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    source = sorted(suite.glob("sessions/*/manifest.json"))[0]
    manifest, _ = copy_session(source, tmp_path / "session", lambda lines: lines)
    a_directory(manifest.parent / "frames.jsonl")
    out = tmp_path / "o"
    assert main(["score", "--manifest", str(manifest), "--artifacts", str(art), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: frame file {manifest.parent / 'frames.jsonl'}: cannot be read (Is a directory)\n")
    assert not out.exists()


def test_frame_row_that_is_not_utf8_exits_3_naming_the_row(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    source = sorted(suite.glob("sessions/*/manifest.json"))[0]
    manifest, _ = copy_session(source, tmp_path / "session", lambda lines: lines)
    frames_path = manifest.parent / "frames.jsonl"
    lines = frames_path.read_bytes().split(b"\n")
    # a row before it fails a later check than the byte's; the byte's row still comes first
    lines[5] = lines[5].replace(b'"frame_index"', b'"frame_\xffindex"')
    lines[9] = lines[9].replace(b'"gaze_quality":', b'"gaze_quality":"x","q":')
    frames_path.write_bytes(b"\n".join(lines))
    out = tmp_path / "o"
    assert main(["score", "--manifest", str(manifest), "--artifacts", str(art), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: frame file {frames_path} row 6: not UTF-8 text (byte 8: invalid start byte)\n")
    assert not out.exists()


def test_scored_timeline_that_is_a_directory_exits_3(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    scored = tmp_path / "scored"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art), "--output", str(scored)]) == 0
    timeline = sorted(scored.glob("*.timeline.jsonl"))[0]
    a_directory(timeline)
    out = tmp_path / "e"
    assert main(["evaluate", "--suite-dir", str(suite), "--scored", str(scored), "--output", str(out)]) == 3
    assert capsys.readouterr().err.endswith(f"data error: timeline {timeline}: cannot be read (Is a directory)\n")
    assert not out.exists()


# the yawn vote spans 15 frames at 30 Hz (yawn_smooth_s = 0.5)
@pytest.mark.parametrize("n", [1, 2, 14, 15, 16])
def test_session_shorter_than_the_yawn_vote_scores_every_frame(trained, tmp_path, capsys, n):
    _, suite, art, _ = trained
    source = sorted(suite.glob("sessions/*/manifest.json"))[0]
    doc = json.loads(source.read_text())
    assert doc["frame_rate_hz"] == 30.0
    lines = (source.parent / doc["frame_source"]).read_text().splitlines()
    (tmp_path / "frames.jsonl").write_text("\n".join(lines[:n]) + "\n")
    doc.update(frame_source="frames.jsonl", ground_truth=None)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(["score", "--manifest", str(manifest), "--artifacts", str(art), "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = [json.loads(line) for line in (out / f"{doc['session_id']}.timeline.jsonl").read_text().splitlines()]
    assert [row["frame_index"] for row in rows] == [json.loads(line)["frame_index"] for line in lines[:n]]


def copy_session(source: Path, dest: Path, edit_lines) -> tuple[Path, dict]:
    """A manifest in ``dest`` for the session of ``source`` without ground
    truth, whose frame file is ``edit_lines`` of the source's lines."""
    doc = json.loads(source.read_text())
    lines = (source.parent / doc["frame_source"]).read_text().splitlines()
    dest.mkdir(exist_ok=True)
    (dest / "frames.jsonl").write_text("\n".join(edit_lines(lines)) + "\n")
    doc.update(frame_source="frames.jsonl", ground_truth=None)
    manifest = dest / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest, doc


def score_one(manifest: Path, art: Path, out: Path) -> dict:
    """The files ``score --manifest`` writes, by name; no warning may be raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["score", "--manifest", str(manifest), "--artifacts", str(art), "--output", str(out)]) == 0
    return {path.name: path.read_text() for path in out.iterdir()}


def test_summary_of_a_session_that_starts_past_frame_0_names_its_own_frames(trained, tmp_path):
    _, suite, art, _ = trained
    manifest, doc = copy_session(sorted(suite.glob("sessions/*/manifest.json"))[0], tmp_path / "cut",
                                 lambda lines: lines[300:])
    files = score_one(manifest, art, tmp_path / "o")
    sid, rate = doc["session_id"], doc["frame_rate_hz"]
    rows = [json.loads(line) for line in files[f"{sid}.timeline.jsonl"].splitlines()]
    assert rows[0]["frame_index"] == 300
    # each signal's runs of rows, by the frame_index of their first and last rows
    expected = {name: [] for name in SIGNAL_NAMES}
    for name, runs in expected.items():
        for row in rows:
            if name not in row["sources"]:
                continue
            if runs and runs[-1][1] == row["frame_index"] - 1:
                runs[-1][1] = row["frame_index"]
            else:
                runs.append([row["frame_index"]] * 2)
    events = json.loads(files[f"{sid}.summary.json"])["events"]
    assert sum(map(len, events.values())) > 0
    assert events == {
        name: [{"start_frame": first, "end_frame": last, "start_s": first / rate,
                "end_s": (last + 1) / rate, "duration_s": (last - first + 1) / rate}
               for first, last in runs]
        for name, runs in expected.items()
    }


def test_gaze_direction_too_long_to_square_scores_as_its_unscaled_direction(trained, tmp_path):
    # 2**664 is about 1.2e200: each component's square overflows a float,
    # and scaling by a power of two keeps every intersection exact
    _, suite, art, _ = trained
    source = next(path for path in sorted(suite.glob("sessions/*/manifest.json"))
                  if json.loads(path.read_text())["device_type"] == "desktop")

    def scale_rows(lines):
        rows = [json.loads(line) for line in lines[20:40]]
        assert sum(row["face_detected_gaze"] for row in rows) >= 10
        for row in rows:
            row["gaze_direction"] = [2.0 ** 664 * value for value in row["gaze_direction"]]
        return lines[:20] + list(map(json.dumps, rows)) + lines[40:]

    manifest, _ = copy_session(source, tmp_path / "plain", lambda lines: lines)
    scaled, _ = copy_session(source, tmp_path / "scaled", scale_rows)
    assert score_one(scaled, art, tmp_path / "o_scaled") == score_one(manifest, art, tmp_path / "o_plain")


def test_evaluate_refuses_a_scored_timeline_of_other_frames(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    scored = tmp_path / "scored"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--output", str(scored)]) == 0
    path = sorted(scored.glob("*.timeline.jsonl"))[1]
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows[7:]:
        row["frame_index"] += 1000
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code = main(["evaluate", "--suite-dir", str(suite), "--scored", str(scored),
                 "--output", str(tmp_path / "e")])
    assert code == 3
    session = path.name.removesuffix(".timeline.jsonl")
    assert (f"session {session}: scored timeline row 8 has frame_index 1007, ground truth 7"
            in capsys.readouterr().err)
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_score_loads_the_artifacts_once_per_command(trained, tmp_path, monkeypatch, jobs):
    _, suite, art, _ = trained
    real_load = ArtifactSet.load.__func__
    test_pid = os.getpid()
    loads = []

    def load_here_only(cls, artifact_dir):
        # forked workers inherit this patch; one that loads again fails the command
        if os.getpid() != test_pid:
            raise AssertionError("a score worker loaded the artifacts again")
        loads.append(artifact_dir)
        return real_load(cls, artifact_dir)

    monkeypatch.setattr(ArtifactSet, "load", classmethod(load_here_only))
    # each command pays for its own load: nothing is cached across commands
    for n in (1, 2):
        out = tmp_path / f"scored{n}"
        assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                     "--jobs", jobs, "--output", str(out)]) == 0
        assert len(loads) == n
        assert len(list(out.glob("*.timeline.jsonl"))) == 4


def test_evaluate_without_ground_truth_exit_3(trained, tmp_path):
    root, suite, art, _ = trained
    import shutil

    stripped = tmp_path / "no_truth"
    shutil.copytree(suite, stripped)
    for mpath in stripped.glob("sessions/*/manifest.json"):
        doc = json.loads(mpath.read_text())
        doc.pop("ground_truth", None)
        mpath.write_text(json.dumps(doc))
    scored = tmp_path / "scored"
    assert main(["score", "--suite-dir", str(stripped), "--artifacts", str(art),
                 "--output", str(scored)]) == 0
    code = main(["evaluate", "--suite-dir", str(stripped), "--scored", str(scored),
                 "--output", str(tmp_path / "e")])
    assert code == 3


@pytest.mark.parametrize("text", ['{"seed": 3, "sessions": [', '{"seed": 3}'],
                         ids=["invalid_json", "missing_key"])
def test_malformed_suite_index_exits_2(tmp_path, capsys, text):
    path = tmp_path / "suite.json"
    path.write_text(text)
    code = main(["evaluate", "--suite-dir", str(tmp_path), "--scored", str(tmp_path),
                 "--output", str(tmp_path / "e")])
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("manifest_path", 5), ("device_type", None), ("split", ["held_out"]),
], ids=["manifest_path_number", "device_type_null", "split_list"])
def test_suite_entry_field_that_is_not_a_string_exits_2(trained, tmp_path, capsys, key, value):
    _, suite, art, _ = trained
    doc = json.loads((suite / "suite.json").read_text())
    doc["sessions"][1][key] = value
    (tmp_path / "suite.json").write_text(json.dumps(doc))
    code = main(["score", "--suite-dir", str(tmp_path), "--artifacts", str(art),
                 "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "suite.json") in err and f"sessions[1]: {key}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["3", True, 3.0], ids=["text", "boolean", "float"])
def test_suite_seed_that_is_not_an_integer_exits_2(trained, tmp_path, capsys, value):
    _, suite, art, _ = trained
    doc = json.loads((suite / "suite.json").read_text())
    doc["seed"] = value
    (tmp_path / "suite.json").write_text(json.dumps(doc))
    code = main(["score", "--suite-dir", str(tmp_path), "--artifacts", str(art),
                 "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "suite.json") in err and "seed" in err
    assert not (tmp_path / "o").exists()


def test_manifest_that_is_an_array_exits_3(trained, tmp_path, capsys):
    _, _, art, _ = trained
    path = tmp_path / "manifest.json"
    path.write_text("[]")
    code = main(["score", "--manifest", str(path), "--artifacts", str(art),
                 "--output", str(tmp_path / "o")])
    assert code == 3
    assert str(path) in capsys.readouterr().err


def test_manifest_with_null_frame_source_exits_3(trained, tmp_path, capsys):
    _, suite, art, _ = trained
    doc = json.loads(next(suite.glob("sessions/*/manifest.json")).read_text())
    doc["frame_source"] = None
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    code = main(["score", "--manifest", str(path), "--artifacts", str(art),
                 "--output", str(tmp_path / "o")])
    assert code == 3
    assert str(path) in capsys.readouterr().err


def test_manifest_with_numeric_ground_truth_exits_3(trained, tmp_path, capsys):
    import shutil

    _, suite, _, _ = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    path = sorted(copy.glob("sessions/*/manifest.json"))[0]
    doc = json.loads(path.read_text())
    doc["ground_truth"] = 5
    path.write_text(json.dumps(doc))
    code = main(["evaluate", "--suite-dir", str(copy), "--scored", str(tmp_path),
                 "--output", str(tmp_path / "e")])
    assert code == 3
    assert str(path) in capsys.readouterr().err


def test_script_with_text_viewing_distance_exits_2(tmp_path, capsys):
    script = {
        "duration_s": 2.0,
        "viewing_distance_cm": "60",
        "segments": [{"kind": "dot_at", "start_s": 0.0, "duration_s": 2.0, "dot": [0, 0]}],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = main(["simulate", "--script", str(path), "--output", str(tmp_path / "out")])
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("change, named", [
    ({"segments": [{"kind": "dot_at", "start_s": 0.0, "duration_s": 2.0, "dot": [0, 0]},
                   {"kind": "dot_at", "start_s": 2.0, "duration_s": 2.0, "dot": ["a", 0]}]},
     "segment 1: dot"),
    ({"camera_offset_cm": "ab"}, "camera_offset_cm"),
], ids=["dot", "camera_offset_cm"])
def test_script_with_a_pair_that_is_not_numbers_exits_2(tmp_path, capsys, change, named):
    script = {
        "duration_s": 4.0,
        "segments": [{"kind": "dot_at", "start_s": 0.0, "duration_s": 4.0, "dot": [0, 0]}],
        **change,
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = main(["simulate", "--script", str(path), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err
    assert not (tmp_path / "out").exists()


ONE_DOT = {"kind": "dot_at", "start_s": 0.0, "duration_s": 4.0, "dot": [0, 0]}


@pytest.mark.parametrize("change, message", [
    ({"segments": [{**ONE_DOT, "start_s": float("nan")}]},
     "segment 0: start_s must be a finite number >= 0, got NaN"),
    ({"gaze_scal": 1.0}, "unknown keys ['gaze_scal']"),
    ({"duration_s": True}, "duration_s must be a finite number in (0, 3600], got true"),
    ({"duration_s": 3601.0}, "duration_s must be a finite number in (0, 3600], got 3601.0"),
    ({"frame_rate_hz": 2}, "frame_rate_hz must be a finite number in [5, 120], got 2"),
    ({"frame_rate_hz": 1000}, "frame_rate_hz must be a finite number in [5, 120], got 1000"),
    ({"segments": None}, "missing key segments"),
    ({"behavior_mix": "a"}, 'behavior_mix must be a finite number in [0, 1], got "a"'),
    ({"gaze_scale": float("nan")}, "gaze_scale must be a finite number in (0, 10], got NaN"),
    ({"gaze_scale": 0}, "gaze_scale must be a finite number in (0, 10], got 0"),
    ({"gaze_noise_deg": -5}, "gaze_noise_deg must be a finite number in [0, 180], got -5"),
    ({"landmark_jitter": float("nan")}, "landmark_jitter must be a finite number in [0, 1], got NaN"),
    ({"viewing_distance_cm": 0.5}, "viewing_distance_cm must be a finite number in [1, 1000] or null, got 0.5"),
    ({"segments": [{**ONE_DOT, "dott": [0, 0]}]}, "segment 0: unknown keys ['dott']"),
], ids=["nan_start", "unknown_key", "boolean_duration", "duration_over_an_hour", "frame_rate_2",
        "frame_rate_1000", "no_segments", "text_behavior_mix", "nan_gaze_scale", "zero_gaze_scale",
        "negative_gaze_noise", "nan_landmark_jitter", "viewing_distance_under_1cm", "unknown_segment_key"])
def test_script_field_out_of_its_rule_exits_2_naming_it(tmp_path, capsys, change, message):
    script = {"duration_s": 4.0, "segments": [ONE_DOT], **change}
    if script["segments"] is None:
        del script["segments"]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = main(["simulate", "--script", str(path), "--output", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: script {path}: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_script_integer_frame_rate_is_written_as_a_float(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"duration_s": 4.0, "segments": [ONE_DOT], "frame_rate_hz": 30}))
    assert main(["simulate", "--script", str(path), "--output", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "sessions" / "scripted" / "manifest.json").read_text())
    assert manifest["frame_rate_hz"] == 30.0 and '"frame_rate_hz": 30.0' in json.dumps(manifest)


@pytest.mark.parametrize("key, value, message", [
    ("split", "heldout", "split must be one of ['train', 'held_out'], got \"heldout\""),
    ("device_type", "tablet", "device_type must be one of ['desktop', 'mobile'], got \"tablet\""),
    ("orientation", "sideways",
     "orientation must be one of ['centered', 'clockwise', 'anticlockwise'], got \"sideways\""),
], ids=["split", "device_type", "orientation"])
@pytest.mark.parametrize("command", ["score", "evaluate"])
def test_suite_entry_out_of_its_choices_exits_2(trained, tmp_path, capsys, key, value, message, command):
    _, suite, art, _ = trained
    doc = json.loads((suite / "suite.json").read_text())
    doc["sessions"][1][key] = value
    (tmp_path / "suite.json").write_text(json.dumps(doc))
    flags = ["--artifacts", str(art)] if command == "score" else ["--scored", str(tmp_path)]
    code = main([command, "--suite-dir", str(tmp_path), *flags, "--output", str(tmp_path / "o")])
    assert code == 2
    assert f"suite index {tmp_path / 'suite.json'}: sessions[1]: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["score", "evaluate", "ablate"])
def test_suite_entry_whose_manifest_has_another_device_exits_3(trained, tmp_path, capsys, command):
    _, suite, art, _ = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    doc = json.loads((copy / "suite.json").read_text())
    entry = doc["sessions"][2]              # a held-out desktop session
    assert (entry["device_type"], entry["split"]) == ("desktop", "held_out")
    entry["device_type"] = "mobile"
    (copy / "suite.json").write_text(json.dumps(doc))
    scored = tmp_path / "scored"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art), "--output", str(scored)]) == 0
    flags = {"score": ["--artifacts", str(art)], "evaluate": ["--scored", str(scored)],
             "ablate": ["--artifacts", str(art)]}[command]
    code = main([command, "--suite-dir", str(copy), *flags, "--output", str(tmp_path / "o")])
    assert code == 3
    assert (f"manifest {copy / entry['manifest_path']}: device_type 'desktop' differs from the suite "
            f"index's 'mobile' for session {entry['session_id']}") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_exit_2(trained, tmp_path, capsys):
    _, suite, _, _ = trained
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_real_key": 1}))
    code = main(["train", "--suite-dir", str(suite), "--config", str(bad),
                 "--output", str(tmp_path / "o")])
    assert code == 2
    assert "not_a_real_key" in capsys.readouterr().err


def test_help_shows_defaults(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "--help"])
    text = capsys.readouterr().out
    assert "(default: 0)" in text          # --seed
    assert "(default: 20)" in text         # --sessions
    assert "(default: default)" in text    # --suite
    assert "(default: 0.026)" in text      # --yawn-prevalence
    assert "None" not in text


def test_set_overrides_win_over_config_file(trained, tmp_path):
    _, suite, _, _ = trained
    # file caps the gaze training at 30 stages; --set shrinks it further
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"gaze_stages": 30, "max_gaze_train_rows": 400}))
    out = tmp_path / "gaze"
    assert main(["train", "--suite-dir", str(suite), "--config", str(cfg),
                 "--set", "gaze_stages=5", "--only", "gaze",
                 "--output", str(out)]) == 0
    doc = json.loads((out / "gaze_regressors.json").read_text())
    assert doc["metadata"]["hyperparameters"]["n_stages"] == 5


def test_set_rejects_malformed_pairs(trained, tmp_path, capsys):
    _, suite, _, _ = trained
    code = main(["train", "--suite-dir", str(suite), "--set", "margin_cm",
                 "--output", str(tmp_path / "o")])
    assert code == 2


def test_score_with_parallel_jobs_matches_serial(trained, tmp_path):
    _, suite, art, _ = trained
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--output", str(serial)]) == 0
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--jobs", "2", "--output", str(parallel)]) == 0
    assert tree_bytes(serial) == tree_bytes(parallel)


def test_score_jobs_forks_no_more_workers_than_sessions(trained, tmp_path, monkeypatch):
    _, suite, art, _ = trained
    workers = []

    class CountedPool(training.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            workers.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", CountedPool)
    out = tmp_path / "o"
    assert main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--jobs", "8", "--output", str(out)]) == 0
    assert len(list(out.glob("*.timeline.jsonl"))) == 4
    assert workers == [4]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_score_whose_last_session_fails_writes_no_file(trained, tmp_path, capsys, jobs):
    # every other session scores first (with --jobs 2, half of them in a
    # worker), and none of their files may be written
    _, suite, art, _ = trained
    copy = tmp_path / "suite"
    shutil.copytree(suite, copy)
    message = break_frame_row(split_manifests(copy, "held_out")[-1], 701)
    out = tmp_path / "o"
    code = main(["score", "--suite-dir", str(copy), "--artifacts", str(art), "--split", "held_out",
                 "--jobs", jobs, "--output", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []
    # the same split, mended, writes every session's two files
    shutil.copytree(suite, copy, dirs_exist_ok=True)
    assert main(["score", "--suite-dir", str(copy), "--artifacts", str(art), "--split", "held_out",
                 "--jobs", jobs, "--output", str(out)]) == 0
    assert len(list(out.iterdir())) == 2 * len(split_manifests(copy, "held_out"))


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--jobs", "2"], id="simulate_has_no_jobs"),
    pytest.param(["score", "--artifacts", "a", "--jobs", "0"], id="score_jobs_0"),
    pytest.param(["score", "--artifacts", "a", "--jobs", "-3"], id="score_jobs_negative"),
])
def test_jobs_is_a_positive_score_flag(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the required flags of each command, so that a parse reaches the flag under test
REQUIRED = {
    "simulate": [],
    "train": ["--suite-dir", "s"],
    "score": ["--artifacts", "a"],
    "evaluate": ["--suite-dir", "s", "--scored", "x"],
    "ablate": ["--suite-dir", "s", "--artifacts", "a"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--config", "c.json"),
    ("simulate", "--set", "margin_cm=2"),
    ("score", "--seed", "1"),
    ("evaluate", "--seed", "1"),
    ("evaluate", "--config", "c.json"),
    ("evaluate", "--set", "margin_cm=2"),
    ("ablate", "--seed", "1"),
])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, value, "--output", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# flag: (text, destination, parsed value, default)
KEPT = {
    "--seed": ("5", "seed", 5, 0),
    "--config": ("c.json", "config", Path("c.json"), None),
    "--set": ("margin_cm=2", "set", ["margin_cm=2"], []),
}
# simulate's seed is None when not given, so that --script can refuse it;
# a suite then uses seed 0 (test_simulate_suite_flags_keep_their_defaults)
UNSET = {("simulate", "--seed"): None}


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--seed"]),
    ("train", ["--seed", "--config", "--set"]),
    ("score", ["--config", "--set"]),
    ("ablate", ["--config", "--set"]),
])
def test_kept_seed_and_config_flags_parse(command, flags):
    base = [command, *REQUIRED[command], "--output", "o"]
    given = build_parser().parse_args(base + [a for f in flags for a in (f, KEPT[f][0])])
    unset = build_parser().parse_args(base)
    for flag in flags:
        _, dest, parsed, default = KEPT[flag]
        assert getattr(given, dest) == parsed
        assert getattr(unset, dest) == UNSET.get((command, flag), default)


def test_ablate_renders_tables(trained, tmp_path):
    _, suite, art, cfg = trained
    out = tmp_path / "abl"
    assert main(["ablate", "--suite-dir", str(suite), "--artifacts", str(art),
                 "--config", str(cfg), "--split", "held_out",
                 "--output", str(out)]) == 0
    text = (out / "ablation.txt").read_text()
    assert "w/o normalization" in text
    assert "+ unattended screen (all)" in text
    doc = json.loads((out / "ablation.json").read_text())
    assert "processing_steps" in doc and "distraction_signals" in doc


@pytest.mark.parametrize("sessions, split", [(4, "held_out"), (6, "train"), (6, "all")])
def test_ablate_writes_the_same_bytes_in_one_process_and_in_two(trained, tmp_path, monkeypatch, sessions, split):
    # the 6-session suite's train split has 3 sessions: this process scores two
    from adwatch.config import PipelineConfig
    from adwatch.evaluation import AblationTable, run_ablation
    from adwatch.pipeline import TABLE1_VARIANTS, TABLE3_VARIANTS

    _, suite, art, _ = trained
    if sessions != 4:
        suite = tmp_path / "suite"
        assert main(["simulate", "--suite", "default", "--sessions", str(sessions), "--seed", "4",
                     "--output", str(suite)]) == 0
    n = sum(split in ("all", e["split"]) for e in json.loads((suite / "suite.json").read_text())["sessions"])
    trees = {}
    for cpus in (1, 2):
        marks = split_by(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["ablate", "--suite-dir", str(suite), "--artifacts", str(art), "--split", split,
                     "--output", str(out)]) == 0
        assert marks == [halves(n) if cpus == 2 else [False] * n]
        assert multiprocessing.active_children() == []
        trees[cpus] = tree_bytes(out)
    assert sorted(trees[1]) == ["ablation.json", "ablation.txt"]
    assert trees[1] == trees[2]
    # the command and the library harness share one scoring loop
    rows = run_ablation(training.load_suite_sessions(suite, split), ArtifactSet.load(art),
                        TABLE1_VARIANTS + TABLE3_VARIANTS, PipelineConfig()).rows
    assert json.loads(trees[1]["ablation.json"]) == {
        "processing_steps": AblationTable(rows[: len(TABLE1_VARIANTS)]).to_dict(),
        "distraction_signals": AblationTable(rows[len(TABLE1_VARIANTS):]).to_dict(),
    }


def test_ablate_single_family_matches_its_slice_of_both(trained, tmp_path):
    _, suite, art, cfg = trained
    docs = {}
    for tables in ("both", "steps", "signals"):
        out = tmp_path / tables
        assert main(["ablate", "--suite-dir", str(suite), "--artifacts", str(art),
                     "--config", str(cfg), "--tables", tables, "--output", str(out)]) == 0
        docs[tables] = json.loads((out / "ablation.json").read_text())
    assert docs["steps"] == {"processing_steps": docs["both"]["processing_steps"]}
    assert docs["signals"] == {"distraction_signals": docs["both"]["distraction_signals"]}
