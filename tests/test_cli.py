import json
import os
import shutil
from pathlib import Path

import pytest

from adwatch.cli import build_parser, main
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


def test_negative_seed_to_train_exits_2_before_reading_the_suite(tmp_path, capsys):
    # the suite directory does not exist: the seed is checked first
    code = main(["train", "--suite-dir", str(tmp_path / "missing"), "--seed", "-1",
                 "--only", "speaking", "--output", str(tmp_path / "art")])
    assert code == 2
    assert "seed must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


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


def test_failing_yawn_fit_writes_no_artifact(tmp_path, capsys):
    # the mini template has no yawns, so the last model fails after the
    # gaze regressors and the speaking CNN have trained
    suite, out = tmp_path / "suite", tmp_path / "art"
    assert main(["simulate", "--suite", "mini", "--sessions", "2",
                 "--seed", "5", "--output", str(suite)]) == 0
    code = main(["train", "--suite-dir", str(suite), "--config", str(write_fast_config(tmp_path)),
                 "--output", str(out)])
    assert code == 3
    assert "both classes" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


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

    desktop_entry = next(e for e in load_suite(suite).entries if e.device_type == "desktop")
    out = tmp_path / "filtered"
    code = main(["score", "--manifest", str(suite / desktop_entry.manifest_path),
                 "--artifacts", str(art), "--device", "mobile", "--output", str(out)])
    assert code == 0
    assert "skipping" in capsys.readouterr().err
    assert not list(out.glob("*.timeline.jsonl")) if out.exists() else True


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
    pytest.param("speaking_cnn.json", "'model'", lambda doc: doc.pop("model"), id="speaking_no_model"),
    pytest.param("speaking_cnn.json", "'w3'", on_model(lambda m: m.pop("w3")), id="speaking_missing_w3"),
    pytest.param("speaking_cnn.json", "'w1'", on_model(lambda m: m.update(w1="abc")), id="speaking_w1_text"),
    pytest.param("speaking_cnn.json", "'input_center'", on_model(lambda m: m.update(input_center="x")),
                 id="speaking_center_text"),
    pytest.param("speaking_cnn.json", "'w3'", on_model(lambda m: shorten_rows(m["w3"])),
                 id="speaking_w3_column_short"),
    pytest.param("speaking_cnn.json", "'b4'", on_model(lambda m: m.update(b4=[[0.0]])), id="speaking_b4_shape"),
    pytest.param("speaking_cnn.json", "'window_len'", on_model(lambda m: m.update(window_len="30")),
                 id="speaking_window_len_text"),
    pytest.param("speaking_cnn.json", "'w3'", on_model(lambda m: m["w3"][0].__setitem__(0, float("nan"))),
                 id="speaking_w3_nan"),
    pytest.param("speaking_cnn.json", "'train_loss_curve'",
                 on_model(lambda m: m.update(train_loss_curve=["x"])), id="speaking_curve_text"),
    pytest.param("yawn_classifier.json", "'trees'", on_model(lambda m: m.pop("trees")), id="yawn_missing_trees"),
    pytest.param("yawn_classifier.json", "'n_features'", on_model(lambda m: m.update(n_features="x")),
                 id="yawn_n_features_text"),
    pytest.param("yawn_classifier.json", "'value'", on_model(lambda m: first_node(m, True).update(value="x")),
                 id="yawn_leaf_text"),
    pytest.param("yawn_classifier.json", "'threshold'",
                 on_model(lambda m: first_node(m, False).update(threshold=float("nan"))), id="yawn_threshold_nan"),
    pytest.param("yawn_classifier.json", "'feature'",
                 on_model(lambda m: first_node(m, False).update(feature=m["n_features"])),
                 id="yawn_feature_past_the_end"),
    pytest.param("yawn_classifier.json", "'feature'",
                 on_model(lambda m: first_node(m, False).update(feature=-1)), id="yawn_feature_negative"),
    pytest.param("yawn_classifier.json", "'left'", on_model(lambda m: first_node(m, False).pop("left")),
                 id="yawn_split_without_left"),
    pytest.param("gaze_regressors.json", "'trees'", on_model(lambda m: m.pop("trees")), id="gaze_missing_trees"),
    pytest.param("gaze_regressors.json", "'threshold'",
                 on_model(lambda m: first_node(m, False).update(threshold=float("nan"))), id="gaze_threshold_nan"),
    pytest.param("gaze_regressors.json", "'feature'",
                 on_model(lambda m: first_node(m, False).update(feature=m["n_features"])),
                 id="gaze_feature_past_the_end"),
    pytest.param("gaze_regressors.json", "'y'",
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
        assert getattr(unset, dest) == default


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
