"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run on seeded synthetic suites; the trained artifacts come from the
shared session fixture. A summary block is appended to the pytest output by
the terminal hook in conftest.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from adwatch.boosting import BoostConfig, fit_boosted
from adwatch.cli import main as cli_main
from adwatch.cnn import gradient_check
from adwatch.config import PipelineConfig, ScoreConfig
from adwatch.evaluation import pooled_report, roc_auc, run_ablation
from adwatch.gaze import (
    Orientation,
    compute_session_stats,
    detect_orientation,
    majority_orientation,
    valid_gaze_rays,
)
from adwatch.geometry import intersect_gaze_batch
from adwatch.pipeline import (
    TABLE1_VARIANTS,
    TABLE3_VARIANTS,
    SessionDetectors,
    score_session,
)
from adwatch.synth import SuiteConfig, build_suite_scripts, generate
from adwatch.temporal import frames_within, long_runs

from conftest import sessions_from_config, unattended_of
from oracles import line_sampling_intersection_batch, macro_f1

CFG = ScoreConfig()


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {detail}")


def test_criterion_01_geometry_oracle():
    rng = np.random.default_rng(2024)
    n = 10_000
    pupils = rng.uniform([-15, -15, 25], [15, 15, 100], (n, 3))
    dirs = rng.normal(0, 1, (n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs[:, 2] = -np.abs(dirs[:, 2]) - 0.05    # valid rays: toward the plane

    t0 = time.time()
    points, ts, toward, parallel = intersect_gaze_batch(pupils, dirs)
    ox, oy, ot = line_sampling_intersection_batch(pupils, dirs, t_max=1e4)
    elapsed = time.time() - t0
    err = max(np.abs(points[:, 0] - ox).max(), np.abs(points[:, 1] - oy).max())
    assert err <= 1e-6
    assert toward.all() and not parallel.any()
    assert elapsed < 1.0

    # parallel and away-from-plane cases classified exactly
    _, _, toward, parallel = intersect_gaze_batch(
        [(0, 0, 60)] * 3, [(1.0, 0.0, 0.0), (0.0, 1.0, 1e-9), (0.2, 0.0, 0.5)]
    )
    assert parallel.tolist() == [True, True, False]   # the third is away from the plane
    assert not toward.any()
    report("criterion 1", f"10k-ray oracle max error {err:.2e} cm in {elapsed:.2f}s")


def test_criterion_02_normalization_invariance(artifacts, config):
    rng = np.random.default_rng(77)
    suite = SuiteConfig(seed=901, n_sessions=20, template="gaze_only", device="desktop")
    flips = 0
    frames_checked = 0
    for sid, script, _ in build_suite_scripts(suite):
        mag = rng.uniform(2.0, 10.0)
        ang = rng.uniform(0, 2 * np.pi)
        offset = (float(mag * np.cos(ang)), float(mag * np.sin(ang)))
        with_offset = dataclasses.replace(script, camera_offset_cm=offset)
        without = dataclasses.replace(script, camera_offset_cm=(0.0, 0.0))
        from adwatch.records import SessionManifest

        manifest = SessionManifest(sid, "desktop", script.frame_rate_hz, "f")
        f1, _ = generate(with_offset)
        f0, _ = generate(without)
        t1 = score_session(SessionDetectors(f1, manifest, artifacts, config))
        t0 = score_session(SessionDetectors(f0, manifest, artifacts, config))
        flips += int(np.count_nonzero(t1.mask != t0.mask))
        frames_checked += len(t0)
    assert flips == 0
    report("criterion 2", f"0 label flips across {frames_checked} frames / 20 offset sessions")


@pytest.fixture(scope="module")
def eval_suite_50():
    return sessions_from_config(
        SuiteConfig(seed=1404, n_sessions=50, template="full", device="mixed",
                    train_fraction=0.0, yawn_prevalence=0.026)
    )


def test_criterion_03_end_to_end_suite(eval_suite_50, artifacts, config):
    t0 = time.time()
    pairs = {}
    for frames, truth, manifest, _ in eval_suite_50:
        timeline = score_session(SessionDetectors(frames, manifest, artifacts, config))
        pairs.setdefault(manifest.device_type, []).append(
            (~timeline.attentive, ~truth.attentive)
        )
    elapsed = time.time() - t0
    details = []
    for device, ps in sorted(pairs.items()):
        rep = pooled_report(ps)
        assert rep["g_mean"] >= 0.90, (device, rep)
        assert rep["f1"] >= 0.85, (device, rep)
        details.append(f"{device} g={rep['g_mean']:.3f} F1={rep['f1']:.3f}")
    assert elapsed < 60.0
    report("criterion 3", f"{'; '.join(details)}; scored in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def offset_suite():
    return sessions_from_config(
        SuiteConfig(seed=902, n_sessions=20, template="gaze_only", device="desktop",
                    camera_offset_max_cm=10.0, train_fraction=0.0)
    )


def g_mean_of(table, variant: str, device: str) -> float:
    """The g-mean of ``variant``'s row of an ablation table on ``device``."""
    (row,) = [row for row in table["rows"] if row["variant"] == variant]
    return row["by_device"][device]["g_mean"]


def test_criterion_04_ablation_processing_steps(offset_suite, artifacts, config):
    sessions = [(f, t, m) for f, t, m, _ in offset_suite]
    table = run_ablation(sessions, artifacts, TABLE1_VARIANTS, config)
    full = g_mean_of(table, "full model", "desktop")
    no_norm = g_mean_of(table, "w/o normalization", "desktop")
    no_ft = g_mean_of(table, "w/o fine-tuning", "desktop")
    no_ss = g_mean_of(table, "w/o screen size detection", "desktop")
    assert full - no_norm >= 0.05
    assert no_ft <= full
    assert no_ss <= full
    report(
        "criterion 4",
        f"full {full:.3f} | w/o norm {no_norm:.3f} | w/o fine-tune {no_ft:.3f} | "
        f"w/o screen size {no_ss:.3f}",
    )


def test_criterion_05_ablation_distraction_signals(eval_suite_50, artifacts, config):
    sessions = [(f, t, m) for f, t, m, _ in eval_suite_50]
    table = run_ablation(sessions, artifacts, TABLE3_VARIANTS, config)
    order = [row["variant"] for row in table["rows"]]
    assert order == [v.name for v in TABLE3_VARIANTS]
    details = []
    for device in ("desktop", "mobile"):
        g = [g_mean_of(table, name, device) for name in order]
        gains = np.diff(g)
        # +gaze strictly helps, +speaking and +unattended never hurt
        assert gains[0] >= 0.02, (device, g)
        assert gains[2] >= 0.0, (device, g)
        assert gains[3] >= 0.02, (device, g)
        details.append(f"{device}: " + " -> ".join(f"{v:.3f}" for v in g))
    report("criterion 5", " | ".join(details))


def test_criterion_06_speaking_cnn(heldout_sessions, artifacts, train_config):
    from adwatch.training import speaking_training_set

    X, y = speaking_training_set(heldout_sessions, train_config, seed=55)
    auc = roc_auc(artifacts.speaking.predict_proba(X), y > 0.5)
    assert auc >= 0.95
    rng = np.random.default_rng(3)
    err = gradient_check(artifacts.speaking.net, rng.normal(0.05, 0.03, 30), 1.0)
    assert err <= 1e-4
    report("criterion 6", f"held-out ROC-AUC {auc:.4f}; gradient check {err:.2e}")


def test_criterion_07_yawn_classifier(artifacts, train_config):
    from adwatch.training import yawn_training_set

    eval_suite = sessions_from_config(
        SuiteConfig(seed=903, n_sessions=10, template="full", device="mixed",
                    train_fraction=0.0, yawn_prevalence=0.026)
    )
    sessions = [(f, t, m) for f, t, m, _ in eval_suite]
    X, y = yawn_training_set(sessions, train_config, seed=66)
    prevalence = float(np.mean(y))
    auc = roc_auc(artifacts.yawn.predict(X), y > 0.5)
    assert auc >= 0.95
    assert prevalence == pytest.approx(0.026, abs=0.008)
    report("criterion 7", f"held-out ROC-AUC {auc:.4f} at {100 * prevalence:.1f}% prevalence")


def orientation_macro_f1(scripts, config) -> float:
    truth, predicted = [], []
    for script in scripts:
        frames, _ = generate(script)
        stats = compute_session_stats(frames, valid_gaze_rays(frames, PipelineConfig().quality_floor))
        predicted.append(detect_orientation(stats, config).value)
        truth.append(script.orientation)
    labels = ["centered", "clockwise", "anticlockwise"]
    return macro_f1(truth, predicted, labels)


def test_criterion_08_orientation_voting(config):
    # the clean suite's tracker has no angular noise and no landmark jitter
    clean = orientation_macro_f1(
        [dataclasses.replace(script, gaze_noise_deg=0.0, landmark_jitter=0.0) for _, script, _ in
         build_suite_scripts(SuiteConfig(seed=904, n_sessions=12, template="full", device="mobile"))],
        config,
    )
    noisy = orientation_macro_f1(
        [script for _, script, _ in
         build_suite_scripts(SuiteConfig(seed=905, n_sessions=12, template="full", device="mobile"))],
        config,
    )
    assert clean == pytest.approx(1.0)
    assert noisy >= 0.90

    labels = [Orientation.CENTERED, Orientation.CLOCKWISE, Orientation.ANTICLOCKWISE]
    checked = 0
    for a in labels:
        for b in labels:
            for c in labels:
                votes = [a, b, c]
                counts = {o: votes.count(o) for o in labels}
                best = max(counts.values())
                winners = [o for o, k in counts.items() if k == best]
                expected = winners[0] if len(winners) == 1 else Orientation.CENTERED
                assert majority_orientation(votes) is expected
                checked += 1
    assert checked == 27
    report("criterion 8", f"clean macro-F1 {clean:.3f}; noisy {noisy:.3f}; 27 vote combos exact")


@pytest.mark.parametrize(
    "kind,min_s,frames_at,expect",
    [
        ("speaking", 1.0, 30, False), ("speaking", 1.0, 31, True),
        ("closure", 2.0, 60, False), ("closure", 2.0, 61, True),
        ("unattended", 1.0, 30, False), ("unattended", 1.0, 31, True),
    ],
)
def test_criterion_09_duration_rule_boundaries(kind, min_s, frames_at, expect):
    flags = np.zeros(200, dtype=bool)
    flags[50 : 50 + frames_at] = True
    active = long_runs(flags, frames_within(min_s, 30.0))
    if kind == "unattended":
        config = dataclasses.replace(CFG, unattended_min_s=min_s)
        np.testing.assert_array_equal(unattended_of(flags, flags, 30.0, config), active)
    np.testing.assert_array_equal(active, flags if expect else np.zeros_like(flags))
    report(
        "criterion 9",
        f"{kind}: run of {frames_at} frames at 30 fps -> "
        f"{'distracting' if expect else 'not distracting'}",
    )


def test_criterion_10_boosted_tree_training():
    rng = np.random.default_rng(906)
    for _ in range(100):
        n = int(rng.integers(20, 60))
        f = int(rng.integers(1, 4))
        X = rng.normal(0, 1, (n, f))
        y = rng.normal(0, 1, n)
        model = fit_boosted(X, y, BoostConfig(n_stages=25, max_depth=2))
        curve = np.array(model.train_loss_curve)
        assert np.all(np.diff(curve) <= 1e-12)

    x = rng.uniform(-1, 1, 200)
    model = fit_boosted(x[:, None], x)
    mse = float(np.mean((model.predict(x[:, None]) - x) ** 2))
    baseline = float(np.mean((x - x.mean()) ** 2))
    assert mse < 0.5 * baseline
    report(
        "criterion 10",
        f"100 problems monotone; identity MSE {mse:.2e} vs baseline {baseline:.2e}",
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    fast_cfg = tmp_path / "fast.json"
    fast_cfg.write_text(json.dumps({
        "cnn_epochs": 30,
        "gaze_stages": 30,
        "yawn_stages": 30,
        "max_speaking_train_windows": 400,
        "max_gaze_train_rows": 800,
        "max_yawn_train_rows": 1500,
    }))

    def run(root):
        suite = root / "suite"
        art = root / "artifacts"
        scored = root / "scored"
        ev = root / "eval"
        assert cli_main(["simulate", "--suite", "default", "--sessions", "4",
                         "--seed", "31", "--output", str(suite)]) == 0
        assert cli_main(["train", "--suite-dir", str(suite), "--config", str(fast_cfg),
                         "--seed", "31", "--output", str(art)]) == 0
        assert cli_main(["score", "--suite-dir", str(suite), "--artifacts", str(art),
                         "--output", str(scored)]) == 0
        assert cli_main(["evaluate", "--suite-dir", str(suite), "--scored", str(scored),
                         "--output", str(ev)]) == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p != fast_cfg
        }

    a = run(tmp_path / "run_a")
    b = run(tmp_path / "run_b")
    assert set(a) == set(b)
    diffs = [name for name in a if a[name] != b[name]]
    assert diffs == []
    report("criterion 11", f"{len(a)} files byte-identical across two full runs")
