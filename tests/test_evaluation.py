import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from adwatch.errors import DataError
from adwatch.evaluation import (
    _average_ranks,
    frame_metrics,
    pooled_report,
    render_table,
    roc_auc,
    run_ablation,
)
from adwatch.pipeline import FULL_VARIANT

from oracles import macro_f1, pairwise_auc


def test_perfect_prediction():
    truth = np.array([True, False, True, False])
    rep = frame_metrics(truth, truth)
    assert rep["g_mean"] == pytest.approx(1.0)
    assert rep["f1"] == pytest.approx(1.0)


def test_g_mean_formula():
    # TPR 0.9, TNR 0.4 -> g-mean sqrt(0.36) = 0.6
    truth = np.concatenate([np.ones(10, bool), np.zeros(10, bool)])
    pred = truth.copy()
    pred[0] = False                      # 9/10 positives found
    pred[10:16] = True                   # 4/10 negatives kept
    rep = frame_metrics(pred, truth)
    assert rep["tpr"] == pytest.approx(0.9)
    assert rep["tnr"] == pytest.approx(0.4)
    assert rep["g_mean"] == pytest.approx(0.6)


def test_all_negative_prediction_on_mixed_truth():
    truth = np.array([True, True, False, False])
    pred = np.zeros(4, dtype=bool)
    rep = frame_metrics(pred, truth)
    assert rep["f1"] == 0.0
    assert rep["g_mean"] == pytest.approx(0.0)   # TPR 0 defined, TNR 1


def test_undefined_rates_reported_absent():
    truth = np.zeros(5, dtype=bool)           # no positives at all
    rep = frame_metrics(np.zeros(5, dtype=bool), truth)
    assert rep["tpr"] is None
    assert rep["g_mean"] is None
    assert rep["tnr"] == pytest.approx(1.0)


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        frame_metrics(np.zeros(3, bool), np.zeros(4, bool))


def test_metric_symmetry_under_class_swap():
    rng = np.random.default_rng(0)
    truth = rng.uniform(size=200) < 0.3
    pred = truth ^ (rng.uniform(size=200) < 0.2)
    a = frame_metrics(pred, truth)
    b = frame_metrics(~pred, ~truth)
    assert a["tpr"] == pytest.approx(b["tnr"])
    assert a["tnr"] == pytest.approx(b["tpr"])
    assert a["g_mean"] == pytest.approx(b["g_mean"])


def test_roc_auc_perfect_separation():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([False, False, True, True])
    assert roc_auc(scores, labels) == pytest.approx(1.0)


def test_roc_auc_all_ties():
    scores = np.ones(10)
    labels = np.array([True] * 5 + [False] * 5)
    assert roc_auc(scores, labels) == pytest.approx(0.5)


def test_roc_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    scores = np.round(rng.normal(0, 1, 200), 2)   # rounding forces ties
    labels = rng.uniform(size=200) < 0.4
    assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


# tie-heavy scores: a few distinct values, signed zeros and extremes
tied_scores = hnp.arrays(
    np.float64, st.integers(1, 300),
    elements=st.sampled_from([-np.inf, -1e300, -2.5, -0.0, 0.0, 0.1, 0.25, 1.0, 1e300, np.inf])
    | st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(scores=tied_scores)
def test_average_ranks_match_scipy_rankdata(scores):
    # scipy is the oracle here only; the package itself needs numpy alone
    assert _average_ranks(scores).tobytes() == rankdata(scores, method="average").tobytes()


@settings(max_examples=200, deadline=None)
@given(scores=tied_scores, data=st.data())
def test_roc_auc_is_the_rank_sum_statistic_of_scipy_ranks(scores, data):
    labels = data.draw(hnp.arrays(bool, len(scores)))
    if labels.all() or not labels.any():
        with pytest.raises(DataError):
            roc_auc(scores, labels)
        return
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    rank_sum = float(np.sum(rankdata(scores, method="average")[labels]))
    assert roc_auc(scores, labels) == (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_nan_scores_rank_alone_after_every_number():
    scores = np.array([np.nan, 1.0, np.nan, 1.0, -np.inf])
    assert _average_ranks(scores).tolist() == [4.0, 2.5, 5.0, 2.5, 1.0]


def test_roc_auc_monotone_transform_invariant():
    rng = np.random.default_rng(7)
    scores = rng.normal(0, 1, 300)
    labels = rng.uniform(size=300) < 0.5
    base = roc_auc(scores, labels)
    for transform in (np.exp, np.tanh, lambda s: 3 * s - 7, lambda s: s**3):
        assert roc_auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


def test_roc_auc_single_class_rejected():
    with pytest.raises(DataError):
        roc_auc(np.ones(5), np.ones(5, dtype=bool))


def test_macro_f1_multiclass():
    truth = ["a", "a", "b", "b", "c", "c"]
    pred = ["a", "a", "b", "b", "c", "c"]
    assert macro_f1(truth, pred, ["a", "b", "c"]) == pytest.approx(1.0)
    pred = ["a", "b", "b", "b", "c", "c"]
    assert macro_f1(truth, pred, ["a", "b", "c"]) < 1.0


def test_aggregation_helpers():
    pairs = [
        (np.array([True, False]), np.array([True, False])),
        (np.array([False, False]), np.array([True, False])),
    ]
    pooled = pooled_report(pairs)
    assert pooled["tp"] == 1 and pooled["fn"] == 1


def test_empty_variant_list_runs_full_model(heldout_sessions, artifacts, config):
    table = run_ablation(heldout_sessions[:2], artifacts, [], config)
    assert [row["variant"] for row in table["rows"]] == ["full"]


def test_ablation_deterministic(heldout_sessions, artifacts, config):
    a = run_ablation(heldout_sessions[:2], artifacts, [FULL_VARIANT], config)
    b = run_ablation(heldout_sessions[:2], artifacts, [FULL_VARIANT], config)
    assert a == b


def test_render_table_alignment(heldout_sessions, artifacts, config):
    table = run_ablation(heldout_sessions[:2], artifacts, [FULL_VARIANT], config)
    text = render_table(table)
    lines = text.splitlines()
    assert "g-mean" in lines[0]
    assert len({len(l) for l in lines[:2]}) <= 2
