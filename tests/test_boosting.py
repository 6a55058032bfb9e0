import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.boosting import (
    MODE_CLASSIFICATION,
    MODE_REGRESSION,
    BoostConfig,
    BoostedEnsemble,
    TreeNode,
    fit_boosted,
)
from adwatch.drowsiness import yawn_features
from adwatch.errors import DataError
from oracles import per_node_fit_boosted, walk_raw_predict


def test_constant_target_needs_no_trees():
    X = np.arange(20, dtype=float)[:, None]
    y = np.full(20, 3.25)
    model = fit_boosted(X, y)
    assert model.trees == []
    assert model.predict(np.array([[11.0]]))[0] == pytest.approx(3.25)


def test_identity_problem_beats_variance():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 200)
    model = fit_boosted(x[:, None], x, BoostConfig(n_stages=100))
    mse = float(np.mean((model.predict(x[:, None]) - x) ** 2))
    var = float(np.var(x))   # oracle: variance of the generated sample
    assert mse < 0.01 * var


def test_identity_prediction_near_half():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 200)
    model = fit_boosted(x[:, None], x)
    assert abs(model.predict(np.array([[0.5]]))[0] - 0.5) < 0.1


def test_nan_features_rejected():
    X = np.zeros((20, 2))
    X[3, 1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        fit_boosted(X, np.zeros(20))


def test_empty_and_tiny_data_rejected():
    with pytest.raises(DataError):
        fit_boosted(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DataError, match="at least 10"):
        fit_boosted(np.zeros((5, 1)), np.zeros(5))


def test_dimension_mismatch_on_predict():
    model = fit_boosted(np.arange(10, dtype=float)[:, None], np.arange(10, dtype=float))
    with pytest.raises(DataError, match="features"):
        model.predict(np.zeros((3, 2)))


def test_zero_tree_model_returns_base():
    model = BoostedEnsemble(
        mode="squared_error_regression", learning_rate=0.1, max_depth=3,
        base_prediction=1.5, n_features=2,
    )
    assert model.predict(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.5)


def test_training_mse_nonincreasing_per_stage():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n, f = int(rng.integers(20, 80)), int(rng.integers(1, 4))
        X = rng.normal(0, 1, (n, f))
        y = rng.normal(0, 1, n)
        model = fit_boosted(X, y, BoostConfig(n_stages=40, max_depth=2))
        curve = np.array(model.train_loss_curve)
        assert np.all(np.diff(curve) <= 1e-12)


def test_classification_logloss_nonincreasing_and_probability_output():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (120, 2))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(float)
    model = fit_boosted(X, y, BoostConfig(n_stages=60, mode=MODE_CLASSIFICATION))
    curve = np.array(model.train_loss_curve)
    assert np.all(np.diff(curve) <= 1e-9)
    probs = model.predict(X)
    assert np.all((probs > 0) & (probs < 1))
    acc = np.mean((probs >= 0.5) == y)
    assert acc > 0.95


def test_classification_rejects_nonbinary_targets():
    with pytest.raises(DataError, match="0/1"):
        fit_boosted(np.zeros((12, 1)), np.arange(12, dtype=float),
                    BoostConfig(mode=MODE_CLASSIFICATION))


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (100, 3))
    y = X[:, 0] ** 2 - X[:, 2] + rng.normal(0, 0.1, 100)
    model = fit_boosted(X, y, BoostConfig(n_stages=30))
    clone = BoostedEnsemble.from_dict(model.to_dict())
    grid = rng.normal(0, 2, (200, 3))
    assert np.array_equal(model.predict(grid), clone.predict(grid))


def test_fit_is_deterministic():
    rng = np.random.default_rng(11)
    X = rng.normal(0, 1, (80, 2))
    y = np.sin(X[:, 0]) + X[:, 1]
    a = fit_boosted(X, y, BoostConfig(n_stages=25))
    b = fit_boosted(X, y, BoostConfig(n_stages=25))
    assert a.to_dict() == b.to_dict()


def test_tie_break_prefers_lowest_feature_index():
    # identical duplicated feature columns: the split must land on column 0
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 40)
    X = np.stack([x, x], axis=1)
    model = fit_boosted(X, x, BoostConfig(n_stages=1, max_depth=1))
    assert model.trees[0].feature == 0


def test_learning_rate_validated():
    X = np.arange(10, dtype=float)[:, None]
    with pytest.raises(DataError):
        fit_boosted(X, np.arange(10, dtype=float), BoostConfig(learning_rate=0.0))


@pytest.mark.parametrize(
    "field, value",
    [("n_stages", -1), ("n_stages", 2.5), ("max_depth", 0), ("max_depth", -1),
     ("min_samples_leaf", 0), ("min_samples_leaf", True)],
)
def test_tree_shape_parameters_validated(field, value):
    X = np.arange(10, dtype=float)[:, None]
    with pytest.raises(DataError, match=field):
        fit_boosted(X, np.arange(10, dtype=float), BoostConfig(**{field: value}))


@st.composite
def tied_problems(draw):
    # small integer grids make many equal feature values and equal gains
    n = draw(st.integers(10, 60))
    f = draw(st.integers(1, 4))
    grid = draw(st.integers(2, 6))
    X = draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, grid - 1)))
    # duplicated columns give exactly equal gains, so the tie-break decides
    extra = draw(st.lists(st.integers(0, f - 1), max_size=3))
    X = X[:, draw(st.permutations(list(range(f)) + extra))]
    mode = draw(st.sampled_from([MODE_REGRESSION, MODE_CLASSIFICATION]))
    if mode == MODE_CLASSIFICATION:
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    else:
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(-3, 3)))
    config = BoostConfig(
        n_stages=draw(st.integers(1, 8)),
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.sampled_from([1, 3])),
        mode=mode,
    )
    return X.astype(np.float64), y.astype(np.float64), config


@settings(max_examples=80, deadline=None)
@given(problem=tied_problems())
def test_presorted_fit_matches_per_node_sort(problem):
    X, y, config = problem
    fast = json.dumps(fit_boosted(X, y, config).to_dict())
    assert fast == json.dumps(per_node_fit_boosted(X, y, config))


# ---------------------------------------------------------------------------
# compiled prediction against the node-by-node walk
# ---------------------------------------------------------------------------

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0]


def thresholds(node):
    if node.is_leaf:
        return []
    return [node.threshold, *thresholds(node.left), *thresholds(node.right)]


def thresholds_of(model):
    return [t for tree in model.trees for t in thresholds(tree)]


def assert_matches_walk(model, X):
    assert model.raw_predict(X).tobytes() == walk_raw_predict(model, X).tobytes()


@st.composite
def fitted_with_probes(draw):
    # tie-heavy integer grids; 21 features is the yawn model's width
    f = draw(st.sampled_from([1, 2, 21]))
    n = draw(st.integers(10, 80))
    grid = draw(st.integers(2, 6))
    mode = draw(st.sampled_from([MODE_REGRESSION, MODE_CLASSIFICATION]))
    config = BoostConfig(
        n_stages=draw(st.integers(1, 30)),
        max_depth=draw(st.integers(1, 5)),
        min_samples_leaf=draw(st.sampled_from([1, 3])),
        mode=mode,
    )
    low, high = (0, 1) if mode == MODE_CLASSIFICATION else (-3, 3)

    def problem():
        X = draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, grid - 1)))
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(low, high)))
        return X.astype(np.float64), y.astype(np.float64)

    model = fit_boosted(*problem(), config)
    more = fit_boosted(*problem(), config)
    # probes exactly on thresholds and grid values, and IEEE special values
    values = sorted({*thresholds_of(model), *thresholds_of(more)}) + SPECIALS
    values += [float(v) for v in range(-1, grid + 1)]
    picks = draw(hnp.arrays(np.int64, (draw(st.integers(1, 40)), f),
                            elements=st.integers(0, len(values) - 1)))
    return model, more, np.array(values)[picks]


@settings(max_examples=100, deadline=None)
@given(case=fitted_with_probes())
def test_compiled_prediction_matches_walk(case):
    model, more, P = case
    assert_matches_walk(model, P)
    # trees appended after a prediction must not leave a stale compiled form
    model.trees.extend(more.trees)
    assert_matches_walk(model, P)
    model.learning_rate = 0.5
    assert_matches_walk(model, P)


def test_compiled_prediction_empty_single_leaf_and_odd_thresholds():
    model = BoostedEnsemble(
        mode=MODE_REGRESSION, learning_rate=0.1, max_depth=3,
        base_prediction=0.3, n_features=2,
    )
    values = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, *SPECIALS])
    P = np.stack(np.meshgrid(values, values), axis=-1).reshape(-1, 2)
    assert_matches_walk(model, P)
    model.trees.append(TreeNode(value=2.5))
    assert_matches_walk(model, P)

    def split(f, t, left, right):
        return TreeNode(feature=f, threshold=t, left=left, right=right)

    leaf = [TreeNode(value=v) for v in (1.0, -2.0, 3.5, 0.25, -0.75, 7.0)]
    # a NaN threshold sends every row right; x <= 1.0 under x <= -1.0 never
    # goes right; infinite and signed-zero thresholds compare as IEEE does
    model.trees.append(split(
        0, -0.0,
        split(1, float("nan"), leaf[0], split(0, -1.0, split(0, 1.0, leaf[1], leaf[2]), leaf[3])),
        split(1, float("inf"), split(0, float("-inf"), leaf[4], leaf[5]), leaf[0]),
    ))
    assert_matches_walk(model, P)
    # five levels: too tall for one table, so split at a NaN root
    model.trees.append(split(1, float("nan"), model.trees[-1], leaf[5]))
    assert_matches_walk(model, P)


def test_trained_ensembles_match_walk(artifacts, heldout_sessions):
    rng = np.random.default_rng(4)
    feats = np.concatenate([yawn_features(frames) for frames, _, _ in heldout_sessions])
    models = [artifacts.yawn] + [m for pair in artifacts.gaze.values() for m in pair.values()]
    assert len(models) == 5
    for model in models:
        if model is artifacts.yawn:
            X = feats.copy()
        else:
            # normalized on-screen points in cm, and the thresholds themselves
            X = rng.uniform(-25.0, 25.0, (4000, 2))
            ts = np.array(thresholds_of(model))
            X[: len(ts), 0] = ts
            X[-len(ts):, 1] = ts
        X[::17, rng.integers(0, X.shape[1])] = np.nan
        X[5::29, 0] = np.inf
        assert_matches_walk(model, X)
