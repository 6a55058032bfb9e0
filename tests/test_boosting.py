import copy
import json
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.boosting import (
    LEARNING_RATE,
    MAX_THRESHOLDS,
    MODE_CLASSIFICATION,
    MODE_REGRESSION,
    BoostConfig,
    BoostedEnsemble,
    _Table,
    _best_split,
    _bin_feature,
    fit_boosted,
)
from adwatch.drowsiness import yawn_features
from adwatch.errors import DataError, MissingArtifactError
from oracles import (
    _per_node_best_split,
    base_prediction,
    leaf_value,
    per_node_split_gains,
    replay_fit,
    tree_nodes,
    walk_raw_predict,
)


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


def test_features_that_are_not_a_2d_array_are_refused_naming_the_shape():
    x = np.arange(20.0)
    with pytest.raises(DataError, match=r"X must be a 2-D \(rows, features\) array, got shape \(20,\)"):
        fit_boosted(x, x)
    model = fit_boosted(x[:, None], x)
    for X in (x, x[:, None, None]):
        with pytest.raises(DataError, match=rf"X must be a 2-D \(rows, 1\) array, got shape {re.escape(str(X.shape))}"):
            model.predict(X)


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


def test_from_dict_checks_a_copy_and_leaves_the_document_as_it_was():
    doc = {
        "mode": MODE_REGRESSION, "learning_rate": 0.5, "max_depth": 1, "base_prediction": 1, "n_features": 1,
        "trees": [{"feature": 0, "threshold": 1, "left": {"value": -2}, "right": {"value": 4}}],
    }
    before = copy.deepcopy(doc)
    model = BoostedEnsemble.from_dict(doc)
    assert doc == before
    tree = doc["trees"][0]
    assert type(tree["threshold"]) is int and type(tree["left"]["value"]) is int
    # the model's tree is a new node object with its numbers as floats
    assert model.trees == [{"feature": 0, "threshold": 1.0, "left": {"value": -2.0}, "right": {"value": 4.0}}]
    assert model.trees[0] is not tree and type(model.trees[0]["threshold"]) is float
    assert model.predict(np.array([[1.0], [1.5]])).tolist() == [0.0, 3.0]
    assert model.to_dict()["trees"] == model.trees


@pytest.mark.parametrize("node, message", [
    ({"feature": 2, "threshold": 0.5, "left": {"value": 1}, "right": {"value": 2}},
     "feature must be an integer in [0, 2), got 2"),
    ({"feature": True, "threshold": 0.5, "left": {"value": 1}, "right": {"value": 2}},
     "feature must be an integer in [0, 2), got true"),
    ({"feature": 0, "threshold": "1", "left": {"value": 1}, "right": {"value": 2}},
     'threshold must be a finite number, got "1"'),
    ({"feature": 0, "threshold": 0.5, "left": {"value": 1}}, "missing key right"),
    ({"feature": 0, "threshold": 0.5, "left": {"value": 1}, "right": [2]}, "left and right must be tree node objects"),
    ({"feature": 0, "threshold": 0.5, "left": {"value": None}, "right": {"value": 2}},
     "value must be a finite number, got null"),
])
def test_a_malformed_node_is_named_with_its_tree(node, message):
    leaf = {"value": 0.5}
    doc = {"mode": MODE_REGRESSION, "learning_rate": 0.1, "max_depth": 2, "base_prediction": 0.0,
           "n_features": 2, "trees": [leaf, leaf, leaf, node]}
    with pytest.raises(MissingArtifactError) as got:
        BoostedEnsemble.from_dict(doc, "models.desktop.x")
    assert str(got.value) == f"models.desktop.x: tree 3: {message}"


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
    assert model.trees[0]["feature"] == 0


def test_learning_rate_validated():
    X = np.arange(10, dtype=float)[:, None]
    doc = fit_boosted(X, np.arange(10, dtype=float), BoostConfig(n_stages=2)).to_dict()
    doc["learning_rate"] = 0
    with pytest.raises(MissingArtifactError, match="^model: learning_rate must be "):
        BoostedEnsemble.from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [("n_stages", -1), ("n_stages", 2.5), ("max_depth", 0), ("max_depth", -1)],
)
def test_tree_shape_parameters_validated(field, value):
    X = np.arange(10, dtype=float)[:, None]
    with pytest.raises(DataError, match=field):
        fit_boosted(X, np.arange(10, dtype=float), BoostConfig(**{field: value}))


@st.composite
def tied_problems(draw):
    # small integer grids make many equal feature values and equal gains;
    # no fill value, so every element is drawn rather than most of them
    # being one repeated value, which would leave most fits without a split
    n = draw(st.integers(10, 60))
    f = draw(st.integers(1, 4))
    grid = draw(st.integers(2, 6))
    X = draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, grid - 1), fill=st.nothing()))
    # duplicated columns give exactly equal gains, so the tie-break decides
    extra = draw(st.lists(st.integers(0, f - 1), max_size=3))
    X = X[:, draw(st.permutations(list(range(f)) + extra))]
    mode = draw(st.sampled_from([MODE_REGRESSION, MODE_CLASSIFICATION]))
    if mode == MODE_CLASSIFICATION:
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1), fill=st.nothing()))
    else:
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(-3, 3), fill=st.nothing()))
    config = BoostConfig(
        n_stages=draw(st.integers(1, 8)),
        max_depth=draw(st.integers(1, 4)),
        mode=mode,
    )
    return X.astype(np.float64), y.astype(np.float64), config


# The histogram search and the exact search see the same candidate
# partitions on data with at most 255 distinct values per feature, but sum
# the gradients in different orders, so gains that tie exactly in one can
# differ in the last bits in the other. Splits are compared wherever the
# best partition beats every other by more than this share of the node's
# sum of squared gradients, the quantity the gains are decreases of.
MARGIN = 1e-9
_MIN_GAIN = 1e-12


def exact_partitions(X, grad):
    """The exact search's candidate partitions at a node, best gain each:
    {left-row mask bytes: gain}, "no split" counted as gain ``_MIN_GAIN``."""
    best = {None: _MIN_GAIN}
    if len(grad) < 2:
        return best
    gain, xs = per_node_split_gains(X, grad)
    r, f = np.nonzero(np.isfinite(gain))
    left = X[:, f].T <= xs[r, f][:, None]
    for key, g in zip(map(bytes, left), gain[r, f].tolist()):
        best[key] = max(best.get(key, -np.inf), g)
    return best


def clear_winner(best, tol):
    """Whether the best partition beats the runner-up by more than ``tol``."""
    ranked = sorted(best.values(), reverse=True)
    return len(ranked) == 1 or ranked[0] - ranked[1] > tol


@settings(max_examples=80, deadline=None)
@given(problem=tied_problems())
def test_histogram_fit_matches_per_node_search(problem):
    # every node of a whole fit, replayed with the exact search: each split
    # is a best partition up to the margin, each leaf is one the exact search
    # makes, and each leaf value and stage loss is exactly the oracle's
    X, y, config = problem
    model = fit_boosted(X, y, config)
    assert model.base_prediction == base_prediction(y, config.mode == MODE_CLASSIFICATION)
    assert (model.mode, model.learning_rate, model.max_depth, model.n_features) == (
        config.mode, LEARNING_RATE, config.max_depth, X.shape[1]
    )
    stages, curve = replay_fit(model, X, y)
    assert model.train_loss_curve == curve
    for tree, (grad, hess) in zip(model.trees, stages):
        assert np.max(np.abs(grad)) >= 1e-12
        for depth, node, rows in tree_nodes(tree, X):
            g = grad[rows]
            tol = MARGIN * float(np.sum(g**2))
            searched = depth < config.max_depth
            best = exact_partitions(X[rows], g) if searched else {None: _MIN_GAIN}
            top = max(best.values())
            if "value" in node:
                assert node["value"] == leaf_value(g, None if hess is None else hess[rows])
                assert top <= _MIN_GAIN + tol
            else:
                assert searched
                left = X[rows, node["feature"]] <= node["threshold"]
                assert left.any() and not left.all()
                assert best[bytes(left)] >= top - tol
    if len(model.trees) < config.n_stages:
        assert np.max(np.abs(stages[-1][0])) < 1e-12


@st.composite
def binned_nodes(draw):
    # integer grids with at most 255 distinct values per feature; the node is
    # a subset of the rows, binned with the thresholds of all of them. The
    # values come from a drawn seed: drawing thousands of elements one by one
    # would cost more than the searches under test.
    n = draw(st.integers(10, 120))
    f = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([2, 3, 6, 40, 255]))
    step = draw(st.sampled_from([0.125, 0.1, 1.0 / 3.0]))
    extra = draw(st.lists(st.integers(0, f - 1), max_size=3))
    columns = draw(st.permutations(list(range(f)) + extra))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, grid, (n, f))[:, columns].astype(np.float64)
    grad = rng.integers(-24, 25, n) * step
    rows = np.sort(rng.permutation(n)[: draw(st.integers(2, n))])
    return X, grad, rows


@settings(max_examples=2000, deadline=None)
@given(case=binned_nodes())
def test_histogram_split_matches_exact_search_at_a_node(case):
    X, grad, rows = case
    cuts, bins = zip(*(_bin_feature(x) for x in X.T))
    n_bins = max(len(c) for c in cuts) + 1
    sums = np.zeros((X.shape[1], n_bins))
    counts = np.zeros((X.shape[1], n_bins), dtype=np.intp)
    for f, b in enumerate(bins):
        np.add.at(sums[f], b[rows], grad[rows])
        np.add.at(counts[f], b[rows], 1)
    split = _best_split(sums, counts)
    got = None
    if split is not None:
        f, k = split
        got = bytes(X[rows, f] <= cuts[f][k])
        assert np.array_equal(bins[f][rows] <= k, X[rows, f] <= cuts[f][k])
    g = grad[rows]
    if clear_winner(exact_partitions(X[rows], g), MARGIN * float(np.sum(g**2))):
        exact = _per_node_best_split(X[rows], g)
        assert got == (None if exact is None else bytes(X[rows, exact[1]] <= exact[2]))


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def assert_bins_agree_with_thresholds(x, cuts, bins):
    assert len(cuts) <= MAX_THRESHOLDS
    assert bins.dtype == np.uint8
    assert np.all(np.diff(cuts) > 0)
    for k, t in enumerate(cuts):
        assert np.array_equal(bins <= k, x <= t)
        # each threshold separates the values it lies between
        assert np.any(x <= t) and np.any(x > t)


def adjacent_float_runs(draw):
    start = draw(st.floats(-1e6, 1e6, allow_nan=False))
    values = [start]
    for _ in range(draw(st.integers(1, 6))):
        values.append(float(np.nextafter(values[-1], np.inf)))
    return values


@st.composite
def binning_columns(draw):
    kind = draw(st.sampled_from(["grid", "floats", "adjacent", "many", "top_heavy"]))
    if kind == "grid":
        grid = draw(st.integers(1, 300))
        x = draw(hnp.arrays(np.int64, draw(st.integers(1, 400)),
                            elements=st.integers(0, grid - 1), fill=st.nothing())).astype(np.float64)
    elif kind == "floats":
        x = draw(hnp.arrays(np.float64, draw(st.integers(1, 400)),
                            elements=st.floats(-1e300, 1e300, allow_nan=False), fill=st.nothing()))
    elif kind == "adjacent":
        pool = adjacent_float_runs(draw)
        x = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=50)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(256, 3000))
        x = rng.normal(0, 1, n)
        if kind == "top_heavy":
            # more than 255 distinct values, most rows tied at the top
            x[: n - 256] = np.max(x) + 1.0
    return x


@settings(max_examples=300, deadline=None)
@given(x=binning_columns())
def test_bin_is_at_most_k_exactly_when_value_is_at_most_threshold_k(x):
    cuts, bins = _bin_feature(x)
    assert_bins_agree_with_thresholds(x, cuts, bins)
    distinct = len(np.unique(x))
    if distinct <= MAX_THRESHOLDS + 1:
        assert len(cuts) == distinct - 1        # one threshold in every gap


def test_midpoint_rounding_onto_the_upper_float_falls_back_to_the_lower():
    lo = float(np.nextafter(1.0, 2.0))
    hi = float(np.nextafter(lo, 2.0))
    assert 0.5 * (lo + hi) == hi          # the midpoint rounds up onto hi
    x = np.array([hi, lo, hi, lo])
    cuts, bins = _bin_feature(x)
    assert cuts.tolist() == [lo]
    assert bins.tolist() == [1, 0, 1, 0]
    model = fit_boosted(np.repeat(x, 5)[:, None], np.repeat([1.0, 0.0, 1.0, 0.0], 5),
                        BoostConfig(n_stages=1, max_depth=1))
    assert model.predict(np.array([[lo], [hi]])).tolist() == [pytest.approx(0.45), pytest.approx(0.55)]


def test_features_with_many_values_get_at_most_255_thresholds():
    rng = np.random.default_rng(3)
    X = np.stack([rng.normal(0, 1, 3000), rng.uniform(0, 1, 3000), np.arange(3000.0)], axis=1)
    y = np.sin(3 * X[:, 0]) + X[:, 1] + rng.normal(0, 0.1, 3000)
    for x in X.T:
        cuts, bins = _bin_feature(x)
        assert len(cuts) == MAX_THRESHOLDS
        assert_bins_agree_with_thresholds(x, cuts, bins)
        # spaced by rows: each bin holds close to 3000 / 256 rows
        assert np.max(np.bincount(bins)) <= 2 * 3000 / (MAX_THRESHOLDS + 1)
    model = fit_boosted(X, y, BoostConfig(n_stages=60, max_depth=4))
    model.predict(X[:5])
    assert all(len(grid) <= MAX_THRESHOLDS for grid in model._compiled.grids.values())
    for f, x in enumerate(X.T):
        used = {t for tree in model.trees for t in thresholds(tree, f)}
        assert used <= set(_bin_feature(x)[0].tolist())


def features(node):
    if "value" in node:
        return set()
    return {node["feature"]} | features(node["left"]) | features(node["right"])


def test_constant_feature_never_splits():
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, 200)
    X = np.stack([np.full(200, 2.5), x, np.full(200, -1.0)], axis=1)
    model = fit_boosted(X, x**2, BoostConfig(n_stages=30, max_depth=3))
    assert {t for tree in model.trees for t in features(tree)} == {1}
    cuts, bins = _bin_feature(np.full(50, 7.0))
    assert len(cuts) == 0 and not np.any(bins)
    flat = fit_boosted(X[:, [0, 2]], x, BoostConfig(n_stages=5))
    assert flat.trees and all("value" in tree for tree in flat.trees)


def assert_thresholds_are_midpoints(X, model):
    for f, x in enumerate(X.T):
        distinct = np.unique(x)
        midpoints = set((0.5 * (distinct[1:] + distinct[:-1])).tolist())
        assert {t for tree in model.trees for t in thresholds(tree, f)} <= midpoints


@settings(max_examples=60, deadline=None)
@given(problem=tied_problems())
def test_thresholds_are_midpoints_of_adjacent_distinct_values(problem):
    X, y, config = problem
    assert_thresholds_are_midpoints(X, fit_boosted(X, y, config))


def test_thresholds_are_midpoints_at_256_distinct_values():
    # the most distinct values a feature can have and still get a threshold
    # in every gap
    rng = np.random.default_rng(12)
    levels = rng.normal(0, 1, (MAX_THRESHOLDS + 1, 2))
    X = levels[rng.integers(0, len(levels), (2000, 2)), [0, 1]]
    X[: len(levels)] = levels       # every level present
    assert all(len(np.unique(x)) == MAX_THRESHOLDS + 1 for x in X.T)
    y = np.sin(3 * X[:, 0]) + X[:, 1] + rng.normal(0, 0.1, 2000)
    model = fit_boosted(X, y, BoostConfig(n_stages=40, max_depth=4))
    assert_thresholds_are_midpoints(X, model)
    assert len({t for tree in model.trees for t in thresholds(tree, 0)}) > 20


# ---------------------------------------------------------------------------
# compiled prediction against the node-by-node walk
# ---------------------------------------------------------------------------

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0]


def thresholds(node, feature=None):
    if "value" in node:
        return []
    own = [node["threshold"]] if feature in (None, node["feature"]) else []
    return [*own, *thresholds(node["left"], feature), *thresholds(node["right"], feature)]


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
        mode=mode,
    )
    low, high = (0, 1) if mode == MODE_CLASSIFICATION else (-3, 3)

    # every element drawn, as in tied_problems, so that most models split
    def problem():
        X = draw(hnp.arrays(np.int64, (n, f), elements=st.integers(0, grid - 1), fill=st.nothing()))
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(low, high), fill=st.nothing()))
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
    model.trees.append({"value": 2.5})
    assert_matches_walk(model, P)

    def split(f, t, left, right):
        return {"feature": f, "threshold": t, "left": left, "right": right}

    leaf = [{"value": v} for v in (1.0, -2.0, 3.5, 0.25, -0.75, 7.0)]
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


# repeated and IEEE-special thresholds, which fitted and loaded trees never have
THRESHOLD_POOL = [-1.0, 0.5, 0.5, 1.0, *SPECIALS]
PROBE_VALUES = np.array([-2.0, -1.0, 0.25, 0.5, 0.75, 1.0, 3.0, *SPECIALS])


@st.composite
def hand_built_tree(draw, levels):
    """A tree of exactly ``levels`` levels below its root, with leaves at
    every depth above the last: one child keeps the full height, the other
    draws its own."""
    if levels == 0:
        return {"value": draw(st.floats(-4.0, 4.0))}
    tall = draw(st.booleans())
    left, right = (draw(hand_built_tree(levels - 1 if keep else draw(st.integers(0, levels - 1))))
                   for keep in (not tall, tall))
    return {"feature": draw(st.integers(0, 1)), "threshold": draw(st.sampled_from(THRESHOLD_POOL)),
            "left": left, "right": right}


@settings(max_examples=200, deadline=None)
@given(trees=st.lists(st.integers(0, 6).flatmap(hand_built_tree), min_size=1, max_size=4),
       learning_rate=st.sampled_from([0.1, 0.3, 1.0]))
def test_compiled_prediction_of_hand_built_trees_matches_walk(trees, learning_rate):
    model = BoostedEnsemble(mode=MODE_REGRESSION, learning_rate=learning_rate, max_depth=6,
                            base_prediction=0.3, n_features=2, trees=trees)
    P = np.stack(np.meshgrid(PROBE_VALUES, PROBE_VALUES), axis=-1).reshape(-1, 2)
    assert_matches_walk(model, P)


def test_fitted_depth_3_ensemble_compiles_to_contiguous_tables():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 3))
    y = X[:, 0] - 2.0 * X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=300)
    model = fit_boosted(X, y, BoostConfig(n_stages=20, max_depth=3))
    assert_matches_walk(model, X)
    compiled = model._compiled
    assert len(compiled.parts) == 20
    for table in compiled.parts:
        assert isinstance(table, _Table)
        assert table.cells.dtype == np.float64 and table.cells.flags.c_contiguous
        assert 1 <= len(table.cells) <= 128
        for f, m in table.maps:
            assert m.dtype == np.uint8 and m.flags.c_contiguous
            assert m.shape == (len(compiled.grids[f]) + 1,)


def test_trained_ensembles_match_walk(artifacts, heldout_sessions):
    rng = np.random.default_rng(4)
    feats = np.concatenate([yawn_features(frames) for frames, _, _ in heldout_sessions])
    models = [artifacts.yawn] + [m for pair in artifacts.gaze.by_device.values() for m in pair.values()]
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
