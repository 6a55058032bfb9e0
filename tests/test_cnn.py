import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwatch.cnn import (
    PARAM_NAMES,
    CnnTrainConfig,
    TemporalCnn,
    _conv,
    _conv_grads,
    _input_grad,
    _weight_matrix,
    gradient_check,
    train_cnn,
)
from adwatch.config import PipelineConfig
from adwatch.errors import DataError, MissingArtifactError
from adwatch.training import train_speaking_cnn
from oracles import (
    channel_first_loss_and_grads,
    window_conv1d,
    window_conv_input_grad,
    window_conv_weight_grad,
)


@pytest.fixture(scope="module")
def toy_set():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (400, 30))
    y = (X.mean(axis=1) > 0).astype(float)
    return X, y


def test_gradient_check_random_init():
    net = TemporalCnn.initialize(30, seed=12)
    rng = np.random.default_rng(8)
    window = rng.normal(0.05, 0.03, 30)
    assert gradient_check(net, window, 1.0) <= 1e-4


def test_gradient_check_zero_network_bias_path():
    net = TemporalCnn.initialize(30, seed=0)
    for name in ("w1", "w2", "w3", "w4", "b1", "b2", "b3", "b4"):
        getattr(net, name)[...] = 0.0
    assert gradient_check(net, np.zeros(30), 1.0) <= 1e-6


def test_gradient_check_is_deterministic():
    net = TemporalCnn.initialize(30, seed=1)
    window = np.linspace(0, 1, 30)
    assert gradient_check(net, window, 0.0) == gradient_check(net, window, 0.0)


def test_architecture_dimensions():
    net = TemporalCnn.initialize(30, seed=0)
    assert net.w1.shape == (8, 1, 3)
    assert net.w2.shape == (16, 8, 3)
    assert net.w3.shape == (50, 16 * 26)
    assert net.w4.shape == (1, 50)


def test_output_is_probability():
    net = TemporalCnn.initialize(30, seed=0)
    rng = np.random.default_rng(0)
    p = net.predict_proba(rng.normal(0, 5, (50, 30)))
    assert np.all((p > 0) & (p < 1))


def test_forward_deterministic():
    net = TemporalCnn.initialize(30, seed=0)
    w = np.linspace(-1, 1, 30)
    assert np.array_equal(net.predict_proba(w), net.predict_proba(w))


def test_train_separable_toy_set(toy_set):
    X, y = toy_set
    net = train_cnn(X, y, CnnTrainConfig(epochs=200, seed=7))
    acc = np.mean((net.predict_proba(X) >= 0.5) == y)
    assert acc >= 0.99
    assert net.train_loss_curve[-1] < net.train_loss_curve[0]
    assert net.train_loss_curve[-1] < 0.1


def test_zero_epochs_returns_untrained(toy_set):
    X, y = toy_set
    net = train_cnn(X, y, CnnTrainConfig(epochs=0, seed=3))
    fresh = TemporalCnn.initialize(30, seed=3)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4"):
        assert np.array_equal(getattr(net, name), getattr(fresh, name))
    assert net.train_loss_curve == []


def test_mixed_window_lengths_rejected():
    with pytest.raises(DataError, match="mixed lengths"):
        train_cnn([np.zeros(30), np.zeros(29)], np.array([0.0, 1.0]))


def test_empty_training_set_rejected():
    with pytest.raises(DataError, match="empty"):
        train_cnn(np.zeros((0, 30)), np.zeros(0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_windows_rejected(toy_set, bad):
    X, y = toy_set[0][:200].copy(), toy_set[1][:200]
    X[117, 4] = bad
    with pytest.raises(DataError, match="non-finite"):
        train_cnn(X, y, CnnTrainConfig(epochs=1))


def test_nonbinary_labels_rejected():
    with pytest.raises(DataError, match="binary"):
        train_cnn(np.zeros((4, 30)), np.array([0.0, 0.5, 1.0, 1.0]))


def test_training_deterministic_given_seed(toy_set):
    X, y = toy_set
    a = train_cnn(X[:128], y[:128], CnnTrainConfig(epochs=5, seed=9))
    b = train_cnn(X[:128], y[:128], CnnTrainConfig(epochs=5, seed=9))
    assert a.to_dict() == b.to_dict()


def test_serialization_round_trip_bit_exact(toy_set):
    X, y = toy_set
    net = train_cnn(X[:128], y[:128], CnnTrainConfig(epochs=3, seed=2))
    clone = TemporalCnn.from_dict(net.to_dict())
    probe = np.random.default_rng(5).normal(0, 1, (64, 30))
    assert np.array_equal(net.predict_proba(probe), clone.predict_proba(probe))


@pytest.mark.parametrize(
    "field, value",
    [
        ("window_len", True),
        ("window_len", 4),
        ("window_len", 30.0),
        ("input_scale", float("inf")),
        ("w1", [[[0.1, 0.2, 0.3]]] * 7 + [[[0.1, 0.2]]]),
        ("w2", None),
        ("b1", [True] * 8),
        ("b3", [0.0] * 49),
    ],
)
def test_from_dict_names_a_malformed_field(field, value):
    doc = TemporalCnn.initialize(30, seed=0).to_dict()
    doc[field] = value
    with pytest.raises(MissingArtifactError, match=f"'{field}'"):
        TemporalCnn.from_dict(doc)


def test_window_length_mismatch_rejected():
    net = TemporalCnn.initialize(30, seed=0)
    with pytest.raises(DataError, match="window length"):
        net.predict_proba(np.zeros(29))


def assert_close(actual, expected, rel=1e-12):
    """Equal within ``rel`` of the reference's largest magnitude."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= rel * np.max(np.abs(expected), initial=0.0)


def channel_last(a):
    return np.ascontiguousarray(a.transpose(0, 2, 1))


# 128 is the training batch; 80 is the last batch of the seed-7 training set
@pytest.mark.parametrize("batch", [128, 80])
def test_conv_kernels_match_sliding_window_im2col(batch):
    rng = np.random.default_rng(batch)
    net = TemporalCnn.initialize(30, seed=4)
    x0 = rng.normal(0, 1, (batch, 1, 30))
    a1 = np.maximum(rng.normal(0, 1, (batch, 8, 28)), 0.0)
    dz1 = rng.normal(0, 1, (batch, 8, 28))
    dz2 = rng.normal(0, 1, (batch, 16, 26))
    b1, b2 = rng.normal(0, 1, 8), rng.normal(0, 1, 16)
    cols0, z1 = _conv(channel_last(x0), _weight_matrix(net.w1, b1))
    assert_close(z1, channel_last(window_conv1d(x0, net.w1) + b1[None, :, None]))
    cols1, z2 = _conv(channel_last(a1), _weight_matrix(net.w2, b2))
    assert_close(z2, channel_last(window_conv1d(a1, net.w2) + b2[None, :, None]))
    for cols, x, dz in ((cols0, x0, dz1), (cols1, a1, dz2)):
        dw, db = _conv_grads(cols, channel_last(dz))
        assert_close(dw, window_conv_weight_grad(x, dz))
        assert_close(db, dz.sum(axis=(0, 2)))
    assert_close(_input_grad(channel_last(dz2), net.w2), channel_last(window_conv_input_grad(dz2, net.w2)))


def random_network(seed):
    """A network whose every parameter, biases included, is drawn at random."""
    rng = np.random.default_rng(seed)
    net = TemporalCnn.initialize(30, seed=seed)
    for name in PARAM_NAMES:
        param = getattr(net, name)
        param[...] = rng.normal(0.0, 0.5, param.shape)
    net.input_center, net.input_scale = rng.normal(0.0, 0.1), rng.uniform(5.0, 30.0)
    return net, rng


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_step_matches_the_channel_first_reference(batch, seed):
    net, rng = random_network(seed)
    X = rng.normal(0.05, 0.03, (batch, 30))
    y = (rng.random(batch) < 0.5).astype(float)
    ref_loss, ref_grads = channel_first_loss_and_grads(net, X, y)
    # a fresh step, and one in work buffers sized by a larger batch
    work: dict = {}
    net.loss_and_grads(rng.normal(0.05, 0.03, (130, 30)), np.ones(130), work=work)
    for kwargs in ({}, {"work": work}):
        loss, grads = net.loss_and_grads(X, y, **kwargs)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name in PARAM_NAMES:
            assert_close(grads[name], ref_grads[name])


def test_work_buffers_leave_training_unchanged(toy_set):
    # 200 windows make batches of 128 and 72, so buffers of two shapes are
    # reused; the reference loop allocates every array afresh
    X, y = toy_set[0][:200], toy_set[1][:200]
    config = CnnTrainConfig(epochs=3, seed=6)
    trained = train_cnn(X, y, config)
    net = train_cnn(X, y, CnnTrainConfig(epochs=0, seed=6))
    rng = np.random.default_rng(config.seed + 1)
    for _ in range(config.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grads = net.loss_and_grads(X[idx], y[idx])
            for name in PARAM_NAMES:
                getattr(net, name)[...] -= config.learning_rate * grads[name]
    for name in PARAM_NAMES:
        assert np.array_equal(getattr(trained, name), getattr(net, name))


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", -5),
        ("epochs", 2.5),
        ("epochs", True),
        ("batch_size", 0),
        ("batch_size", True),
        ("batch_size", 64.0),
        ("learning_rate", -0.5),
        ("learning_rate", 0.0),
        ("learning_rate", 1.5),
        ("learning_rate", float("nan")),
        ("learning_rate", True),
        ("learning_rate", "0.1"),
    ],
)
def test_train_budget_validated(toy_set, field, value):
    X, y = toy_set
    config = CnnTrainConfig(epochs=1, seed=0)
    setattr(config, field, value)
    with pytest.raises(DataError, match=field):
        train_cnn(X, y, config)


def test_train_budget_checked_before_the_windows():
    with pytest.raises(DataError, match="batch_size"):
        train_cnn(np.zeros((0, 30)), np.zeros(0), CnnTrainConfig(batch_size=0))


@pytest.mark.parametrize("seed", [2.5, True, -1, "3", None])
def test_seed_validated_when_the_config_is_made(seed):
    with pytest.raises(DataError, match="seed"):
        CnnTrainConfig(seed=seed)


def test_seed_validated_before_training(toy_set):
    X, y = toy_set
    config = CnnTrainConfig(epochs=1)
    config.seed = -3
    with pytest.raises(DataError, match="seed"):
        train_cnn(X, y, config)


def test_seed_limits_accepted(toy_set):
    X, y = toy_set[0][:8], toy_set[1][:8]
    for seed in (0, np.int64(5), 2**63):
        assert len(train_cnn(X, y, CnnTrainConfig(epochs=1, seed=seed)).train_loss_curve) == 1


def test_train_budget_limits_accepted(toy_set):
    # epochs=0 is covered by test_zero_epochs_returns_untrained
    X, y = toy_set[0][:8], toy_set[1][:8]
    net = train_cnn(X, y, CnnTrainConfig(epochs=np.int64(1), batch_size=1, learning_rate=1, seed=3))
    assert len(net.train_loss_curve) == 1


def test_default_budget_is_the_pipeline_default():
    config, pipeline = CnnTrainConfig(), PipelineConfig()
    assert (config.epochs, config.learning_rate, config.batch_size) == (
        pipeline.cnn_epochs,
        pipeline.cnn_learning_rate,
        pipeline.cnn_batch_size,
    )


def test_shorter_budget_is_a_prefix_of_the_longer_schedule(toy_set):
    X, y = toy_set
    short = train_cnn(X, y, CnnTrainConfig(epochs=3, seed=7))
    longer = train_cnn(X, y, CnnTrainConfig(epochs=5, seed=7))
    assert short.train_loss_curve == longer.train_loss_curve[:3]


def test_speaking_cnn_trains_for_the_configured_epochs(train_sessions, artifacts):
    config = PipelineConfig(cnn_epochs=4, max_speaking_train_windows=300)
    net, metadata = train_speaking_cnn(train_sessions, config, seed=1)
    assert metadata["hyperparameters"]["epochs"] == config.cnn_epochs
    assert len(net.train_loss_curve) == config.cnn_epochs
    # the shared fixture trains at the default budget
    assert len(artifacts.speaking.train_loss_curve) == PipelineConfig().cnn_epochs
