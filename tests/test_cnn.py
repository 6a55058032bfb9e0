import inspect
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adwatch.cnn import (
    _STEP_NAMES,
    PARAM_NAMES,
    TemporalCnn,
    _input_grad,
    _step_layout,
    _weight_matrix,
    gradient_check,
    train_cnn,
)
from adwatch.config import PipelineConfig
from adwatch.errors import DataError, MissingArtifactError
from adwatch.training import train_speaking_cnn
from oracles import (
    channel_first_loss_and_grads,
    reference_train_cnn,
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
    for name in _STEP_NAMES:
        getattr(net, name)[...] = 0.0
    assert gradient_check(net, np.zeros(30), 1.0) <= 1e-6


def test_gradient_check_is_deterministic():
    net = TemporalCnn.initialize(30, seed=1)
    window = np.linspace(0, 1, 30)
    assert gradient_check(net, window, 0.0) == gradient_check(net, window, 0.0)


def test_architecture_dimensions():
    net = TemporalCnn.initialize(30, seed=0)
    doc = net.to_dict()
    assert np.shape(doc["w1"]) == (8, 1, 3)
    assert np.shape(doc["w2"]) == (16, 8, 3)
    assert np.shape(doc["w3"]) == (50, 16 * 26)
    assert np.shape(doc["w4"]) == (1, 50)
    # the GEMM layout: each conv's weight matrix carries its bias row
    assert net.wb1.shape == (3 * 1 + 1, 8)
    assert net.wb2.shape == (3 * 8 + 1, 16)
    assert net.w3t.shape == (50, 26 * 16)
    assert net.w4.shape == (1, 50)


def test_output_is_probability():
    net = TemporalCnn.initialize(30, seed=0)
    rng = np.random.default_rng(0)
    p = net.predict_proba(rng.normal(0, 5, (50, 30)))
    assert np.all((p > 0) & (p < 1))


def test_forward_deterministic():
    net = TemporalCnn.initialize(30, seed=0)
    w = np.linspace(-1, 1, 30)[None, :]
    assert np.array_equal(net.predict_proba(w), net.predict_proba(w))


def test_train_separable_toy_set(toy_set):
    X, y = toy_set
    net = train_cnn(X, y, epochs=200, seed=7)
    acc = np.mean((net.predict_proba(X) >= 0.5) == y)
    assert acc >= 0.99
    assert net.train_loss_curve[-1] < net.train_loss_curve[0]
    assert net.train_loss_curve[-1] < 0.1


def test_zero_epochs_returns_untrained(toy_set):
    X, y = toy_set
    net = train_cnn(X, y, epochs=0, seed=3)
    fresh = TemporalCnn.initialize(30, seed=3)
    for name in _STEP_NAMES:
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
        train_cnn(X, y, epochs=1)


@pytest.mark.parametrize(
    "windows, labels, message",
    [
        (np.zeros(10), np.zeros(10), r"windows must be a 2-D array .*got shape \(10,\)"),
        (np.zeros((10, 30, 2)), np.zeros(10), r"windows must be a 2-D array .*got shape \(10, 30, 2\)"),
        (np.zeros((10, 30)), np.zeros((10, 2)), r"labels must be a 1-D array, got shape \(10, 2\)"),
        ([0.0, 1.0], np.zeros(2), r"windows must be a 2-D array"),
    ],
    ids=["1d_windows", "3d_windows", "2d_labels", "list_of_numbers"],
)
def test_windows_and_labels_of_the_wrong_shape_rejected_before_any_work(monkeypatch, windows, labels, message):
    monkeypatch.setattr(TemporalCnn, "initialize", lambda *args, **kwargs: pytest.fail("initialized"))
    with pytest.raises(DataError, match=message):
        train_cnn(windows, labels, epochs=1)


def test_nonbinary_labels_rejected():
    with pytest.raises(DataError, match="binary"):
        train_cnn(np.zeros((4, 30)), np.array([0.0, 0.5, 1.0, 1.0]))


def test_training_deterministic_given_seed(toy_set):
    X, y = toy_set
    a = train_cnn(X[:128], y[:128], epochs=5, seed=9)
    b = train_cnn(X[:128], y[:128], epochs=5, seed=9)
    assert a.to_dict() == b.to_dict()


def test_serialization_round_trip_bit_exact(toy_set):
    X, y = toy_set
    net = train_cnn(X[:128], y[:128], epochs=3, seed=2)
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
    with pytest.raises(MissingArtifactError, match=f"^model: {field} must be "):
        TemporalCnn.from_dict(doc)


def test_window_length_mismatch_rejected():
    net = TemporalCnn.initialize(30, seed=0)
    with pytest.raises(DataError, match="window length"):
        net.predict_proba(np.zeros((1, 29)))


@pytest.mark.parametrize("shape", [(30,), (2, 30, 1), ()], ids=["one_window", "three_d", "scalar"])
def test_windows_that_are_not_a_2d_array_are_refused_naming_the_shape(shape):
    net = TemporalCnn.initialize(30, seed=0)
    message = f"windows must be a 2-D (windows, 30) array, got shape {shape}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        net.predict_proba(np.zeros(shape))
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        net.loss_and_grads(np.zeros(shape), np.zeros(2))


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
    net.wb1[-1], net.wb2[-1] = rng.normal(0, 1, 8), rng.normal(0, 1, 16)
    p = channel_first(net)
    X = rng.normal(0, 1, (batch, 30))
    dz1 = rng.normal(0, 1, (batch, 8, 28))
    dz2 = rng.normal(0, 1, (batch, 16, 26))
    _, b = net._forward(X)
    x0 = X[:, None, :]
    z1 = window_conv1d(x0, p["w1"]) + p["b1"][None, :, None]
    a1 = np.maximum(z1, 0.0)
    z2 = window_conv1d(a1, p["w2"]) + p["b2"][None, :, None]
    # the forward pass keeps each layer's columns and ReLU output
    assert np.array_equal(b.cols1[:, :, :3], channel_last(x0)[:, np.arange(28)[:, None] + np.arange(3), 0])
    assert (b.cols1[:, :, 3] == 1.0).all() and (b.cols2[:, :, 24] == 1.0).all()
    assert_close(b.z1, channel_last(a1))
    assert_close(b.z2, channel_last(np.maximum(z2, 0.0)))
    # each conv's weight-matrix gradient is one GEMM against its columns,
    # laid out like the weight matrix, bias row included
    for cols, x, dz in ((b.cols1_2d, x0, dz1), (b.cols2_2d, a1, dz2)):
        grad = cols.T @ channel_last(dz).reshape(-1, dz.shape[1])
        assert_close(grad, _weight_matrix(window_conv_weight_grad(x, dz), dz.sum(axis=(0, 2))))
    b.dz2[...] = channel_last(dz2)
    _input_grad(b, np.ascontiguousarray(p["w2"].transpose(2, 0, 1)))
    assert_close(b.dz1, channel_last(window_conv_input_grad(dz2, p["w2"])))


def channel_first(net):
    """The network's ``PARAM_NAMES`` arrays, as its artifact lays them out."""
    doc = net.to_dict()
    return {name: np.asarray(doc[name]) for name in PARAM_NAMES}


def random_network(seed):
    """A network whose every parameter, biases included, is drawn at random."""
    rng = np.random.default_rng(seed)
    net = TemporalCnn.initialize(30, seed=seed)
    for name in _STEP_NAMES:
        param = getattr(net, name)
        param[...] = rng.normal(0.0, 0.5, param.shape)
    net.input_center, net.input_scale = rng.normal(0.0, 0.1), rng.uniform(5.0, 30.0)
    return net, rng


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 300))
def test_artifact_round_trip_is_exact(seed, batch):
    net, rng = random_network(seed)
    doc = net.to_dict()
    clone = TemporalCnn.from_dict(doc)
    assert clone.to_dict() == doc
    for name in _STEP_NAMES:
        assert getattr(clone, name).tobytes() == getattr(net, name).tobytes(), name
    X = rng.normal(0.05, 0.03, (batch, 30))
    assert net.predict_proba(X).tobytes() == clone.predict_proba(X).tobytes()


# float64 unit roundoff
U = np.finfo(np.float64).eps / 2


def gamma(n):
    """The relative rounding bound of a float64 sum of n products, in any
    order (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return n * U / (1 - n * U)


def rounding_bounds(net, X, y):
    """How far two float64 evaluation orders of a batch's step may differ,
    to first order in U, at the batch's own activations and outputs: a bound
    on the mean BCE loss, one per gradient entry (in the step layout), and
    whether every ReLU mask is the same in both orders.

    Each sum of n terms rounds by at most gamma(n) of its terms' magnitudes
    in either order, and a layer passes its input's difference on through
    |W| (ReLU and the clip are 1-Lipschitz): that bounds each pre-activation's
    difference dz, and a mask is stable where |z| > dz. With np.exp within 4
    ulp, each order's sigmoid is within 2U + 8U(1 - p) of p, relative. A loss
    term -log(q + eps), q being p or 1 - p by the label, moves by the
    difference of q over q + eps: near saturation 1 - p keeps only the bits
    of p below 1, so one ulp of p is a large share of it. The logs (4 ulp)
    and the mean add their own rounding. The backward pass is bounded the
    same way, on the magnitudes of its deltas, from the output delta
    (p - y) / B and its difference."""
    p = channel_first(net)
    w1, w2, w3, w4 = (np.abs(p[name]) for name in ("w1", "w2", "w3", "w4"))
    B = len(X)
    x0 = ((X - net.input_center) * net.input_scale)[:, None, :]   # the same operations in both orders
    z1 = window_conv1d(x0, p["w1"]) + p["b1"][None, :, None]
    dz1 = 2 * gamma(4) * (window_conv1d(np.abs(x0), w1) + np.abs(p["b1"])[None, :, None])
    a1 = np.maximum(z1, 0.0)
    z2 = window_conv1d(a1, p["w2"]) + p["b2"][None, :, None]
    dz2 = 2 * gamma(25) * (window_conv1d(a1, w2) + np.abs(p["b2"])[None, :, None]) + window_conv1d(dz1, w2)
    flat, dflat = np.maximum(z2, 0.0).reshape(B, -1), dz2.reshape(B, -1)
    z3 = flat @ p["w3"].T + p["b3"]
    dz3 = 2 * gamma(flat.shape[1] + 1) * (flat @ w3.T + np.abs(p["b3"])) + dflat @ w3.T
    a3 = np.maximum(z3, 0.0)
    z4 = (a3 @ p["w4"].T + p["b4"])[:, 0]
    dz4 = (2 * gamma(51) * (a3 @ w4.T + np.abs(p["b4"])) + dz3 @ w4.T)[:, 0]
    stable = all(np.all(np.abs(z) > dz) for z, dz in ((z1, dz1), (z2, dz2), (z3, dz3)))
    prob = 1.0 / (1.0 + np.exp(-np.clip(z4, -35.0, 35.0)))
    # a logit beyond the clip in both orders gives both the same output
    dp = np.where(np.abs(z4) - dz4 > 35.0, 0.0, prob * (1 - prob) * (dz4 + 16 * U) + 4 * U * prob)

    eps = 1e-12
    q = np.where(y == 1, prob, 1 - prob)
    terms = -np.log(q + eps)
    # 1 - p rounds only where p < 1/2; q + eps and each log round once per order
    dq = dp + np.where(y == 1, 0.0, 2 * U * q)
    dterms = dq / (q + eps) + 2 * U + 16 * U * np.abs(terms)
    loss = float(np.mean(terms))
    loss_bound = (float(np.sum(dterms)) + 2 * gamma(B) * float(np.sum(np.abs(terms)))) / B + 2 * U * abs(loss)

    # deltas as magnitudes D and differences E; p - y and the division by B
    # round once each per order
    m1, m2, m3 = z1 > 0, z2 > 0, z3 > 0
    D4 = np.abs(prob - y)[:, None] / B
    E4 = dp[:, None] / B + 4 * U * D4
    D3, E3 = (D4 @ w4) * m3, ((E4 @ w4) + 2 * U * (D4 @ w4)) * m3
    D2 = (D3 @ w3).reshape(z2.shape) * m2
    E2 = ((E3 @ w3) + 2 * gamma(50) * (D3 @ w3)).reshape(z2.shape) * m2
    D1 = window_conv_input_grad(D2, w2) * m1
    E1 = (window_conv_input_grad(E2, w2) + 2 * gamma(48) * window_conv_input_grad(D2, w2)) * m1
    g1, g2 = B * z1.shape[2], B * z2.shape[2]
    bounds = {
        "w4": E4.T @ a3 + D4.T @ (dz3 * m3) + 2 * gamma(B) * (D4.T @ a3),
        "b4": E4.sum(axis=0) + 2 * gamma(B) * D4.sum(axis=0),
        "w3": E3.T @ flat + D3.T @ dflat + 2 * gamma(B) * (D3.T @ flat),
        "b3": E3.sum(axis=0) + 2 * gamma(B) * D3.sum(axis=0),
        "w2": (window_conv_weight_grad(a1, E2) + window_conv_weight_grad(dz1, D2)
               + 2 * gamma(g2) * window_conv_weight_grad(a1, D2)),
        "b2": E2.sum(axis=(0, 2)) + 2 * gamma(g2) * D2.sum(axis=(0, 2)),
        "w1": window_conv_weight_grad(np.abs(x0), E1) + 2 * gamma(g1) * window_conv_weight_grad(np.abs(x0), D1),
        "b1": E1.sum(axis=(0, 2)) + 2 * gamma(g1) * D1.sum(axis=(0, 2)),
    }
    return loss_bound, _step_layout(bounds), stable


@settings(max_examples=40, deadline=None)
# cases over the fixed 1e-12 relative bounds this test had. Outputs down to
# 6e-16 from 0 and 1; at one logit of 16, 1 + exp(-z) rounds to neighbouring
# doubles in the two orders, so p moves by 2 ulps, 1 - p (1e-7) by 2e-9 of
# itself, and the loss by 2.5e-12 of itself
@example(batch=80, seed=100000)
# wb1's gradient differs by 2.2e-12, and b4's by 1e-12, of the largest entry
@example(batch=1, seed=4037)
@example(batch=2, seed=17457)
@given(batch=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_step_matches_the_channel_first_reference(batch, seed):
    net, rng = random_network(seed)
    X = rng.normal(0.05, 0.03, (batch, 30))
    y = (rng.random(batch) < 0.5).astype(float)
    loss_bound, grad_bounds, stable = rounding_bounds(net, X, y)
    # a pre-activation within rounding of zero may fall on the other side of
    # a ReLU in one of the orders
    assume(stable)
    ref_loss, ref_grads = channel_first_loss_and_grads(net, X, y)
    ref_grads = _step_layout(ref_grads)
    # a fresh step, and one in work buffers sized by a larger batch; both
    # return the gradients in the network's own layout
    work: dict = {}
    net.loss_and_grads(rng.normal(0.05, 0.03, (130, 30)), np.ones(130), work=work)
    for kwargs in ({}, {"work": work}):
        loss, grads = net.loss_and_grads(X, y, **kwargs)
        assert abs(loss - ref_loss) <= loss_bound
        assert grads.keys() == set(_STEP_NAMES)
        for name in _STEP_NAMES:
            assert grads[name].shape == ref_grads[name].shape
            assert np.all(np.abs(grads[name] - ref_grads[name]) <= grad_bounds[name]), name


# float32 rounds each operation by up to 2**-23; 1e-4 is about 800 of those,
# room for the rounding of the longest sums in a step
F32_REL = 1e-4


def float32_copy(net, **changes):
    return replace(net, **changes, **{name: getattr(net, name).astype(np.float32) for name in _STEP_NAMES})


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_float32_step_matches_the_float64_reference(batch, seed):
    # the regime train_cnn runs in: He-initialised kernels, small biases and
    # standardised windows. Both sides start from the same float32 values,
    # so only the precision of the arithmetic differs
    rng = np.random.default_rng(seed)
    net32 = TemporalCnn.initialize(30, seed=seed)
    for bias in (net32.wb1[-1], net32.wb2[-1], net32.b3, net32.b4):
        bias[...] = rng.normal(0.0, 0.1, bias.shape)
    net32 = float32_copy(net32, input_center=rng.normal(0.05, 0.01), input_scale=rng.uniform(20.0, 50.0))
    net = TemporalCnn.from_dict(net32.to_dict())            # widened, exactly
    X = rng.normal(0.05, 0.03, (batch, 30)).astype(np.float32)
    y = (rng.random(batch) < 0.5).astype(np.float32)
    p, b64 = net._forward(X.astype(np.float64))
    _, b32 = net32._forward(X)
    # float32 cannot resolve 1 - p near saturation, and a pre-activation
    # within rounding of zero may fall on the other side of a ReLU
    assume(np.all((p > 1e-3) & (p < 1 - 1e-3)))
    assume(np.array_equal(b64.m1, b32.m1) and np.array_equal(b64.m2, b32.m2)
           and np.array_equal(b64.z3 > 0, b32.z3 > 0))
    ref_loss, ref_grads = channel_first_loss_and_grads(net, X, y)
    ref_grads = _step_layout(ref_grads)
    loss, grads = net32.loss_and_grads(X, y, work={})
    assert abs(loss - ref_loss) <= F32_REL * ref_loss
    # norm-wise: b4's gradient is a sum of terms that may cancel, so each
    # error is measured against the largest gradient entry
    top = max(np.max(np.abs(g)) for g in ref_grads.values())
    for name in _STEP_NAMES:
        assert grads[name].dtype == np.float32
        assert np.max(np.abs(grads[name] - ref_grads[name])) <= F32_REL * top


def test_work_buffers_leave_training_unchanged(toy_set):
    # 200 windows make batches of 128 and 72, so buffers of two shapes are
    # reused; the reference loop allocates every array afresh. Like
    # train_cnn it steps in float32 on windows standardised in float64
    X, y = toy_set[0][:200], toy_set[1][:200]
    epochs, seed, defaults = 3, 6, PipelineConfig()
    trained = train_cnn(X, y, epochs=epochs, seed=seed)
    init = train_cnn(X, y, epochs=0, seed=seed)
    net = float32_copy(init, input_center=0.0, input_scale=1.0)
    X = ((X - init.input_center) * init.input_scale).astype(np.float32)
    y = y.astype(np.float32)
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), defaults.cnn_batch_size):
            idx = order[start : start + defaults.cnn_batch_size]
            _, grads = net.loss_and_grads(X[idx], y[idx])
            for name, grad in grads.items():
                getattr(net, name)[...] -= defaults.cnn_learning_rate * grad
    for name in _STEP_NAMES:
        assert getattr(trained, name).dtype == np.float64
        assert np.array_equal(getattr(trained, name), getattr(net, name))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 260),
    window_len=st.integers(5, 40),
    batch_size=st.integers(1, 130),
    epochs=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_matches_the_per_step_layout_reference_bit_for_bit(n, window_len, batch_size, epochs, seed):
    # the reference standardises each batch and re-lays the parameters out
    # every step; the fit does both once. An n that batch_size does not
    # divide leaves a short last batch, stepped in slices of the buffers
    rng = np.random.default_rng(seed)
    X = rng.normal(rng.normal(0.0, 5.0), rng.uniform(0.01, 10.0), (n, window_len))
    y = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(float)
    budget = {"epochs": epochs, "learning_rate": PipelineConfig().cnn_learning_rate, "batch_size": batch_size,
              "seed": seed % 1000}
    got, want = train_cnn(X, y, **budget), reference_train_cnn(X, y, **budget)
    assert got.train_loss_curve == want.train_loss_curve
    for name in _STEP_NAMES:
        assert getattr(got, name).dtype == np.float64
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.to_dict() == want.to_dict()


def test_windows_beyond_the_float32_range_train_to_finite_weights(toy_set):
    # standardised in float64 first, they fit the float32 loop
    X, y = toy_set[0][:200] * 1e39, toy_set[1][:200]
    net = train_cnn(X, y, epochs=2, seed=7)
    for name in _STEP_NAMES:
        assert np.isfinite(getattr(net, name)).all(), name
    assert np.isfinite(net.train_loss_curve).all()


TRAIN_DIGEST = """
import hashlib, json
import numpy as np
from adwatch.cnn import train_cnn
rng = np.random.default_rng(4)
X = rng.normal(0, 1, (400, 30))
net = train_cnn(X, (X.mean(axis=1) > 0).astype(float), epochs=3, seed=7)
print(hashlib.sha256(json.dumps(net.to_dict()).encode()).hexdigest())
"""

# TRAIN_DIGEST's output before the network held its parameters in the GEMM
# layout (x86-64, numpy 2.4.6 with its bundled OpenBLAS): the layout of a
# fit's arrays changes no bit of its artifact
TRAIN_SHA256 = "086470d09e337c2e5a4009f70c78f18039b632de92d73c35bc187f776f4935f0"


def test_training_is_identical_with_one_and_two_blas_threads():
    root = Path(__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", TRAIN_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        digests.append(done.stdout)
    assert digests == [TRAIN_SHA256 + "\n"] * 2


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
    with pytest.raises(DataError, match=f"^CNN training config: {field} must be "):
        train_cnn(X, y, **{"epochs": 1, "seed": 0, field: value})


def test_train_budget_checked_before_the_windows():
    with pytest.raises(DataError, match="batch_size"):
        train_cnn(np.zeros((0, 30)), np.zeros(0), batch_size=0)


@pytest.mark.parametrize("seed", [2.5, True, -1, "3", None])
def test_seed_validated_before_training(monkeypatch, toy_set, seed):
    X, y = toy_set
    monkeypatch.setattr(TemporalCnn, "initialize", lambda *args, **kwargs: pytest.fail("initialized"))
    with pytest.raises(DataError, match="^CNN training config: seed must be an integer of at least 0, got "):
        train_cnn(X, y, epochs=1, seed=seed)


def test_seed_limits_accepted(toy_set):
    X, y = toy_set[0][:8], toy_set[1][:8]
    for seed in (0, np.int64(5), 2**63):
        assert len(train_cnn(X, y, epochs=1, seed=seed).train_loss_curve) == 1


def test_train_budget_limits_accepted(toy_set):
    # epochs=0 is covered by test_zero_epochs_returns_untrained
    X, y = toy_set[0][:8], toy_set[1][:8]
    net = train_cnn(X, y, epochs=np.int64(1), batch_size=1, learning_rate=1, seed=3)
    assert len(net.train_loss_curve) == 1


def test_default_budget_is_the_pipeline_default():
    defaults, pipeline = inspect.signature(train_cnn).parameters, PipelineConfig()
    assert (defaults["epochs"].default, defaults["learning_rate"].default, defaults["batch_size"].default) == (
        pipeline.cnn_epochs,
        pipeline.cnn_learning_rate,
        pipeline.cnn_batch_size,
    )


def test_shorter_budget_is_a_prefix_of_the_longer_schedule(toy_set):
    X, y = toy_set
    short = train_cnn(X, y, epochs=3, seed=7)
    longer = train_cnn(X, y, epochs=5, seed=7)
    assert short.train_loss_curve == longer.train_loss_curve[:3]


def test_speaking_cnn_trains_for_the_configured_epochs(train_sessions, artifacts):
    config = PipelineConfig(cnn_epochs=4, max_speaking_train_windows=300)
    model, metadata = train_speaking_cnn(train_sessions, config, seed=1)
    assert metadata["hyperparameters"]["epochs"] == config.cnn_epochs
    assert len(model.net.train_loss_curve) == config.cnn_epochs
    # the shared fixture trains at the default budget
    assert len(artifacts.speaking.net.train_loss_curve) == PipelineConfig().cnn_epochs
