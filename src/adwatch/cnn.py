"""Small 1-D temporal CNN with hand-written backprop.

Architecture (fixed by contract): two 1-D conv layers with kernel width 3
(1 -> 8 -> 16 channels, stride 1, no padding, ReLU), a fully-connected layer
of width 50 (ReLU), and a single sigmoid output. Training is plain
mini-batch SGD on binary cross-entropy with seeded shuffling, so a fit is
reproducible bit for bit. Analytic gradients are verifiable against central
finite differences via :func:`gradient_check`.

Activations are channel-last, ``(B, L, C)``, so that a window of K time
steps is K*C contiguous values. Each conv layer is one GEMM (im2col
lowering, Chellapilla et al. 2006): the layer input's sliding windows are
copied into a column buffer ``(B, lo, K*C + 1)`` whose last column is ones,
and multiplied by a ``(K*C + 1, O)`` weight matrix whose last row is the
bias, which gives the pre-activation in ``(B*lo, O)`` layout. The same
columns, kept from the forward pass, give the weight and bias gradients in
one GEMM, ``cols.T @ dz``. The input gradient is a shift-sum: tap k's
``dz @ w[:, :, k]`` is added at time offset k. The parameters keep their
channel-first artifact layout: ``w1``/``w2`` are ``(O, C, K)`` and ``w3``
reads the conv output flattened channel by channel, so a step permutes a
copy of ``w3`` to the time-major flatten and permutes its gradient back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import PipelineConfig, _artifact_curve, _artifact_field, _is_int, _is_real, check_seed
from .errors import DataError, MissingArtifactError

KERNEL_WIDTH = 3
CONV1_CHANNELS = 8
CONV2_CHANNELS = 16
FC_WIDTH = 50

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")

# windows per forward pass in predict_proba
_PREDICT_CHUNK = 256

_empty_mask = partial(np.empty, dtype=bool)


def _param_shapes(window_len: int) -> dict[str, tuple]:
    flat = CONV2_CHANNELS * (window_len - 2 * (KERNEL_WIDTH - 1))
    return {
        "w1": (CONV1_CHANNELS, 1, KERNEL_WIDTH),
        "b1": (CONV1_CHANNELS,),
        "w2": (CONV2_CHANNELS, CONV1_CHANNELS, KERNEL_WIDTH),
        "b2": (CONV2_CHANNELS,),
        "w3": (FC_WIDTH, flat),
        "b3": (FC_WIDTH,),
        "w4": (1, FC_WIDTH),
        "b4": (1,),
    }


def _buffer(work: dict | None, name: str, shape: tuple, alloc=np.empty) -> np.ndarray:
    # a training work buffer, or a fresh array when there is no workspace;
    # a smaller batch (an epoch's last) gets a leading slice of the buffer,
    # which is C-contiguous like a fresh array of its shape
    if work is None:
        return alloc(shape)
    buf = work.get(name)
    if buf is None or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
        buf = work[name] = alloc(shape)
    return buf[: shape[0]]


def _weight_matrix(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (O, C, K) kernels and (O,) biases -> (K*C + 1, O): row k*C + c holds
    # w[:, c, k], the last row the biases
    O, C, K = w.shape
    wm = np.empty((K * C + 1, O))
    wm[:-1] = w.transpose(2, 1, 0).reshape(K * C, O)
    wm[-1] = b
    return wm


def _conv(x: np.ndarray, wm: np.ndarray, work=None, name=""):
    # x: (B, L, C), wm: (K*C + 1, O) -> (cols, z). Row t of the column buffer
    # cols (B, L-K+1, K*C + 1) is x[:, t:t+K] flattened, then a one: each a
    # contiguous run of x, so one strided copy fills them all. The ones
    # column is never written after the buffer is made. z = cols @ wm is the
    # pre-activation, (B, L-K+1, O)
    B, L, C = x.shape
    KC, O = wm.shape[0] - 1, wm.shape[1]
    lo = L - KC // C + 1
    cols = _buffer(work, name + "_cols", (B, lo, KC + 1), np.ones)
    np.copyto(cols[:, :, :KC], sliding_window_view(x.reshape(B, L * C), KC, axis=1)[:, ::C])
    z = _buffer(work, name, (B, lo, O))
    np.matmul(cols.reshape(B * lo, KC + 1), wm, out=z.reshape(B * lo, O))
    return cols, z


def _conv_grads(cols: np.ndarray, dz: np.ndarray):
    # kernel (O, C, K) and bias (O,) gradients of a conv layer from its kept
    # forward columns and its output delta dz (B, lo, O): one GEMM
    B, lo, KC1 = cols.shape
    O = dz.shape[2]
    g = cols.reshape(B * lo, KC1).T @ dz.reshape(B * lo, O)
    # contiguous like the kernels, which makes the SGD update cheaper
    return np.ascontiguousarray(g[:-1].reshape(KERNEL_WIDTH, -1, O).transpose(2, 1, 0)), g[-1]


def _input_grad(dz: np.ndarray, w: np.ndarray, work=None) -> np.ndarray:
    # delta of a conv layer's input (B, lo+K-1, C) from its output delta dz
    # (B, lo, O) and kernels w (O, C, K): tap k's dz @ w[:, :, k], added at
    # time offset k. One GEMM per tap into a contiguous buffer makes each add
    # contiguous on one side; a single GEMM against all taps leaves every add
    # strided on both sides, which costs more than the GEMMs it saves
    B, lo, O = dz.shape
    _, C, K = w.shape
    d = dz.reshape(B * lo, O)
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))       # (K, O, C)
    tap = _buffer(work, "tap", (B, lo, C))
    out = _buffer(work, "dz1", (B, lo + K - 1, C))
    np.matmul(d, taps[0], out=tap.reshape(B * lo, C))
    out[:, :lo] = tap
    out[:, lo:] = 0.0
    for k in range(1, K):
        np.matmul(d, taps[k], out=tap.reshape(B * lo, C))
        out[:, k : k + lo] += tap
    return out


def _regroup(m: np.ndarray, outer: int) -> np.ndarray:
    # (N, outer*inner) -> (N, inner*outer): each row's flatten order swapped
    return m.reshape(len(m), outer, -1).transpose(0, 2, 1).reshape(len(m), -1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _artifact_array(obj: dict, name: str, shape: tuple) -> np.ndarray:
    if name not in obj:
        raise MissingArtifactError(f"field {name!r} is missing")
    try:
        arr = np.asarray(obj[name])
        numeric = arr.dtype.kind in "iuf"
    except ValueError:  # ragged nesting
        numeric = False
    if not numeric:
        raise MissingArtifactError(f"field {name!r}: expected an array of numbers")
    if arr.shape != shape:
        raise MissingArtifactError(f"field {name!r}: shape {arr.shape}, expected {shape}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise MissingArtifactError(f"field {name!r}: non-finite value")
    return arr


@dataclass
class TemporalCnn:
    """Binary classifier over fixed-length 1-D windows."""

    window_len: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray
    # fixed affine input standardization, set from training data
    input_center: float = 0.0
    input_scale: float = 1.0
    train_loss_curve: list[float] = field(default_factory=list)

    @classmethod
    def initialize(cls, window_len: int, seed: int = 0) -> "TemporalCnn":
        if window_len < 2 * (KERNEL_WIDTH - 1) + 1:
            raise DataError(f"window_len {window_len} too short for two width-3 convs")
        rng = np.random.default_rng(seed)
        shapes = _param_shapes(window_len)

        def he(name, fan_in):
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shapes[name])

        return cls(
            window_len=window_len,
            w1=he("w1", KERNEL_WIDTH),
            b1=np.zeros(CONV1_CHANNELS),
            w2=he("w2", CONV1_CHANNELS * KERNEL_WIDTH),
            b2=np.zeros(CONV2_CHANNELS),
            w3=he("w3", shapes["w3"][1]),
            b3=np.zeros(FC_WIDTH),
            w4=he("w4", FC_WIDTH),
            b4=np.zeros(1),
        )

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _forward(self, X: np.ndarray, work=None):
        """Output probabilities of checked windows, and what the backward
        pass reads."""
        x = (X - self.input_center) * self.input_scale
        cols1, a1 = _conv(x[:, :, None], _weight_matrix(self.w1, self.b1), work, "a1")
        m1 = np.greater(a1, 0.0, out=_buffer(work, "m1", a1.shape, _empty_mask))
        np.maximum(a1, 0.0, out=a1)
        cols2, a2 = _conv(a1, _weight_matrix(self.w2, self.b2), work, "a2")
        m2 = np.greater(a2, 0.0, out=_buffer(work, "m2", a2.shape, _empty_mask))
        np.maximum(a2, 0.0, out=a2)
        flat = a2.reshape(len(x), -1)                       # time-major
        w3 = _regroup(self.w3, CONV2_CHANNELS)              # matching flatten
        z3 = flat @ w3.T + self.b3
        a3 = np.maximum(z3, 0.0)
        z4 = a3 @ self.w4.T + self.b4
        return _sigmoid(z4[:, 0]), (cols1, m1, cols2, m2, flat, w3, z3, a3)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_windows(X)
        # chunks bound the column buffers, which they share
        p = np.empty(len(X))
        work: dict = {}
        for i in range(0, len(X), _PREDICT_CHUNK):
            p[i : i + _PREDICT_CHUNK] = self._forward(X[i : i + _PREDICT_CHUNK], work)[0]
        return p

    def _check_windows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.window_len:
            raise DataError(
                f"window length {X.shape[1]} does not match network input {self.window_len}"
            )
        return X

    def _backward(self, y: np.ndarray, p: np.ndarray, cache, work=None) -> dict:
        cols1, m1, cols2, m2, flat, w3, z3, a3 = cache
        dz4 = (p - y)[:, None] / len(p)                     # BCE + sigmoid
        grads = {"w4": dz4.T @ a3, "b4": dz4.sum(axis=0)}
        dz3 = (dz4 @ self.w4) * (z3 > 0)
        grads["w3"] = _regroup(dz3.T @ flat, m2.shape[1])   # back to channel-major
        grads["b3"] = dz3.sum(axis=0)
        dz2 = np.matmul(dz3, w3, out=_buffer(work, "dz2", flat.shape)).reshape(m2.shape)
        dz2 *= m2
        grads["w2"], grads["b2"] = _conv_grads(cols2, dz2)
        dz1 = _input_grad(dz2, self.w2, work)
        dz1 *= m1
        grads["w1"], grads["b1"] = _conv_grads(cols1, dz1)
        return grads

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray, *, work: dict | None = None):
        """Mean BCE loss and parameter gradients of one batch.

        ``work`` is a dict in which a training loop keeps the per-batch
        activations, masks and deltas from one call to the next. Allocating
        them afresh costs about 3 MB a step that the allocator hands back to
        the OS and then faults in again. The forward column buffers are kept
        there too, for the weight gradients to reuse; without ``work`` (the
        gradient check) every buffer is a temporary. The returned gradients
        never alias ``work``.
        """
        X = self._check_windows(X)
        y = np.asarray(y, dtype=np.float64)
        p, cache = self._forward(X, work)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        return loss, self._backward(y, p, cache, work)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "window_len": self.window_len,
            "input_center": self.input_center,
            "input_scale": self.input_scale,
            "train_loss_curve": self.train_loss_curve,
        }
        for name in PARAM_NAMES:
            doc[name] = getattr(self, name).tolist()
        return doc

    @classmethod
    def from_dict(cls, obj: dict) -> "TemporalCnn":
        """The network a ``to_dict`` document describes. A missing field, a
        value that is not a finite number, or a parameter whose shape does
        not fit ``window_len`` raises ``MissingArtifactError`` naming the
        field."""
        least = 2 * (KERNEL_WIDTH - 1) + 1
        window_len = _artifact_field(
            obj, "window_len", lambda v: _is_int(v) and v >= least, f"an integer of at least {least}"
        )
        return cls(
            window_len=window_len,
            input_center=float(_artifact_field(obj, "input_center", _is_real, "a finite number")),
            input_scale=float(_artifact_field(obj, "input_scale", _is_real, "a finite number")),
            train_loss_curve=_artifact_curve(obj),
            **{name: _artifact_array(obj, name, shape) for name, shape in _param_shapes(window_len).items()},
        )


@dataclass
class CnnTrainConfig:
    # the budget defaults are PipelineConfig's, so train_cnn(X, y) fits what
    # `adwatch train` fits
    epochs: int = PipelineConfig.cnn_epochs
    learning_rate: float = PipelineConfig.cnn_learning_rate
    batch_size: int = PipelineConfig.cnn_batch_size
    seed: int = 0

    def __post_init__(self) -> None:
        _check_train_config(self)


def _check_train_config(config: CnnTrainConfig) -> None:
    if not _is_int(config.epochs) or config.epochs < 0:
        raise DataError(f"epochs must be an integer of at least 0, got {config.epochs!r}")
    if not _is_int(config.batch_size) or config.batch_size < 1:
        raise DataError(f"batch_size must be an integer of at least 1, got {config.batch_size!r}")
    rate = config.learning_rate
    if not (_is_int(rate) or isinstance(rate, (float, np.floating))) or not 0 < rate <= 1:
        raise DataError(f"learning_rate must be a number in (0, 1], got {rate!r}")
    check_seed(config.seed, DataError)


def train_cnn(windows: np.ndarray, labels: np.ndarray, config: CnnTrainConfig | None = None) -> TemporalCnn:
    """Train on fixed-length windows with binary labels.

    ``windows`` may be a ragged list; inconsistent lengths are rejected.
    epochs = 0 returns the freshly initialized network. A budget outside
    the ranges ``PipelineConfig`` allows, or a seed that is not an integer of
    at least 0, raises ``DataError`` before any work (and already when the
    ``CnnTrainConfig`` is made).
    """
    config = config or CnnTrainConfig()
    _check_train_config(config)
    if isinstance(windows, np.ndarray) and windows.dtype == object or not isinstance(windows, np.ndarray):
        lengths = {len(w) for w in windows}
        if len(lengths) > 1:
            raise DataError(f"windows of mixed lengths: {sorted(lengths)}")
        windows = np.array([np.asarray(w, dtype=np.float64) for w in windows])
    windows = np.asarray(windows, dtype=np.float64)
    if windows.size == 0:
        raise DataError("empty training set")
    labels = np.asarray(labels, dtype=np.float64)
    if len(labels) != len(windows):
        raise DataError("windows and labels lengths differ")
    if not set(np.unique(labels).tolist()) <= {0.0, 1.0}:
        raise DataError("labels must be binary")
    if not np.all(np.isfinite(windows)):
        raise DataError("non-finite values in windows")

    net = TemporalCnn.initialize(windows.shape[1], seed=config.seed)
    net.input_center = float(np.mean(windows))
    std = float(np.std(windows))
    net.input_scale = 1.0 / std if std > 1e-12 else 1.0
    if config.epochs == 0:
        return net
    rng = np.random.default_rng(config.seed + 1)
    n = len(windows)
    work: dict = {}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = net.loss_and_grads(windows[idx], labels[idx], work=work)
            epoch_losses.append(loss)
            for name in PARAM_NAMES:
                param = getattr(net, name)
                param -= config.learning_rate * grads[name]
        net.train_loss_curve.append(float(np.mean(epoch_losses)))
    return net


def _bce(p: np.ndarray, y: float) -> np.ndarray:
    eps = 1e-12
    return -(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(net: TemporalCnn, window: np.ndarray, label: float, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter.

    Convolutional parameters are perturbed one at a time with a full forward
    pass. For the dense layers only downstream values change under a
    single-entry perturbation, so the perturbed losses are evaluated in
    closed form from the cached forward state; the finite-difference values
    are identical to what full re-evaluation would produce.
    """
    X = net._check_windows(np.asarray(window, dtype=np.float64))
    y_arr = np.array([label], dtype=np.float64)
    y = float(label)
    _, grads = net.loss_and_grads(X, y_arr)
    _, cache = net._forward(X)
    _, _, _, m2, flat, _, z3, a3 = cache
    # w3's columns read the conv output channel by channel
    flat1, z31, a31 = _regroup(flat, m2.shape[1])[0], z3[0], a3[0]
    z4 = float(a31 @ net.w4[0] + net.b4[0])
    worst = 0.0

    def loss_at(z4_val: np.ndarray) -> np.ndarray:
        return _bce(_sigmoid(np.asarray(z4_val)), y)

    # conv side: honest re-evaluation per perturbed entry
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(net, name)
        pf = param.ravel()
        ga = grads[name].ravel()
        numeric = np.empty_like(ga)
        for i in range(pf.size):
            orig = pf[i]
            pf[i] = orig + h
            lp = float(_bce(net._forward(X)[0], y)[0])
            pf[i] = orig - h
            lm = float(_bce(net._forward(X)[0], y)[0])
            pf[i] = orig
            numeric[i] = (lp - lm) / (2 * h)
        worst = max(worst, _rel_err(ga, numeric))

    w4row = net.w4[0]
    # w3[i, j]: z3[i] shifts by +/- h * flat[j]
    lp = loss_at(z4 + w4row[:, None] * (np.maximum(z31[:, None] + h * flat1[None, :], 0.0) - a31[:, None]))
    lm = loss_at(z4 + w4row[:, None] * (np.maximum(z31[:, None] - h * flat1[None, :], 0.0) - a31[:, None]))
    worst = max(worst, _rel_err(grads["w3"], (lp - lm) / (2 * h)))
    # b3[i]: z3[i] shifts by +/- h
    lp = loss_at(z4 + w4row * (np.maximum(z31 + h, 0.0) - a31))
    lm = loss_at(z4 + w4row * (np.maximum(z31 - h, 0.0) - a31))
    worst = max(worst, _rel_err(grads["b3"], (lp - lm) / (2 * h)))
    # w4[0, j]: z4 shifts by +/- h * a3[j]
    lp = loss_at(z4 + h * a31)
    lm = loss_at(z4 - h * a31)
    worst = max(worst, _rel_err(grads["w4"][0], (lp - lm) / (2 * h)))
    # b4
    lp = loss_at(np.array(z4 + h))
    lm = loss_at(np.array(z4 - h))
    worst = max(worst, _rel_err(grads["b4"], (lp - lm) / (2 * h)))
    return worst
