"""Small 1-D temporal CNN with hand-written backprop.

Architecture (fixed by contract): two 1-D conv layers with kernel width 3
(1 -> 8 -> 16 channels, stride 1, no padding, ReLU), a fully-connected layer
of width 50 (ReLU), and a single sigmoid output. Training is plain
mini-batch SGD on binary cross-entropy with seeded shuffling, so a fit is
reproducible bit for bit. Analytic gradients are verifiable against central
finite differences via :func:`gradient_check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig, check_seed
from .errors import DataError

KERNEL_WIDTH = 3
CONV1_CHANNELS = 8
CONV2_CHANNELS = 16
FC_WIDTH = 50

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")

# windows per conv chunk in predict_proba
_PREDICT_CHUNK = 256


def _im2col(x: np.ndarray, K: int, work=None, name="") -> np.ndarray:
    # x: (B, C, L) -> (B, L-K+1, C, K) with cols[b, t, c, k] = x[b, c, t+k],
    # filled by one strided copy per kernel tap
    B, C, L = x.shape
    lo = L - K + 1
    cols = _buffer(work, name, (B, lo, C, K))
    xt = x.transpose(0, 2, 1)
    for k in range(K):
        cols[..., k] = xt[:, k : k + lo, :]
    return cols


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


def _conv1d(x: np.ndarray, w: np.ndarray, work=None, name="") -> np.ndarray:
    # x: (B, C, L), w: (O, C, K) -> (B, O, L-K+1); im2col + matmul
    B, C, L = x.shape
    O, _, K = w.shape
    lo = L - K + 1
    cols = _im2col(x, K, work, name + "_cols").reshape(B, lo, C * K)
    out = _buffer(work, name, (B, lo, O))
    return np.matmul(cols, w.reshape(O, C * K).T, out=out).transpose(0, 2, 1)


def _conv_weight_grad(x: np.ndarray, dz: np.ndarray, work=None, name="", cols=None) -> np.ndarray:
    # x: (B, C, L) layer input, dz: (B, O, L-K+1) output delta -> (O, C, K);
    # cols: the forward pass's im2col of x, if it was kept
    B, C, L = x.shape
    _, O, lo = dz.shape
    K = L - lo + 1
    if cols is None:
        cols = _im2col(x, K)
    cols = cols.reshape(B * lo, C * K)
    dmat = _buffer(work, name, (B, lo, O))
    np.copyto(dmat, dz.transpose(0, 2, 1))
    return (dmat.reshape(B * lo, O).T @ cols).reshape(O, C, K)


def _conv_input_grad(dz: np.ndarray, w: np.ndarray, work=None) -> np.ndarray:
    # full correlation of the zero-padded delta with flipped kernels: the
    # im2col of the padded delta, filled straight from the delta. Tap k of
    # column t is dz[..., t + k - (K-1)]; the taps that fall in the padding
    # are never written, so they stay zero in a kept buffer
    O, C, K = w.shape
    B, _, lo = dz.shape
    li = lo + K - 1
    cols = _buffer(work, "dz_cols", (B, li, O, K), np.zeros)
    dzt = dz.transpose(0, 2, 1)
    for k in range(K):
        cols[:, K - 1 - k : K - 1 - k + lo, :, k] = dzt
    cols = cols.reshape(B * li, O * K)
    wmat = w[:, :, ::-1].transpose(1, 0, 2).reshape(C, O * K)
    out = _buffer(work, "da1", (B, li, C))
    np.matmul(cols, wmat.T, out=out.reshape(B * li, C))
    return out.transpose(0, 2, 1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


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
        l2 = window_len - 2 * (KERNEL_WIDTH - 1)
        flat = CONV2_CHANNELS * l2

        def he(shape, fan_in):
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

        return cls(
            window_len=window_len,
            w1=he((CONV1_CHANNELS, 1, KERNEL_WIDTH), KERNEL_WIDTH),
            b1=np.zeros(CONV1_CHANNELS),
            w2=he((CONV2_CHANNELS, CONV1_CHANNELS, KERNEL_WIDTH), CONV1_CHANNELS * KERNEL_WIDTH),
            b2=np.zeros(CONV2_CHANNELS),
            w3=he((FC_WIDTH, flat), flat),
            b3=np.zeros(FC_WIDTH),
            w4=he((1, FC_WIDTH), FC_WIDTH),
            b4=np.zeros(1),
        )

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _conv_forward(self, X: np.ndarray, work=None):
        """Standardise the windows and run both conv layers."""
        X = (X - self.input_center) * self.input_scale
        x0 = X[:, None, :]                                   # (B,1,L)
        z1 = _conv1d(x0, self.w1, work, "z1")                # (B,8,L-2)
        z1 += self.b1[None, :, None]
        a1 = np.maximum(z1, 0.0, out=_buffer(work, "a1", z1.shape))
        z2 = _conv1d(a1, self.w2, work, "z2")                # (B,16,L-4)
        z2 += self.b2[None, :, None]
        a2 = np.maximum(z2, 0.0, out=_buffer(work, "a2", z2.shape))
        return x0, z1, a1, z2, a2

    def _dense_forward(self, flat: np.ndarray):
        """Dense layer and sigmoid output: (p, z3, a3)."""
        z3 = flat @ self.w3.T + self.b3
        a3 = np.maximum(z3, 0.0)
        z4 = a3 @ self.w4.T + self.b4
        return _sigmoid(z4[:, 0]), z3, a3

    def _forward(self, X: np.ndarray, work=None):
        """Full forward pass keeping intermediates for backprop."""
        x0, z1, a1, z2, a2 = self._conv_forward(X, work)
        flat = a2.reshape(len(X), -1)
        p, z3, a3 = self._dense_forward(flat)
        return p, (x0, z1, a1, z2, a2, flat, z3, a3)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_windows(X)
        # numpy's stacked matmul runs the conv GEMMs window by window, so
        # chunking the conv layers bounds their im2col temporaries without
        # changing a bit. The dense GEMM's sums depend on its row count, so
        # it takes every row at once, from one buffer the chunks fill.
        flat = np.empty((len(X), self.w3.shape[1]))
        for i in range(0, len(X), _PREDICT_CHUNK):
            part = X[i : i + _PREDICT_CHUNK]
            flat[i : i + len(part)] = self._conv_forward(part)[-1].reshape(len(part), -1)
        return self._dense_forward(flat)[0]

    def _check_windows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.window_len:
            raise DataError(
                f"window length {X.shape[1]} does not match network input {self.window_len}"
            )
        return X

    def _backward(self, X: np.ndarray, y: np.ndarray, cache, p: np.ndarray, work=None) -> dict:
        x0, z1, a1, z2, a2, flat, z3, a3 = cache
        B = len(X)
        dz4 = (p - y)[:, None] / B                           # BCE + sigmoid
        grads = {}
        grads["w4"] = dz4.T @ a3
        grads["b4"] = dz4.sum(axis=0)
        da3 = dz4 @ self.w4
        dz3 = da3 * (z3 > 0)
        grads["w3"] = dz3.T @ flat
        grads["b3"] = dz3.sum(axis=0)
        dflat = np.matmul(dz3, self.w3, out=_buffer(work, "dflat", flat.shape))
        dz2 = dflat.reshape(a2.shape)
        # a2 > 0 is the mask z2 > 0, laid out like dz2 (z2 is a transposed
        # view), which makes the product several times cheaper
        dz2 *= a2 > 0
        grads["b2"] = dz2.sum(axis=(0, 2))
        cols1 = cols2 = None
        if work is not None:  # the forward pass kept its im2col columns there
            cols1, cols2 = work["z1_cols"][:B], work["z2_cols"][:B]
        grads["w2"] = _conv_weight_grad(a1, dz2, work, "dmat2", cols2)
        dz1 = _conv_input_grad(dz2, self.w2, work)
        dz1 *= z1 > 0
        grads["b1"] = dz1.sum(axis=(0, 2))
        grads["w1"] = _conv_weight_grad(x0, dz1, work, "dmat1", cols1)
        return grads

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray, *, work: dict | None = None):
        """Mean BCE loss and parameter gradients of one batch.

        ``work`` is a dict in which a training loop keeps the per-batch
        activations and deltas from one call to the next. Allocating them
        afresh costs about 3 MB a step that the allocator hands back to the
        OS and then faults in again. The forward im2col columns are kept
        there too, for the weight gradients to reuse; without ``work``
        (scoring, the gradient check) every buffer is a temporary. The
        returned gradients never alias ``work``.
        """
        X = self._check_windows(X)
        y = np.asarray(y, dtype=np.float64)
        p, cache = self._forward(X, work)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        grads = self._backward(X, y, cache, p, work)
        return loss, grads

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
        kwargs = {name: np.asarray(obj[name], dtype=np.float64) for name in PARAM_NAMES}
        return cls(
            window_len=int(obj["window_len"]),
            input_center=float(obj.get("input_center", 0.0)),
            input_scale=float(obj.get("input_scale", 1.0)),
            train_loss_curve=[float(v) for v in obj.get("train_loss_curve", [])],
            **kwargs,
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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    _, _, _, _, _, flat, z3, a3 = cache
    flat1, z31, a31 = flat[0], z3[0], a3[0]
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
