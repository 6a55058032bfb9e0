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
columns, kept from the forward pass, give the gradient of that matrix, bias
row included, in one GEMM, ``cols.T @ dz``. The input gradient is a
shift-sum: tap k's ``dz @ w[:, :, k]`` is added at time offset k.

A network holds its parameters in one layout, the one its GEMMs read:
``wb1`` and ``wb2`` are the conv layers' weight matrices with their bias
rows, ``w3t`` reads the conv output time-major, and ``b3``, ``w4`` and
``b4`` are the dense layers' remaining arrays. ``loss_and_grads`` returns
the gradients in the same layout. The artifact file keeps the channel-first
layout, ``w1``/``w2`` as ``(O, C, K)`` kernels and ``w3`` reading the conv
output channel by channel: ``to_dict`` writes it, and ``from_dict`` and
``initialize`` lay the parameters out for the GEMMs once.

``train_cnn`` sets the input standardisation in float64 and runs its SGD
loop in float32, where the step's GEMMs take about half the time, as in
mixed-precision training (Micikevicius et al. 2018). For the whole fit it
holds:

- every window, standardised in float64 and rounded to float32 once;
- a float32 copy of the network, whose arrays each update changes in place;
- one set of work buffers (``_Batch``: columns, activations, float32 ReLU
  masks and deltas) sized for the largest batch, with the strided views
  that fill the columns built once. An epoch's short last batch steps in
  leading slices of them.

At the end it widens the parameters to float64, which is exact. Each
element's arithmetic and each GEMM's operands are those of a step that
re-lays channel-first parameters out every time, so the fit is that loop's
bit for bit. Prediction, loaded artifacts and the gradient check stay
float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import _LOSS_CURVE, _PIPELINE_RULES, _SEED, PipelineConfig, _check_fields, _int, _real, _shown
from .errors import DataError, MissingArtifactError

KERNEL_WIDTH = 3
CONV1_CHANNELS = 8
CONV2_CHANNELS = 16
FC_WIDTH = 50

# the artifact's arrays, channel-first, in file order
PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")
# a network's arrays, in the layouts of its GEMMs
_STEP_NAMES = ("wb1", "wb2", "w3t", "b3", "w4", "b4")

# windows per forward pass in predict_proba
_PREDICT_CHUNK = 256


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


def _weight_matrix(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (O, C, K) kernels and (O,) biases -> (K*C + 1, O): row k*C + c holds
    # w[:, c, k], the last row the biases
    O, C, K = w.shape
    wm = np.empty((K * C + 1, O), w.dtype)
    wm[:-1] = w.transpose(2, 1, 0).reshape(K * C, O)
    wm[-1] = b
    return wm


def _regroup(m: np.ndarray, outer: int) -> np.ndarray:
    # (N, outer*inner) -> (N, inner*outer): each row's flatten order swapped
    return m.reshape(len(m), outer, -1).transpose(0, 2, 1).reshape(len(m), -1)


def _step_layout(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The ``_STEP_NAMES`` arrays of the channel-first ``PARAM_NAMES``
    arrays ``params``: ``wb1``/``wb2`` are the conv layers' weight matrices
    with their bias rows, and ``w3t`` is ``w3`` reading the conv output
    time-major. ``b3``, ``w4`` and ``b4`` are ``params``' own arrays."""
    return {
        "wb1": _weight_matrix(params["w1"], params["b1"]),
        "wb2": _weight_matrix(params["w2"], params["b2"]),
        "w3t": _regroup(params["w3"], CONV2_CHANNELS),
        "b3": params["b3"],
        "w4": params["w4"],
        "b4": params["b4"],
    }


def _artifact_layout(step: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The ``PARAM_NAMES`` arrays of parameters, or of their gradients, given
    in the step layout of ``_step_layout``."""
    out = {}
    for i in (1, 2):
        wb = step[f"wb{i}"]
        out[f"w{i}"] = np.ascontiguousarray(wb[:-1].reshape(KERNEL_WIDTH, -1, wb.shape[1]).transpose(2, 1, 0))
        out[f"b{i}"] = wb[-1]
    w3t = step["w3t"]
    out["w3"] = _regroup(w3t, w3t.shape[1] // CONV2_CHANNELS)
    out.update(b3=step["b3"], w4=step["w4"], b4=step["b4"])
    return out


class _Batch:
    """The buffers of a step on ``n`` windows, and the strided views that
    fill its column buffers, built once. With ``base``, a batch of at least
    ``n`` windows, each buffer is a leading slice of base's, C-contiguous
    like a fresh array of its shape. ``backward`` adds the ReLU masks, in the
    step's dtype, and the delta buffers. The column buffers' ones columns are
    never written after they are made."""

    def __init__(self, n: int, window_len: int, dtype, backward: bool, base: "_Batch | None" = None):
        K, C1, C2 = KERNEL_WIDTH, CONV1_CHANNELS, CONV2_CHANNELS
        l1 = window_len - K + 1
        l2 = l1 - K + 1

        def buf(name, *shape, alloc=np.empty):
            return alloc((n, *shape), dtype) if base is None else getattr(base, name)[:n]

        self.n, self.backward = n, backward
        self.x = buf("x", window_len)
        self.cols1 = buf("cols1", l1, K + 1, alloc=np.ones)
        self.z1 = buf("z1", l1, C1)
        self.cols2 = buf("cols2", l2, K * C1 + 1, alloc=np.ones)
        self.z2 = buf("z2", l2, C2)
        self.z3 = buf("z3", FC_WIDTH)
        self.a3 = buf("a3", FC_WIDTH)
        # the strided copies that fill the columns: tap k of every window of
        # x, and every window of conv1's output
        self.x_taps = [(self.cols1[:, :, k], self.x[:, k : k + l1]) for k in range(K)]
        self.a1_windows = sliding_window_view(self.z1.reshape(n, l1 * C1), K * C1, axis=1)[:, ::C1]
        self.cols2_head = self.cols2[:, :, : K * C1]
        self.cols1_2d = self.cols1.reshape(n * l1, K + 1)
        self.z1_2d = self.z1.reshape(n * l1, C1)
        self.cols2_2d = self.cols2.reshape(n * l2, K * C1 + 1)
        self.z2_2d = self.z2.reshape(n * l2, C2)
        self.flat = self.z2.reshape(n, l2 * C2)              # time-major
        if backward:
            self.m1 = buf("m1", l1, C1)
            self.m2 = buf("m2", l2, C2)
            self.dz2 = buf("dz2", l2, C2)
            self.tap = buf("tap", l2, C1)
            self.dz1 = buf("dz1", l1, C1)
            self.dz2_flat = self.dz2.reshape(n, l2 * C2)
            self.dz2_2d = self.dz2.reshape(n * l2, C2)
            self.tap_2d = self.tap.reshape(n * l2, C1)
            self.dz1_2d = self.dz1.reshape(n * l1, C1)
            self.dz1_shifts = [self.dz1[:, k : k + l2] for k in range(K)]


def _work_batch(work: dict, n: int, window_len: int, dtype, backward: bool) -> _Batch:
    # the buffers of an n-window batch in a workspace, made once per size; a
    # smaller batch (an epoch's last) gets leading slices of the largest's
    batch = work.get(n)
    if batch is None:
        base = work.get("largest")
        batch = work[n] = _Batch(n, window_len, dtype, backward, base if base is not None and base.n >= n else None)
        if base is None or base.n < n:
            work["largest"] = batch
    return batch


def _input_grad(b: _Batch, taps: np.ndarray) -> None:
    # delta of conv2's input, b.dz1 (B, lo+K-1, C), from its output delta
    # b.dz2 (B*lo, O) and its kernels taps (K, O, C): tap k's dz @ taps[k],
    # added at time offset k. One GEMM per tap into a contiguous buffer makes
    # each add contiguous on one side; a single GEMM against all taps leaves
    # every add strided on both sides, which costs more than the GEMMs it saves
    lo = b.tap.shape[1]
    np.matmul(b.dz2_2d, taps[0], out=b.tap_2d)
    b.dz1[:, :lo] = b.tap
    b.dz1[:, lo:] = 0.0
    for k in range(1, len(taps)):
        np.matmul(b.dz2_2d, taps[k], out=b.tap_2d)
        np.add(b.dz1_shifts[k], b.tap, out=b.dz1_shifts[k])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _artifact_array(obj: dict, name: str, shape: tuple, where: str) -> np.ndarray:
    """``obj[name]`` as a float64 array, or MissingArtifactError naming
    ``where`` and the field."""
    if name not in obj:
        raise MissingArtifactError(f"{where}: missing key {name}")
    try:
        arr = np.asarray(obj[name])
        ok = arr.dtype.kind in "iuf" and arr.shape == shape and np.isfinite(arr).all()
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise MissingArtifactError(
            f"{where}: {name} must be an array of finite numbers of shape {shape}, got {_shown(obj[name])}"
        )
    return arr.astype(np.float64)


@dataclass
class TemporalCnn:
    """Binary classifier over fixed-length 1-D windows. Its parameters are
    in the step layout of ``_step_layout``."""

    window_len: int
    wb1: np.ndarray
    wb2: np.ndarray
    w3t: np.ndarray
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

        return cls(window_len=window_len, **_step_layout({
            "w1": he("w1", KERNEL_WIDTH),
            "b1": np.zeros(CONV1_CHANNELS),
            "w2": he("w2", CONV1_CHANNELS * KERNEL_WIDTH),
            "b2": np.zeros(CONV2_CHANNELS),
            "w3": he("w3", shapes["w3"][1]),
            "b3": np.zeros(FC_WIDTH),
            "w4": he("w4", FC_WIDTH),
            "b4": np.zeros(1),
        }))

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _forward(self, X: np.ndarray, b: _Batch | None = None):
        """Output probabilities of checked windows, and the batch buffers
        that hold what the backward pass reads; by default, fresh buffers
        with masks."""
        if b is None:
            b = _Batch(len(X), self.window_len, X.dtype, backward=True)
        np.multiply(np.subtract(X, self.input_center, out=b.x), self.input_scale, out=b.x)
        for cols, x in b.x_taps:
            np.copyto(cols, x)
        np.matmul(b.cols1_2d, self.wb1, out=b.z1_2d)
        if b.backward:
            np.greater(b.z1, 0.0, out=b.m1)
        np.maximum(b.z1, 0.0, out=b.z1)
        np.copyto(b.cols2_head, b.a1_windows)
        np.matmul(b.cols2_2d, self.wb2, out=b.z2_2d)
        if b.backward:
            np.greater(b.z2, 0.0, out=b.m2)
        np.maximum(b.z2, 0.0, out=b.z2)
        z3 = np.matmul(b.flat, self.w3t.T, out=b.z3)
        z3 += self.b3
        a3 = np.maximum(z3, 0.0, out=b.a3)
        z4 = a3 @ self.w4.T + self.b4
        return _sigmoid(z4[:, 0]), b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_windows(X)
        # chunks bound the buffers, which they share
        p = np.empty(len(X))
        work: dict = {}
        for i in range(0, len(X), _PREDICT_CHUNK):
            chunk = X[i : i + _PREDICT_CHUNK]
            batch = _work_batch(work, len(chunk), self.window_len, X.dtype, backward=False)
            p[i : i + _PREDICT_CHUNK] = self._forward(chunk, batch)[0]
        return p

    def _check_windows(self, X: np.ndarray) -> np.ndarray:
        # in the parameters' dtype: float64 but while train_cnn runs
        X = np.asarray(X, dtype=self.wb1.dtype)
        if X.ndim != 2:
            raise DataError(
                f"windows must be a 2-D (windows, {self.window_len}) array, got shape {X.shape}"
            )
        if X.shape[1] != self.window_len:
            raise DataError(
                f"window length {X.shape[1]} does not match network input {self.window_len}"
            )
        return X

    def _backward(self, y: np.ndarray, p: np.ndarray, b: _Batch) -> dict:
        # the gradients of the parameters, from the kept forward pass
        dz4 = (p - y)[:, None] / len(p)                     # BCE + sigmoid
        grads = {"w4": dz4.T @ b.a3, "b4": dz4.sum(axis=0)}
        dz3 = (dz4 @ self.w4) * (b.z3 > 0)
        grads["w3t"] = dz3.T @ b.flat
        grads["b3"] = dz3.sum(axis=0)
        np.matmul(dz3, self.w3t, out=b.dz2_flat)
        np.multiply(b.dz2, b.m2, out=b.dz2)
        grads["wb2"] = b.cols2_2d.T @ b.dz2_2d
        wb2 = self.wb2
        # (K, O, C) kernels: taps[k, o, c] = w2[o, c, k]
        _input_grad(b, np.ascontiguousarray(wb2[:-1].reshape(KERNEL_WIDTH, -1, wb2.shape[1]).transpose(0, 2, 1)))
        np.multiply(b.dz1, b.m1, out=b.dz1)
        grads["wb1"] = b.cols1_2d.T @ b.dz1_2d
        return grads

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray, *, work: dict | None = None):
        """Mean BCE loss and parameter gradients of one batch, the gradients
        by ``_STEP_NAMES`` name in the network's own layout.

        Without ``work`` (the gradient check) every buffer is a temporary.
        ``work`` is a dict in which a training loop keeps the per-batch
        buffers for the whole fit: allocating them afresh costs about 3 MB a
        step that the allocator hands back to the OS and then faults in
        again. The returned gradients never alias ``work``.
        """
        X = self._check_windows(X)
        y = np.asarray(y, dtype=X.dtype)
        b = None if work is None else _work_batch(work, len(X), self.window_len, X.dtype, backward=True)
        p, b = self._forward(X, b)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        return loss, self._backward(y, p, b)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The artifact document, its parameters laid out channel-first."""
        doc = {
            "window_len": self.window_len,
            "input_center": self.input_center,
            "input_scale": self.input_scale,
            "train_loss_curve": self.train_loss_curve,
        }
        params = _artifact_layout({name: getattr(self, name) for name in _STEP_NAMES})
        for name in PARAM_NAMES:
            doc[name] = params[name].tolist()
        return doc

    @classmethod
    def from_dict(cls, obj: dict, where: str = "model") -> "TemporalCnn":
        """The network a ``to_dict`` document describes. A header field that
        fails ``_HEADER_RULES``, or a parameter that is not finite numbers in
        the shape ``window_len`` gives, raises ``MissingArtifactError``
        naming ``where`` and the field."""
        header = _check_fields(obj, _HEADER_RULES, MissingArtifactError, where, unknown_ok=True)
        shapes = _param_shapes(header["window_len"])
        params = {name: _artifact_array(obj, name, shape, where) for name, shape in shapes.items()}
        return cls(**header, **_step_layout(params))


_HEADER_RULES = {
    "window_len": _int(2 * (KERNEL_WIDTH - 1) + 1),
    "input_center": _real(),
    "input_scale": _real(),
    "train_loss_curve": _LOSS_CURVE,
}


@dataclass
class CnnTrainConfig:
    # the budget defaults are PipelineConfig's, so train_cnn(X, y) fits what
    # `adwatch train` fits
    epochs: int = PipelineConfig.cnn_epochs
    learning_rate: float = PipelineConfig.cnn_learning_rate
    batch_size: int = PipelineConfig.cnn_batch_size
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(vars(self), _TRAIN_RULES, DataError, "CNN training config")


# the rules of the PipelineConfig fields that set them
_TRAIN_RULES = {name: _PIPELINE_RULES[f"cnn_{name}"] for name in ("epochs", "learning_rate", "batch_size")}
_TRAIN_RULES["seed"] = _SEED


def train_cnn(windows: np.ndarray, labels: np.ndarray, config: CnnTrainConfig | None = None) -> TemporalCnn:
    """Train on fixed-length windows with binary labels.

    ``windows`` may be a ragged list; inconsistent lengths are rejected.
    The SGD steps run in float32 (see the module docstring); the returned
    network is float64. epochs = 0 returns the freshly initialized network.
    A budget outside the ranges ``PipelineConfig`` allows, a seed that is
    not an integer of at least 0 (already when the ``CnnTrainConfig`` is
    made), windows that are not a 2-D array or labels that are not a 1-D
    array raise ``DataError`` before any work.
    """
    config = config or CnnTrainConfig()
    _check_fields(vars(config), _TRAIN_RULES, DataError, "CNN training config")
    if isinstance(windows, np.ndarray) and windows.dtype == object or not isinstance(windows, np.ndarray):
        if any(np.ndim(w) != 1 for w in windows):
            raise DataError("windows must be a 2-D array (windows, samples)")
        lengths = {len(w) for w in windows}
        if len(lengths) > 1:
            raise DataError(f"windows of mixed lengths: {sorted(lengths)}")
        windows = np.array([np.asarray(w, dtype=np.float64) for w in windows])
    windows = np.asarray(windows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if windows.ndim != 2:
        raise DataError(f"windows must be a 2-D array (windows, samples), got shape {windows.shape}")
    if labels.ndim != 1:
        raise DataError(f"labels must be a 1-D array, got shape {labels.shape}")
    if windows.size == 0:
        raise DataError("empty training set")
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
    # The SGD loop runs in float32. The windows are standardised in float64
    # and then rounded, so any finite input fits float32; a float32 copy of
    # the network, whose own standardisation is the identity, takes the
    # steps, and each update changes its arrays in place. A Python float
    # rate keeps the update in float32 (a numpy float64 would promote it).
    windows = windows - net.input_center               # a copy: the caller's windows stay as they are
    windows *= net.input_scale
    windows = windows.astype(np.float32)
    labels = labels.astype(np.float32)
    step_net = replace(
        net, input_center=0.0, input_scale=1.0,
        **{name: getattr(net, name).astype(np.float32) for name in _STEP_NAMES},
    )
    work: dict = {}
    rate = float(config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)
    n = len(windows)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = step_net.loss_and_grads(windows[idx], labels[idx], work=work)
            epoch_losses.append(loss)
            for name, grad in grads.items():
                grad *= rate                                # rate * grad, in float32
                param = getattr(step_net, name)
                param -= grad
        net.train_loss_curve.append(float(np.mean(epoch_losses)))
    # widening float32 to float64 is exact
    for name in _STEP_NAMES:
        setattr(net, name, getattr(step_net, name).astype(np.float64))
    return net


def _bce(p: np.ndarray, y: float) -> np.ndarray:
    eps = 1e-12
    return -(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_check(net: TemporalCnn, window: np.ndarray, label: float, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter, at one 1-D ``window`` and its ``label``.

    Convolutional parameters are perturbed one at a time with a full forward
    pass. For the dense layers only downstream values change under a
    single-entry perturbation, so the perturbed losses are evaluated in
    closed form from the cached forward state; the finite-difference values
    are identical to what full re-evaluation would produce.
    """
    X = net._check_windows(np.asarray(window, dtype=np.float64)[None, :])
    y_arr = np.array([label], dtype=np.float64)
    y = float(label)
    _, grads = net.loss_and_grads(X, y_arr)
    _, b = net._forward(X)
    flat1, z31, a31 = b.flat[0], b.z3[0], b.a3[0]
    z4 = float(a31 @ net.w4[0] + net.b4[0])
    worst = 0.0

    def loss_at(z4_val: np.ndarray) -> np.ndarray:
        return _bce(_sigmoid(np.asarray(z4_val)), y)

    # conv side: honest re-evaluation per perturbed entry, bias rows included
    for name in ("wb1", "wb2"):
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
    # w3t[i, j]: z3[i] shifts by +/- h * flat[j]
    lp = loss_at(z4 + w4row[:, None] * (np.maximum(z31[:, None] + h * flat1[None, :], 0.0) - a31[:, None]))
    lm = loss_at(z4 + w4row[:, None] * (np.maximum(z31[:, None] - h * flat1[None, :], 0.0) - a31[:, None]))
    worst = max(worst, _rel_err(grads["w3t"], (lp - lm) / (2 * h)))
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
