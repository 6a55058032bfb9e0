"""Independent reference implementations used to verify the fast paths.

These deliberately avoid the formulas under test: the line-sampling oracle
never divides by the direction's z component, the scalar ray intersection
handles one ray at a time with no array masking, and the pairwise AUC oracle
compares every positive/negative pair directly; the macro-F1 oracle counts
each class's hits and misses pair by pair. The boosting oracles
search every node's rows exactly from a fresh sort instead of over
histograms of binned values, replay a fit's gradients by walking its trees,
and walk each tree node by node instead of looking it up in a compiled table,
and the convolution oracles build im2col columns from a sliding-window
view over channel-first activations; the CNN step oracle runs the whole
forward and backward pass on them. The CNN training oracle keeps the
parameters channel-first and standardises each batch as it comes, laying
the parameters out for the step's GEMMs afresh every step. The frame and timeline oracles read and check one row at a
time instead of checking whole columns. The writer oracles encode each row as a dict with
the stdlib JSON encoder instead of filling a row template, and the yawn
training-set oracle concatenates every tracked frame's features before it
subsamples them. The duration-rule oracle walks the flags frame by frame
into one event per run and paints the distracting events back into a mask.
"""

import json
import math
from dataclasses import dataclass

import numpy as np


def line_sampling_intersection(pupil, direction, n_samples=4096, t_limit=1e9):
    """Locate the plane crossing by densely sampling the parametric line.

    Returns (x, y, t, status) where status is one of "toward_plane",
    "away_from_plane", "parallel". The z coordinate along the line is
    sampled over a growing symmetric range until a sign change brackets the
    crossing; the crossing itself comes from interpolating that bracket.
    """
    pupil = np.asarray(pupil, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    t_max = 1.0
    while t_max <= t_limit:
        ts = np.linspace(-t_max, t_max, n_samples)
        zs = pupil[2] + direction[2] * ts
        signs = np.sign(zs)
        change = np.flatnonzero(signs[:-1] * signs[1:] <= 0)
        if change.size:
            i = change[0]
            z0, z1 = zs[i], zs[i + 1]
            if z0 == z1:
                break
            frac = z0 / (z0 - z1)
            t = ts[i] + frac * (ts[i + 1] - ts[i])
            x = pupil[0] + direction[0] * t
            y = pupil[1] + direction[1] * t
            status = "toward_plane" if t > 0 else "away_from_plane"
            return x, y, t, status
        t_max *= 8.0
    return np.nan, np.nan, np.nan, "parallel"


def intersect_gaze(pupil, direction):
    """One ray at a time: t = -z_p / z_d, a ray counted parallel when
    |z_d| / ||D|| < ``PARALLEL_EPS``.

    Returns (x, y, t, status) as ``line_sampling_intersection`` does; x, y
    and t are NaN for a parallel ray.
    """
    from adwatch.geometry import PARALLEL_EPS

    pupil = np.asarray(pupil, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise ValueError("gaze direction is the zero vector")
    if abs(direction[2]) / norm < PARALLEL_EPS:
        return np.nan, np.nan, np.nan, "parallel"
    t = -pupil[2] / direction[2]
    x = float(pupil[0] + direction[0] * t)
    y = float(pupil[1] + direction[1] * t)
    return x, y, float(t), "toward_plane" if t > 0 else "away_from_plane"


def line_sampling_intersection_batch(pupils, directions, n_samples=1025, t_max=1e6):
    """Vectorized line-sampling oracle for rays known to cross the plane.

    Same construction as the scalar oracle: sample z along each line over a
    symmetric parameter range, find the bracketing sign change, interpolate
    within the bracket (exact for a line). Rays are processed in chunks to
    bound memory.
    """
    pupils = np.asarray(pupils, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    n = len(pupils)
    xs = np.empty(n)
    ys = np.empty(n)
    ts_out = np.empty(n)
    grid = np.linspace(-t_max, t_max, n_samples)
    for start in range(0, n, 1000):
        sl = slice(start, min(start + 1000, n))
        z = pupils[sl, 2:3] + directions[sl, 2:3] * grid[None, :]
        sign = np.sign(z)
        crossing = sign[:, :-1] * sign[:, 1:] <= 0
        idx = np.argmax(crossing, axis=1)
        rows = np.arange(z.shape[0])
        z0 = z[rows, idx]
        z1 = z[rows, idx + 1]
        frac = z0 / (z0 - z1)
        t = grid[idx] + frac * (grid[idx + 1] - grid[idx])
        xs[sl] = pupils[sl, 0] + directions[sl, 0] * t
        ys[sl] = pupils[sl, 1] + directions[sl, 1] * t
        ts_out[sl] = t
    return xs, ys, ts_out


def pairwise_auc(scores, labels):
    """O(n^2) Mann-Whitney statistic: P(s+ > s-) + 0.5 P(s+ = s-)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return wins / (len(pos) * len(neg))


def macro_f1(y_true, y_pred, labels):
    """Unweighted mean over the fixed label set of each class's F1, taken as 0
    for a class that is neither true nor predicted anywhere."""
    if len(y_true) != len(y_pred):
        raise ValueError("macro_f1 length mismatch")
    pairs = list(zip(y_true, y_pred))
    scores = []
    for label in labels:
        tp = sum(t == label and p == label for t, p in pairs)
        fp = sum(t != label and p == label for t, p in pairs)
        fn = sum(t == label and p != label for t, p in pairs)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# boosted trees: a node-by-node walk, and split search that re-sorts every node
# ---------------------------------------------------------------------------

def tree_predict(node, X):
    """One tree's leaf values for the rows of X, walking it node by node."""
    out = np.empty(len(X), dtype=np.float64)
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if "value" in nd:
            out[idx] = nd["value"]
            continue
        go_left = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[go_left]))
        stack.append((nd["right"], idx[~go_left]))
    return out


def walk_raw_predict(model, X):
    """``base + learning_rate * tree(X)`` summed over the trees in order."""
    X = np.asarray(X, dtype=np.float64)
    out = np.full(len(X), model.base_prediction, dtype=np.float64)
    for tree in model.trees:
        out += model.learning_rate * tree_predict(tree, X)
    return out


def per_node_split_gains(X, grad):
    """Every exact-search split of one node's rows ``X`` (n, F), from a fresh
    stable sort: the (n-1, F) gains, where [r, f] splits feature f between
    its r-th and (r+1)-th sorted values (-inf where they are equal), and the
    (n, F) sorted values."""
    n = len(grad)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    prefix = np.cumsum(grad[order], axis=0)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    left_sum = prefix[:-1]
    right_sum = prefix[-1][None, :] - left_sum
    gain = left_sum**2 / nl + right_sum**2 / (n - nl) - (np.sum(grad) ** 2) / n
    gain[xs[1:] <= xs[:-1]] = -np.inf
    return gain, xs


def _per_node_best_split(X, grad, min_gain=1e-12):
    """(gain, feature, threshold) of the exact greedy search at one node: the
    midpoint of the best gap, ties to the lowest feature, then threshold."""
    if len(grad) < 2:
        return None
    gain, xs = per_node_split_gains(X, grad)
    best = float(np.max(gain))
    if not np.isfinite(best) or best <= min_gain:
        return None
    rows, cols = np.nonzero(gain == best)
    candidates = sorted(
        zip(cols.tolist(), rows.tolist()),
        key=lambda fc: (fc[0], xs[fc[1], fc[0]]),
    )
    f, r = candidates[0]
    return best, f, float(0.5 * (xs[r, f] + xs[r + 1, f]))


def leaf_value(grad, hess, max_leaf_logit=4.0):
    """A leaf's value over its rows: the mean residual, or one clipped Newton step."""
    if hess is None:
        return float(np.mean(grad))
    h = float(np.sum(hess))
    if h <= 0:
        return 0.0
    return float(np.clip(float(np.sum(grad)) / h, -max_leaf_logit, max_leaf_logit))


def tree_nodes(tree, X):
    """Every node of a tree with its depth and the rows of X that reach it,
    in ascending order, walking it node by node."""
    stack = [(tree, np.arange(len(X)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        yield depth, node, rows
        if "value" not in node:
            go_left = X[rows, node["feature"]] <= node["threshold"]
            stack.append((node["right"], rows[~go_left], depth + 1))
            stack.append((node["left"], rows[go_left], depth + 1))


def base_prediction(y, classification):
    """The constant a fit starts from: the mean target, or the log-odds of
    the clipped positive rate."""
    if classification:
        p0 = float(np.clip(np.mean(y), 1e-6, 1 - 1e-6))
        return float(np.log(p0 / (1 - p0)))
    return float(np.mean(y))


def replay_fit(model, X, y):
    """A fitted model's training re-derived by walking its trees: the
    (gradient, Hessian or None) each tree was grown on, then those after the
    last tree, and the training loss before the first tree and after each."""
    from adwatch.boosting import MODE_CLASSIFICATION, _sigmoid

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    classification = model.mode == MODE_CLASSIFICATION
    raw = np.full(len(y), model.base_prediction, dtype=np.float64)
    stages, curve = [], []
    for tree in [*model.trees, None]:
        if classification:
            p = _sigmoid(raw)
            stages.append((y - p, p * (1 - p)))
            eps = 1e-12
            curve.append(float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))))
        else:
            stages.append((y - raw, None))
            curve.append(float(np.mean((y - raw) ** 2)))
        if tree is not None:
            raw = raw + model.learning_rate * tree_predict(tree, X)
    return stages, curve


# ---------------------------------------------------------------------------
# duration rule: runs as events, then the distracting events as a mask
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """A maximal run of consecutive active frames; ``end_frame`` is inclusive."""

    start_frame: int
    end_frame: int
    duration_s: float
    distracting: bool

    @property
    def n_frames(self):
        return self.end_frame - self.start_frame + 1


def lasts_longer(n_frames, frame_rate_hz, min_duration_s):
    """The duration rule in seconds: a run of ``n_frames`` lasts
    n_frames / frame_rate_hz seconds, and counts when that is strictly more
    than ``min_duration_s``."""
    return n_frames / frame_rate_hz > min_duration_s


def events_from_flags(flags, frame_rate_hz, min_duration_s):
    """One event per run of True flags, found frame by frame; distracting iff
    the run lasts strictly longer than ``min_duration_s`` (``lasts_longer``)."""
    if frame_rate_hz <= 0:
        raise ValueError(f"frame_rate_hz must be positive, got {frame_rate_hz}")
    events, start = [], None
    for i, flag in enumerate(list(np.asarray(flags, dtype=bool)) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            duration = (i - start) / frame_rate_hz
            events.append(Event(start, i - 1, duration, lasts_longer(i - start, frame_rate_hz, min_duration_s)))
            start = None
    return events


def distracting_mask(events, n_frames):
    """Per-frame boolean mask of the frames inside distracting events."""
    mask = np.zeros(n_frames, dtype=bool)
    for ev in events:
        if ev.distracting:
            mask[ev.start_frame : ev.end_frame + 1] = True
    return mask


# ---------------------------------------------------------------------------
# CNN training: the SGD loop that re-lays the parameters out every step
# ---------------------------------------------------------------------------

def _reference_buffer(work, name, shape, dtype, alloc=np.empty):
    buf = work.get(name)
    if buf is None or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
        buf = work[name] = alloc(shape, dtype)
    return buf[: shape[0]]


def _reference_weight_matrix(w, b):
    O, C, K = w.shape
    wm = np.empty((K * C + 1, O), w.dtype)
    wm[:-1] = w.transpose(2, 1, 0).reshape(K * C, O)
    wm[-1] = b
    return wm


def _reference_regroup(m, outer):
    return m.reshape(len(m), outer, -1).transpose(0, 2, 1).reshape(len(m), -1)


def _reference_conv(x, wm, work, name):
    from numpy.lib.stride_tricks import sliding_window_view

    B, L, C = x.shape
    KC, O = wm.shape[0] - 1, wm.shape[1]
    lo = L - KC // C + 1
    cols = _reference_buffer(work, name + "_cols", (B, lo, KC + 1), wm.dtype, np.ones)
    np.copyto(cols[:, :, :KC], sliding_window_view(x.reshape(B, L * C), KC, axis=1)[:, ::C])
    z = _reference_buffer(work, name, (B, lo, O), wm.dtype)
    np.matmul(cols.reshape(B * lo, KC + 1), wm, out=z.reshape(B * lo, O))
    return cols, z


def _reference_conv_grads(cols, dz):
    B, lo, KC1 = cols.shape
    O = dz.shape[2]
    g = cols.reshape(B * lo, KC1).T @ dz.reshape(B * lo, O)
    return np.ascontiguousarray(g[:-1].reshape(3, -1, O).transpose(2, 1, 0)), g[-1]


def _reference_input_grad(dz, w, work):
    B, lo, O = dz.shape
    _, C, K = w.shape
    d = dz.reshape(B * lo, O)
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))
    tap = _reference_buffer(work, "tap", (B, lo, C), dz.dtype)
    out = _reference_buffer(work, "dz1", (B, lo + K - 1, C), dz.dtype)
    np.matmul(d, taps[0], out=tap.reshape(B * lo, C))
    out[:, :lo] = tap
    out[:, lo:] = 0.0
    for k in range(1, K):
        np.matmul(d, taps[k], out=tap.reshape(B * lo, C))
        out[:, k : k + lo] += tap
    return out


def _reference_step(p, X, y, work):
    """Loss and artifact-layout gradients of one batch of windows that are
    already standardised, for the parameters ``p`` (a dict by name)."""
    cols1, a1 = _reference_conv(X[:, :, None], _reference_weight_matrix(p["w1"], p["b1"]), work, "a1")
    m1 = np.greater(a1, 0.0, out=_reference_buffer(work, "m1", a1.shape, bool))
    np.maximum(a1, 0.0, out=a1)
    cols2, a2 = _reference_conv(a1, _reference_weight_matrix(p["w2"], p["b2"]), work, "a2")
    m2 = np.greater(a2, 0.0, out=_reference_buffer(work, "m2", a2.shape, bool))
    np.maximum(a2, 0.0, out=a2)
    flat = a2.reshape(len(X), -1)
    w3 = _reference_regroup(p["w3"], 16)
    z3 = flat @ w3.T + p["b3"]
    a3 = np.maximum(z3, 0.0)
    z4 = a3 @ p["w4"].T + p["b4"]
    prob = 1.0 / (1.0 + np.exp(-np.clip(z4[:, 0], -35.0, 35.0)))
    eps = 1e-12
    loss = float(-np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps)))
    dz4 = (prob - y)[:, None] / len(prob)
    grads = {"w4": dz4.T @ a3, "b4": dz4.sum(axis=0)}
    dz3 = (dz4 @ p["w4"]) * (z3 > 0)
    grads["w3"] = _reference_regroup(dz3.T @ flat, m2.shape[1])
    grads["b3"] = dz3.sum(axis=0)
    dz2 = np.matmul(dz3, w3, out=_reference_buffer(work, "dz2", flat.shape, flat.dtype)).reshape(m2.shape)
    dz2 *= m2
    grads["w2"], grads["b2"] = _reference_conv_grads(cols2, dz2)
    dz1 = _reference_input_grad(dz2, p["w2"], work)
    dz1 *= m1
    grads["w1"], grads["b1"] = _reference_conv_grads(cols1, dz1)
    return loss, grads


def reference_train_cnn(windows, labels, config):
    """``cnn.train_cnn`` of valid 2-D windows and binary labels, as it ran
    before a fit held its parameters in the layouts of the step's GEMMs.
    Each batch is standardised in float64 and then rounded to float32; the
    float32 parameters stay in the channel-first artifact layout, and each
    step builds the conv weight matrices and regroups ``w3`` (and its
    gradient) afresh, with bool ReLU masks, returning new gradient arrays
    that the loop subtracts. The parameters are read from the artifact
    document of the initial network, and the result is rebuilt from one."""
    from adwatch.cnn import PARAM_NAMES, TemporalCnn

    windows = np.asarray(windows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    doc = TemporalCnn.initialize(windows.shape[1], seed=config.seed).to_dict()
    doc["input_center"] = center = float(np.mean(windows))
    std = float(np.std(windows))
    doc["input_scale"] = scale = 1.0 / std if std > 1e-12 else 1.0
    if config.epochs == 0:
        return TemporalCnn.from_dict(doc)
    params = {name: np.asarray(doc[name]).astype(np.float32) for name in PARAM_NAMES}
    labels = labels.astype(np.float32)
    rate = float(config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)
    work = {}
    for _ in range(config.epochs):
        order = rng.permutation(len(windows))
        losses = []
        for start in range(0, len(windows), config.batch_size):
            idx = order[start : start + config.batch_size]
            x = ((windows[idx] - center) * scale).astype(np.float32)
            loss, grads = _reference_step(params, x, labels[idx], work)
            losses.append(loss)
            for name in PARAM_NAMES:
                params[name] -= rate * grads[name]
        doc["train_loss_curve"].append(float(np.mean(losses)))
    for name in PARAM_NAMES:
        doc[name] = params[name].astype(np.float64).tolist()
    return TemporalCnn.from_dict(doc)


# ---------------------------------------------------------------------------
# CNN: im2col through a sliding-window view
# ---------------------------------------------------------------------------

def _window_cols(x, K):
    from numpy.lib.stride_tricks import sliding_window_view

    B, C, L = x.shape
    return sliding_window_view(x, K, axis=2).transpose(0, 2, 1, 3).reshape(B, L - K + 1, C * K)


def window_conv1d(x, w):
    O, C, K = w.shape
    return (_window_cols(x, K) @ w.reshape(O, C * K).T).transpose(0, 2, 1)


def window_conv_weight_grad(x, dz):
    B, C, L = x.shape
    _, O, lo = dz.shape
    K = L - lo + 1
    cols = _window_cols(x, K).reshape(B * lo, C * K)
    return (dz.transpose(0, 2, 1).reshape(B * lo, O).T @ cols).reshape(O, C, K)


def window_conv_input_grad(dz, w):
    O, C, K = w.shape
    B = dz.shape[0]
    dz_pad = np.pad(dz, ((0, 0), (0, 0), (K - 1, K - 1)))
    li = dz.shape[2] + K - 1
    cols = _window_cols(dz_pad, K).reshape(B * li, O * K)
    wmat = w[:, :, ::-1].transpose(1, 0, 2).reshape(C, O * K)
    return (cols @ wmat.T).reshape(B, li, C).transpose(0, 2, 1)



def channel_first_loss_and_grads(net, X, y):
    """Mean BCE loss and the eight parameter gradients of one batch, with
    channel-first activations (B, C, L): the speaking CNN's step before it
    went channel-last, with each conv kernel replaced by its sliding-window
    twin above, which matched it bit for bit. The parameters are read from
    the network's artifact document, in its channel-first layout."""
    from adwatch.cnn import PARAM_NAMES

    doc = net.to_dict()
    w1, b1, w2, b2, w3, b3, w4, b4 = (np.asarray(doc[name]) for name in PARAM_NAMES)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    B = len(X)
    x0 = ((X - doc["input_center"]) * doc["input_scale"])[:, None, :]
    z1 = window_conv1d(x0, w1) + b1[None, :, None]
    a1 = np.maximum(z1, 0.0)
    z2 = window_conv1d(a1, w2) + b2[None, :, None]
    a2 = np.maximum(z2, 0.0)
    flat = a2.reshape(B, -1)
    z3 = flat @ w3.T + b3
    a3 = np.maximum(z3, 0.0)
    z4 = a3 @ w4.T + b4
    p = 1.0 / (1.0 + np.exp(-np.clip(z4[:, 0], -35.0, 35.0)))
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    dz4 = (p - y)[:, None] / B
    grads = {"w4": dz4.T @ a3, "b4": dz4.sum(axis=0)}
    dz3 = (dz4 @ w4) * (z3 > 0)
    grads["w3"] = dz3.T @ flat
    grads["b3"] = dz3.sum(axis=0)
    dz2 = (dz3 @ w3).reshape(a2.shape) * (z2 > 0)
    grads["w2"] = window_conv_weight_grad(a1, dz2)
    grads["b2"] = dz2.sum(axis=(0, 2))
    dz1 = window_conv_input_grad(dz2, w2) * (z1 > 0)
    grads["w1"] = window_conv_weight_grad(x0, dz1)
    grads["b1"] = dz1.sum(axis=(0, 2))
    return loss, grads

def _is_json_array(value, shape, is_item):
    """Whether ``value`` is nested JSON arrays of ``shape`` whose items pass ``is_item``."""
    if not shape:
        return is_item(value)
    return (type(value) is list and len(value) == shape[0]
            and all(_is_json_array(item, shape[1:], is_item) for item in value))


def _is_int64(value):
    return type(value) is int and -(2**63) <= value < 2**63


def _is_number(value):
    if type(value) not in (int, float):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _all_finite(values):
    return all(math.isfinite(float(v)) for v in values)


def _parsed_row(line, bad):
    """The JSON object on a line, or ``bad``'s error."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad(f"invalid JSON ({exc.msg})")
    if type(obj) is not dict:
        raise bad("not a JSON object")
    return obj


def _required(obj, key, shape, is_item, expected, bad):
    if key not in obj:
        raise bad(f"missing key {key!r}")
    if not _is_json_array(obj[key], shape, is_item):
        raise bad(f"{key} must be {expected}, got {json.dumps(obj[key])}")
    return obj[key]


# frame key, FrameArrays column, shape, item test, what a value must be
_FRAME_FIELDS = (
    ("frame_index", "frame_index", (), _is_int64, "an integer"),
    ("timestamp_ms", "timestamp_ms", (), _is_number, "a number"),
    ("pupil_position_cm", "pupil", (3,), _is_number, "an array of 3 numbers"),
    ("gaze_direction", "direction", (3,), _is_number, "an array of 3 numbers"),
    ("gaze_quality", "quality", (), _is_number, "a number"),
    ("head_yaw_deg", "yaw", (), _is_number, "a number"),
    ("head_pitch_deg", "pitch", (), _is_number, "a number"),
    ("head_roll_deg", "roll", (), _is_number, "a number"),
    ("mouth_points", "mouth", (4, 2), _is_number, "4 pairs of numbers"),
    ("au_intensities", "aus", (20,), _is_number, "an array of 20 numbers"),
    ("eye_closure", "eye_closure", (), _is_number, "a number"),
    ("face_detected_expr", "face_expr", (), lambda v: type(v) is bool, "a boolean"),
    ("face_detected_gaze", "face_gaze", (), lambda v: type(v) is bool, "a boolean"),
    ("face_center_x", "face_center_x", (), _is_number, "a number"),
)


def load_frames_rows(path):
    """Frame columns by ``FrameArrays`` name, as lists, each row checked
    before the next is read; SessionFormatError names the bad row. A row's
    checks run in the reader's order: each field's type and shape in file
    order, then the FORMATS.md value checks against the row before it."""
    from adwatch.errors import SessionFormatError
    from adwatch.records import AU_NAMES

    columns = {column: [] for _, column, *_ in _FRAME_FIELDS}
    prev_fi, prev_ts = -1, -math.inf
    with open(path, encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            if line.isspace():
                continue

            def bad(message):
                return SessionFormatError(f"frame file {path} row {row}: {message}")

            obj = _parsed_row(line, bad)
            f = {column: _required(obj, key, shape, is_item, expected, bad)
                 for key, column, shape, is_item, expected in _FRAME_FIELDS}
            fi = f["frame_index"]
            ts, q, eye, fcx = (float(f[c]) for c in ("timestamp_ms", "quality", "eye_closure",
                                                      "face_center_x"))
            pupil = [float(v) for v in f["pupil"]]
            if fi < 0:
                raise bad(f"frame_index must be >= 0, got {fi}")
            if not (math.isfinite(ts) and ts >= 0.0):
                raise bad(f"timestamp_ms must be a finite real >= 0, got {ts}")
            if not _all_finite(pupil):
                raise bad("pupil_position_cm has non-finite components")
            if not _all_finite(f["direction"]):
                raise bad("gaze_direction has non-finite components")
            # zero length in floating point: every square underflows to 0
            if f["face_gaze"] and sum(v * v for v in f["direction"]) == 0.0:
                raise bad("gaze_direction must have a non-zero length on gaze-tracked frames")
            if not 0.0 <= q <= 1.0:
                raise bad(f"gaze_quality outside [0, 1]: {q}")
            if f["face_gaze"] and pupil[2] <= 0.0:
                raise bad(f"pupil z must be > 0 on gaze-tracked frames, got {pupil[2]}")
            if not _all_finite([f["yaw"], f["pitch"], f["roll"]]):
                raise bad("head pose angles must be finite")
            if not _all_finite([v for point in f["mouth"] for v in point]):
                raise bad("mouth_points has non-finite coordinates")
            for j, au in enumerate(map(float, f["aus"])):
                if not 0.0 <= au <= 100.0:
                    raise bad(f"au_intensities[{j}] ({AU_NAMES[j]}) outside [0, 100]: {au}")
            if not 0.0 <= eye <= 100.0:
                raise bad(f"eye_closure outside [0, 100]: {eye}")
            if not 0.0 <= fcx <= 1.0:
                raise bad(f"face_center_x outside [0, 1]: {fcx}")
            if ts <= prev_ts:
                raise bad(f"timestamp_ms {ts} not strictly increasing (previous {prev_ts})")
            if fi <= prev_fi:
                raise bad(f"frame_index {fi} not strictly increasing (previous {prev_fi})")
            if prev_fi >= 0 and fi > prev_fi + 1:
                raise bad(f"frame_index {fi} skips frames after {prev_fi}: indices must be contiguous")
            prev_fi, prev_ts = fi, ts
            for column, value in f.items():
                columns[column].append(value)
    if not columns["frame_index"]:
        raise SessionFormatError(f"empty session: {path}")
    return columns


def read_timeline_rows(path):
    """Timeline columns (frame_index, mask, attentive, activity, target_cm),
    each row checked before the next is read; DataError names the bad row.
    A row's checks run in the reader's order: each key's type in file order,
    then the mask's range, the attentive flag and the sources. An absent key
    reads as null; activity and target_cm are None when no row has one."""
    from adwatch.errors import DataError
    from adwatch.fusion import SIGNAL_NAMES

    index, mask, attentive, activity, target = [], [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            if line.isspace():
                continue

            def bad(message):
                return DataError(f"timeline {path} row {row}: {message}")

            obj = _parsed_row(line, bad)
            fi = _required(obj, "frame_index", (), _is_int64, "a 64-bit integer", bad)
            m = _required(obj, "mask", (), _is_int64, "an integer", bad)
            a = _required(obj, "attentive", (), lambda v: type(v) is bool, "a boolean", bad)
            tgt = obj.get("target_cm")
            if tgt is not None:
                if not _is_json_array(tgt, (2,), lambda v: _is_number(v) and math.isfinite(v)):
                    raise bad(f"target_cm must be null or a pair of numbers, got {json.dumps(tgt)}")
                tgt = (float(tgt[0]), float(tgt[1]))
            act = obj.get("activity")
            if act is not None and type(act) is not str:
                raise bad(f"activity must be a string or null, got {json.dumps(act)}")
            if not 0 <= m < 32:
                raise bad(f"mask {m} out of range")
            if a != (m == 0):
                raise bad("attentive flag inconsistent with mask")
            names = [name for b, name in enumerate(SIGNAL_NAMES) if m >> b & 1]
            if "sources" in obj and obj["sources"] != names:
                raise bad(f"sources {json.dumps(obj['sources'])} do not match mask {m}")
            index.append(fi)
            mask.append(m)
            attentive.append(a)
            activity.append(act)
            target.append(tgt)
    if not index:
        raise DataError(f"empty timeline: {path}")
    has_activity = any(a is not None for a in activity)
    has_target = any(t is not None for t in target)
    return (index, mask, attentive, activity if has_activity else None,
            target if has_target else None)


# ---------------------------------------------------------------------------
# JSONL writers: one dict per row through the stdlib JSON encoder
# ---------------------------------------------------------------------------

def json_write_frames(frames, path):
    from adwatch.session_io import _FRAME_SCHEMA

    names = [field for field, *_ in _FRAME_SCHEMA]
    columns = [getattr(frames, column).tolist() for _, column, *_ in _FRAME_SCHEMA]
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        for values in zip(*columns):
            fh.write(encode(dict(zip(names, values))))
            fh.write("\n")


def json_write_timeline(timeline, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(timeline)):
            row = {
                "frame_index": int(timeline.frame_index[i]),
                "attentive": bool(timeline.attentive[i]),
                "mask": int(timeline.mask[i]),
                "sources": timeline.active_names(i),
            }
            if timeline.activity is not None:
                row["activity"] = timeline.activity[i]
            if timeline.target_cm is not None:
                tgt = [float(v) for v in timeline.target_cm[i]]
                row["target_cm"] = None if all(map(math.isnan, tgt)) else tgt
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")


def concatenating_yawn_training_set(sessions, config, seed=0):
    """(X, y) of the yawn classifier, from all tracked frames' features
    concatenated and then subsampled."""
    from adwatch.drowsiness import yawn_features
    from adwatch.training import _subsample

    feats, labels = [], []
    for frames, truth, _ in sessions:
        tracked = frames.face_expr
        feats.append(yawn_features(frames)[tracked])
        labels.append(
            np.array([a == "yawn_active" for a in truth.activity], dtype=np.float64)[tracked]
        )
    X = np.concatenate(feats)
    y = np.concatenate(labels)
    idx = _subsample(np.random.default_rng(seed), len(X), config.max_yawn_train_rows)
    return X[idx], y[idx]
