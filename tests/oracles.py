"""Independent reference implementations used to verify the fast paths.

These deliberately avoid the formulas under test: the line-sampling oracle
never divides by the direction's z component, the scalar ray intersection
handles one ray at a time with no array masking, and the pairwise AUC oracle
compares every positive/negative pair directly. The boosting oracles
search every node's rows exactly from a fresh sort instead of over
histograms of binned values, replay a fit's gradients by walking its trees,
and walk each tree node by node instead of looking it up in a compiled table,
and the convolution oracles build im2col columns from a sliding-window
view. The timeline oracle reads and checks one row at a time instead of
checking whole columns. The writer oracles encode each row as a dict with
the stdlib JSON encoder instead of filling a row template, and the yawn
training-set oracle concatenates every tracked frame's features before it
subsamples them. The duration-rule oracle walks the flags frame by frame
into one event per run and paints the distracting events back into a mask.
"""

import json
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


# ---------------------------------------------------------------------------
# boosted trees: a node-by-node walk, and split search that re-sorts every node
# ---------------------------------------------------------------------------

def tree_predict(node, X):
    """One tree's leaf values for the rows of X, walking it node by node."""
    out = np.empty(len(X), dtype=np.float64)
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        go_left = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
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
        if not node.is_leaf:
            go_left = X[rows, node.feature] <= node.threshold
            stack.append((node.right, rows[~go_left], depth + 1))
            stack.append((node.left, rows[go_left], depth + 1))


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


def events_from_flags(flags, frame_rate_hz, min_duration_s):
    """One event per run of True flags, found frame by frame; distracting iff
    the run lasts strictly longer than ``min_duration_s``."""
    if frame_rate_hz <= 0:
        raise ValueError(f"frame_rate_hz must be positive, got {frame_rate_hz}")
    events, start = [], None
    for i, flag in enumerate(list(np.asarray(flags, dtype=bool)) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            duration = (i - start) / frame_rate_hz
            events.append(Event(start, i - 1, duration, duration > min_duration_s))
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


def read_timeline_rows(path):
    """Timeline columns (frame_index, mask, attentive, activity, target_cm),
    each row checked before the next is read; DataError names the bad row."""
    from adwatch.errors import DataError
    from adwatch.fusion import SIGNAL_NAMES

    index, mask, attentive, activity, target = [], [], [], [], []
    has_activity = False
    with open(path, encoding="utf-8") as fh:
        for row, line in enumerate(fh, start=1):
            if line.isspace():
                continue

            def bad(message):
                return DataError(f"timeline {path} row {row}: {message}")

            try:
                obj = json.loads(line)
                fi, m, a = obj["frame_index"], obj["mask"], obj["attentive"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise bad(exc)
            if type(fi) is not int or not -(2**63) <= fi < 2**63:
                raise bad(f"frame_index must be a 64-bit integer, got {json.dumps(fi)}")
            if type(m) is not int:
                raise bad(f"mask must be an integer, got {json.dumps(m)}")
            if type(a) is not bool:
                raise bad(f"attentive must be a boolean, got {json.dumps(a)}")
            if not 0 <= m < 32:
                raise bad(f"mask {m} out of range")
            if a != (m == 0):
                raise bad("attentive flag inconsistent with mask")
            tgt = obj.get("target_cm")
            if tgt is not None:
                try:
                    point = np.asarray(tgt, dtype=np.float64)
                except (TypeError, ValueError, OverflowError):
                    point = None
                if point is None or point.shape != (2,):
                    raise bad(f"target_cm must be null or a pair of numbers, got {json.dumps(tgt)}")
                tgt = (float(point[0]), float(point[1]))
            act = obj.get("activity")
            if act is not None and type(act) is not str:
                raise bad(f"activity must be a string or null, got {json.dumps(act)}")
            names = [name for b, name in enumerate(SIGNAL_NAMES) if m >> b & 1]
            if "sources" in obj and obj["sources"] != names:
                raise bad(f"sources {json.dumps(obj['sources'])} do not match mask {m}")
            has_activity = has_activity or "activity" in obj
            index.append(fi)
            mask.append(m)
            attentive.append(a)
            activity.append(act)
            target.append(tgt)
    if not index:
        raise DataError(f"empty timeline: {path}")
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
                tgt = timeline.target_cm[i]
                row["target_cm"] = list(tgt) if tgt is not None else None
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
