"""Gradient-boosted regression trees, built from scratch on numpy.

Two modes share the same tree machinery: squared-error regression (leaf
values are residual means) and binary logistic classification (leaf values
are single Newton steps on the log-odds). Split search is exact greedy over
axis-aligned thresholds at midpoints of consecutive distinct feature values,
with deterministic tie-breaking (lowest feature index, then lowest
threshold), so a fit is fully reproducible.

The search is presorted, as in XGBoost's column block (Chen & Guestrin,
KDD 2016): each fit sorts every feature once, and each split partitions the
node's sorted row lists with a stable mask instead of sorting again. The
partition keeps the order "by value, ties by row index", which is the order
a fresh stable sort of the node would give, so the splits, the gains and
the tie-breaks are exactly those of a per-node sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError

MODE_REGRESSION = "squared_error_regression"
MODE_CLASSIFICATION = "logistic_classification"

# Newton leaf steps are clipped to keep log-odds updates bounded.
_MAX_LEAF_LOGIT = 4.0
_MIN_GAIN = 1e-12


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TreeNode":
        if "value" in obj:
            return cls(value=float(obj["value"]))
        return cls(
            feature=int(obj["feature"]),
            threshold=float(obj["threshold"]),
            left=cls.from_dict(obj["left"]),
            right=cls.from_dict(obj["right"]),
        )


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
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


def _best_split(XT: np.ndarray, grad: np.ndarray, idx: np.ndarray, block: np.ndarray):
    """Return (gain, feature, threshold) of the best SSE-reducing split.

    ``XT`` is the (F, N) feature-major training matrix, ``idx`` the node's
    rows in ascending order and ``block`` (F, n) the same rows per feature,
    sorted by value with ties by row index. gain is the decrease in sum of
    squared residuals; None when no valid split improves on the parent.
    """
    n = len(idx)
    if n < 2:
        return None
    xs = np.take_along_axis(XT, block, axis=1)
    tied = xs[:, 1:] <= xs[:, :-1]        # no threshold between equal values
    del xs  # freed before the prefix sums; the threshold is read from XT
    prefix = grad[block]
    np.cumsum(prefix, axis=1, out=prefix)
    nl = np.arange(1, n, dtype=np.float64)
    # gain = left_sum**2 / nl + right_sum**2 / nr - parent score, computed
    # in place over the left sums
    gain = prefix[:, :-1]
    right_sum = prefix[:, -1:] - gain
    np.square(gain, out=gain)
    gain /= nl
    np.square(right_sum, out=right_sum)
    right_sum /= n - nl
    gain += right_sum
    # parent score is the same for every feature column
    gain -= (np.sum(grad[idx]) ** 2) / n
    gain[tied] = -np.inf
    best = float(np.max(gain))
    if not np.isfinite(best) or best <= _MIN_GAIN:
        return None
    # deterministic tie-break: lowest feature index, then lowest threshold
    # (nonzero scans features in order; within a feature valid splits rise)
    cols, rows = np.nonzero(gain == best)
    f, r = int(cols[0]), int(rows[0])
    threshold = 0.5 * (XT[f, block[f, r]] + XT[f, block[f, r + 1]])
    return best, f, float(threshold)


def _build_tree(
    XT: np.ndarray,
    order: np.ndarray,
    grad: np.ndarray,
    hess: Optional[np.ndarray],
    fitted: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
) -> TreeNode:
    """Grow one tree from ``order`` (F, N), each feature's rows presorted.

    Each split partitions every feature's sorted row list with one stable
    mask, so no node sorts again. Each leaf writes its value into
    ``fitted`` for its rows, which saves a prediction pass per stage.
    """
    def leaf(idx: np.ndarray) -> TreeNode:
        if hess is None:
            value = float(np.mean(grad[idx]))
        else:
            h = float(np.sum(hess[idx]))
            if h <= 0:
                value = 0.0
            else:
                v = float(np.sum(grad[idx])) / h
                value = float(np.clip(v, -_MAX_LEAF_LOGIT, _MAX_LEAF_LOGIT))
        fitted[idx] = value
        return TreeNode(value=value)

    def build(idx: np.ndarray, block: np.ndarray, d: int) -> TreeNode:
        if d >= max_depth or len(idx) < 2 * min_samples_leaf:
            return leaf(idx)
        split = _best_split(XT, grad, idx, block)
        if split is None:
            return leaf(idx)
        _, f, thr = split
        go_left = XT[f, idx] <= thr
        li, ri = idx[go_left], idx[~go_left]
        if len(li) < min_samples_leaf or len(ri) < min_samples_leaf:
            return leaf(idx)
        in_left = np.zeros(XT.shape[1], dtype=bool)
        in_left[li] = True
        in_left = in_left[block].ravel()
        left = np.compress(in_left, block).reshape(len(block), len(li))
        right = np.compress(~in_left, block).reshape(len(block), len(ri))
        return TreeNode(
            feature=f,
            threshold=thr,
            left=build(li, left, d + 1),
            right=build(ri, right, d + 1),
        )

    return build(np.arange(XT.shape[1]), order, 0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


@dataclass
class BoostedEnsemble:
    """Additive tree model: prediction = base + learning_rate * sum(trees)."""

    mode: str
    learning_rate: float
    max_depth: int
    base_prediction: float
    n_features: int
    trees: list[TreeNode] = field(default_factory=list)
    train_loss_curve: list[float] = field(default_factory=list)

    def raw_predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        out = np.full(len(X), self.base_prediction, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * _tree_predict(tree, X)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = self.raw_predict(X)
        if self.mode == MODE_CLASSIFICATION:
            return _sigmoid(raw)
        return raw

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "base_prediction": self.base_prediction,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
            "train_loss_curve": self.train_loss_curve,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "BoostedEnsemble":
        return cls(
            mode=str(obj["mode"]),
            learning_rate=float(obj["learning_rate"]),
            max_depth=int(obj["max_depth"]),
            base_prediction=float(obj["base_prediction"]),
            n_features=int(obj["n_features"]),
            trees=[TreeNode.from_dict(t) for t in obj["trees"]],
            train_loss_curve=[float(v) for v in obj.get("train_loss_curve", [])],
        )


@dataclass
class BoostConfig:
    n_stages: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1
    mode: str = MODE_REGRESSION


def fit_boosted(X: np.ndarray, y: np.ndarray, config: Optional[BoostConfig] = None) -> BoostedEnsemble:
    """Fit a boosted ensemble; stops early once residuals are exhausted.

    Regression tracks per-stage training MSE, classification per-stage
    log-loss; both curves are stored on the model and are nonincreasing.
    """
    config = config or BoostConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if len(X) == 0 or len(y) == 0:
        raise DataError("empty training data")
    if len(X) != len(y):
        raise DataError(f"X and y lengths differ: {len(X)} vs {len(y)}")
    if len(X) < 10:
        raise DataError(f"need at least 10 training rows, got {len(X)}")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite feature values in X")
    if not np.all(np.isfinite(y)):
        raise DataError("non-finite target values in y")
    if not 0.0 < config.learning_rate <= 1.0:
        raise DataError(f"learning_rate must be in (0, 1], got {config.learning_rate}")
    for name in ("n_stages", "max_depth", "min_samples_leaf"):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise DataError(f"{name} must be an integer of at least 1, got {value!r}")

    classification = config.mode == MODE_CLASSIFICATION
    if classification:
        labels = set(np.unique(y).tolist())
        if not labels <= {0.0, 1.0}:
            raise DataError(f"classification targets must be 0/1, got {sorted(labels)}")
        p0 = float(np.clip(np.mean(y), 1e-6, 1 - 1e-6))
        base = float(np.log(p0 / (1 - p0)))
    else:
        base = float(np.mean(y))

    model = BoostedEnsemble(
        mode=config.mode,
        learning_rate=config.learning_rate,
        max_depth=config.max_depth,
        base_prediction=base,
        n_features=X.shape[1],
    )
    raw = np.full(len(y), base, dtype=np.float64)

    def loss(raw_scores: np.ndarray) -> float:
        if classification:
            p = _sigmoid(raw_scores)
            eps = 1e-12
            return float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        return float(np.mean((y - raw_scores) ** 2))

    model.train_loss_curve.append(loss(raw))
    # X is fixed across stages: sort every feature once, ties by row index
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable").astype(np.int32)
    for _ in range(config.n_stages):
        if classification:
            p = _sigmoid(raw)
            grad = y - p           # negative gradient of log-loss
            hess = p * (1 - p)
        else:
            grad = y - raw
            hess = None
        if np.max(np.abs(grad)) < 1e-12:
            break                  # targets fully explained; no further trees
        fitted = np.empty(len(y), dtype=np.float64)
        tree = _build_tree(
            XT, order, grad, hess, fitted, config.max_depth, config.min_samples_leaf
        )
        raw = raw + config.learning_rate * fitted
        model.trees.append(tree)
        model.train_loss_curve.append(loss(raw))
    return model
