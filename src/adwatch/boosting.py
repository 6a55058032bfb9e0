"""Gradient-boosted regression trees, built from scratch on numpy.

Two modes share the tree machinery: squared-error regression (leaf values
are residual means) and binary logistic classification (leaf values are
single Newton steps on the log-odds).

Split search uses histograms, as LightGBM (Ke et al., NeurIPS 2017) and
XGBoost's ``hist`` method (Chen & Guestrin, KDD 2016) do. A fit bins each
feature once, at thresholds midway between adjacent distinct values (the
gaps nearest the row quantiles when there are more than ``MAX_THRESHOLDS``;
the lower value where the midpoint rounds onto the upper), with
``searchsorted(side="left")``, so that bin <= k exactly when x <= t_k. A
node's split is found over its per-bin gradient sums and row counts, each
one ``np.bincount``; only a split's smaller child is counted, the larger
one being its parent minus its sibling. Ties go to the lowest feature, then
the lowest threshold, so a fit is fully reproducible.

Prediction is compiled and exact. The first ``predict`` turns each tree
into a lookup table over the product of its own per-feature threshold bins,
holding ``learning_rate * leaf value`` per cell, in the spirit of
QuickScorer (Lucchese et al., SIGIR 2015). A prediction bins every used
feature once against the ensemble's sorted thresholds, with
``searchsorted(side="left")`` so that bin <= k exactly when x <= t_k (NaN
and +inf go right at every node, as ``x <= threshold`` sends them). Each
tree's cell is then a sum of small-integer gathers, and the cells are added
in tree order: the same doubles in the same order as a node-by-node walk,
so predictions are bit-identical to it. A tree taller than three levels is
split at its root until its parts fit a table of at most 128 cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .config import _artifact_curve, _artifact_field, _is_int, _is_real
from .errors import DataError, MissingArtifactError

MODE_REGRESSION = "squared_error_regression"
MODE_CLASSIFICATION = "logistic_classification"

# Newton leaf steps are clipped to keep log-odds updates bounded.
_MAX_LEAF_LOGIT = 4.0
_MIN_GAIN = 1e-12
# thresholds per feature and fit, so a row's bin (0..255) fits a uint8
MAX_THRESHOLDS = 255


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
    def from_dict(cls, obj: dict, n_features: int) -> "TreeNode":
        """The tree a ``to_dict`` document describes. A missing field, a value
        that is not a finite number or a split feature outside
        ``[0, n_features)`` raises ``MissingArtifactError`` naming the field.
        The checks are inline: a load walks every node of every tree."""
        if "value" in obj:
            value = obj["value"]
            if not _is_real(value):
                raise MissingArtifactError(f"field 'value': expected a finite number, got {value!r:.60}")
            return cls(value=float(value))
        try:
            feature, threshold, left, right = obj["feature"], obj["threshold"], obj["left"], obj["right"]
        except KeyError as exc:
            raise MissingArtifactError(f"field {exc.args[0]!r} is missing") from None
        if type(feature) is not int or not 0 <= feature < n_features:
            raise MissingArtifactError(
                f"field 'feature': expected an integer in [0, {n_features}), got {feature!r:.60}"
            )
        if not _is_real(threshold):
            raise MissingArtifactError(f"field 'threshold': expected a finite number, got {threshold!r:.60}")
        if not (isinstance(left, dict) and isinstance(right, dict)):
            raise MissingArtifactError("fields 'left' and 'right': expected tree node objects")
        return cls(feature, float(threshold), cls.from_dict(left, n_features), cls.from_dict(right, n_features))


# A (sub)tree of at most this many levels has at most 2**7 = 128 cells; a
# taller tree is split at its root until its parts are this short.
_TABLE_LEVELS = 3


class _Table(NamedTuple):
    """A (sub)tree as one lookup table: its value for a row is
    ``cells[sum(m[bins[f]] for f, m in maps)]``."""

    maps: list          # (feature, ensemble grid bin -> stride * the tree's own bin)
    cells: np.ndarray


class _Split(NamedTuple):
    """A tree too tall to tabulate: its root split over two parts."""

    feature: int
    bin: int            # rows go left where their grid bin is at most this
    left: Union[_Table, "_Split"]
    right: Union[_Table, "_Split"]


@dataclass
class _Compiled:
    """An ensemble's trees as exact lookup tables over its threshold grid:
    ``grids[f]`` holds feature f's sorted distinct thresholds over all
    trees, ``parts`` one part per tree."""

    trees: list[TreeNode]
    learning_rate: float
    grids: dict[int, np.ndarray]
    parts: list[Union[_Table, _Split]]


def _flatten(trees: list[TreeNode]):
    """All nodes in preorder (leaves get feature -1) with each subtree's size
    and height, plus each tree's root index."""
    feature, threshold, value, size, height = [], [], [], [], []

    def visit(nd: TreeNode) -> int:
        i = len(feature)
        feature.append(-1 if nd.left is None else nd.feature)
        threshold.append(nd.threshold)
        value.append(nd.value)
        size.append(1)
        height.append(0)
        if nd.left is not None:
            height[i] = max(visit(nd.left), visit(nd.right)) + 1
            size[i] = len(feature) - i
        return height[i]

    roots = []
    for tree in trees:
        roots.append(len(feature))
        visit(tree)
    return feature, threshold, value, size, height, roots


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted ``keys``: each key's run of equal keys, and each run's start.

    (``np.unique`` would import ``numpy.ma`` on first use, about 1 MB of
    resident memory that scoring never needs.)
    """
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _compile(trees: list[TreeNode], learning_rate: float) -> _Compiled:
    feature_l, threshold_l, value_l, size_l, height, roots = _flatten(trees)
    feature = np.array(feature_l, dtype=np.intp)
    threshold = np.array(threshold_l, dtype=np.float64)
    size = np.array(size_l, dtype=np.intp)
    n = len(feature)
    internal = feature >= 0
    comparable = internal & ~np.isnan(threshold)   # a NaN threshold sends every row right

    # the ensemble's grid per feature, and each threshold's index on it
    grids = {}
    grid_bin = np.full(n, -1, dtype=np.intp)
    for f in sorted(set(feature_l) - {-1}):
        on_f = comparable & (feature == f)
        ts = np.sort(threshold[on_f])
        grids[f] = ts[_runs(ts)[1]]
        grid_bin[on_f] = np.searchsorted(grids[f], threshold[on_f])

    units: list[int] = []       # root node of each tabulated part

    def part(i: int):
        if height[i] <= _TABLE_LEVELS:
            units.append(i)
            return len(units) - 1
        return _Split(feature_l[i], int(grid_bin[i]), part(i + 1), part(i + 1 + size_l[i + 1]))

    parts = [part(r) for r in roots]
    unit_of = np.full(n, -1, dtype=np.intp)
    for u, r in enumerate(units):
        unit_of[r : r + size_l[r]] = u

    # each part's own bins per feature: its distinct thresholds, in grid order
    use = comparable & (unit_of >= 0)
    n_feat = int(feature.max(initial=-1)) + 1
    n_bin = max((len(g) for g in grids.values()), default=0) + 1
    key = (unit_of[use] * n_feat + feature[use]) * n_bin + grid_bin[use]
    order = np.argsort(key, kind="stable")
    run, starts = _runs(key[order])
    distinct = key[order][starts]
    inverse = np.empty_like(run)
    inverse[order] = run
    group_of, first = _runs(distinct // n_bin)     # (part, feature) of each distinct threshold
    group_key = distinct[first] // n_bin
    count = np.diff(np.append(first, len(distinct)))
    g_unit = (group_key // n_feat).tolist()
    g_feature = group_key % n_feat
    radix = (count + 1).tolist()
    # mixed-radix strides, the last feature of a part varying fastest
    stride = [0] * len(radix)
    n_cells = [1] * len(units)
    for g in range(len(radix) - 1, -1, -1):
        stride[g] = n_cells[g_unit[g]]
        n_cells[g_unit[g]] *= radix[g]
    stride = np.array(stride, dtype=np.intp)

    # every cell's value: walk each part from its root with the cell's bins
    node_stride = np.ones(n, dtype=np.intp)
    node_radix = np.ones(n, dtype=np.intp)
    node_k = np.full(n, -1, dtype=np.intp)
    node_group = group_of[inverse]
    node_stride[use] = stride[node_group]
    node_radix[use] = np.asarray(radix, dtype=np.intp)[node_group]
    # a node goes left on its part's bins 0..k, k its threshold's rank there
    node_k[use] = (np.arange(len(distinct)) - first[group_of])[inverse]
    left = np.arange(n)
    right = np.arange(n)
    inner = np.flatnonzero(internal)
    left[inner] = inner + 1
    right[inner] = inner + 1 + size[inner + 1]
    cell_unit = np.repeat(np.arange(len(units)), n_cells)
    start = np.cumsum(n_cells) - n_cells
    cell = np.arange(len(cell_unit)) - start[cell_unit]
    node = np.asarray(units, dtype=np.intp)[cell_unit]
    for _ in range(_TABLE_LEVELS):
        go_left = (cell // node_stride[node]) % node_radix[node] <= node_k[node]
        node = np.where(go_left, left[node], right[node])
    cells = learning_rate * np.array(value_l, dtype=np.float64)[node]

    # grid bin -> stride * own bin, for every (part, feature) at once
    maps: list[list] = [[] for _ in units]
    for f, grid in grids.items():
        gs = np.flatnonzero(g_feature == f)
        if not len(gs):
            continue
        on_f = np.flatnonzero(g_feature[group_of] == f)
        # cell indices stay below 2**7, so uint8 maps suffice: an eighth of
        # the memory of intp ones, and no slower to gather
        own = np.zeros((len(gs), len(grid) + 1), dtype=np.uint8)
        own[np.searchsorted(gs, group_of[on_f]), distinct[on_f] % n_bin + 1] = 1
        np.cumsum(own, axis=1, out=own)
        own *= stride[gs, None].astype(np.uint8)
        for row, g in zip(own, gs.tolist()):
            maps[g_unit[g]].append((f, row))

    tables = [
        _Table(maps[u], cells[start[u] : start[u] + n_cells[u]]) for u in range(len(units))
    ]

    def resolve(p):
        if isinstance(p, _Split):
            return p._replace(left=resolve(p.left), right=resolve(p.right))
        return tables[p]

    return _Compiled(list(trees), learning_rate, grids, [resolve(p) for p in parts])


def _part_values(part: Union[_Table, _Split], bins: dict[int, np.ndarray]):
    """``learning_rate * leaf value`` of a tree or part, for every row."""
    if isinstance(part, _Split):
        return np.where(
            bins[part.feature] <= part.bin,
            _part_values(part.left, bins),
            _part_values(part.right, bins),
        )
    if not part.maps:
        return part.cells[0]
    (f, m), *rest = part.maps
    cell = m[bins[f]]
    for f, m in rest:
        cell += m[bins[f]]
    return part.cells.take(cell)


def _bin_feature(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A feature's increasing thresholds, at most ``MAX_THRESHOLDS``, and
    each row's bin: the number of thresholds below its value."""
    v = np.sort(x)
    gaps = _runs(v)[1][1:]      # sorted positions just above each value gap
    if len(gaps) > MAX_THRESHOLDS:
        # the gaps at or just above the row quantiles
        at = np.arange(1, MAX_THRESHOLDS + 1) * (len(v) / (MAX_THRESHOLDS + 1))
        picked = np.minimum(np.searchsorted(gaps, at), len(gaps) - 1)
        gaps = gaps[picked[_runs(picked)[1]]]
    lo, hi = v[gaps - 1], v[gaps]
    mid = 0.5 * (lo + hi)
    cuts = np.where((lo <= mid) & (mid < hi), mid, lo)
    return cuts, np.searchsorted(cuts, x, side="left").astype(np.uint8)


def _best_split(sums: np.ndarray, counts: np.ndarray):
    """Return (feature, bin) of the best SSE-reducing split of a node from
    its (F, B) gradient-sum and row-count histograms, rows in that bin or
    below going left; None when no split reduces the squared residuals."""
    left_sum = np.cumsum(sums, axis=1)
    left_n = np.cumsum(counts, axis=1)
    total, n = left_sum[:, -1:], left_n[:, -1:]
    # a split ends on a bin holding rows of the node and leaves rows right;
    # one after an empty bin repeats a partition at a higher threshold
    valid = (counts > 0) & (left_n < n)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = left_sum**2 / left_n + (total - left_sum) ** 2 / (n - left_n) - total**2 / n
    gain[~valid] = -np.inf
    # deterministic tie-break: argmax returns the first maximum in C order,
    # the lowest feature index, then the lowest threshold
    f, k = divmod(int(np.argmax(gain)), gain.shape[1])
    if not gain[f, k] > _MIN_GAIN:        # also catches no valid split (-inf)
        return None
    return f, k


def _build_tree(keys, cuts, n_bins, grad, hess, fitted, max_depth, min_samples_leaf) -> TreeNode:
    """Grow one tree over binned rows: ``keys`` (N, F) holds each row's
    ``feature * n_bins + bin``, ``cuts[f]`` feature f's thresholds. Each leaf
    writes its value into ``fitted`` for its rows, saving a prediction pass.
    """
    n_feat = keys.shape[1]

    def histograms(idx: np.ndarray):
        k = keys[idx].ravel()
        sums = np.bincount(k, weights=np.repeat(grad[idx], n_feat), minlength=n_feat * n_bins)
        counts = np.bincount(k, minlength=n_feat * n_bins)
        return sums.reshape(n_feat, n_bins), counts.reshape(n_feat, n_bins)

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

    def build(idx: np.ndarray, hist, d: int) -> TreeNode:
        if hist is None or len(idx) < 2 * min_samples_leaf:
            return leaf(idx)
        split = _best_split(*hist)
        if split is None:
            return leaf(idx)
        f, k = split
        go_left = keys[idx, f] <= f * n_bins + k
        li, ri = idx[go_left], idx[~go_left]
        if len(li) < min_samples_leaf or len(ri) < min_samples_leaf:
            return leaf(idx)
        hists = [None, None]
        if d + 1 < max_depth:
            # count the smaller child; the larger one is its parent minus it
            small = int(len(ri) < len(li))
            hists[small] = histograms((li, ri)[small])
            sums, counts = hist[0] - hists[small][0], hist[1] - hists[small][1]
            sums[counts == 0] = 0.0     # no rounding residue in empty bins
            hists[1 - small] = sums, counts
        return TreeNode(
            feature=f,
            threshold=float(cuts[f][k]),
            left=build(li, hists[0], d + 1),
            right=build(ri, hists[1], d + 1),
        )

    return build(np.arange(len(keys)), histograms(slice(None)), 0)


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
    # built by the first prediction; rebuilt when the list of trees or the
    # learning rate changes (a tree's nodes are not edited in place)
    _compiled: Optional[_Compiled] = field(default=None, init=False, repr=False, compare=False)

    def raw_predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        compiled = self._compiled
        if (
            compiled is None
            or compiled.trees != self.trees
            or compiled.learning_rate != self.learning_rate
        ):
            compiled = self._compiled = _compile(self.trees, self.learning_rate)
        bins = {f: np.searchsorted(grid, X[:, f]) for f, grid in compiled.grids.items()}
        # the same terms, learning_rate * leaf value, added in tree order
        out = np.full(len(X), self.base_prediction, dtype=np.float64)
        for part in compiled.parts:
            out += _part_values(part, bins)
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
        """The ensemble a ``to_dict`` document describes; a malformed field
        raises ``MissingArtifactError`` naming it (and its tree)."""
        mode = _artifact_field(
            obj, "mode", lambda v: v in (MODE_REGRESSION, MODE_CLASSIFICATION),
            f"{MODE_REGRESSION!r} or {MODE_CLASSIFICATION!r}",
        )
        learning_rate = _artifact_field(
            obj, "learning_rate", lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"
        )
        max_depth = _artifact_field(obj, "max_depth", lambda v: _is_int(v) and v >= 1, "an integer of at least 1")
        base = _artifact_field(obj, "base_prediction", _is_real, "a finite number")
        n_features = _artifact_field(obj, "n_features", lambda v: _is_int(v) and v >= 1, "an integer of at least 1")
        trees = []
        for i, tree in enumerate(_artifact_field(obj, "trees", lambda v: isinstance(v, list), "a list")):
            try:
                if not isinstance(tree, dict):
                    raise MissingArtifactError(f"expected a tree node object, got {tree!r:.60}")
                trees.append(TreeNode.from_dict(tree, n_features))
            except MissingArtifactError as exc:
                raise MissingArtifactError(f"tree {i}: {exc}") from None
        return cls(
            mode=mode,
            learning_rate=float(learning_rate),
            max_depth=max_depth,
            base_prediction=float(base),
            n_features=n_features,
            trees=trees,
            train_loss_curve=_artifact_curve(obj),
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
    # X is fixed across stages: bin every feature once
    cuts, bins = zip(*(_bin_feature(x) for x in X.T))
    n_bins = max(len(c) for c in cuts) + 1
    keys = np.stack(bins, axis=1) + np.arange(X.shape[1]) * n_bins
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
            keys, cuts, n_bins, grad, hess, fitted, config.max_depth, config.min_samples_leaf
        )
        raw = raw + config.learning_rate * fitted
        model.trees.append(tree)
        model.train_loss_curve.append(loss(raw))
    return model
