"""Gradient-boosted regression trees, built from scratch on numpy.

Two modes share the tree machinery: squared-error regression (leaf values
are residual means) and binary logistic classification (leaf values are
single Newton steps on the log-odds). A tree is the node object its
artifact stores, from the fit on: a leaf ``{"value": v}``, or a split
``{"feature": f, "threshold": t, "left": node, "right": node}`` that sends
the rows with ``x[f] <= t`` left.

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

Prediction is compiled and exact. The first ``predict`` lays each tree out
as a complete heap of three levels, seven comparison slots over eight leaf
slots, and tabulates it by the set of slots that send a row right, one bit
per slot, as QuickScorer's bitvectors do (Lucchese et al., SIGIR 2015):
each of the 128 cells holds ``learning_rate * leaf value`` of the leaf its
bits lead to. A prediction bins every used feature once against the
ensemble's sorted thresholds, with ``searchsorted(side="left")`` so that
bin <= k exactly when x <= t_k (NaN and +inf go right at every node, as
``x <= threshold`` sends them). A per-feature map turns a row's bin into
the bits of that feature's slots, a tree's cell index is the sum of its
maps' gathers, and the cells are added in tree order: the same doubles in
the same order as a node-by-node walk, so predictions are bit-identical to
it. A tree taller than three levels is split at its root until its parts
fit a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .config import _LOSS_CURVE, _RATE, _Rule, _check_fields, _choice, _int, _is_real, _real, _shown
from .errors import DataError, MissingArtifactError

MODE_REGRESSION = "squared_error_regression"
MODE_CLASSIFICATION = "logistic_classification"

# Newton leaf steps are clipped to keep log-odds updates bounded.
_MAX_LEAF_LOGIT = 4.0
_MIN_GAIN = 1e-12
# thresholds per feature and fit, so a row's bin (0..255) fits a uint8
MAX_THRESHOLDS = 255
# every fit's shrinkage; an ensemble still records its own rate
LEARNING_RATE = 0.1


def _checked_node(node: dict, n_features: int) -> dict:
    """A new copy of the tree ``node``, its numbers as floats. A missing
    field, a value that is not a finite number or a split feature outside
    ``[0, n_features)`` raises ``MissingArtifactError`` naming the field.
    The checks are inline: a load walks every node of every tree."""
    if "value" in node:
        value = node["value"]
        if not _is_real(value):
            raise MissingArtifactError(f"value must be a finite number, got {_shown(value)}")
        return {"value": float(value)}
    try:
        feature, threshold, left, right = node["feature"], node["threshold"], node["left"], node["right"]
    except KeyError as exc:
        raise MissingArtifactError(f"missing key {exc.args[0]}") from None
    if type(feature) is not int or not 0 <= feature < n_features:
        raise MissingArtifactError(
            f"feature must be an integer in [0, {n_features}), got {_shown(feature)}"
        )
    if not _is_real(threshold):
        raise MissingArtifactError(f"threshold must be a finite number, got {_shown(threshold)}")
    if not (isinstance(left, dict) and isinstance(right, dict)):
        raise MissingArtifactError("left and right must be tree node objects")
    return {
        "feature": feature,
        "threshold": float(threshold),
        "left": _checked_node(left, n_features),
        "right": _checked_node(right, n_features),
    }


# A (sub)tree of at most this many levels is laid out as a complete heap of
# 2**3 - 1 = 7 comparison slots over 8 leaf slots. Its table has one cell per
# set of slots that send a row right, 2**7 = 128, so a cell index fits a
# uint8; a taller tree is split at its root until its parts are this short.
_TABLE_LEVELS = 3
_SLOTS = 2**_TABLE_LEVELS - 1

# the leaf slot each cell reaches from the root, bit s sending slot s right
_LEAF_OF_CELL = np.zeros(2**_SLOTS, dtype=np.intp)
for _ in range(_TABLE_LEVELS):
    _LEAF_OF_CELL = 2 * _LEAF_OF_CELL + 1 + (np.arange(2**_SLOTS) >> _LEAF_OF_CELL & 1)
_LEAF_OF_CELL -= _SLOTS


class _Table(NamedTuple):
    """A (sub)tree as one lookup table: its value for a row is
    ``cells[sum(m[bins[f]] for f, m in maps)]``."""

    maps: list          # (feature, ensemble grid bin -> bits of its slots that send the row right)
    cells: np.ndarray   # learning_rate * the value of the leaf each cell reaches


class _Split(NamedTuple):
    """A tree too tall to tabulate: its root split over two parts."""

    feature: int
    bin: int            # rows go left where their grid bin is at most this (-1 at a NaN threshold)
    left: Union[_Table, "_Split"]
    right: Union[_Table, "_Split"]


@dataclass
class _Compiled:
    """An ensemble's trees as exact lookup tables over its threshold grid:
    ``grids[f]`` holds feature f's sorted distinct thresholds over all
    trees, ``parts`` one ``_Table`` or ``_Split`` per tree, in tree order."""

    trees: list[dict]
    learning_rate: float
    grids: dict[int, np.ndarray]
    parts: list[Union[_Table, _Split]]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted ``keys``: each key's run of equal keys, and each run's start.

    (``np.unique`` would import ``numpy.ma`` on first use, about 1 MB of
    resident memory that scoring never needs.)
    """
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _compile(trees: list[dict], learning_rate: float) -> _Compiled:
    nodes = []      # (table, or -1 at a split root; heap slot; feature; threshold)
    leaves = []     # each table's leaf slot values

    def lay(nd: dict, slot: int, leaf: list) -> bool:
        """Lay ``nd`` out from heap ``slot`` on; False when it is too tall."""
        if slot >= _SLOTS:
            leaf[slot - _SLOTS] = nd.get("value")
            return "value" in nd
        # a leaf, or a NaN threshold (which sends every row right), is a
        # slot with no comparison over two copies of one subtree
        left = right = nd
        if "value" not in nd:
            nodes.append((len(leaves), slot, nd["feature"], nd["threshold"]))
            left, right = (nd["right"] if math.isnan(nd["threshold"]) else nd["left"]), nd["right"]
        return lay(left, 2 * slot + 1, leaf) and lay(right, 2 * slot + 2, leaf)

    def part(nd: dict):
        """A table's index, or (node index, left part, right part)."""
        mark, leaf = len(nodes), [0.0] * (_SLOTS + 1)
        if lay(nd, 0, leaf):
            leaves.append(leaf)
            return len(leaves) - 1
        del nodes[mark:]
        nodes.append((-1, 0, nd["feature"], nd["threshold"]))
        return len(nodes) - 1, part(nd["left"]), part(nd["right"])

    parts = [part(tree) for tree in trees]
    cols = np.array(nodes, dtype=np.float64).reshape(-1, 4).T
    table, slot, feature = cols[:3].astype(np.intp)
    threshold = cols[3]
    comparable = ~np.isnan(threshold)

    # per feature: the ensemble's grid, each threshold's index k on it, and
    # each table's map, the OR of the bits of its slots that send bins > k right
    grids = {}
    k = np.full(len(nodes), -1, dtype=np.intp)
    maps: list[list] = [[] for _ in leaves]
    for f in sorted(set(feature.tolist())):
        on_f = comparable & (feature == f)
        ts = np.sort(threshold[on_f])
        grids[f] = ts[_runs(ts)[1]]
        k[on_f] = np.searchsorted(grids[f], threshold[on_f])
        tabled = np.flatnonzero(on_f & (table >= 0))
        if not len(tabled):
            continue
        row, first = _runs(table[tabled])
        own = np.zeros((len(first), len(grids[f]) + 1), dtype=np.uint8)
        np.bitwise_or.at(own, (row, k[tabled] + 1), (1 << slot[tabled]).astype(np.uint8))
        np.bitwise_or.accumulate(own, axis=1, out=own)
        for t, m in zip(table[tabled][first].tolist(), own):
            maps[t].append((f, m))

    # take, not fancy indexing, keeps each table's cells C-contiguous
    values = np.array(leaves, dtype=np.float64).reshape(-1, _SLOTS + 1)
    tables = [_Table(m, c) for m, c in zip(maps, learning_rate * values.take(_LEAF_OF_CELL, axis=1))]

    def resolve(p):
        if isinstance(p, tuple):
            i, left, right = p
            return _Split(int(feature[i]), int(k[i]), resolve(left), resolve(right))
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


def _build_tree(keys, cuts, n_bins, grad, hess, fitted, max_depth) -> dict:
    """Grow one tree over binned rows: ``keys`` (N, F) holds each row's
    ``feature * n_bins + bin``, ``cuts[f]`` feature f's thresholds. Each leaf
    writes its value into ``fitted`` for its rows, saving a prediction pass.
    A one-row node has no split (``_best_split``), and a split leaves rows
    on both sides.
    """
    n_feat = keys.shape[1]

    def histograms(idx: np.ndarray):
        k = keys[idx].ravel()
        sums = np.bincount(k, weights=np.repeat(grad[idx], n_feat), minlength=n_feat * n_bins)
        counts = np.bincount(k, minlength=n_feat * n_bins)
        return sums.reshape(n_feat, n_bins), counts.reshape(n_feat, n_bins)

    def leaf(idx: np.ndarray) -> dict:
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
        return {"value": value}

    def build(idx: np.ndarray, hist, d: int) -> dict:
        if hist is None:
            return leaf(idx)
        split = _best_split(*hist)
        if split is None:
            return leaf(idx)
        f, k = split
        go_left = keys[idx, f] <= f * n_bins + k
        li, ri = idx[go_left], idx[~go_left]
        hists = [None, None]
        if d + 1 < max_depth:
            # count the smaller child; the larger one is its parent minus it
            small = int(len(ri) < len(li))
            hists[small] = histograms((li, ri)[small])
            sums, counts = hist[0] - hists[small][0], hist[1] - hists[small][1]
            sums[counts == 0] = 0.0     # no rounding residue in empty bins
            hists[1 - small] = sums, counts
        return {
            "feature": f,
            "threshold": float(cuts[f][k]),
            "left": build(li, hists[0], d + 1),
            "right": build(ri, hists[1], d + 1),
        }

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
    trees: list[dict] = field(default_factory=list)
    train_loss_curve: list[float] = field(default_factory=list)
    # built by the first prediction; rebuilt when the list of trees or the
    # learning rate changes (a tree's nodes are not edited in place)
    _compiled: Optional[_Compiled] = field(default=None, init=False, repr=False, compare=False)

    def raw_predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError(f"X must be a 2-D (rows, {self.n_features}) array, got shape {X.shape}")
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
        """The artifact's model object; it holds the ensemble's own trees."""
        return {
            "mode": self.mode,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "base_prediction": self.base_prediction,
            "n_features": self.n_features,
            "trees": self.trees,
            "train_loss_curve": self.train_loss_curve,
        }

    @classmethod
    def from_dict(cls, obj: dict, where: str = "model") -> "BoostedEnsemble":
        """The ensemble a ``to_dict`` document describes, holding checked
        copies of its trees, so ``obj`` is left as it was; a field that fails
        ``_ENSEMBLE_RULES``, or a malformed tree node, raises
        ``MissingArtifactError`` naming ``where``, the field (and its tree)."""
        values = _check_fields(obj, _ENSEMBLE_RULES, MissingArtifactError, where, unknown_ok=True)
        trees = values["trees"]
        for i, tree in enumerate(trees):
            try:
                trees[i] = _checked_node(tree, values["n_features"])
            except MissingArtifactError as exc:
                raise MissingArtifactError(f"{where}: tree {i}: {exc}") from None
        return cls(**values)


_ENSEMBLE_RULES = {
    "mode": _choice((MODE_REGRESSION, MODE_CLASSIFICATION)),
    "learning_rate": _RATE,
    "max_depth": _int(1),
    "base_prediction": _real(),
    "n_features": _int(1),
    "trees": _Rule(lambda v: isinstance(v, list) and all(isinstance(t, dict) for t in v),
                   "a list of tree node objects", convert=list),
    "train_loss_curve": _LOSS_CURVE,
}


# a fit's own field, and those its ensemble records
_BOOST_RULES = {"n_stages": _int(1), **{name: _ENSEMBLE_RULES[name] for name in ("max_depth", "mode")}}


def fit_boosted(
    X: np.ndarray, y: np.ndarray, *, n_stages: int = 100, max_depth: int = 3, mode: str = MODE_REGRESSION
) -> BoostedEnsemble:
    """Fit a boosted ensemble of at most ``n_stages`` trees of depth at most
    ``max_depth`` at ``LEARNING_RATE``; stops early once residuals are
    exhausted.

    Regression tracks per-stage training MSE, classification per-stage
    log-loss; both curves are stored on the model and are nonincreasing.
    A budget that fails ``_BOOST_RULES`` raises ``DataError`` naming the
    field before the data are read.
    """
    _check_fields({"n_stages": n_stages, "max_depth": max_depth, "mode": mode}, _BOOST_RULES, DataError,
                  "boost config")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"X must be a 2-D (rows, features) array, got shape {X.shape}")
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

    classification = mode == MODE_CLASSIFICATION
    if classification:
        labels = set(np.unique(y).tolist())
        if not labels <= {0.0, 1.0}:
            raise DataError(f"classification targets must be 0/1, got {sorted(labels)}")
        p0 = float(np.clip(np.mean(y), 1e-6, 1 - 1e-6))
        base = float(np.log(p0 / (1 - p0)))
    else:
        base = float(np.mean(y))

    model = BoostedEnsemble(
        mode=mode,
        learning_rate=LEARNING_RATE,
        max_depth=max_depth,
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
    for _ in range(n_stages):
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
        tree = _build_tree(keys, cuts, n_bins, grad, hess, fitted, max_depth)
        raw = raw + LEARNING_RATE * fitted
        model.trees.append(tree)
        model.train_loss_curve.append(loss(raw))
    return model
