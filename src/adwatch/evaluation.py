"""Frame-level metrics and the ablation harness.

The inattentive frame is the positive class throughout. G-mean is the
geometric mean of the true positive and true negative rates; when one rate
has a zero denominator (single-class ground truth) the metric is reported
as absent rather than silently zero. ROC-AUC is the Mann-Whitney statistic
P(score+ > score-) + 0.5 P(tie), computed from average ranks.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .pipeline import FULL_VARIANT, SessionDetectors, score_session


def frame_metrics(predicted_inattentive: np.ndarray, true_inattentive: np.ndarray) -> dict:
    """The confusion counts, rates, g-mean and F1 of the inattentive frames,
    as ``evaluation.json`` writes them per device; an undefined rate, and a
    g-mean over it, is None."""
    pred = np.asarray(predicted_inattentive, dtype=bool)
    true = np.asarray(true_inattentive, dtype=bool)
    if pred.shape != true.shape:
        raise DataError(f"prediction/truth length mismatch: {pred.shape} vs {true.shape}")
    tp = int(np.count_nonzero(pred & true))
    fp = int(np.count_nonzero(pred & ~true))
    tn = int(np.count_nonzero(~pred & ~true))
    fn = int(np.count_nonzero(~pred & true))
    tpr = tp / (tp + fn) if (tp + fn) > 0 else None
    tnr = tn / (tn + fp) if (tn + fp) > 0 else None
    g_mean = float(np.sqrt(tpr * tnr)) if tpr is not None and tnr is not None else None
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom > 0 else 0.0
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn, "tpr": tpr, "tnr": tnr, "g_mean": g_mean, "f1": float(f1)}


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of ``scores``, equal values sharing their average rank
    (each NaN ranks alone, after every number)."""
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    first = np.ones(len(ordered), dtype=bool)   # first of a run of equal values
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(ordered))
    ranks = np.empty(len(ordered), dtype=np.float64)
    # a run over sorted positions i..j (0-based) shares rank (i + 1 + j + 1) / 2
    ranks[order] = (0.5 * (starts + 1 + ends))[np.cumsum(first) - 1]
    return ranks


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC; requires both classes present."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise DataError("scores and labels length mismatch")
    n_pos = int(np.count_nonzero(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_auc needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels]))
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def pooled_report(pairs: list[tuple[np.ndarray, np.ndarray]]) -> dict:
    """Micro aggregation: concatenate all (pred, true) pairs, then score."""
    if not pairs:
        raise DataError("no sessions to aggregate")
    pred = np.concatenate([p for p, _ in pairs])
    true = np.concatenate([t for _, t in pairs])
    return frame_metrics(pred, true)


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def ablation_pairs(frames, truth, manifest, artifacts, variants, config) -> list[tuple[np.ndarray, np.ndarray]]:
    """One session's (predicted, true) inattentive masks under each of
    ``variants``, in order.

    The session is scored under every variant through one
    ``SessionDetectors``, so a detector step runs once for every setting of
    the switches it reads; the masks are all that is kept.
    """
    session = SessionDetectors(frames, manifest, artifacts, config)
    true = ~truth.attentive
    return [(~score_session(session, variant).attentive, true) for variant in variants]


def ablation_table(variants, sessions) -> dict:
    """``{"rows": [...]}``, the row of each of ``variants``: its name and its
    ``pooled_report`` per device type over ``sessions``, a list of (device
    type, ``ablation_pairs``) in session order."""
    per_variant: list[dict[str, list[tuple[np.ndarray, np.ndarray]]]] = [{} for _ in variants]
    for device, pairs in sessions:
        for per_device, pair in zip(per_variant, pairs):
            per_device.setdefault(device, []).append(pair)
    return {"rows": [
        {
            "variant": variant.name,
            "by_device": {d: pooled_report(pairs) for d, pairs in sorted(per_device.items())},
        }
        for variant, per_device in zip(variants, per_variant)
    ]}


def run_ablation(sessions, artifacts, variants, config) -> dict:
    """Score identical sessions under each variant and tabulate per device.

    ``sessions`` is a list of (frames, truth, manifest) triples; an empty
    variant list degrades to the full model alone. Only one session's
    detector steps are held at a time.
    """
    if not sessions:
        raise DataError("no sessions supplied to the ablation harness")
    variants = list(variants) or [FULL_VARIANT]
    return ablation_table(variants, [
        (manifest.device_type, ablation_pairs(frames, truth, manifest, artifacts, variants, config))
        for frames, truth, manifest in sessions
    ])


def render_table(table: dict) -> str:
    """Aligned plain-text rendering of an ``ablation_table``, one row per
    variant, g-mean and F1 per device type."""
    devices = sorted({d for row in table["rows"] for d in row["by_device"]})
    header = ["model"]
    for d in devices:
        header += [f"{d} g-mean", f"{d} F1"]
    lines = [header]
    for row in table["rows"]:
        cells = [row["variant"]]
        for d in devices:
            rep = row["by_device"].get(d)
            if rep is None:
                cells += ["-", "-"]
            else:
                g = f"{rep['g_mean']:.3f}" if rep["g_mean"] is not None else "n/a"
                cells += [g, f"{rep['f1']:.3f}"]
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = []
    for k, line in enumerate(lines):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if k == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
