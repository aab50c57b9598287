"""Independent brute-force oracles used to check package results.

Everything here is written with plain loops and math.fsum so it shares
no code path with the package's Kahan reductions. The cap sampler
rejects uniform directions instead of inverting the cap's CDF.
"""

from __future__ import annotations

import math

import numpy as np


def _rows(dataset, concept):
    """(prediction, concept value, weight) per row, in row order."""
    return list(zip(dataset.predictions, dataset.column(concept), dataset.weights))


def naive_symmetric(dataset, concept):
    return math.fsum(
        weight * prediction * value for prediction, value, weight in _rows(dataset, concept)
    )


def naive_class_conditioned(dataset, concept):
    members = [row for row in _rows(dataset, concept) if row[0] == 1]
    total = math.fsum(weight for _, _, weight in members)
    if not members or total <= 0.0:
        return None
    return math.fsum(weight * value for _, value, weight in members) / total


def naive_concept_conditioned(dataset, concept, theta):
    members = [row for row in _rows(dataset, concept) if row[1] >= theta]
    total = math.fsum(weight for _, _, weight in members)
    if not members or total <= 0.0:
        return None
    return math.fsum(weight * prediction for prediction, _, weight in members) / total


def naive_completeness(dataset, concept):
    """Max weighted agreement over the four level-to-class decoders."""
    best = None
    for out_pos in (1, -1):
        for out_neg in (1, -1):
            score = math.fsum(
                weight
                for prediction, value, weight in _rows(dataset, concept)
                if prediction == (out_pos if value == 1.0 else out_neg)
            )
            if best is None or score > best:
                best = score
    return best


def naive_vote_metrics(records, k):
    labels = ["present" if r.yes_count >= k else "absent" for r in records]
    correct = sum(1 for label, r in zip(labels, records) if label == r.true_label)
    present = [(label, r) for label, r in zip(labels, records) if r.true_label == "present"]
    recall = (
        sum(1 for label, _ in present if label == "present") / len(present)
        if present
        else None
    )
    return correct / len(records), recall


def naive_macro_f1(pairs):
    labels = sorted({p for p, _ in pairs} | {t for _, t in pairs})
    scores = []
    for label in labels:
        tp = sum(1 for p, t in pairs if p == label and t == label)
        fp = sum(1 for p, t in pairs if p == label and t != label)
        fn = sum(1 for p, t in pairs if p != label and t == label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return math.fsum(scores) / len(labels)


def rejection_cap_sample(seed, axis, theta, n):
    """n uniform points of the cap {g : axis.g >= theta}.

    Draws uniform unit vectors (normalized Gaussians) and keeps the cap
    hits, in draw order.
    """
    rng = np.random.default_rng(seed)
    kept, count = [], 0
    while count < n:
        z = rng.standard_normal((65536, len(axis)))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        kept.append(z[z @ axis >= theta])
        count += len(kept[-1])
    return np.concatenate(kept)[:n]
