"""Independent brute-force oracles used to check package results.

The measure and completeness oracles sum the same float products as the
package ((w*h)*c, w*c, w*h and weights) as exact ``fractions.Fraction``
values and round the total once, with plain loops. The package's
``math.fsum`` is correctly rounded, so its sums must equal these bit for
bit, and tests compare them with ``==``. No summation algorithm is
shared. The cap sampler rejects uniform directions instead of inverting
the cap's CDF, and the cap mass of an odd dim is a binomial tail summed
as ``Fraction``s instead of a hypergeometric series.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def exact_sum(values):
    """The float nearest the exact sum of ``values``: one rounding, at the end."""
    total = Fraction(0)
    for value in values:
        total += Fraction(value)
    return float(total)


def _clamp(value):
    return min(1.0, max(-1.0, value))


def _rows(dataset, concept):
    """(prediction, concept value, weight) per row, in row order."""
    return list(zip(dataset.predictions, dataset.column(concept), dataset.weights))


def _conditional(members, product):
    """(mean of ``product`` over the (h, c, w) ``members``, their weight), or None."""
    total = exact_sum(weight for _, _, weight in members)
    if not members or total <= 0.0:
        return None
    return _clamp(exact_sum(product(*row) for row in members) / total), total


def naive_symmetric(dataset, concept):
    """(value, effective_count) of the symmetric measure."""
    rows = _rows(dataset, concept)
    value = exact_sum(weight * prediction * value for prediction, value, weight in rows)
    return _clamp(value), exact_sum(weight for _, _, weight in rows)


def naive_class_conditioned(dataset, concept):
    """(value, effective_count), or None where the measure is undefined."""
    return _conditional(
        [row for row in _rows(dataset, concept) if row[0] == 1],
        lambda prediction, value, weight: weight * value,
    )


def naive_concept_conditioned(dataset, concept, theta):
    """(value, effective_count), or None where the measure is undefined."""
    return _conditional(
        [row for row in _rows(dataset, concept) if row[1] >= theta],
        lambda prediction, value, weight: weight * prediction,
    )


def naive_closed_form(dataset, concept):
    """(value, per_level_terms) of the completeness closed form."""
    terms = {}
    for level in (1, -1):
        members = [row for row in _rows(dataset, concept) if row[1] == level]
        weight = exact_sum(weight for _, _, weight in members)
        if weight > 0.0:
            signed = exact_sum(weight * prediction for prediction, _, weight in members)
            terms[level] = (abs(signed / weight), weight)
    total = exact_sum(conditional * probability for conditional, probability in terms.values())
    return min(1.0, 0.5 + 0.5 * total), terms


def naive_completeness(dataset, concept):
    """Max weighted agreement over the four level-to-class decoders."""
    best = None
    for out_pos in (1, -1):
        for out_neg in (1, -1):
            score = exact_sum(
                weight
                for prediction, value, weight in _rows(dataset, concept)
                if prediction == (out_pos if value == 1.0 else out_neg)
            )
            if best is None or score > best:
                best = score
    return min(1.0, best)


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


def binomial_cap_mass(dim, x):
    """I_x(a, a), a = (dim - 1)/2, for odd dim at the rational x, rounded once.

    With a an integer, I_x(a, a) = P[Binomial(2a - 1, x) >= a], a finite
    sum that is exact in ``Fraction``s.
    """
    assert dim % 2 == 1 and dim >= 3
    a, x = (dim - 1) // 2, Fraction(x)
    n = 2 * a - 1
    return float(sum(math.comb(n, k) * x**k * (1 - x) ** (n - k) for k in range(a, n + 1)))
