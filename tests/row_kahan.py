"""Row-loop Kahan reference for bit-exactness tests.

These are the row-at-a-time reductions the package used before it held
datasets as columns: a ``KahanAccumulator`` fed one row at a time, with
the same products in the same order. A row is index i of each column.
The columnar code must reproduce them to the last bit, so tests compare
with ``==``. (``oracles.py`` checks values with math.fsum and a
tolerance; this module checks the bits.)
"""

from __future__ import annotations

import json

from conceptscope.dataset import ConceptDataset


class KahanAccumulator:
    """Running compensated sum: total plus a correction term."""

    __slots__ = ("total", "_correction")

    def __init__(self) -> None:
        self.total = 0.0
        self._correction = 0.0

    def add(self, value: float) -> None:
        # Classic Kahan step: fold the previous rounding loss back in.
        adjusted = value - self._correction
        new_total = self.total + adjusted
        self._correction = (new_total - self.total) - adjusted
        self.total = new_total


def kahan_sum(values):
    acc = KahanAccumulator()
    for v in values:
        acc.add(v)
    return acc.total


def _clamp(value):
    return min(1.0, max(-1.0, value))


def _rows(dataset, concept):
    """(prediction, concept value, weight) per row, in row order."""
    return zip(dataset.predictions, dataset.column(concept), dataset.weights)


def symmetric(dataset, concept):
    """(value, effective_count) of the symmetric measure."""
    total = KahanAccumulator()
    weight_sum = KahanAccumulator()
    for prediction, value, weight in _rows(dataset, concept):
        total.add(weight * prediction * value)
        weight_sum.add(weight)
    return _clamp(total.total), weight_sum.total


def class_conditioned(dataset, concept):
    """(value, effective_count, count), or None when undefined."""
    numerator = KahanAccumulator()
    denominator = KahanAccumulator()
    count = 0
    for prediction, value, weight in _rows(dataset, concept):
        if prediction == 1:
            numerator.add(weight * value)
            denominator.add(weight)
            count += 1
    if count == 0 or denominator.total <= 0.0:
        return None
    return _clamp(numerator.total / denominator.total), denominator.total, count


def concept_conditioned(dataset, concept, theta):
    """(value, effective_count, count), or None when undefined."""
    numerator = KahanAccumulator()
    denominator = KahanAccumulator()
    count = 0
    for prediction, value, weight in _rows(dataset, concept):
        if value >= theta:
            numerator.add(weight * prediction)
            denominator.add(weight)
            count += 1
    if count == 0 or denominator.total <= 0.0:
        return None
    return _clamp(numerator.total / denominator.total), denominator.total, count


def with_ground_truth(dataset):
    """The dataset with each prediction replaced by its ground-truth label."""
    return ConceptDataset(
        dataset.ids,
        dataset.ground_truth,
        {name: dataset.column(name) for name in dataset.concept_names},
        dataset.weights,
        dataset.ground_truth,
    )


def level_terms(dataset, concept):
    terms = {}
    for level in (1, -1):
        weight_sum = KahanAccumulator()
        signed = KahanAccumulator()
        for prediction, value, weight in _rows(dataset, concept):
            if value == float(level):
                weight_sum.add(weight)
                signed.add(weight * prediction)
        if weight_sum.total > 0.0:
            terms[level] = (abs(signed.total / weight_sum.total), weight_sum.total)
    return terms


def completeness(dataset, concept):
    """(value, per_level_terms) of the closed form."""
    terms = level_terms(dataset, concept)
    acc = KahanAccumulator()
    for level in (1, -1):
        if level in terms:
            conditional, probability = terms[level]
            acc.add(conditional * probability)
    return min(1.0, 0.5 + 0.5 * acc.total), terms


def brute_force(dataset, concept):
    """Best weighted agreement over the four level-to-class decoders."""
    best = None
    for out_pos in (1, -1):
        for out_neg in (1, -1):
            agreement = KahanAccumulator()
            for prediction, value, weight in _rows(dataset, concept):
                decoded = out_pos if value == 1.0 else out_neg
                if prediction == decoded:
                    agreement.add(weight)
            if best is None or agreement.total > best:
                best = agreement.total
    return min(1.0, best)


def normalized_weights(data: bytes):
    """The weight column ``load_dataset`` must produce from JSONL ``data``."""
    objs = [json.loads(line) for line in data.decode("utf-8").split("\n") if line.strip()]
    uniform = 1.0 / len(objs)
    raw = [
        float(obj["weight"]) if obj.get("weight") is not None else uniform for obj in objs
    ]
    total = kahan_sum(raw)
    return [w / total for w in raw], total
