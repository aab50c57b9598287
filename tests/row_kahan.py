"""Row-loop Kahan reference for bit-exactness tests.

These are the row-at-a-time reductions the package used before it held
datasets as columns: a ``KahanAccumulator`` fed one example at a time
from ``dataset.examples``, with the same products in the same order.
The columnar code must reproduce them to the last bit, so tests compare
with ``==``. (``oracles.py`` checks values with math.fsum and a
tolerance; this module checks the bits.)
"""

from __future__ import annotations

import json

from conceptscope.dataset import LabeledExample


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


def symmetric(examples, concept):
    """(value, effective_count) of the symmetric measure."""
    total = KahanAccumulator()
    weight = KahanAccumulator()
    for ex in examples:
        total.add(ex.weight * ex.prediction * ex.concepts[concept])
        weight.add(ex.weight)
    return _clamp(total.total), weight.total


def class_conditioned(examples, concept):
    """(value, effective_count, count), or None when undefined."""
    numerator = KahanAccumulator()
    denominator = KahanAccumulator()
    count = 0
    for ex in examples:
        if ex.prediction == 1:
            numerator.add(ex.weight * ex.concepts[concept])
            denominator.add(ex.weight)
            count += 1
    if count == 0 or denominator.total <= 0.0:
        return None
    return _clamp(numerator.total / denominator.total), denominator.total, count


def concept_conditioned(examples, concept, theta):
    """(value, effective_count, count), or None when undefined."""
    numerator = KahanAccumulator()
    denominator = KahanAccumulator()
    count = 0
    for ex in examples:
        if ex.concepts[concept] >= theta:
            numerator.add(ex.weight * ex.prediction)
            denominator.add(ex.weight)
            count += 1
    if count == 0 or denominator.total <= 0.0:
        return None
    return _clamp(numerator.total / denominator.total), denominator.total, count


def with_ground_truth(examples):
    """Rows with each prediction replaced by its ground-truth label."""
    return [
        LabeledExample(ex.id, ex.ground_truth, ex.concepts, ex.weight, ex.ground_truth)
        for ex in examples
    ]


def level_terms(examples, concept):
    terms = {}
    for level in (1, -1):
        weight = KahanAccumulator()
        signed = KahanAccumulator()
        for ex in examples:
            if ex.concepts[concept] == float(level):
                weight.add(ex.weight)
                signed.add(ex.weight * ex.prediction)
        if weight.total > 0.0:
            terms[level] = (abs(signed.total / weight.total), weight.total)
    return terms


def completeness(examples, concept):
    """(value, per_level_terms) of the closed form."""
    terms = level_terms(examples, concept)
    acc = KahanAccumulator()
    for level in (1, -1):
        if level in terms:
            conditional, probability = terms[level]
            acc.add(conditional * probability)
    return min(1.0, 0.5 + 0.5 * acc.total), terms


def brute_force(examples, concept):
    """Best weighted agreement over the four level-to-class decoders."""
    best = None
    for out_pos in (1, -1):
        for out_neg in (1, -1):
            agreement = KahanAccumulator()
            for ex in examples:
                decoded = out_pos if ex.concepts[concept] == 1.0 else out_neg
                if ex.prediction == decoded:
                    agreement.add(ex.weight)
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
