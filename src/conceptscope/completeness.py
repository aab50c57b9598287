"""Completeness score of a binary concept for a binary predictor.

The score is the best achievable probability of reconstructing the
prediction from the concept value alone. Two independent routes are
provided:

* ``completeness_closed_form`` evaluates
      1/2 + 1/2 * sum over levels l in {+1,-1} of
                  |E[h(x) | c(x) = l]| * Pr(c(x) = l)
* ``completeness_brute_force`` enumerates all four decoders
  {concept level} -> {predicted class} and takes the maximum weighted
  agreement with h.

The two must agree to 1e-12 on every binary dataset. The closed form
reduces over the dataset's columns; the brute force sums each
decoder's agreeing weights row by row and shares no intermediate with
the closed form, so it serves as the oracle for that identity. Every
sum is a ``math.fsum``, correctly rounded and so independent of row
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError

CLOSED_FORM = "closed_form"
BRUTE_FORCE = "brute_force"

_LEVELS = (1, -1)


@dataclass(frozen=True)
class CompletenessScore:
    """Score value in [1/2, 1] plus the per-level breakdown.

    ``per_level_terms`` maps a concept level l to
    (|E[h | c = l]|, Pr(c = l)); levels with zero probability are
    omitted.
    """

    value: float
    per_level_terms: dict[int, tuple[float, float]]
    method: str


def _binary_column(dataset: ConceptDataset, concept: str) -> memoryview:
    """The concept's column, a read-only view of doubles that must hold only -1.0 and +1.0."""
    column = dataset.column(concept)
    if not set(column) <= {-1.0, 1.0}:
        index = next(i for i, value in enumerate(column) if value not in (-1.0, 1.0))
        raise DomainError(
            f"concept {concept!r} has non-binary value {column[index]!r} on example"
            f" {dataset.ids[index]!r}; binarize the concept to {{-1,+1}} first"
        )
    return column


def _level_terms(column: memoryview, dataset: ConceptDataset) -> dict[int, tuple[float, float]]:
    terms: dict[int, tuple[float, float]] = {}
    for level in _LEVELS:
        mask = [value == float(level) for value in column]
        weight = math.fsum(compress(dataset.weights, mask))
        if weight > 0.0:
            signed = math.fsum(compress(dataset.signed_weights, mask))
            terms[level] = (abs(signed / weight), weight)
    return terms


def completeness_closed_form(dataset: ConceptDataset, concept: str) -> CompletenessScore:
    """Evaluate the closed form over the two concept levels."""
    terms = _level_terms(_binary_column(dataset, concept), dataset)
    total = math.fsum(
        conditional * probability for conditional, probability in terms.values()
    )
    return CompletenessScore(
        value=min(1.0, 0.5 + 0.5 * total),
        per_level_terms=terms,
        method=CLOSED_FORM,
    )


def completeness_brute_force(dataset: ConceptDataset, concept: str) -> CompletenessScore:
    """Maximize agreement over all four level-to-class decoders.

    A decoder assigns an output in {-1,+1} to each concept level; the
    score of a decoder is the total weight of examples whose prediction
    it reproduces. Includes the two constant decoders, so the result is
    always at least the majority-class probability.
    """
    column = _binary_column(dataset, concept)
    best: float | None = None
    for out_pos in (1, -1):
        for out_neg in (1, -1):
            total = math.fsum(
                weight
                for prediction, value, weight in zip(dataset.predictions, column, dataset.weights)
                if prediction == (out_pos if value == 1.0 else out_neg)
            )
            if best is None or total > best:
                best = total
    assert best is not None
    return CompletenessScore(
        value=min(1.0, best),
        per_level_terms=_level_terms(column, dataset),
        method=BRUTE_FORCE,
    )
