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

The two must agree to 1e-12 on every binary dataset; the brute force
shares no intermediate with the closed form, so it serves as the
oracle for that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError
from conceptscope.measures import _require_concept
from conceptscope.numerics import KahanAccumulator

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


def _require_binary(dataset: ConceptDataset, concept: str) -> None:
    _require_concept(dataset, concept)
    for ex in dataset.examples:
        value = ex.concepts[concept]
        if value not in (-1.0, 1.0):
            raise DomainError(
                f"concept {concept!r} has non-binary value {value!r} on example"
                f" {ex.id!r}; binarize the concept to {{-1,+1}} first"
            )


def _level_terms(
    dataset: ConceptDataset, concept: str
) -> dict[int, tuple[float, float]]:
    terms: dict[int, tuple[float, float]] = {}
    for level in _LEVELS:
        weight = KahanAccumulator()
        signed = KahanAccumulator()
        for ex in dataset.examples:
            if ex.concepts[concept] == float(level):
                weight.add(ex.weight)
                signed.add(ex.weight * ex.prediction)
        if weight.total > 0.0:
            terms[level] = (abs(signed.total / weight.total), weight.total)
    return terms


def completeness_closed_form(dataset: ConceptDataset, concept: str) -> CompletenessScore:
    """Evaluate the closed form over the two concept levels."""
    _require_binary(dataset, concept)
    terms = _level_terms(dataset, concept)
    acc = KahanAccumulator()
    for level in _LEVELS:
        if level in terms:
            conditional, probability = terms[level]
            acc.add(conditional * probability)
    return CompletenessScore(
        value=min(1.0, 0.5 + 0.5 * acc.total),
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
    _require_binary(dataset, concept)
    best: float | None = None
    for out_pos in (1, -1):
        for out_neg in (1, -1):
            agreement = KahanAccumulator()
            for ex in dataset.examples:
                decoded = out_pos if ex.concepts[concept] == 1.0 else out_neg
                if ex.prediction == decoded:
                    agreement.add(ex.weight)
            if best is None or agreement.total > best:
                best = agreement.total
    assert best is not None
    return CompletenessScore(
        value=min(1.0, best),
        per_level_terms=_level_terms(dataset, concept),
        method=BRUTE_FORCE,
    )
