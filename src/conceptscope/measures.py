"""The three concept-importance measures and their sampling plan.

For prediction h(x) in {-1,+1}, concept value c(x) in [-1,+1] and
probability mass p(x), the measures are

    symmetric            E[h(x) c(x)]          concept/class agreement
    class-conditioned    E[c(x) | h(x) = +1]   necessity of the concept
    concept-conditioned  E[h(x) | c(x) >= t]   sufficiency of the concept

estimated as weighted means over the dataset's columns. They differ
only in the set they condition on: all rows, {h = +1} or {c >= t}.
Each public function picks its set's numerator terms, weight mass and
row count; one kernel, ``_conditional_mean``, tests the set for
emptiness, sums, divides by the mass (the symmetric sum is its mean
already), clamps and sizes the radius, and ``measure`` dispatches on
the kind name. Each sum is a ``math.fsum`` over the IEEE products
(w*h)*c, w*c and w*h: correctly rounded (Shewchuk 1997), so the result
depends only on the weighted examples, not on their order, and equal
input bytes give bit-identical results. The per-dataset factors (w*h
per row, the rows predicted +1 and their weight total) are computed
once per dataset and shared by every concept. Empty conditioning sets
raise UndefinedMeasureError rather than returning NaN.

The sampling plan inverts Hoeffding's one-sided tail for means of
[-1,1] variables, exp(-n eps^2 / 2) = delta, giving n = ceil(2
ln(1/delta) / eps^2) samples for radius eps, and radius sqrt(2
ln(1/delta) / n) for n samples. Each side of the estimate then fails
with probability at most delta, so the two-sided guarantee
|estimate - mean| < eps holds with probability at least 1 - 2 delta
(Hoeffding 1963).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import TYPE_CHECKING, Iterable

from conceptscope.errors import DomainError, UndefinedMeasureError

if TYPE_CHECKING:
    from conceptscope.dataset import ConceptDataset

SYMMETRIC = "symmetric"
CLASS_CONDITIONED = "class_conditioned"
CONCEPT_CONDITIONED = "concept_conditioned"

MEASURE_KINDS = (SYMMETRIC, CLASS_CONDITIONED, CONCEPT_CONDITIONED)


@dataclass(frozen=True)
class MeasureResult:
    """A measure value with its conditioning info.

    ``effective_count`` is the total weight of the conditioning set;
    ``confidence_radius`` is the Hoeffding radius at the requested delta for
    its row count. That assumes equal weights: skewed ones make it too narrow
    (0.487 one-sided misses at delta = 0.05 with one row of 1,000 holding half
    the weight). For the conditioned measures it is conditional on the rows seen.
    """

    kind: str
    concept_name: str
    value: float
    threshold: float | None
    effective_count: float
    confidence_radius: float | None


def check_theta(theta: object) -> None:
    """Raise DomainError unless theta is a number in [-1, +1]."""
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise DomainError(f"theta must be a number, got {theta!r}")
    if not -1.0 <= theta <= 1.0:  # false for NaN; exact for ints too large for a float
        raise DomainError(f"theta must lie in [-1, +1], got {theta!r}")


def check_measure_parameters(kind: str, theta: float | None, delta: float | None) -> None:
    """Raise DomainError for a measure kind, theta or delta that no table can use."""
    if kind not in MEASURE_KINDS:
        raise DomainError(f"unknown measure kind {kind!r}")
    if (theta is None) and kind == CONCEPT_CONDITIONED:
        raise DomainError("theta is required for the concept-conditioned measure")
    if (theta is not None) and kind != CONCEPT_CONDITIONED:
        raise DomainError("theta is only valid for the concept-conditioned measure")
    if delta is not None:
        hoeffding_radius(1, delta)  # its checks on delta do not depend on the count
    if theta is not None:
        check_theta(theta)


def measure(
    kind: str, dataset: ConceptDataset, concept: str, theta: float | None = None,
    *, delta: float | None = None,
) -> MeasureResult:
    """The ``kind`` measure of ``concept``; only the concept-conditioned one reads theta.

    Each call looks the public function up as a module global, so a wrapper
    bound over it on this module (a tracer, a test's patch) sees every call.
    """
    if kind == SYMMETRIC:
        return symmetric_measure(dataset, concept, delta=delta)
    if kind == CLASS_CONDITIONED:
        return class_conditioned_measure(dataset, concept, delta=delta)
    return concept_conditioned_measure(dataset, concept, theta, delta=delta)


def _conditional_mean(
    kind: str, concept: str, terms: Iterable[float], mass: float, count: int,
    delta: float | None, theta: float | None = None,
) -> MeasureResult:
    """The mean of ``terms`` over a conditioning set of ``count`` rows and weight ``mass``."""
    if count == 0 or mass <= 0.0:  # never for symmetric: a dataset's weights sum to 1
        if kind == CLASS_CONDITIONED:
            raise UndefinedMeasureError(
                f"class-conditioned measure of {concept!r} is undefined:"
                " no weight on examples predicted +1"
            )
        raise UndefinedMeasureError(
            f"concept-conditioned measure of {concept!r} at theta={theta!r} is undefined:"
            " no weight on examples with the concept above threshold"
        )
    # The symmetric sum is its mean already; dividing by weight_total would move bits.
    value = math.fsum(terms) / (1.0 if kind == SYMMETRIC else mass)
    return MeasureResult(
        kind=kind,
        concept_name=concept,
        # Weights may sum to 1 only within 1e-9, so guard the [-1, 1] range.
        value=min(1.0, max(-1.0, value)),
        threshold=None if theta is None else float(theta),
        effective_count=mass,
        confidence_radius=None if delta is None else hoeffding_radius(count, delta),
    )


def symmetric_measure(
    dataset: ConceptDataset, concept: str, *, delta: float | None = None
) -> MeasureResult:
    """Weighted mean of h(x)*c(x) over the whole dataset."""
    column = dataset.column(concept)
    return _conditional_mean(SYMMETRIC, concept, map(mul, dataset.signed_weights, column),
                             dataset.weight_total, len(dataset), delta)


def class_conditioned_measure(
    dataset: ConceptDataset, concept: str, *, delta: float | None = None
) -> MeasureResult:
    """Weighted mean of c(x) over examples predicted +1."""
    column = dataset.column(concept)
    mask, weights, mass, count = dataset.positives
    return _conditional_mean(CLASS_CONDITIONED, concept,
                             map(mul, weights, compress(column, mask)), mass, count, delta)


def concept_conditioned_measure(
    dataset: ConceptDataset,
    concept: str,
    theta: float,
    *,
    delta: float | None = None,
) -> MeasureResult:
    """Weighted mean of h(x) over examples with c(x) >= theta.

    Ties c(x) == theta are included. For discrete concepts theta = 1
    conditions on the concept being fully present.
    """
    column = dataset.column(concept)
    check_theta(theta)
    mask = [value >= theta for value in column]
    return _conditional_mean(CONCEPT_CONDITIONED, concept,
                             compress(dataset.signed_weights, mask),
                             math.fsum(compress(dataset.weights, mask)), sum(mask), delta, theta)


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Samples so a [-1,1] mean errs by epsilon or more on one side w.p. <= delta."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    try:
        return math.ceil(2.0 * math.log(1.0 / delta) / (epsilon * epsilon))
    except (OverflowError, ZeroDivisionError):  # the size is not a finite float
        raise DomainError(
            f"epsilon={epsilon!r}, delta={delta!r} need a sample size too large for a float"
        ) from None


def hoeffding_radius(n: int, delta: float) -> float:
    """One-sided deviation radius at level delta for n samples in [-1,1]."""
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    try:
        radius = math.sqrt(2.0 * math.log(1.0 / delta) / n)
    except OverflowError:  # n is an int too large for a float
        raise DomainError(f"n={n!r} is too large for a float") from None
    if math.isinf(radius):  # 1/delta overflowed
        raise DomainError(f"delta={delta!r} is too small for a finite radius")
    return radius
