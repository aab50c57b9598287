"""Concept scores for a linear classification head over unit embeddings.

The head is h(x) = sign(w_h . g(x) - theta_h) with unit w_h, and the
concept value of an embedded example is c(x) = g(x) . v for a unit
concept direction v. The per-example concept score of this head is the
constant w_h . v, so:

* the discrete score (fraction of class examples with positive score)
  is 1 when w_h . v > 0 and otherwise 0, and
* the continuous score (mean score over the class) equals w_h . v.

``class_conditioned_from_embeddings`` is the quantity the continuous
score approximates: the mean concept value over examples the head
predicts positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conceptscope.embeddings import check_unit_vector
from conceptscope.errors import DomainError, UndefinedMeasureError, ValidationError
from conceptscope.numerics import kahan_sum


@dataclass(frozen=True)
class EmbeddedExample:
    """An example's unit-norm embedding g(x)."""

    id: str
    embedding: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "embedding", np.asarray(self.embedding, dtype=np.float64)
        )
        check_unit_vector(self.embedding, f"embedding of {self.id!r}")


@dataclass(frozen=True)
class LinearConceptModel:
    """Classifier direction w_h, threshold theta_h and concept direction v."""

    w_h: np.ndarray
    theta_h: float
    v: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_h", np.asarray(self.w_h, dtype=np.float64))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        check_unit_vector(self.w_h, "w_h")
        check_unit_vector(self.v, "v")
        if self.w_h.shape[0] != self.dim or self.v.shape[0] != self.dim:
            raise ValidationError(
                f"w_h and v must both have dim {self.dim},"
                f" got {self.w_h.shape[0]} and {self.v.shape[0]}"
            )

    @classmethod
    def from_vectors(
        cls, w_h: Sequence[float], theta_h: float, v: Sequence[float]
    ) -> "LinearConceptModel":
        w = np.asarray(w_h, dtype=np.float64)
        return cls(w_h=w, theta_h=float(theta_h), v=np.asarray(v, dtype=np.float64), dim=int(w.shape[0]))


def decision_margin(model: LinearConceptModel, example: EmbeddedExample) -> float:
    """w_h . g(x) - theta_h; positive means the head predicts +1."""
    if example.embedding.shape[0] != model.dim:
        raise ValidationError(
            f"embedding of {example.id!r} has dim {example.embedding.shape[0]},"
            f" model has dim {model.dim}"
        )
    return float(np.dot(model.w_h, example.embedding)) - model.theta_h


def concept_value(model: LinearConceptModel, example: EmbeddedExample) -> float:
    """c(x) = g(x) . v."""
    if example.embedding.shape[0] != model.dim:
        raise ValidationError(
            f"embedding of {example.id!r} has dim {example.embedding.shape[0]},"
            f" model has dim {model.dim}"
        )
    return float(np.dot(example.embedding, model.v))


def _check_class_examples(
    model: LinearConceptModel, class_examples: Sequence[EmbeddedExample]
) -> None:
    if not class_examples:
        raise DomainError("class_examples must be non-empty")
    for example in class_examples:
        if decision_margin(model, example) <= 0.0:
            raise ValidationError(
                f"example {example.id!r} is not predicted positive by the head"
                " (strictly positive margin required)"
            )


def tcav_discrete(
    model: LinearConceptModel, class_examples: Sequence[EmbeddedExample]
) -> float:
    """Fraction of class examples whose concept score is strictly positive.

    The score is the constant w_h . v here, so the fraction is 1 when
    that dot product is positive and 0 otherwise (a zero score counts
    as not positive).
    """
    _check_class_examples(model, class_examples)
    score = float(np.dot(model.w_h, model.v))
    positives = len(class_examples) if score > 0.0 else 0
    return positives / len(class_examples)


def tcav_continuous(
    model: LinearConceptModel, class_examples: Sequence[EmbeddedExample]
) -> float:
    """Mean concept score over the class: exactly w_h . v for this head."""
    _check_class_examples(model, class_examples)
    return float(np.dot(model.w_h, model.v))


def class_conditioned_from_embeddings(
    model: LinearConceptModel, examples: Sequence[EmbeddedExample]
) -> float:
    """Mean of c(x) over examples the head predicts positive."""
    values = [
        concept_value(model, example)
        for example in examples
        if decision_margin(model, example) > 0.0
    ]
    if not values:
        raise UndefinedMeasureError(
            "no examples are predicted positive; the conditional mean is undefined"
        )
    return kahan_sum(values) / len(values)
