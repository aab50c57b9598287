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

Embeddings come in as one ``(n, dim)`` float64 array, one unit row g(x)
per example, whose shape ``embeddings.as_rows`` checks; errors name an
example by its row index. A model's ``dim`` is the length of w_h. Row
dot products use ``np.vecdot``, which gives each row the bits of a 1-D
``np.dot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from conceptscope.embeddings import as_rows, check_unit_vector, check_unit_vectors
from conceptscope.errors import DomainError, UndefinedMeasureError, ValidationError


@dataclass(frozen=True)
class LinearConceptModel:
    """Classifier direction w_h, threshold theta_h and concept direction v."""

    w_h: np.ndarray
    theta_h: float
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_h", np.asarray(self.w_h, dtype=np.float64))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        check_unit_vector(self.w_h, "w_h")
        check_unit_vector(self.v, "v")
        if self.w_h.shape != self.v.shape:
            raise ValidationError(
                f"w_h and v must have the same dim, got {self.w_h.shape[0]} and {self.v.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.w_h.shape[0]


def decision_margins(model: LinearConceptModel, embeddings: np.ndarray) -> np.ndarray:
    """w_h . g(x) - theta_h per row; positive means the head predicts +1.

    ``embeddings`` must be an ``(n, dim)`` array of finite unit rows.
    """
    embeddings = as_rows(embeddings, "embeddings", model.dim)
    check_unit_vectors(embeddings, "embedding")
    return np.vecdot(embeddings, model.w_h) - model.theta_h


def _check_class_embeddings(model: LinearConceptModel, embeddings: np.ndarray) -> None:
    margins = decision_margins(model, embeddings)
    if margins.size == 0:
        raise DomainError("class embeddings must be non-empty")
    outside = np.flatnonzero(margins <= 0.0)
    if outside.size:
        raise ValidationError(
            f"embedding {int(outside[0])} is not predicted positive by the head"
            " (strictly positive margin required)"
        )


def tcav_discrete(model: LinearConceptModel, class_embeddings: np.ndarray) -> float:
    """Fraction of class examples whose concept score is strictly positive.

    The score is the constant w_h . v here, so the fraction is 1 when
    that dot product is positive and 0 otherwise (a zero score counts
    as not positive).
    """
    _check_class_embeddings(model, class_embeddings)
    return 1.0 if float(np.dot(model.w_h, model.v)) > 0.0 else 0.0


def tcav_continuous(model: LinearConceptModel, class_embeddings: np.ndarray) -> float:
    """Mean concept score over the class: exactly w_h . v for this head."""
    _check_class_embeddings(model, class_embeddings)
    return float(np.dot(model.w_h, model.v))


def class_conditioned_from_embeddings(
    model: LinearConceptModel, embeddings: np.ndarray
) -> float:
    """Mean of c(x) over the rows the head predicts positive."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    members = embeddings[decision_margins(model, embeddings) > 0.0]
    if not len(members):
        raise UndefinedMeasureError(
            "no examples are predicted positive; the conditional mean is undefined"
        )
    return math.fsum(np.vecdot(members, model.v).tolist()) / len(members)
