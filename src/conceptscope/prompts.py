"""Zero-shot classification over prompt embeddings, and prompt editing.

Prompts, concepts and images are ``(n, dim)`` float64 arrays, one row
per vector, as ``embeddings.load_vector_file`` returns them; class
names travel beside them as a tuple, and ``embeddings.as_rows`` checks
each array's shape. Classification scores every image against every
prompt in one call and picks each image's best prompt row. Editing
subtracts a scaled mean of concept rows from one class vector:

    edited = class_vector - lam * mean(concept_rows)

Edited vectors are not renormalized (renormalizing changes argmax
rankings); a caller that wants unit prompts normalizes the result with
``embeddings.unit_normalize``. The scale lam can be fitted on few-shot
data by grid search over macro F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conceptscope.embeddings import as_rows, check_unit_vector, check_unit_vectors
from conceptscope.errors import DomainError, ValidationError

# Default grid for fitting the subtraction scale: 0, 0.02, ..., 0.5.
DEFAULT_LAMBDA_GRID = tuple(round(0.02 * i, 2) for i in range(26))


@dataclass(frozen=True)
class EditPlan:
    """Which concepts to subtract from a class prompt, and how much."""

    class_name: str
    concept_names: tuple[str, ...]
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "concept_names", tuple(self.concept_names))
        if not self.concept_names:
            raise ValidationError("an edit plan needs at least one concept")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam!r}")


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    macro_f1: float
    per_class: dict[str, float]


def classify(images: np.ndarray, prompts: np.ndarray) -> np.ndarray:
    """Row index of each image's best prompt, by dot product.

    Scores come from ``np.vecdot`` over broadcast ``(n, 1, dim)`` and
    ``(1, k, dim)`` arrays, so each has the bits of a 1-D ``np.dot`` of
    its pair (``images @ prompts.T`` does not). ``np.argmax`` keeps the
    first maximum, so ties go to the lowest row index. Zero (fully
    cancelled) edited prompts take part with score 0.
    """
    if not len(prompts):
        raise DomainError("prompts must be non-empty")
    prompts = as_rows(prompts, "prompts")
    bad = np.flatnonzero(~np.isfinite(prompts).all(axis=1))
    if bad.size:
        raise ValidationError(f"prompt {bad[0]} has non-finite components")
    images = as_rows(images, "images", prompts.shape[1])
    return np.argmax(np.vecdot(images[:, None, :], prompts[None, :, :]), axis=1)


def edit_prompt(vector: np.ndarray, concept_rows: np.ndarray, lam: float) -> np.ndarray:
    """A unit class ``vector`` minus lam times the mean of unit ``concept_rows``."""
    if not len(concept_rows):
        raise DomainError("concepts must be non-empty")
    if not np.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    vector = np.asarray(vector, dtype=np.float64)
    check_unit_vector(vector, "class prompt")
    concept_rows = as_rows(concept_rows, "concept prompts", vector.shape[0])
    check_unit_vectors(concept_rows, "concept prompt")
    return vector - float(lam) * np.mean(concept_rows, axis=0)


def evaluate(predicted: Sequence[str], true: Sequence[str]) -> EvalReport:
    """Accuracy and macro F1 of predicted against true class names.

    Per-class F1 is 0 when precision + recall is 0; the macro average
    is unweighted over the union of predicted and true labels.
    """
    if len(predicted) != len(true):
        raise ValidationError(f"{len(predicted)} predictions for {len(true)} true labels")
    if not len(predicted):
        raise DomainError("predictions must be non-empty")
    predicted = np.asarray(predicted, dtype=object)
    true = np.asarray(true, dtype=object)
    labels = sorted(set(predicted) | set(true))
    per_class: dict[str, float] = {}
    for label in labels:
        is_predicted = predicted == label
        is_true = true == label
        tp = int(np.count_nonzero(is_predicted & is_true))
        fp = int(np.count_nonzero(is_predicted)) - tp
        fn = int(np.count_nonzero(is_true)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[label] = (
            2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return EvalReport(
        accuracy=int(np.count_nonzero(predicted == true)) / len(predicted),
        macro_f1=sum(per_class.values()) / len(labels),
        per_class=per_class,
    )


def fit_lambda(
    class_name: str,
    names: Sequence[str],
    prompts: np.ndarray,
    concepts: np.ndarray,
    images: np.ndarray,
    labels: Sequence[str],
    search_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> float:
    """Grid value of lam maximizing few-shot macro F1 after editing.

    ``names`` names the unit ``prompts`` rows; ``images`` are the
    few-shot rows and ``labels`` their class names. The ``class_name``
    row is replaced by its edited version for each candidate lam; ties
    break toward the smallest lam.
    """
    if not len(labels):
        raise DomainError("few-shot images must be non-empty")
    if not search_grid:
        raise DomainError("search_grid must be non-empty")
    names = tuple(names)
    if class_name not in names:
        raise ValidationError(f"no class prompt named {class_name!r}")
    prompts = as_rows(prompts, "prompts")
    if len(prompts) != len(names):
        raise ValidationError(f"{len(names)} class names for {len(prompts)} prompts")
    check_unit_vectors(prompts, "class prompt")
    position = names.index(class_name)
    name_of_row = np.array(names, dtype=object)
    edited = prompts.copy()
    best_lam: float | None = None
    best_f1 = -1.0
    for lam in sorted(float(x) for x in search_grid):
        edited[position] = edit_prompt(prompts[position], concepts, lam)
        f1 = evaluate(name_of_row[classify(images, edited)], labels).macro_f1
        if f1 > best_f1:
            best_f1 = f1
            best_lam = lam
    assert best_lam is not None
    return best_lam
