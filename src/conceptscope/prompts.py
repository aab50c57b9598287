"""Zero-shot classification over prompt embeddings, and prompt editing.

Classification picks the class prompt with the largest dot product
against the image embedding. Editing subtracts a scaled mean of
concept embeddings from a class prompt:

    edited = class_vector - lam * mean(concept_vectors)

Edited vectors are not renormalized by default (renormalizing changes
argmax rankings); pass ``renormalize=True`` to opt in. The scale lam
can be fitted on few-shot data by grid search over macro F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conceptscope.embeddings import check_finite_vector, check_unit_vector, unit_normalize
from conceptscope.errors import DomainError, ValidationError

CLASS_PROMPT = "class_prompt"
CONCEPT_PROMPT = "concept_prompt"
EDITED = "edited"

_KINDS = (CLASS_PROMPT, CONCEPT_PROMPT, EDITED)

# Default grid for fitting the subtraction scale: 0, 0.02, ..., 0.5.
DEFAULT_LAMBDA_GRID = tuple(round(0.02 * i, 2) for i in range(26))


@dataclass(frozen=True)
class PromptEmbedding:
    """Named embedding vector; unit norm unless kind == "edited"."""

    name: str
    vector: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown prompt kind {self.kind!r}")
        vector = np.asarray(self.vector, dtype=np.float64)
        object.__setattr__(self, "vector", vector)
        check = check_finite_vector if self.kind == EDITED else check_unit_vector
        check(vector, f"prompt {self.name!r}")


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


def _check_dims(vectors: Sequence[np.ndarray]) -> int:
    dims = {v.shape[0] for v in vectors}
    if len(dims) != 1:
        raise ValidationError(f"mixed vector dimensions {sorted(dims)}")
    return dims.pop()


def classify(
    image_embedding: np.ndarray, class_prompts: Sequence[PromptEmbedding]
) -> str:
    """Name of the class prompt with the largest dot product.

    Ties go to the lowest list index. Zero (fully cancelled) edited
    prompts participate with dot product 0.
    """
    if not class_prompts:
        raise DomainError("class_prompts must be non-empty")
    image = np.asarray(image_embedding, dtype=np.float64)
    _check_dims([image] + [p.vector for p in class_prompts])
    scores = [float(np.dot(image, p.vector)) for p in class_prompts]
    best = max(range(len(scores)), key=scores.__getitem__)
    return class_prompts[best].name


def edit_prompt(
    class_prompt: PromptEmbedding,
    concepts: Sequence[PromptEmbedding],
    lam: float,
    *,
    renormalize: bool = False,
) -> PromptEmbedding:
    """Subtract lam times the mean concept vector from a class prompt."""
    if not concepts:
        raise DomainError("concepts must be non-empty")
    if not np.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    _check_dims([class_prompt.vector] + [c.vector for c in concepts])
    mean = np.mean(np.stack([c.vector for c in concepts]), axis=0)
    vector = class_prompt.vector - float(lam) * mean
    if renormalize:
        vector = unit_normalize(vector, f"edited prompt {class_prompt.name!r}")
    return PromptEmbedding(name=class_prompt.name, vector=vector, kind=EDITED)


def substitute_prompt(
    class_prompts: Sequence[PromptEmbedding], edited: PromptEmbedding
) -> list[PromptEmbedding]:
    """Prompt list with the same-named entry replaced by ``edited``."""
    names = [p.name for p in class_prompts]
    if edited.name not in names:
        raise ValidationError(f"no class prompt named {edited.name!r} to replace")
    return [edited if p.name == edited.name else p for p in class_prompts]


def evaluate(predictions: Sequence[tuple[str, str]]) -> EvalReport:
    """Accuracy and macro F1 of (predicted, true) class-name pairs.

    Per-class F1 is 0 when precision + recall is 0; the macro average
    is unweighted over the union of predicted and true labels.
    """
    if not predictions:
        raise DomainError("predictions must be non-empty")
    labels = sorted({p for p, _ in predictions} | {t for _, t in predictions})
    correct = sum(1 for predicted, true in predictions if predicted == true)
    per_class: dict[str, float] = {}
    for label in labels:
        tp = sum(1 for p, t in predictions if p == label and t == label)
        fp = sum(1 for p, t in predictions if p == label and t != label)
        fn = sum(1 for p, t in predictions if p != label and t == label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[label] = (
            2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return EvalReport(
        accuracy=correct / len(predictions),
        macro_f1=sum(per_class.values()) / len(labels),
        per_class=per_class,
    )


def fit_lambda(
    class_name: str,
    few_shot: Sequence[tuple[np.ndarray, str]],
    class_prompts: Sequence[PromptEmbedding],
    concepts: Sequence[PromptEmbedding],
    search_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> float:
    """Grid value of lam maximizing few-shot macro F1 after editing.

    The named class prompt is replaced by its edited version for each
    candidate lam; ties break toward the smallest lam.
    """
    if not few_shot:
        raise DomainError("few_shot must be non-empty")
    if not search_grid:
        raise DomainError("search_grid must be non-empty")
    prompt = next((p for p in class_prompts if p.name == class_name), None)
    if prompt is None:
        raise ValidationError(f"no class prompt named {class_name!r}")
    best_lam: float | None = None
    best_f1 = -1.0
    for lam in sorted(float(x) for x in search_grid):
        edited = edit_prompt(prompt, concepts, lam)
        prompts = substitute_prompt(class_prompts, edited)
        predicted = [classify(image, prompts) for image, _ in few_shot]
        f1 = evaluate([(p, t) for p, (_, t) in zip(predicted, few_shot)]).macro_f1
        if f1 > best_f1:
            best_f1 = f1
            best_lam = lam
    assert best_lam is not None
    return best_lam
