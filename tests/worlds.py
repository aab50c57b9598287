"""Planted experiment worlds used as acceptance fixtures.

``generate_hierarchy_world`` plants a parent concept over fine classes
for the necessity/sufficiency checks, and
``generate_contamination_instance`` builds the contaminated-prompt
family for the prompt-editing experiments. Both are deterministic
given their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError
from conceptscope.synthetic import make_rng


# ---------------------------------------------------------------------------
# Planted semantic hierarchy (necessity/sufficiency proof of concept)
# ---------------------------------------------------------------------------


def generate_hierarchy_world(
    *,
    n_children: int = 3,
    n_per_class: int = 50,
    flip_rate: float = 0.01,
    seed: int = 0,
) -> dict[str, ConceptDataset]:
    """Planted world where a coarse parent concept covers fine classes.

    Fine labels are ``n_children`` child classes plus one unrelated
    class, each with ``n_per_class`` examples. Concepts mark the parent
    group, the unrelated class, and each child. One dataset is returned
    per predictor ("child_<j>", "parent", "unrelated"); each predictor
    is the true indicator of its target with floor(flip_rate * total)
    predictions flipped at random positions, and ground_truth holds the
    unflipped indicator.

    With flip_rate * total * 19 <= n_per_class the parent concept's
    conditional mean stays >= 0.9 for every child predictor regardless
    of where the flips land.
    """
    if n_children < 1 or n_per_class < 1:
        raise DomainError("n_children and n_per_class must be >= 1")
    if not 0.0 <= flip_rate < 1.0:
        raise DomainError("flip_rate must lie in [0, 1)")
    child_labels = [f"child_{j}" for j in range(n_children)]
    fine_labels = child_labels + ["unrelated"]
    total = n_per_class * len(fine_labels)
    labels = [fine for fine in fine_labels for _ in range(n_per_class)]

    # Each concept column is also the true indicator of the predictor of
    # the same name, and every predictor's dataset shares these columns.
    concepts = {
        name: tuple(
            1.0 if label == name or (name == "parent" and label != "unrelated") else -1.0
            for label in labels
        )
        for name in ["parent", "unrelated"] + child_labels
    }

    flips = int(math.floor(flip_rate * total))
    width = len(str(total - 1)) if total > 1 else 1
    ids = tuple(f"x{i:0{width}d}" for i in range(total))
    weights = (1.0 / total,) * total
    datasets: dict[str, ConceptDataset] = {}
    for stream, predictor in enumerate(child_labels + ["parent", "unrelated"]):
        rng = make_rng(seed, stream)
        flipped = set(int(i) for i in rng.permutation(total)[:flips])
        truth = [int(value) for value in concepts[predictor]]
        predictions = [-t if i in flipped else t for i, t in enumerate(truth)]
        datasets[predictor] = ConceptDataset(ids, predictions, concepts, weights, truth)
    return datasets


# ---------------------------------------------------------------------------
# Contaminated-prompt family for editing experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContaminationInstance:
    """A zero-shot task whose first class prompt absorbed a distractor.

    Row 0 of ``class_prompts`` points along its class direction plus
    ``contamination`` times the distractor direction (then normalized),
    while images of the other classes carry the distractor with random
    strength, which pulls them toward the contaminated prompt.
    Subtracting the distractor from that prompt recovers the margins.
    Vectors are ``(n, dim)`` arrays: ``class_prompts`` has one row per
    entry of ``class_names``, ``concept_prompts`` the one distractor
    row, and ``images`` and ``few_shot`` one row per entry of
    ``labels`` and ``few_shot_labels``.
    """

    class_names: tuple[str, ...]
    class_prompts: np.ndarray
    concept_prompts: np.ndarray
    images: np.ndarray
    labels: tuple[str, ...]
    few_shot: np.ndarray
    few_shot_labels: tuple[str, ...]
    contaminated_class: str


def generate_contamination_instance(
    seed: int,
    *,
    n_images: int = 500,
    dim: int = 32,
    contamination: float = 0.5,
    n_classes: int = 2,
    class_overlap: float = 0.8,
    noise: float = 0.05,
    few_shot_per_class: int = 16,
) -> ContaminationInstance:
    """Build one instance of the contaminated-prompt family.

    Class directions share a common component (pairwise alignment
    ``class_overlap`` with class 0), a distractor direction is
    orthogonal to all of them, and images are noisy unit embeddings of
    their class direction. Images of classes other than 0 carry the
    distractor with strength uniform in [0, 1].
    """
    if n_classes < 2:
        raise DomainError("n_classes must be >= 2")
    if dim < n_classes + 1:
        raise DomainError("dim must exceed n_classes (orthogonal frame needed)")
    if not 0.0 <= contamination:
        raise DomainError("contamination must be >= 0")
    if not 0.0 <= class_overlap < 1.0:
        raise DomainError("class_overlap must lie in [0, 1)")
    if n_images < n_classes or few_shot_per_class < 1:
        raise DomainError("need at least one image per class in both pools")

    rng = make_rng(seed)
    # Orthonormal frame via Gram-Schmidt: n_classes class axes + distractor.
    frame: list[np.ndarray] = []
    while len(frame) < n_classes + 1:
        z = rng.standard_normal(dim)
        for basis in frame:
            z -= np.dot(z, basis) * basis
        norm = float(np.linalg.norm(z))
        if norm > 1e-6:
            frame.append(z / norm)
    axes = frame[:n_classes]
    distractor = frame[n_classes]

    class_names = [f"class_{z}" for z in range(n_classes)]
    directions = [axes[0]]
    ortho_scale = math.sqrt(1.0 - class_overlap * class_overlap)
    for z in range(1, n_classes):
        directions.append(class_overlap * axes[0] + ortho_scale * axes[z])

    contaminated = directions[0] + contamination * distractor
    contaminated = contaminated / float(np.linalg.norm(contaminated))
    class_prompts = np.stack([contaminated] + directions[1:])

    def draw(count_per_class: Sequence[int]) -> tuple[np.ndarray, tuple[str, ...]]:
        rows: list[np.ndarray] = []
        labels: list[str] = []
        for z, count in enumerate(count_per_class):
            for _ in range(count):
                strength = 0.0 if z == 0 else float(rng.uniform(0.0, 1.0))
                x = (
                    directions[z]
                    + strength * distractor
                    + noise * rng.standard_normal(dim)
                )
                rows.append(x / float(np.linalg.norm(x)))
                labels.append(class_names[z])
        return np.stack(rows), tuple(labels)

    base, extra = divmod(n_images, n_classes)
    eval_counts = [base + (1 if z < extra else 0) for z in range(n_classes)]
    images, labels = draw(eval_counts)
    few_shot, few_shot_labels = draw([few_shot_per_class] * n_classes)
    return ContaminationInstance(
        class_names=tuple(class_names),
        class_prompts=class_prompts,
        concept_prompts=distractor[None, :],
        images=images,
        labels=labels,
        few_shot=few_shot,
        few_shot_labels=few_shot_labels,
        contaminated_class=class_names[0],
    )
