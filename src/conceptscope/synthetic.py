"""Synthetic instance generators and the bound-check trial harness.

Everything here is deterministic given its seed. Randomness comes from
Philox, a counter-based generator: streams are keyed by
``(seed, *stream)`` through ``SeedSequence``, so any draw can be
reproduced byte-for-byte and trial batches can fan out over
independent streams without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from conceptscope.dataset import ConceptDataset
from conceptscope.embeddings import check_unit_vectors
from conceptscope.errors import (
    DomainError,
    InfeasiblePlantError,
    SamplingError,
    ValidationError,
)
from conceptscope.measures import hoeffding_sample_size
from conceptscope.tcav import (
    LinearConceptModel,
    class_conditioned_from_embeddings,
    decision_margins,
    tcav_continuous,
)

BINARY = "binary"
CONTINUOUS = "continuous"

WEIGHTS_UNIFORM = "uniform"
WEIGHTS_DYADIC = "dyadic"
WEIGHTS_RANDOM = "random"

_MAX_SEED = 2**64

# Resolution of dyadic weights: integer multiples of 2^-20 that sum to
# exactly 1, so fraction products in split tests stay exact.
_DYADIC_BITS = 20


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, *stream)."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < _MAX_SEED:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *stream))))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for trial ``index`` of batch ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    for _ in range(100):
        z = rng.standard_normal(dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-12:
            return z / norm
    raise SamplingError("could not draw a non-degenerate direction")


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for a synthetic ConceptDataset.

    ``planted_measures`` maps concept names to target symmetric-measure
    values; planting requires binary concepts with uniform weights and
    hits each target to within 1/n_examples. ``with_ground_truth`` sets
    ground_truth equal to the prediction, for comparison-series tests.
    """

    n_examples: int
    n_concepts: int
    concept_kind: str = BINARY
    seed: int = 0
    planted_measures: Mapping[str, float] | None = None
    weight_kind: str = WEIGHTS_UNIFORM
    with_ground_truth: bool = False


def _concept_names(spec: SyntheticSpec) -> tuple[str, ...]:
    planted = list(spec.planted_measures or {})
    if len(planted) != len(set(planted)):
        raise InfeasiblePlantError("duplicate concept names in planted_measures")
    if len(planted) > spec.n_concepts:
        raise InfeasiblePlantError(
            f"{len(planted)} planted concepts exceed n_concepts={spec.n_concepts}"
        )
    names = list(planted)
    filler = 0
    while len(names) < spec.n_concepts:
        candidate = f"c{filler}"
        filler += 1
        if candidate not in names:
            names.append(candidate)
    return tuple(names)


def _weights(spec: SyntheticSpec, rng: np.random.Generator) -> list[float]:
    n = spec.n_examples
    if spec.weight_kind == WEIGHTS_UNIFORM:
        return [1.0 / n] * n
    if spec.weight_kind == WEIGHTS_DYADIC:
        counts = rng.multinomial(2**_DYADIC_BITS, [1.0 / n] * n)
        scale = float(2**_DYADIC_BITS)
        return [int(c) / scale for c in counts]
    if spec.weight_kind == WEIGHTS_RANDOM:
        raw = rng.uniform(0.05, 1.0, size=n)
        total = float(np.sum(raw))
        return [float(w) / total for w in raw]
    raise DomainError(f"unknown weight_kind {spec.weight_kind!r}")


def generate_dataset(spec: SyntheticSpec) -> ConceptDataset:
    """Generate the dataset described by ``spec``.

    Planted symmetric measures are realized by choosing how many
    examples agree (c = h) versus disagree (c = -h): with uniform
    weights the measure is (2a - n)/n for a agreeing examples, so
    a = round(n (1 + target) / 2) lands within 1/n of the target.
    """
    if spec.n_examples < 1:
        raise DomainError("n_examples must be >= 1")
    if spec.n_concepts < 1:
        raise DomainError("n_concepts must be >= 1")
    if spec.concept_kind not in (BINARY, CONTINUOUS):
        raise DomainError(f"unknown concept_kind {spec.concept_kind!r}")
    planted = dict(spec.planted_measures or {})
    for name, target in planted.items():
        if not math.isfinite(target) or not -1.0 <= target <= 1.0:
            raise InfeasiblePlantError(
                f"planted measure for {name!r} must lie in [-1, 1], got {target!r}"
            )
    if planted and spec.concept_kind != BINARY:
        raise InfeasiblePlantError(
            "planted measures require binary concepts (frequency-table construction)"
        )
    if planted and spec.weight_kind != WEIGHTS_UNIFORM:
        raise InfeasiblePlantError("planted measures require uniform weights")

    names = _concept_names(spec)
    rng = make_rng(spec.seed)
    n = spec.n_examples
    predictions = [int(p) for p in rng.choice((-1, 1), size=n)]
    weights = _weights(spec, rng)

    columns: dict[str, list[float]] = {}
    for name in names:
        if name in planted:
            agree = int(math.floor(n * (1.0 + planted[name]) / 2.0 + 0.5))
            order = rng.permutation(n)
            agreeing = set(int(i) for i in order[:agree])
            columns[name] = [
                float(predictions[i]) if i in agreeing else float(-predictions[i])
                for i in range(n)
            ]
        elif spec.concept_kind == BINARY:
            columns[name] = [float(v) for v in rng.choice((-1.0, 1.0), size=n)]
        else:
            columns[name] = [float(v) for v in rng.uniform(-1.0, 1.0, size=n)]

    width = len(str(n - 1)) if n > 1 else 1
    return ConceptDataset(
        ids=[f"x{i:0{width}d}" for i in range(n)],
        predictions=predictions,
        concepts={name: columns[name] for name in names},
        weights=weights,
        ground_truth=predictions if spec.with_ground_truth else None,
    )


def split_example(dataset: ConceptDataset, example_id: str, fraction: float) -> ConceptDataset:
    """Replace one example with two copies splitting its weight.

    The children keep the parent's prediction, concepts and ground
    truth; their weights are fraction*w and w - fraction*w, so the pair
    sums back to w to the last bit whenever the products are exact
    (always true for dyadic weights and fractions).
    """
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
        raise DomainError(f"fraction must be a number, got {fraction!r}")
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must lie strictly in (0, 1), got {fraction!r}")
    try:
        position = dataset.ids.index(example_id)
    except ValueError:
        raise ValidationError(f"no example with id {example_id!r}") from None

    def split(column: tuple, first: object, second: object) -> tuple:
        return column[:position] + (first, second) + column[position + 1 :]

    def twice(column: tuple) -> tuple:
        return split(column, column[position], column[position])

    weight = dataset.weights[position]
    first_weight = fraction * weight
    return ConceptDataset(
        ids=split(dataset.ids, f"{example_id}#0", f"{example_id}#1"),
        predictions=twice(dataset.predictions),
        concepts={name: twice(dataset.column(name)) for name in dataset.concept_names},
        weights=split(dataset.weights, first_weight, weight - first_weight),
        ground_truth=twice(dataset.ground_truth),
        original_weight_total=dataset.original_weight_total,
    )


# ---------------------------------------------------------------------------
# Spherical-cap sampling
# ---------------------------------------------------------------------------


def cap_probability(dim: int, theta: float) -> float:
    """Probability that a uniform unit vector lands in {g : axis.g >= theta}.

    For a uniform direction in dim d, (1 - axis.g)/2 follows a
    Beta((d-1)/2, (d-1)/2) law, so the cap mass is its CDF at
    (1 - theta)/2.
    """
    # scipy is imported here, not at module level, so that commands that
    # sample no cap never pay for loading it.
    from scipy.special import betainc

    if dim < 2:
        raise DomainError("dim must be >= 2")
    if not -1.0 <= theta < 1.0:
        raise DomainError(f"theta must lie in [-1, 1), got {theta!r}")
    a = (dim - 1) / 2.0
    return float(betainc(a, a, (1.0 - theta) / 2.0))


def _cap_exact(
    rng: np.random.Generator, axis: np.ndarray, theta: float, n: int
) -> np.ndarray:
    from scipy.special import betainc, betaincinv

    dim = axis.shape[0]
    a = (dim - 1) / 2.0
    b0 = (1.0 - theta) / 2.0
    p_cap = float(betainc(a, a, b0))
    u = rng.random(n)
    # Inverse-CDF restriction of the Beta marginal to [0, b0].
    b = betaincinv(a, a, u * p_cap)
    t = 1.0 - 2.0 * b
    tangents = rng.standard_normal((n, dim))
    tangents -= np.outer(tangents @ axis, axis)
    norms = np.linalg.norm(tangents, axis=1)
    for _ in range(100):
        degenerate = norms < 1e-12
        if not degenerate.any():
            break
        redrawn = rng.standard_normal((int(degenerate.sum()), dim))
        redrawn -= np.outer(redrawn @ axis, axis)
        tangents[degenerate] = redrawn
        norms = np.linalg.norm(tangents, axis=1)
    else:
        raise SamplingError("could not draw tangent directions off the cap axis")
    tangents /= norms[:, None]
    return t[:, None] * axis + np.sqrt(np.maximum(0.0, 1.0 - t * t))[:, None] * tangents


def _cap_rejection(
    rng: np.random.Generator,
    axis: np.ndarray,
    theta: float,
    n: int,
    max_draws: int,
) -> np.ndarray:
    dim = axis.shape[0]
    accepted: list[np.ndarray] = []
    count = drawn = 0
    while count < n and drawn < max_draws:
        batch = max(1024, n)
        z = rng.standard_normal((batch, dim))
        norms = np.linalg.norm(z, axis=1)
        keep_rows = norms > 1e-12
        z = z[keep_rows] / norms[keep_rows, None]
        drawn += batch
        accepted.append(z[z @ axis >= theta])
        count += len(accepted[-1])
    if count < n:
        rate = count / max(1, drawn)
        raise SamplingError(
            f"cap rejection sampling got {count}/{n} points in {drawn} draws"
            f" (acceptance rate {rate:.2e}); use the exact sampler"
        )
    return np.concatenate(accepted)[:n]


def sample_spherical_cap(
    rng: np.random.Generator,
    axis: np.ndarray,
    theta: float,
    n: int,
    *,
    method: str = "auto",
    max_draws: int = 1_000_000,
) -> np.ndarray:
    """Draw n uniform points of the cap {g on the unit sphere : axis.g >= theta}.

    ``method`` is "exact" (inverse CDF of the cap's Beta marginal,
    works for arbitrarily small caps), "rejection" (uniform sphere,
    keep cap hits), or "auto" (rejection only when the cap holds at
    least 5% of the sphere).
    """
    axis = np.asarray(axis, dtype=np.float64)
    if axis.ndim != 1 or axis.shape[0] < 2:
        raise DomainError("axis must be a 1-D vector with dim >= 2")
    try:
        check_unit_vectors(axis, "axis")
    except ValidationError as exc:
        raise DomainError(str(exc)) from None
    if not -1.0 <= theta < 1.0:
        raise DomainError(f"theta must lie in [-1, 1), got {theta!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if method == "auto":
        method = "rejection" if cap_probability(axis.shape[0], theta) >= 0.05 else "exact"
    if method == "exact":
        return _cap_exact(rng, axis, theta, n)
    if method == "rejection":
        return _cap_rejection(rng, axis, theta, n, max_draws)
    raise DomainError(f"unknown sampling method {method!r}")


# ---------------------------------------------------------------------------
# Bound-check trials for the linear-head concept score
# ---------------------------------------------------------------------------


# Largest n x dim a theorem2 trial may sample: 2**24 float64s, 128 MiB
# per (n, dim) array.
THEOREM2_FLOAT_BUDGET = 2**24


@dataclass(frozen=True)
class Theorem2Trial:
    """One bound check: |E[c | h=+1] - continuous score| vs epsilon."""

    lhs_gap: float
    n_used: int
    bound_holds: bool


def theorem2_trial(epsilon: float, delta: float, dim: int, seed: int) -> Theorem2Trial:
    """Run one randomized check of the concept-score bound.

    Draws random unit w_h and v, sets theta_h = 1 - epsilon^2/8,
    samples hoeffding_sample_size(epsilon, delta) embeddings on the cap
    {g : w_h.g >= theta_h}, and compares the conditional concept mean
    against the continuous score w_h.v. Before drawing anything it
    raises DomainError when n x dim exceeds THEOREM2_FLOAT_BUDGET
    (2**24 floats), so a tiny epsilon or delta or a huge dim is refused
    instead of exhausting memory.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    if dim < 2:
        raise DomainError("dim must be >= 2")
    n = hoeffding_sample_size(epsilon, delta)
    if n * dim > THEOREM2_FLOAT_BUDGET:
        raise DomainError(
            f"a theorem2 trial would sample n x dim = {n} x {dim} floats, more than"
            f" the budget of {THEOREM2_FLOAT_BUDGET}; raise epsilon or delta, or lower dim"
        )
    rng = make_rng(seed)
    w_h = random_unit_vector(rng, dim)
    v = random_unit_vector(rng, dim)
    theta_h = 1.0 - epsilon * epsilon / 8.0
    points = sample_spherical_cap(rng, w_h, theta_h, n)
    model = LinearConceptModel(w_h=w_h, theta_h=theta_h, v=v, dim=dim)
    members = points[decision_margins(model, points) > 0.0]
    if not len(members):
        raise SamplingError("no sampled embedding fell strictly inside the class")
    lhs = class_conditioned_from_embeddings(model, points)
    score = tcav_continuous(model, members)
    gap = abs(lhs - score)
    return Theorem2Trial(lhs_gap=gap, n_used=len(members), bound_holds=gap < epsilon)


def run_theorem2_batch(
    epsilon: float, delta: float, dim: int, trials: int, seed: int
) -> list[Theorem2Trial]:
    """Independent trials on per-index derived seeds."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    return [
        theorem2_trial(epsilon, delta, dim, derive_seed(seed, index)) for index in range(trials)
    ]


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
