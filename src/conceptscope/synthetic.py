"""Synthetic datasets, spherical-cap sampling and the bound-check trials.

``sample_spherical_cap`` is one exact sampler for caps of any size.
Everything here is deterministic given its seed. Randomness comes from
Philox, a counter-based generator: streams are keyed by
``(seed, *stream)`` through ``SeedSequence``, so any draw can be
reproduced byte-for-byte and trial batches can fan out over
independent streams without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

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
        total = math.fsum(raw.tolist())
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


def sample_spherical_cap(
    rng: np.random.Generator, axis: np.ndarray, theta: float, n: int
) -> np.ndarray:
    """Draw n uniform points of the cap {g on the unit sphere : axis.g >= theta}.

    Exact for caps of any size: axis.g is drawn by inverse CDF of the
    cap's Beta marginal restricted to the cap, and the rest of g is a
    uniform direction orthogonal to the axis.
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
    from scipy.special import betaincinv

    dim = axis.shape[0]
    a = (dim - 1) / 2.0
    p_cap = cap_probability(dim, theta)
    u = rng.random(n)
    # Inverse-CDF restriction of the Beta marginal to [0, (1 - theta)/2].
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
    model = LinearConceptModel(w_h=w_h, theta_h=theta_h, v=v)
    members = points[decision_margins(model, points) > 0.0]
    if not len(members):
        raise SamplingError("no sampled embedding fell strictly inside the class")
    lhs = class_conditioned_from_embeddings(model, points)
    score = tcav_continuous(model, members)
    gap = abs(lhs - score)
    return Theorem2Trial(lhs_gap=gap, n_used=len(members), bound_holds=gap < epsilon)
