"""Synthetic datasets, spherical-cap sampling and the bound-check trials.

Datasets come from the standard library's Mersenne Twister
(``random.Random(seed)``), drawn through ``random()`` alone: Python
guarantees that ``random()`` returns the same sequence for a given int
seed across versions, so a dataset can be reproduced byte-for-byte
without numpy. Vectors come from Philox, a counter-based generator:
streams are keyed by ``(seed, *stream)`` through ``SeedSequence``, so
trial batches fan out over independent streams without shared state.
``sample_spherical_cap`` is one exact sampler for caps of any size.
numpy, ``tcav`` and ``embeddings`` load only in the functions that
handle vectors, so a caller that only generates datasets loads none of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from conceptscope.dataset import ConceptDataset
from conceptscope.errors import (
    DomainError,
    InfeasiblePlantError,
    SamplingError,
    ValidationError,
)
from conceptscope.measures import hoeffding_sample_size

if TYPE_CHECKING:
    import numpy as np

BINARY = "binary"
CONTINUOUS = "continuous"

WEIGHTS_UNIFORM = "uniform"
WEIGHTS_DYADIC = "dyadic"
WEIGHTS_RANDOM = "random"

_MAX_SEED = 2**64

# Resolution of dyadic weights: integer multiples of 2^-20 that sum to
# exactly 1, so fraction products in split tests stay exact.
_DYADIC_BITS = 20


def _check_seed(seed: object) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < _MAX_SEED:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, *stream)."""
    import numpy as np

    _check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *stream))))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for trial ``index`` of batch ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    import numpy as np

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


def _weights(spec: SyntheticSpec, random: Callable[[], float]) -> list[float]:
    n = spec.n_examples
    if spec.weight_kind == WEIGHTS_UNIFORM:
        return [1.0 / n] * n
    if spec.weight_kind == WEIGHTS_DYADIC:
        # Each row holds one unit of 2^-20 and the stretch between two of
        # n - 1 uniform cuts of the spare units, so every weight is > 0.
        spare = 2**_DYADIC_BITS - n
        cuts = sorted(int(random() * (spare + 1)) for _ in range(n - 1))
        scale = float(2**_DYADIC_BITS)
        return [(1 + high - low) / scale for low, high in zip([0, *cuts], [*cuts, spare])]
    if spec.weight_kind == WEIGHTS_RANDOM:
        raw = [0.05 + 0.95 * random() for _ in range(n)]
        total = math.fsum(raw)
        return [w / total for w in raw]
    raise DomainError(f"unknown weight_kind {spec.weight_kind!r}")


def generate_dataset(spec: SyntheticSpec) -> ConceptDataset:
    """Generate the dataset described by ``spec``.

    Planted symmetric measures are realized by choosing how many
    examples agree (c = h) versus disagree (c = -h): with uniform
    weights the measure is (2a - n)/n for a agreeing examples, so
    a = round(n (1 + target) / 2) lands within 1/n of the target.
    Every draw is ``Random(spec.seed).random()``: the predictions, then
    the weights, then each concept column in order, a planted one as a
    random permutation of the rows whose first a agree.
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
    if spec.weight_kind == WEIGHTS_DYADIC and spec.n_examples > 2**_DYADIC_BITS:
        raise DomainError(f"dyadic weights need n_examples <= 2**{_DYADIC_BITS}")

    names = _concept_names(spec)
    _check_seed(spec.seed)
    random = Random(spec.seed).random
    n = spec.n_examples
    predictions = [-1 if random() < 0.5 else 1 for _ in range(n)]
    weights = _weights(spec, random)

    columns: dict[str, list[float]] = {}
    for name in names:
        if name in planted:
            agree = int(math.floor(n * (1.0 + planted[name]) / 2.0 + 0.5))
            order = sorted(range(n), key=lambda _: random())
            agreeing = set(order[:agree])
            columns[name] = [
                float(predictions[i]) if i in agreeing else float(-predictions[i])
                for i in range(n)
            ]
        elif spec.concept_kind == BINARY:
            columns[name] = [-1.0 if random() < 0.5 else 1.0 for _ in range(n)]
        else:
            columns[name] = [-1.0 + 2.0 * random() for _ in range(n)]

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

    def split(column: Sequence, first: object, second: object) -> tuple:
        return (*column[:position], first, second, *column[position + 1 :])

    def twice(column: Sequence) -> tuple:
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


def _series(a: float, x_max: float) -> tuple[np.ndarray, float]:
    """(terms, lead): I_y(a, a) = (4y(1-y))^a lead np.polyval(terms, y/x_max), y <= x_max <= 1/2.

    The terms are those of 2F1(2a, 1; a + 1; y) (DLMF 8.17.8) up to the first <= 1e-17, and
    lead = 1 / (a B(a, a) 4^a) comes from its recurrence in a (lgammas lose a log(a) ulps).
    """
    import numpy as np

    first = 1.0 - a % 1.0
    lead = (0.25 if first == 1.0 else 1.0 / math.pi) * math.prod(
        (first + k + 0.5) / (first + k + 1.0) for k in range(int(a - first)))
    terms = [1.0]
    while terms[-1] > 1e-17:
        terms.append(terms[-1] * (2.0 * a + len(terms) - 1.0) / (a + len(terms)) * x_max)
    return np.array(terms[::-1]), lead


def _cap_mass(a: float, theta: float) -> tuple[float, float, float]:
    """(I_x(a, a), 1 - I_x(a, a), log I_x(a, a)) at x = (1 - theta)/2, each to about 1e-14."""
    import numpy as np

    low = (1.0 - abs(theta)) / 2.0
    terms, lead = _series(a, low)
    base, rest = 4.0 * low * (1.0 - low), lead * float(np.polyval(terms, 1.0))
    mass = base**a * rest
    if theta >= 0.0:
        return mass, 1.0 - mass, a * math.log(base) + math.log(rest)
    return 1.0 - mass, mass, math.log1p(-mass)


def _cap_marginal(a: float, theta: float, u: np.ndarray) -> np.ndarray:
    """The b with I_b(a, a) = q = u I_x(a, a), x = (1 - theta)/2: quantiles of (1 - axis.g)/2.

    Newton's method in log b from the root b0 of the leading term, on f = log I_b -
    log q = a log(b / b0) + a log1p(-b) + log(series), which near the root rounds by an
    ulp or two. An unconverged step out of the root's bracket [lo, hi] falls back to the
    midpoint. q > 1/2 is solved as 1 - b', I_b'(a, a) = 1 - q = (1 - u) + u (1 - I_x);
    u = 0 counts as 2^-54.
    """
    import numpy as np

    _, outside, log_cap = _cap_mass(a, theta)
    log_q = np.log(np.where(u > 0.0, u, 2.0**-54)) + log_cap
    upper = log_q > -math.log(2.0)
    log_q = np.where(upper, np.log((1.0 - u) + u * outside), log_q)
    x_max = min((1.0 - theta) / 2.0, 0.5)
    terms, lead = _series(a, x_max)
    b0 = np.exp((log_q - math.log(lead)) / a) / 4.0
    b, lo, hi = np.minimum(b0, x_max), np.zeros_like(b0), np.full_like(b0, x_max)
    done = np.zeros(b.shape, dtype=bool)
    for _ in range(100):
        series = np.polyval(terms, b / x_max)
        f = a * (np.log(b / b0) + np.log1p(-b)) + np.log(series)
        lo, hi = np.where(f < 0.0, b, lo), np.where(f > 0.0, b, hi)
        step = f * (1.0 - b) * series / a
        new, small = b * np.exp(-step), np.abs(step) <= 1e-14
        b = np.where(done, b, np.where(small | ((lo < new) & (new < hi)), new, 0.5 * (lo + hi)))
        done |= small | (hi - lo <= 1e-14 * b)
        if done.all():
            return np.where(upper, 1.0 - b, np.minimum(b, x_max))
    raise SamplingError("the inverse CDF of the cap's Beta marginal did not converge")


def cap_probability(dim: int, theta: float) -> float:
    """Probability that a uniform unit vector lands in {g : axis.g >= theta}.

    For a uniform direction in dim d, (1 - axis.g)/2 follows a
    Beta((d-1)/2, (d-1)/2) law, so the cap mass is its CDF at
    (1 - theta)/2.
    """
    if not (dim >= 2 and dim % 1 == 0):
        raise DomainError(f"dim must be an integer >= 2, got {dim!r}")
    if not -1.0 <= theta < 1.0:
        raise DomainError(f"theta must lie in [-1, 1), got {theta!r}")
    return _cap_mass((dim - 1) / 2.0, theta)[0]


def sample_spherical_cap(
    rng: np.random.Generator, axis: np.ndarray, theta: float, n: int
) -> np.ndarray:
    """Draw n uniform points of the cap {g on the unit sphere : axis.g >= theta}.

    Exact for caps of any size: axis.g is drawn by inverse CDF of the
    cap's Beta marginal restricted to the cap, and the rest of g is a
    uniform direction orthogonal to the axis.
    """
    import numpy as np

    from conceptscope.embeddings import check_unit_vectors

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

    dim = axis.shape[0]
    t = 1.0 - 2.0 * _cap_marginal((dim - 1) / 2.0, theta, rng.random(n))
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
    from conceptscope.tcav import (
        LinearConceptModel,
        class_conditioned_from_embeddings,
        decision_margins,
        tcav_continuous,
    )

    n = hoeffding_sample_size(epsilon, delta)
    if dim < 2:
        raise DomainError("dim must be >= 2")
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
