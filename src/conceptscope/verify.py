"""Executable verification suites over randomized synthetic instances.

Three suites are provided:

* ``axioms``: weight-split invariance, duplicate-and-halve linearity,
  and the conditional decomposition identity of the symmetric measure,
  each to 1e-12 on random datasets.
* ``theorem1``: closed-form completeness equals the brute-force decoder
  maximum to 1e-12 on random binary datasets.
* ``theorem2``: the conditional concept mean stays within epsilon of
  the continuous linear-head score on cap-constrained samples, with a
  three-sigma allowance on the Monte Carlo failure rate.

All suites are deterministic given their seed and emit structured
failure records for offline inspection. Their trials run on every usable
CPU (``synthetic.run_trials``); each derives its own seed, so the output
does not depend on how many CPUs ran it.

The paper names three axioms for the symmetric measure: linearity,
recursivity and similarity. ``axioms`` checks the first two. The
similarity statement the code relies on is this: for a binary concept
c in {-1,+1}, the symmetric measure is the weighted agreement between c
and h,

    phi = sum_x p(x) h(x) c(x) = 1 - 2 * (weight of the rows with c != h),

so c = h gives 1, c = -h gives -1, and flipping one agreeing row of
weight w lowers phi by exactly 2w. The test suite checks it with ``==``
against a ``fractions.Fraction`` brute force on dyadic weights, where
every float sum is exact; ``axioms`` does not run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from conceptscope.completeness import completeness_brute_force, completeness_closed_form
from conceptscope.dataset import ConceptDataset
from conceptscope.errors import UndefinedMeasureError
from conceptscope.measures import (
    class_conditioned_measure,
    concept_conditioned_measure,
    symmetric_measure,
)
from conceptscope.synthetic import (
    BINARY,
    CONTINUOUS,
    WEIGHTS_DYADIC,
    WEIGHTS_RANDOM,
    SyntheticSpec,
    derive_seed,
    generate_dataset,
    make_rng,
    run_theorem2_batch,
    run_trials,
    split_example,
)

IDENTITY_TOLERANCE = 1e-12


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    lines: list[str]
    failures: list[dict] = field(default_factory=list)


def _all_measures(dataset: ConceptDataset, concept: str, theta: float) -> dict[str, float | None]:
    values: dict[str, float | None] = {}
    values["symmetric"] = symmetric_measure(dataset, concept).value
    try:
        values["class_conditioned"] = class_conditioned_measure(dataset, concept).value
    except UndefinedMeasureError:
        values["class_conditioned"] = None
    try:
        values["concept_conditioned"] = concept_conditioned_measure(
            dataset, concept, theta
        ).value
    except UndefinedMeasureError:
        values["concept_conditioned"] = None
    return values


def _duplicate_and_halve(dataset: ConceptDataset) -> ConceptDataset:
    halves = tuple(weight / 2.0 for weight in dataset.weights)
    return ConceptDataset(
        ids=dataset.ids + tuple(example_id + "+dup" for example_id in dataset.ids),
        predictions=dataset.predictions * 2,
        concepts={name: dataset.column(name) * 2 for name in dataset.concept_names},
        weights=halves * 2,
        ground_truth=dataset.ground_truth * 2,
    )


def _decomposition_gap(dataset: ConceptDataset, concept: str) -> float | None:
    """Check E[hc] = E[c|h=1] Pr(h=1) - E[c|h=-1] Pr(h=-1).

    The h=-1 side is recomputed here with plain fsum so the check does
    not reuse the package's summation path.
    """
    negatives = [
        (weight, value)
        for prediction, value, weight in zip(
            dataset.predictions, dataset.column(concept), dataset.weights
        )
        if prediction == -1
    ]
    weight_neg = math.fsum(weight for weight, _ in negatives)
    try:
        positive = class_conditioned_measure(dataset, concept)
    except UndefinedMeasureError:
        return None
    if not negatives or weight_neg <= 0.0:
        return None
    mean_neg = math.fsum(weight * value for weight, value in negatives) / weight_neg
    expected = positive.value * positive.effective_count - mean_neg * weight_neg
    return abs(symmetric_measure(dataset, concept).value - expected)


def run_axioms_suite(trials: int, seed: int) -> SuiteReport:
    """Recursivity, weight linearity and the decomposition identity."""

    def one_trial(index: int) -> list[dict]:
        child = derive_seed(seed, index)
        rng = make_rng(child, 1)
        n = int(rng.integers(2, 13))
        kind = BINARY if index % 2 == 0 else CONTINUOUS
        dataset = generate_dataset(
            SyntheticSpec(
                n_examples=n,
                n_concepts=2,
                concept_kind=kind,
                seed=child,
                weight_kind=WEIGHTS_DYADIC,
            )
        )
        concept = dataset.concept_names[0]
        theta = float(rng.uniform(-1.0, 1.0))
        failures: list[dict] = []

        fraction = int(rng.integers(1, 1024)) / 1024.0
        target = dataset.ids[int(rng.integers(n))]
        before = _all_measures(dataset, concept, theta)
        after = _all_measures(split_example(dataset, target, fraction), concept, theta)
        for name in before:
            left, right = before[name], after[name]
            if (left is None) != (right is None):
                failures.append(
                    {"check": "recursivity", "trial": index, "measure": name,
                     "detail": "definedness changed across split"}
                )
            elif left is not None and abs(left - right) > IDENTITY_TOLERANCE:
                failures.append(
                    {"check": "recursivity", "trial": index, "measure": name,
                     "gap": abs(left - right), "fraction": fraction}
                )

        doubled = _all_measures(_duplicate_and_halve(dataset), concept, theta)
        for name in before:
            left, right = before[name], doubled[name]
            if left is not None and right is not None and abs(left - right) > IDENTITY_TOLERANCE:
                failures.append(
                    {"check": "linearity", "trial": index, "measure": name,
                     "gap": abs(left - right)}
                )

        gap = _decomposition_gap(dataset, concept)
        if gap is not None and gap > IDENTITY_TOLERANCE:
            failures.append({"check": "decomposition", "trial": index, "gap": gap})
        return failures

    failures = [f for trial in run_trials(one_trial, trials) for f in trial]
    checks = ("recursivity", "linearity", "decomposition")
    lines = []
    for check in checks:
        # A trial adds one record per failing measure; count trials.
        bad = len({f["trial"] for f in failures if f["check"] == check})
        status = "PASS" if bad == 0 else "FAIL"
        lines.append(
            f"axioms/{check}: {status} ({trials - bad}/{trials} within {IDENTITY_TOLERANCE:g})"
        )
    return SuiteReport("axioms", not failures, lines, failures)


def run_theorem1_suite(trials: int, seed: int) -> SuiteReport:
    """Closed-form completeness against the brute-force decoder maximum."""

    def one_trial(index: int) -> list[dict]:
        child = derive_seed(seed, index)
        rng = make_rng(child, 1)
        dataset = generate_dataset(
            SyntheticSpec(
                n_examples=int(rng.integers(1, 13)),
                n_concepts=1,
                concept_kind=BINARY,
                seed=child,
                weight_kind=WEIGHTS_RANDOM,
            )
        )
        concept = dataset.concept_names[0]
        closed = completeness_closed_form(dataset, concept)
        brute = completeness_brute_force(dataset, concept)
        failures: list[dict] = []
        gap = abs(closed.value - brute.value)
        if gap > IDENTITY_TOLERANCE:
            failures.append(
                {"check": "equality", "trial": index, "gap": gap,
                 "closed": closed.value, "brute": brute.value}
            )
        if not 0.5 - 1e-9 <= closed.value <= 1.0:
            failures.append(
                {"check": "range", "trial": index, "value": closed.value}
            )
        return failures

    failures = [f for trial in run_trials(one_trial, trials) for f in trial]
    bad = len({f["trial"] for f in failures})
    status = "PASS" if not failures else "FAIL"
    lines = [
        f"theorem1/equality: {status} ({trials - bad}/{trials} within {IDENTITY_TOLERANCE:g})"
    ]
    return SuiteReport("theorem1", not failures, lines, failures)


def run_theorem2_suite(epsilon: float, delta: float, dim: int, trials: int, seed: int):
    """Monte Carlo check of the concept-score bound.

    Passes when the empirical failure rate stays within delta plus
    three sigma of the binomial sampling noise.
    """
    records = run_theorem2_batch(epsilon, delta, dim, trials, seed)
    held = sum(1 for r in records if r.bound_holds)
    failure_rate = 1.0 - held / trials
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    passed = failure_rate <= delta + slack
    failures = [
        {"check": "bound", "trial": i, "lhs_gap": r.lhs_gap, "n_used": r.n_used}
        for i, r in enumerate(records)
        if not r.bound_holds
    ]
    status = "PASS" if passed else "FAIL"
    lines = [
        f"theorem2/bound: {status} ({held}/{trials} trials with gap < {epsilon:g};"
        f" failure rate {failure_rate:.4f} vs allowed {delta + slack:.4f}, dim {dim})"
    ]
    report = SuiteReport("theorem2", passed, lines, failures)
    return report, records
