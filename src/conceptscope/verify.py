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
CPU (``run_trials``); each trial's draws are fixed by the seed and its
index alone, so the output does not depend on how many CPUs ran it. An
``axioms`` or ``theorem1`` trial draws its parameters and its dataset's
seed from the standard library's ``random`` (``_trial_draws``), so those
two suites run without numpy; a ``theorem2`` trial samples vectors with
numpy from a Philox stream keyed by ``derive_seed``. Each summary line
counts the trials that fail its checks; theorem1's one line,
``theorem1/equality``, also counts the trials whose completeness falls
outside [0.5, 1] (``range``).

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
from itertools import chain
from random import Random
from typing import Callable

from conceptscope import fanout
from conceptscope.completeness import completeness_brute_force, completeness_closed_form
from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError, UndefinedMeasureError
from conceptscope.measures import (
    MEASURE_KINDS,
    class_conditioned_measure,
    measure,
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
    split_example,
    theorem2_trial,
)

IDENTITY_TOLERANCE = 1e-12
# Fewest trials per span when run_trials forks. A forked span costs about
# 2-3 ms more than its trials (fork, pickle, reap) in a process without numpy;
# theorem1's, the cheapest at 0.07 ms each, break even on two CPUs at 60-80
# trials, and at 200-340 while another tenant keeps the second CPU busy
# (2 vCPU x86-64, shared host).
MIN_TRIALS = 64


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    lines: list[str]
    failures: list[dict] = field(default_factory=list)


def _all_measures(dataset: ConceptDataset, concept: str, theta: float) -> dict[str, float | None]:
    """Each kind's value, or None where it is undefined; theta is the concept-conditioned one's."""
    values: dict[str, float | None] = {}
    for kind in MEASURE_KINDS:
        try:
            values[kind] = measure(kind, dataset, concept, theta).value
        except UndefinedMeasureError:
            values[kind] = None
    return values


def _duplicate_and_halve(dataset: ConceptDataset) -> ConceptDataset:
    halves = tuple(weight / 2.0 for weight in dataset.weights)
    return ConceptDataset(
        ids=dataset.ids + tuple(example_id + "+dup" for example_id in dataset.ids),
        predictions=dataset.predictions * 2,
        concepts={name: [*dataset.column(name)] * 2 for name in dataset.concept_names},
        weights=halves * 2,
        ground_truth=dataset.ground_truth * 2,
    )


def _decomposition_gap(dataset: ConceptDataset, concept: str) -> float | None:
    """Check E[hc] = E[c|h=1] Pr(h=1) - E[c|h=-1] Pr(h=-1).

    The h=-1 side is summed here over its own rows, so the check holds
    the symmetric measure's one sum against a different partition of the
    same sum: the h=+1 rows and the h=-1 rows, each summed apart.
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


def _trial_draws(seed: int, index: int) -> tuple[int, Callable[[], float]]:
    """The dataset seed and the parameter stream of trial ``index`` of batch
    ``seed``, both from one Mersenne Twister keyed by ``seed * 2**64 + index``
    (one key per pair, as no batch reaches 2**64 trials): the first draw seeds
    the dataset's own generator, and the trial's parameters take the rest."""
    draw = Random(seed << 64 | index).random
    return int(draw() * 2**53), draw


def run_trials(trial: Callable[[int], object], trials: int) -> list:
    """``[trial(i) for i in range(trials)]``. Trial 0 runs here first, so that bad
    parameters raise and one-off imports load before any fork: theorem2's trial 0
    loads numpy, with the one BLAS thread the CLI asks for, so the workers never
    import it. Trials 1..n-1 go to ``fork_map`` in up to one contiguous span per
    usable CPU."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    first = trial(0)
    k = max(1, min(fanout.usable_cpus(), trials // MIN_TRIALS))
    cuts = [1 + (trials - 1) * i // k for i in range(k + 1)]
    spans = fanout.fork_map(lambda start, end: [trial(i) for i in range(start, end)],
                            list(zip(cuts, cuts[1:])))
    return [first, *chain.from_iterable(spans)]


def _suite(suite: str, trial: Callable[[int], list[dict]], trials: int,
           lines: dict[str, tuple[str, ...]]) -> SuiteReport:
    """Run ``trial`` (index -> failure records) ``trials`` times; ``lines`` maps
    each summary line to the checks whose failing trials it counts. A trial adds
    one record per failing measure, so trials, not records, are counted."""
    failures = [f for records in run_trials(trial, trials) for f in records]
    report = []
    for line, checks in lines.items():
        bad = len({f["trial"] for f in failures if f["check"] in checks})
        status = "PASS" if bad == 0 else "FAIL"
        report.append(
            f"{suite}/{line}: {status} ({trials - bad}/{trials} within {IDENTITY_TOLERANCE:g})"
        )
    return SuiteReport(suite, not failures, report, failures)


def run_axioms_suite(trials: int, seed: int) -> SuiteReport:
    """Recursivity, weight linearity and the decomposition identity."""

    def one_trial(index: int) -> list[dict]:
        child, draw = _trial_draws(seed, index)
        n = 2 + int(draw() * 11)
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
        theta = -1.0 + 2.0 * draw()
        failures: list[dict] = []

        fraction = (1 + int(draw() * 1023)) / 1024.0
        target = dataset.ids[int(draw() * n)]
        before = _all_measures(dataset, concept, theta)
        for check, change, variant in (
            ("recursivity", "split", split_example(dataset, target, fraction)),
            ("linearity", "duplicate-and-halve", _duplicate_and_halve(dataset)),
        ):
            after = _all_measures(variant, concept, theta)
            for name, left in before.items():
                right = after[name]
                if (left is None) != (right is None):
                    failures.append(
                        {"check": check, "trial": index, "measure": name,
                         "detail": f"definedness changed across {change}"}
                    )
                elif left is not None and abs(left - right) > IDENTITY_TOLERANCE:
                    failures.append(
                        {"check": check, "trial": index, "measure": name,
                         "gap": abs(left - right)}
                    )

        gap = _decomposition_gap(dataset, concept)
        if gap is not None and gap > IDENTITY_TOLERANCE:
            failures.append({"check": "decomposition", "trial": index, "gap": gap})
        return failures

    checks = ("recursivity", "linearity", "decomposition")
    return _suite("axioms", one_trial, trials, {check: (check,) for check in checks})


def run_theorem1_suite(trials: int, seed: int) -> SuiteReport:
    """Closed-form completeness against the brute-force decoder maximum."""

    def one_trial(index: int) -> list[dict]:
        child, draw = _trial_draws(seed, index)
        dataset = generate_dataset(
            SyntheticSpec(
                n_examples=1 + int(draw() * 12),
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

    return _suite("theorem1", one_trial, trials, {"equality": ("equality", "range")})


def run_theorem2_suite(
    epsilon: float, delta: float, dim: int, trials: int, seed: int
) -> tuple[SuiteReport, list[dict]]:
    """Monte Carlo check of the concept-score bound.

    Passes when the empirical failure rate stays within delta plus
    three sigma of the binomial sampling noise. Returns the report and
    one record per trial, as ``verify --records`` writes them.
    """
    results = run_trials(
        lambda index: theorem2_trial(epsilon, delta, dim, derive_seed(seed, index)), trials)
    records = [
        {"trial": index, "dim": dim, "epsilon": epsilon, "delta": delta,
         "lhs_gap": r.lhs_gap, "n_used": r.n_used, "bound_holds": r.bound_holds}
        for index, r in enumerate(results)
    ]
    held = sum(r["bound_holds"] for r in records)
    failure_rate = 1.0 - held / trials
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    passed = failure_rate <= delta + slack
    failures = [
        {"check": "bound", "trial": r["trial"], "lhs_gap": r["lhs_gap"], "n_used": r["n_used"]}
        for r in records
        if not r["bound_holds"]
    ]
    status = "PASS" if passed else "FAIL"
    lines = [
        f"theorem2/bound: {status} ({held}/{trials} trials with gap < {epsilon!r};"
        f" failure rate {failure_rate:.4f} vs allowed {delta + slack:.4f}, dim {dim})"
    ]
    report = SuiteReport("theorem2", passed, lines, failures)
    return report, records
