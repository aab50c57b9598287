import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import betainc, betaincinv
from scipy.stats import ks_2samp

from conceptscope import verify
from conceptscope.dataset import ConceptDataset, to_jsonl
from conceptscope.errors import (
    DomainError,
    InfeasiblePlantError,
    ValidationError,
)
from conceptscope.measures import (
    class_conditioned_measure,
    concept_conditioned_measure,
    symmetric_measure,
)
from conceptscope.synthetic import (
    SyntheticSpec,
    _cap_marginal,
    _cap_mass,
    cap_probability,
    derive_seed,
    generate_dataset,
    make_rng,
    sample_spherical_cap,
    split_example,
    theorem2_trial,
)
from conceptscope.verify import run_axioms_suite, run_theorem2_suite
from oracles import binomial_cap_mass, naive_symmetric, rejection_cap_sample
from worlds import generate_contamination_instance, generate_hierarchy_world

# Pin generator output: identical spec must give identical bytes.
GOLDEN_HASHES = {
    "binary_planted": "ba8024c2c03c52e3ea72363ca788a57c6fa16dd508f6506bbcd1a16886212193",
    "continuous_dyadic": "9088243066bdd81c45329bc6f7e080d196540ad927f3010aae5920c8b2c3f6ad",
    "hierarchy_world": {
        "child_0": "ac021529094650fd54180444cc8f28c9692131ca6a2815b97dda8f9dbfe926bf",
        "child_1": "f9040b35c22efc2420f2db2a8d31d9568a959c19187aaa058929ecae087b4dcc",
        "child_2": "f10b567fcd42aa0cd34551dc6fd972fed62749cb1600c01782d4b0781853d4f1",
        "parent": "e0c5c77c1ee88b3a40072926c496a09e74aa89fdd58c3edb02d4f5dacdb3da7e",
        "unrelated": "5a24efaf49c295f269b705a0014a7dc0da7de57a43aed11797ffd71a91192ae5",
    },
}

# Pin the theorem2 records of theorem2_trial(epsilon, 0.1, dim,
# derive_seed(0, i)) for i < 20 over THEOREM2_CASES: (lhs_gap as
# float.hex(), n_used, bound_holds) per trial, JSON-encoded.
THEOREM2_CASES = ((0.2, 2), (0.2, 8), (0.2, 64), (0.9, 2))
THEOREM2_RECORDS_SHA256 = "1ac748643dc2e72e134f524fba7f179eca5b6e0170cc862b69038d31e0587ab8"


def test_planted_full_agreement():
    ds = generate_dataset(
        SyntheticSpec(n_examples=6, n_concepts=1, seed=1, planted_measures={"stripes": 1.0})
    )
    for value, prediction in zip(ds.column("stripes"), ds.predictions):
        assert value == float(prediction)


def test_planted_zero_is_balanced():
    ds = generate_dataset(
        SyntheticSpec(n_examples=4, n_concepts=1, seed=2, planted_measures={"stripes": 0.0})
    )
    assert symmetric_measure(ds, "stripes").value == 0.0


def test_planted_half_exact_at_n8():
    ds = generate_dataset(
        SyntheticSpec(n_examples=8, n_concepts=1, seed=3, planted_measures={"stripes": 0.5})
    )
    assert symmetric_measure(ds, "stripes").value == 0.5
    assert naive_symmetric(ds, "stripes")[0] == 0.5


def test_planted_within_one_over_n():
    for seed, target, n in ((4, 0.37, 11), (5, -0.62, 7), (6, 0.9, 13)):
        ds = generate_dataset(
            SyntheticSpec(n_examples=n, n_concepts=2, seed=seed, planted_measures={"c": target})
        )
        assert abs(symmetric_measure(ds, "c").value - target) <= 1.0 / n + 1e-12


def test_planting_infeasible_combinations():
    with pytest.raises(InfeasiblePlantError):
        generate_dataset(
            SyntheticSpec(n_examples=4, n_concepts=1, seed=0, planted_measures={"c": 1.5})
        )
    with pytest.raises(InfeasiblePlantError):
        generate_dataset(
            SyntheticSpec(
                n_examples=4, n_concepts=1, concept_kind="continuous",
                seed=0, planted_measures={"c": 0.5},
            )
        )
    with pytest.raises(InfeasiblePlantError):
        generate_dataset(
            SyntheticSpec(
                n_examples=4, n_concepts=1, seed=0,
                planted_measures={"a": 0.5, "b": 0.5},
            )
        )
    with pytest.raises(InfeasiblePlantError):
        generate_dataset(
            SyntheticSpec(
                n_examples=4, n_concepts=1, seed=0, weight_kind="random",
                planted_measures={"c": 0.5},
            )
        )


def test_generation_is_deterministic_golden():
    specs = {
        "binary_planted": SyntheticSpec(
            n_examples=8, n_concepts=2, concept_kind="binary", seed=123,
            planted_measures={"stripes": 0.5},
        ),
        "continuous_dyadic": SyntheticSpec(
            n_examples=6, n_concepts=3, concept_kind="continuous", seed=99,
            weight_kind="dyadic",
        ),
    }
    for name, spec in specs.items():
        first = to_jsonl(generate_dataset(spec))
        second = to_jsonl(generate_dataset(spec))
        assert first == second
        assert hashlib.sha256(first).hexdigest() == GOLDEN_HASHES[name]


def test_ground_truth_flag_sets_y_equal_h():
    ds = generate_dataset(SyntheticSpec(n_examples=5, n_concepts=1, seed=8, with_ground_truth=True))
    assert ds.ground_truth == ds.predictions


def test_dyadic_weights_sum_exactly_one():
    ds = generate_dataset(
        SyntheticSpec(n_examples=7, n_concepts=1, seed=10, weight_kind="dyadic")
    )
    assert math.fsum(ds.weights) == 1.0


def test_split_preserves_total_weight_exactly_on_dyadic():
    ds = generate_dataset(
        SyntheticSpec(n_examples=9, n_concepts=2, seed=11, weight_kind="dyadic")
    )
    before = math.fsum(ds.weights)
    split = split_example(ds, ds.ids[4], 3 / 16)
    after = math.fsum(split.weights)
    assert before == after
    assert len(split.ids) == len(ds.ids) + 1


def test_split_preserves_measures_on_hand_dataset():
    from conceptscope.dataset import ConceptDataset

    ds = ConceptDataset(["a", "b"], [1, -1], {"s": [0.5, 0.2]}, [0.6, 0.4])
    split = split_example(ds, "a", 0.3)
    assert symmetric_measure(split, "s").value == pytest.approx(0.22, abs=1e-12)
    assert abs(
        symmetric_measure(split, "s").value - symmetric_measure(ds, "s").value
    ) <= 1e-12


def test_chained_splits_preserve_measures():
    ds = generate_dataset(
        SyntheticSpec(n_examples=6, n_concepts=1, concept_kind="continuous", seed=12,
                      weight_kind="dyadic")
    )
    concept = ds.concept_names[0]
    reference = {
        "sym": symmetric_measure(ds, concept).value,
        "cc": class_conditioned_measure(ds, concept).value,
        "ccth": concept_conditioned_measure(ds, concept, -0.5).value,
    }
    current = ds
    target = current.ids[0]
    for fraction in (0.5, 0.25, 0.75):
        current = split_example(current, target, fraction)
        target = f"{target}#0"
    assert symmetric_measure(current, concept).value == pytest.approx(reference["sym"], abs=1e-12)
    assert class_conditioned_measure(current, concept).value == pytest.approx(reference["cc"], abs=1e-12)
    assert concept_conditioned_measure(current, concept, -0.5).value == pytest.approx(
        reference["ccth"], abs=1e-12
    )


def test_split_argument_validation():
    ds = generate_dataset(SyntheticSpec(n_examples=3, n_concepts=1, seed=13))
    with pytest.raises(ValidationError):
        split_example(ds, "nope", 0.5)
    for fraction in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            split_example(ds, ds.ids[0], fraction)


def test_cap_probability_matches_arc_length_in_2d():
    for theta in (0.0, 0.5, 0.995):
        assert cap_probability(2, theta) == pytest.approx(math.acos(theta) / math.pi, abs=1e-12)


# Cap edges x = (1 - theta)/2 from 1/160000 to 1/2, then past the
# hemisphere. For each of these floats 1 - |theta| is exact, so the cap
# the package computes has its edge exactly at (1 - Fraction(theta))/2.
CAP_THETAS = [float(1 - 2 * Fraction(1, d)) for d in (160000, 16000, 1600, 160, 16, 4)] + [
    0.25, 0.0, -0.25, -0.5, -0.875, -0.99975]


@pytest.mark.parametrize("dim", [3, 5, 9, 65])
def test_cap_probability_matches_the_binomial_oracle(dim):
    for theta in CAP_THETAS:
        exact = binomial_cap_mass(dim, (1 - Fraction(theta)) / 2)
        assert cap_probability(dim, theta) == pytest.approx(exact, rel=1e-13, abs=0), theta


def test_cap_inverse_round_trips_through_the_cdf():
    # Inside the cap of theta, the quantile u = mass(theta') / mass(theta)
    # of a theta' >= theta lies on the edge of the cap of theta'. A u near
    # 1 holds 1 - u to an ulp of 1 only, so past the hemisphere the one
    # inner cap taken is the cap itself, at u = 1.
    for dim in range(2, 129):
        a = (dim - 1) / 2.0
        log_masses = np.array([_cap_mass(a, theta)[2] for theta in CAP_THETAS])
        for i, theta in enumerate(CAP_THETAS):
            inner = [j for j in range(i + 1) if CAP_THETAS[j] >= 0.0 or j == i]
            b = _cap_marginal(a, theta, np.exp(log_masses[inner] - log_masses[i]))
            edges = [(1.0 - CAP_THETAS[j]) / 2.0 for j in inner]
            assert b == pytest.approx(edges, rel=1e-13, abs=0), (dim, theta)


def test_cap_functions_match_scipy():
    # q = u I_x(a, a) near 1 holds few bits of 1 - q, so a target above 1/2
    # is inverted through I_b(a, a) = 1 - I_{1-b}(a, a), as the package does.
    u = np.geomspace(2.0**-53, 1.0, 25)
    edges = np.concatenate([np.geomspace(6.25e-6, 0.5, 12), 1.0 - np.geomspace(0.25, 6.25e-6, 11)])
    for dim in range(2, 129):
        a = (dim - 1) / 2.0
        for theta in (1.0 - 2.0 * edges).tolist():
            mass = betainc(a, a, (1.0 - theta) / 2.0)
            assert cap_probability(dim, theta) == pytest.approx(mass, rel=1e-13, abs=0)
            outside = (1.0 - u) + u * betainc(a, a, (1.0 + theta) / 2.0)
            expected = np.where(u * mass > 0.5, 1.0 - betaincinv(a, a, outside),
                                betaincinv(a, a, u * mass))
            assert _cap_marginal(a, theta, u) == pytest.approx(expected, rel=1e-13, abs=0), (
                dim, theta)


def test_cap_whose_mass_underflows_still_samples():
    # The cap's mass, about 1e-513, underflows a float; sampled from it,
    # every point would sit on the axis. axis.g of an axis e_0 is g[0]
    # exactly. Near the edge x = (1 - theta)/2 the Beta(a, a) density
    # falls off as exp(-(x - b)/s), s = x(1 - x)/((a - 1)(1 - 2x)) to
    # first order in 1/a and x, so E[x - b] = E[(g[0] - theta)/2] is about
    # s; one standard error of the mean of 116 draws is about 9% of s.
    assert cap_probability(512, 0.995) == 0.0
    axis = np.zeros(512)
    axis[0] = 1.0
    points = sample_spherical_cap(make_rng(25), axis, 0.995, 116)
    assert len(np.unique(points, axis=0)) == len(np.unique(points[:, 0])) == 116
    assert np.all((points[:, 0] >= 0.995) & (points[:, 0] < 1.0))
    a, x = 255.5, 0.0025
    scale = x * (1.0 - x) / ((a - 1.0) * (1.0 - 2.0 * x))
    assert float(np.mean(points[:, 0] - 0.995)) / 2.0 == pytest.approx(scale, rel=0.3)


def test_cap_samples_lie_on_cap():
    rng = make_rng(21)
    for dim in (2, 8, 64):
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        points = sample_spherical_cap(make_rng(22, dim), axis, 0.9, 200)
        norms = np.linalg.norm(points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        assert np.min(points @ axis) >= 0.9 - 1e-12


def test_cap_rejection_and_exact_agree_on_big_cap():
    # The sampler against the rejection reference, on caps from most of
    # the sphere down to a cap of mass 1e-3: axis.g and one coordinate
    # orthogonal to the axis must have the same law.
    rng = make_rng(23)
    for dim in (2, 3, 8):
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        across = rng.standard_normal(dim)
        across -= (across @ axis) * axis
        across /= np.linalg.norm(across)
        for theta in (-0.5, 0.0, 0.5, 0.875):
            exact = sample_spherical_cap(make_rng(24, dim), axis, theta, 4000)
            reference = rejection_cap_sample(dim, axis, theta, 4000)
            for direction in (axis, across):
                assert ks_2samp(exact @ direction, reference @ direction).pvalue > 1e-3
    # dim 3 makes the marginal of axis.g uniform, so the conditional
    # mean over the half sphere is exactly 0.5.
    axis = np.array([0.0, 0.0, 1.0])
    exact = sample_spherical_cap(make_rng(23), axis, 0.0, 4000)
    assert float(np.mean(exact @ axis)) == pytest.approx(0.5, abs=0.03)


def test_cap_argument_validation():
    axis = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        sample_spherical_cap(make_rng(0), axis * 2.0, 0.5, 1)
    with pytest.raises(DomainError):
        sample_spherical_cap(make_rng(0), axis, 1.0, 1)
    with pytest.raises(DomainError):
        sample_spherical_cap(make_rng(0), axis, 0.5, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: generate_dataset(SyntheticSpec(n_examples=0, n_concepts=1)),
     "n_examples must be >= 1"),
    (lambda: generate_dataset(SyntheticSpec(n_examples=4, n_concepts=0)),
     "n_concepts must be >= 1"),
    (lambda: generate_dataset(SyntheticSpec(n_examples=4, n_concepts=1, concept_kind="ternary")),
     "unknown concept_kind 'ternary'"),
    (lambda: generate_dataset(SyntheticSpec(n_examples=4, n_concepts=1, weight_kind="skewed")),
     "unknown weight_kind 'skewed'"),
    (lambda: cap_probability(1, 0.5), "dim must be an integer >= 2, got 1"),
    (lambda: cap_probability(8, 1.0), "theta must lie in [-1, 1), got 1.0"),
    (lambda: sample_spherical_cap(make_rng(0), np.eye(2), 0.5, 1),
     "axis must be a 1-D vector with dim >= 2"),
], ids=["no-examples", "no-concepts", "concept-kind", "weight-kind", "cap-dim-1",
        "cap-theta-1", "cap-axis-2d"])
def test_argument_error_messages(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


def test_theorem2_trial_record():
    trial = theorem2_trial(0.2, 0.1, 8, seed=42)
    assert trial.n_used <= 116
    assert trial.lhs_gap <= 0.1 + 1e-12
    assert trial.bound_holds
    assert theorem2_trial(0.2, 0.1, 8, seed=42) == trial


def test_theorem2_trial_validation():
    with pytest.raises(DomainError):
        theorem2_trial(0.0, 0.1, 8, seed=0)
    with pytest.raises(DomainError):
        theorem2_trial(0.2, 1.0, 8, seed=0)
    with pytest.raises(DomainError):
        theorem2_trial(0.2, 0.1, 1, seed=0)


def test_theorem2_gap_with_forced_aligned_concept():
    # With v = w_h the conditional concept mean sits within eps/2 of 1
    # because every cap member has w.g >= 1 - eps^2/8.
    epsilon = 0.4
    theta = 1.0 - epsilon**2 / 8.0
    rng = make_rng(33)
    axis = rng.standard_normal(8)
    axis /= np.linalg.norm(axis)
    points = sample_spherical_cap(rng, axis, theta, 500)
    gaps = np.abs(points @ axis - 1.0)
    assert float(np.max(gaps)) <= epsilon / 2.0 + 1e-12


def _theorem2_trials(epsilon, delta, dim, trials, seed):
    return [theorem2_trial(epsilon, delta, dim, derive_seed(seed, i)) for i in range(trials)]


def test_theorem2_records_are_pinned():
    records = [
        [record.lhs_gap.hex(), record.n_used, record.bound_holds]
        for epsilon, dim in THEOREM2_CASES
        for record in _theorem2_trials(epsilon, 0.1, dim, 20, seed=0)
    ]
    digest = hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()
    assert digest == THEOREM2_RECORDS_SHA256


def test_theorem2_batch_derives_distinct_seeds():
    records = _theorem2_trials(0.3, 0.2, 4, trials=5, seed=7)
    assert len(records) == 5
    assert len({r.lhs_gap for r in records}) > 1
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 3) == derive_seed(7, 3)


def test_theorem2_suite_records_are_the_batch():
    epsilon, delta, dim = 0.3, 0.2, 4
    records = run_theorem2_suite(epsilon, delta, dim, 6, 11)[1]
    assert records == [
        {"trial": i, "dim": dim, "epsilon": epsilon, "delta": delta,
         "lhs_gap": r.lhs_gap, "n_used": r.n_used, "bound_holds": r.bound_holds}
        for i, r in enumerate(_theorem2_trials(epsilon, delta, dim, 6, 11))
    ]


def test_axioms_suite_counts_failing_trials(monkeypatch):
    # A split that also flips row 0's prediction breaks recursivity in
    # every trial, for up to three measures each; the line counts trials.
    def flipping_split(dataset, example_id, fraction):
        split = split_example(dataset, example_id, fraction)
        predictions = (-split.predictions[0],) + split.predictions[1:]
        concepts = {name: split.column(name) for name in split.concept_names}
        return ConceptDataset(split.ids, predictions, concepts, split.weights)

    monkeypatch.setattr(verify, "split_example", flipping_split)
    report = run_axioms_suite(20, 0)
    assert report.lines[0] == "axioms/recursivity: FAIL (0/20 within 1e-12)"
    assert len(report.failures) > 20


def test_axioms_linearity_fails_when_definedness_changes(monkeypatch):
    # A duplicate-and-halve that also drops the h=+1 rows leaves the
    # class-conditioned measure undefined wherever it was defined.
    duplicate_and_halve, mixed = verify._duplicate_and_halve, []

    def dropping_positives(dataset):
        doubled = duplicate_and_halve(dataset)
        keep = [i for i, p in enumerate(doubled.predictions) if p == -1]
        mixed.append(0 < len(keep) < len(doubled))
        if not mixed[-1]:
            return doubled
        total = math.fsum(doubled.weights[i] for i in keep)
        return ConceptDataset(
            [doubled.ids[i] for i in keep], [-1] * len(keep),
            {name: [doubled.column(name)[i] for i in keep] for name in doubled.concept_names},
            [doubled.weights[i] / total for i in keep])

    monkeypatch.setattr(verify, "_duplicate_and_halve", dropping_positives)
    report = run_axioms_suite(20, 0)
    assert len(mixed) == 20 and 0 < sum(mixed) < 20
    assert report.lines[1] == f"axioms/linearity: FAIL ({20 - sum(mixed)}/20 within 1e-12)"
    undefined = {f["trial"] for f in report.failures
                 if f["check"] == "linearity" and f["measure"] == "class_conditioned"}
    assert undefined == {trial for trial, was_mixed in enumerate(mixed) if was_mixed}
    assert all(f["detail"] == "definedness changed across duplicate-and-halve"
               for f in report.failures
               if f["check"] == "linearity" and f["measure"] == "class_conditioned")


def test_hierarchy_world_is_deterministic_golden():
    world = generate_hierarchy_world(seed=0)
    hashes = {name: hashlib.sha256(to_jsonl(ds)).hexdigest() for name, ds in world.items()}
    assert hashes == GOLDEN_HASHES["hierarchy_world"]


def test_hierarchy_world_margins():
    world = generate_hierarchy_world(seed=0)
    children = [name for name in world if name.startswith("child_")]
    for child in children:
        ds = world[child]
        assert class_conditioned_measure(ds, "parent").value >= 0.9
        assert class_conditioned_measure(ds, "unrelated").value <= 0.1
        assert concept_conditioned_measure(world["parent"], child, 1.0).value >= 0.9
        assert concept_conditioned_measure(world["unrelated"], child, 1.0).value <= 0.1


def test_hierarchy_world_has_ground_truth_and_flips():
    world = generate_hierarchy_world(n_children=2, n_per_class=10, flip_rate=0.1, seed=1)
    ds = world["child_0"]
    flipped = sum(1 for h, y in zip(ds.predictions, ds.ground_truth) if h != y)
    assert flipped == 3  # floor(0.1 * 30)


def test_contamination_instance_shape():
    instance = generate_contamination_instance(0, n_images=10, few_shot_per_class=2)
    assert instance.images.shape == (10, 32) and len(instance.labels) == 10
    assert instance.few_shot.shape == (4, 32) and len(instance.few_shot_labels) == 4
    assert instance.class_prompts.shape == (len(instance.class_names), 32)
    assert instance.concept_prompts.shape == (1, 32)
    assert instance.contaminated_class == instance.class_names[0]
    vector_sets = (instance.class_prompts, instance.concept_prompts, instance.images,
                   instance.few_shot)
    for vectors in vector_sets:
        for vector in vectors:
            assert float(np.linalg.norm(vector)) == pytest.approx(1.0, abs=1e-9)
    assert set(instance.labels) <= set(instance.class_names)


def test_contamination_zero_keeps_prompt_clean():
    instance = generate_contamination_instance(1, contamination=0.0, n_images=4)
    contaminated = instance.class_prompts[0]
    distractor = instance.concept_prompts[0]
    assert abs(float(np.dot(contaminated, distractor))) < 1e-9


def test_make_rng_rejects_bad_seeds():
    with pytest.raises(DomainError):
        make_rng(-1)
    with pytest.raises(DomainError):
        make_rng(2**64)
