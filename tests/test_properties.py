"""Property tests for the measure identities and oracle equalities."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptscope.completeness import completeness_brute_force, completeness_closed_form
from conceptscope.dataset import ConceptDataset
from conceptscope.errors import UndefinedMeasureError
from conceptscope.measures import (
    class_conditioned_measure,
    hoeffding_radius,
    hoeffding_sample_size,
    symmetric_measure,
)
from conceptscope.prompts import edit_prompt
from conceptscope.synthetic import split_example
from conceptscope.verify import _all_measures
from conceptscope.votes import VoteRecord, metrics_at_k
from oracles import (
    naive_class_conditioned,
    naive_completeness,
    naive_symmetric,
    naive_vote_metrics,
)

TOL = 1e-12

weights_st = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)
concept_values_st = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, max_size=12, binary=False):
    n = draw(st.integers(1, max_size))
    predictions = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    values_st = st.sampled_from([-1.0, 1.0]) if binary else concept_values_st
    values = draw(st.lists(values_st, min_size=n, max_size=n))
    raw = draw(st.lists(weights_st, min_size=n, max_size=n))
    total = math.fsum(raw)
    return ConceptDataset(
        [f"x{i}" for i in range(n)], predictions, {"c": values}, [w / total for w in raw]
    )


@given(st.lists(st.tuples(st.integers(0, 64), st.sampled_from([-1, 1]), st.booleans()),
                min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_similarity_axiom_on_dyadic_weights(rows):
    # Weights are multiples of 2**-10 summing to 1, so every sum below is exact.
    masses = [mass for mass, _, _ in rows[1:]]
    masses.insert(0, 1024 - sum(masses))
    weights = [mass / 1024 for mass in masses]
    predictions = [prediction for _, prediction, _ in rows]
    agrees = [agree for _, _, agree in rows]

    def phi(concept):
        dataset = ConceptDataset([f"x{i}" for i in range(len(rows))], predictions,
                                 {"c": concept}, weights)
        return symmetric_measure(dataset, "c").value

    def brute(concept):
        disagreeing = sum((Fraction(mass, 1024) for mass, h, c in zip(masses, predictions, concept)
                           if c != h), Fraction(0))
        return 1 - 2 * disagreeing

    concept = [float(h if agree else -h) for h, agree in zip(predictions, agrees)]
    assert phi(concept) == brute(concept)
    assert phi([float(h) for h in predictions]) == 1.0
    assert phi([float(-h) for h in predictions]) == -1.0
    for i, agree in enumerate(agrees):
        if agree:
            flipped = concept[:i] + [-concept[i]] + concept[i + 1:]
            assert phi(flipped) == phi(concept) - 2 * weights[i] == brute(flipped)


@given(
    datasets(),
    st.integers(0, 11),
    st.integers(1, 1023),
    st.floats(-1.0, 1.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_recursivity_under_weight_splits(ds, position, numerator, theta):
    target = ds.ids[position % len(ds)]
    fraction = numerator / 1024.0
    before = _all_measures(ds, "c", theta)
    after = _all_measures(split_example(ds, target, fraction), "c", theta)
    for name in before:
        assert (before[name] is None) == (after[name] is None)
        if before[name] is not None:
            assert abs(before[name] - after[name]) <= TOL


@given(datasets())
@settings(max_examples=200, deadline=None)
def test_duplicate_and_halve_changes_nothing(ds):
    doubled = ConceptDataset(
        [example_id + suffix for suffix in ("", "*") for example_id in ds.ids],
        ds.predictions * 2,
        {"c": [*ds.column("c")] * 2},
        [weight / 2.0 for weight in ds.weights] * 2,
    )
    before = _all_measures(ds, "c", 0.25)
    after = _all_measures(doubled, "c", 0.25)
    for name in before:
        if before[name] is not None:
            assert abs(before[name] - after[name]) <= TOL


@given(datasets())
@settings(max_examples=300, deadline=None)
def test_symmetric_decomposes_over_prediction_classes(ds):
    negatives = [
        (value, weight)
        for prediction, value, weight in zip(ds.predictions, ds.column("c"), ds.weights)
        if prediction == -1
    ]
    weight_neg = math.fsum(weight for _, weight in negatives)
    try:
        positive = class_conditioned_measure(ds, "c")
    except UndefinedMeasureError:
        return
    if not negatives or weight_neg <= 0.0:
        return
    mean_neg = math.fsum(weight * value for value, weight in negatives) / weight_neg
    expected = positive.value * positive.effective_count - mean_neg * weight_neg
    assert abs(symmetric_measure(ds, "c").value - expected) <= TOL


@given(datasets())
@settings(max_examples=300, deadline=None)
def test_measures_stay_in_range(ds):
    for value in _all_measures(ds, "c", -0.5).values():
        if value is not None:
            assert -1.0 <= value <= 1.0


@given(datasets())
@settings(max_examples=200, deadline=None)
def test_symmetric_matches_naive_oracle(ds):
    result = symmetric_measure(ds, "c")
    assert (result.value, result.effective_count) == naive_symmetric(ds, "c")
    naive = naive_class_conditioned(ds, "c")
    if naive is not None:
        result = class_conditioned_measure(ds, "c")
        assert (result.value, result.effective_count) == naive


@given(datasets(binary=True))
@settings(max_examples=1000, deadline=None)
def test_completeness_routes_agree(ds):
    closed = completeness_closed_form(ds, "c")
    brute = completeness_brute_force(ds, "c")
    assert abs(closed.value - brute.value) <= TOL
    assert 0.5 - 1e-9 <= closed.value <= 1.0
    assert brute.value == naive_completeness(ds, "c")


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_hoeffding_sample_size_is_minimal(epsilon, delta):
    n = hoeffding_sample_size(epsilon, delta)
    assert hoeffding_radius(n, delta) <= epsilon * (1 + 1e-12)
    if n > 1:
        assert hoeffding_radius(n - 1, delta) > epsilon * (1 - 1e-12)


@given(
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_edit_is_linear_in_lambda(components, a, b):
    vector = np.asarray(components) + np.array([2.0, 0.0, 0.0, 0.0])
    prompt = vector / np.linalg.norm(vector)
    concepts = np.array([[0.0, 1.0, 0.0, 0.0]])
    lhs = edit_prompt(prompt, concepts, a) + edit_prompt(prompt, concepts, b) - prompt
    rhs = edit_prompt(prompt, concepts, a + b)
    assert float(np.max(np.abs(lhs - rhs))) <= TOL


@st.composite
def vote_tables(draw):
    n = draw(st.integers(1, 30))
    total = draw(st.integers(1, 11))
    records = []
    for i in range(n):
        yes = draw(st.integers(0, total))
        label = draw(st.sampled_from(["present", "absent"]))
        records.append(VoteRecord(f"x{i}", "w", yes, total, label))
    # Guarantee recall is defined.
    records.append(VoteRecord("anchor", "w", total, total, "present"))
    return records, total


@given(vote_tables())
@settings(max_examples=300, deadline=None)
def test_vote_metrics_match_oracle_and_monotone(table):
    records, total = table
    recalls = []
    for k in range(total + 1):
        metrics = metrics_at_k(records, k)
        accuracy, recall = naive_vote_metrics(records, k)
        assert metrics.accuracy == accuracy
        assert metrics.recall == recall
        recalls.append(metrics.recall)
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))
