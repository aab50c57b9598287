"""The columnar reductions reproduce the row-loop Kahan sums bit for bit.

Datasets are written as JSONL with random, non-dyadic weights (some
missing) and loaded with ``load_dataset``. The reference dataset is
built from the parsed JSON objects, not from the loader's columns, and
reduced with the row loops in ``row_kahan``. Every comparison is ``==``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import row_kahan
from conceptscope.completeness import completeness_brute_force, completeness_closed_form
from conceptscope.dataset import ConceptDataset, load_dataset, with_ground_truth_predictions
from conceptscope.errors import UndefinedMeasureError
from conceptscope.measures import (
    class_conditioned_measure,
    concept_conditioned_measure,
    symmetric_measure,
)

NAMES = ("a", "b", "c")

# Weights that are not multiples of a power of two, so the products and
# sums round and the order of the reduction shows in the last bits.
raw_weights_st = st.one_of(
    st.none(),
    st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
    st.integers(1, 10**6).map(lambda i: i / 997),
)


@st.composite
def jsonl_files(draw, binary=False):
    n = draw(st.integers(1, 40))
    values_st = (
        st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1.0, 1.0, allow_nan=False)
    )
    lines = []
    for i in range(n):
        obj = {
            "id": f"r{i}",
            "prediction": draw(st.sampled_from([-1, 1])),
            "concepts": {name: draw(values_st) for name in NAMES},
            "ground_truth": draw(st.sampled_from([-1, 1])),
        }
        weight = draw(raw_weights_st)
        if weight is not None:
            obj["weight"] = weight
        lines.append(json.dumps(obj))
    if all('"weight"' not in line for line in lines):
        # At least one explicit non-dyadic weight.
        obj = json.loads(lines[0])
        obj["weight"] = 0.3
        lines[0] = json.dumps(obj)
    return ("\n".join(lines) + "\n").encode()


def reference_rows(data):
    """Columns from the parsed JSON, weighted by the row-loop normalization."""
    weights, _ = row_kahan.normalized_weights(data)
    objs = [json.loads(line) for line in data.decode().splitlines()]
    return ConceptDataset(
        [obj["id"] for obj in objs],
        [obj["prediction"] for obj in objs],
        {name: [float(obj["concepts"][name]) for obj in objs] for name in NAMES},
        weights,
        [obj["ground_truth"] for obj in objs],
    )


def measured(measure, *args):
    try:
        result = measure(*args)
    except UndefinedMeasureError:
        return None
    return result.value, result.effective_count


@given(jsonl_files())
@settings(max_examples=150, deadline=None)
def test_normalized_weights_are_bit_identical(data):
    weights, total = row_kahan.normalized_weights(data)
    dataset = load_dataset(data)
    assert dataset.weights == tuple(weights)
    assert dataset.original_weight_total == total


@given(jsonl_files(), st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_measures_are_bit_identical(data, theta):
    dataset = load_dataset(data)
    rows = reference_rows(data)
    series = [(dataset, rows), (with_ground_truth_predictions(dataset),
                                row_kahan.with_ground_truth(rows))]
    for columnar, reference in series:
        for name in NAMES:
            assert measured(symmetric_measure, columnar, name) == row_kahan.symmetric(
                reference, name
            )
            expected = row_kahan.class_conditioned(reference, name)
            assert measured(class_conditioned_measure, columnar, name) == (
                expected and expected[:2]
            )
            expected = row_kahan.concept_conditioned(reference, name, theta)
            assert measured(concept_conditioned_measure, columnar, name, theta) == (
                expected and expected[:2]
            )


@given(jsonl_files(binary=True))
@settings(max_examples=150, deadline=None)
def test_completeness_is_bit_identical(data):
    dataset = load_dataset(data)
    rows = reference_rows(data)
    for name in NAMES:
        closed = completeness_closed_form(dataset, name)
        value, terms = row_kahan.completeness(rows, name)
        assert closed.value == value
        assert closed.per_level_terms == terms
        assert completeness_brute_force(dataset, name).value == row_kahan.brute_force(
            rows, name
        )
