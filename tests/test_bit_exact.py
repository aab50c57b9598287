"""The package's sums equal exact rational sums rounded once, in any row order.

Datasets are written as JSONL with random, non-dyadic weights (some
missing) and loaded with ``load_dataset``. The reference dataset is
built from the parsed JSON objects, not from the loader's columns, with
its weights normalized by an exact ``Fraction`` total, and measured by
the oracles in ``oracles.py``. Every comparison is ``==``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conceptscope.completeness import completeness_brute_force, completeness_closed_form
from conceptscope.dataset import ConceptDataset, load_dataset, with_ground_truth_predictions
from conceptscope.errors import UndefinedMeasureError
from conceptscope.measures import (
    CLASS_CONDITIONED,
    CONCEPT_CONDITIONED,
    MEASURE_KINDS,
    SYMMETRIC,
    class_conditioned_measure,
    concept_conditioned_measure,
    measure,
    symmetric_measure,
)
from oracles import (
    exact_sum,
    naive_class_conditioned,
    naive_closed_form,
    naive_completeness,
    naive_concept_conditioned,
    naive_symmetric,
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


def parsed(data):
    return [json.loads(line) for line in data.decode().splitlines()]


def normalized_weights(objs):
    """The weight column ``load_dataset`` must produce from ``objs``, and the raw total."""
    uniform = 1.0 / len(objs)
    raw = [uniform if obj.get("weight") is None else float(obj["weight"]) for obj in objs]
    total = exact_sum(raw)
    return [w / total for w in raw], total


def reference_rows(data, predictions="prediction"):
    """Columns from the parsed JSON, with ``predictions`` read from that key."""
    objs = parsed(data)
    weights, _ = normalized_weights(objs)
    return ConceptDataset(
        [obj["id"] for obj in objs],
        [obj[predictions] for obj in objs],
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
    weights, total = normalized_weights(parsed(data))
    dataset = load_dataset(data)
    assert tuple(dataset.weights) == tuple(weights)
    assert dataset.original_weight_total == total
    assert dataset.weight_total == exact_sum(weights)


@given(jsonl_files(), st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_measures_are_bit_identical(data, theta):
    dataset = load_dataset(data)
    series = [(dataset, reference_rows(data)),
              (with_ground_truth_predictions(dataset), reference_rows(data, "ground_truth"))]
    for columnar, reference in series:
        for name in NAMES:
            expected = {
                SYMMETRIC: naive_symmetric(reference, name),
                CLASS_CONDITIONED: naive_class_conditioned(reference, name),
                CONCEPT_CONDITIONED: naive_concept_conditioned(reference, name, theta),
            }
            assert measured(symmetric_measure, columnar, name) == expected[SYMMETRIC]
            assert measured(class_conditioned_measure, columnar, name) == (
                expected[CLASS_CONDITIONED]
            )
            assert measured(concept_conditioned_measure, columnar, name, theta) == (
                expected[CONCEPT_CONDITIONED]
            )
            for kind in MEASURE_KINDS:
                assert measured(measure, kind, columnar, name, theta) == expected[kind]


@given(jsonl_files(binary=True))
@settings(max_examples=150, deadline=None)
def test_completeness_is_bit_identical(data):
    dataset = load_dataset(data)
    rows = reference_rows(data)
    for name in NAMES:
        closed = completeness_closed_form(dataset, name)
        assert (closed.value, closed.per_level_terms) == naive_closed_form(rows, name)
        assert completeness_brute_force(dataset, name).value == naive_completeness(rows, name)


def results(dataset, theta, binary):
    """Every total, measure and (on binary concepts) completeness of both series."""
    out = [dataset.weight_total, dataset.original_weight_total]
    for series in (dataset, with_ground_truth_predictions(dataset)):
        for name in NAMES:
            out += [
                measured(symmetric_measure, series, name),
                measured(class_conditioned_measure, series, name),
                measured(concept_conditioned_measure, series, name, theta),
            ]
            if binary:
                closed = completeness_closed_form(series, name)
                brute = completeness_brute_force(series, name)
                out += [closed.value, closed.per_level_terms, brute.value]
    return out


@given(st.booleans().flatmap(lambda binary: st.tuples(st.just(binary), jsonl_files(binary))),
       st.floats(-1.0, 1.0, allow_nan=False), st.data())
@settings(max_examples=150, deadline=None)
def test_results_do_not_depend_on_row_order(file, theta, draw):
    binary, data = file
    lines = data.decode().splitlines()
    permuted = ("\n".join(draw.draw(st.permutations(lines))) + "\n").encode()
    assert results(load_dataset(permuted), theta, binary) == results(
        load_dataset(data), theta, binary
    )
