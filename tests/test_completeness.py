import pytest

from conceptscope.completeness import (
    BRUTE_FORCE,
    CLOSED_FORM,
    completeness_brute_force,
    completeness_closed_form,
)
from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError, SchemaError
from oracles import naive_closed_form, naive_completeness


def dataset(rows):
    predictions, values, weights = zip(*rows)
    return ConceptDataset(
        [f"x{i}" for i in range(len(rows))], predictions, {"s": values}, weights
    )


def test_concept_equals_prediction_scores_one():
    ds = dataset([(1, 1.0, 0.5), (-1, -1.0, 0.5)])
    assert completeness_closed_form(ds, "s").value == 1.0
    assert completeness_brute_force(ds, "s").value == 1.0


def test_independent_concept_scores_half():
    ds = dataset([(1, 1.0, 0.25), (1, -1.0, 0.25), (-1, 1.0, 0.25), (-1, -1.0, 0.25)])
    assert completeness_closed_form(ds, "s").value == 0.5
    assert completeness_brute_force(ds, "s").value == 0.5


def test_mixed_dataset_closed_form():
    ds = dataset([(1, 1.0, 0.5), (-1, 1.0, 0.25), (-1, -1.0, 0.25)])
    closed = completeness_closed_form(ds, "s")
    brute = completeness_brute_force(ds, "s")
    assert closed.value == pytest.approx(0.75, abs=1e-15)
    assert brute.value == pytest.approx(0.75, abs=1e-15)
    assert abs(closed.value - brute.value) <= 1e-12
    # level +1 has E[h | c=+1] = 1/3 over weight 3/4; level -1 is pure.
    assert closed.per_level_terms[1] == (
        pytest.approx(1.0 / 3.0, abs=1e-15),
        pytest.approx(0.75, abs=1e-15),
    )
    assert closed.per_level_terms[-1] == (
        pytest.approx(1.0, abs=1e-15),
        pytest.approx(0.25, abs=1e-15),
    )
    assert closed.method == CLOSED_FORM
    assert brute.method == BRUTE_FORCE


def test_constant_predictor_brute_force():
    ds = dataset([(1, 1.0, 0.5), (1, -1.0, 0.5)])
    assert completeness_brute_force(ds, "s").value == 1.0


def test_closed_form_value_matches_per_level_terms():
    ds = dataset([(1, 1.0, 0.4), (-1, 1.0, 0.35), (1, -1.0, 0.25)])
    closed = completeness_closed_form(ds, "s")
    total = sum(term * prob for term, prob in closed.per_level_terms.values())
    assert closed.value == pytest.approx(0.5 + 0.5 * total, abs=1e-15)


def test_missing_level_is_skipped_not_error():
    ds = dataset([(1, 1.0, 0.75), (-1, 1.0, 0.25)])
    closed = completeness_closed_form(ds, "s")
    assert -1 not in closed.per_level_terms
    assert closed.value == pytest.approx(0.75, abs=1e-15)


def test_non_binary_concept_rejected():
    ds = dataset([(1, 0.5, 1.0)])
    with pytest.raises(DomainError, match="binarize"):
        completeness_closed_form(ds, "s")
    with pytest.raises(DomainError, match="binarize"):
        completeness_brute_force(ds, "s")


def test_unknown_concept():
    ds = dataset([(1, 1.0, 1.0)])
    with pytest.raises(SchemaError):
        completeness_closed_form(ds, "other")


def test_matches_naive_oracle():
    ds = dataset(
        [(1, 1.0, 0.3), (-1, 1.0, 0.1), (1, -1.0, 0.15), (-1, -1.0, 0.45)]
    )
    brute = completeness_brute_force(ds, "s")
    closed = completeness_closed_form(ds, "s")
    assert brute.value == naive_completeness(ds, "s")
    assert (closed.value, closed.per_level_terms) == naive_closed_form(ds, "s")
    assert abs(closed.value - brute.value) <= 1e-12
