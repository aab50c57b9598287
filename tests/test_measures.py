import math
import re

import pytest

from conceptscope import measures, verify
from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError, SchemaError, UndefinedMeasureError
from conceptscope.measures import (
    CONCEPT_CONDITIONED,
    MEASURE_KINDS,
    class_conditioned_measure,
    concept_conditioned_measure,
    hoeffding_radius,
    hoeffding_sample_size,
    symmetric_measure,
)
from conceptscope.report import compute_measure_table
from oracles import naive_class_conditioned, naive_concept_conditioned, naive_symmetric


def dataset(rows, names=("s",)):
    predictions, values, weights = zip(*rows)
    return ConceptDataset(
        [f"x{i}" for i in range(len(rows))],
        predictions,
        {name: [row[k] for row in values] for k, name in enumerate(names)},
        weights,
    )


def test_symmetric_perfect_agreement():
    ds = dataset([(1, [1.0], 0.5), (-1, [-1.0], 0.5)])
    assert symmetric_measure(ds, "s").value == 1.0


def test_symmetric_balanced_signs_is_zero():
    ds = dataset(
        [(1, [1.0], 0.25), (1, [-1.0], 0.25), (-1, [1.0], 0.25), (-1, [-1.0], 0.25)]
    )
    assert symmetric_measure(ds, "s").value == 0.0


def test_symmetric_weighted_example():
    ds = dataset([(1, [0.5], 0.6), (-1, [0.2], 0.4)])
    result = symmetric_measure(ds, "s")
    assert result.value == pytest.approx(0.22, abs=1e-15)
    assert (result.value, result.effective_count) == naive_symmetric(ds, "s")
    assert result.kind == "symmetric"
    assert result.effective_count == pytest.approx(1.0, abs=1e-12)


def test_unknown_concept_is_schema_error():
    ds = dataset([(1, [1.0], 1.0)])
    for fn in (symmetric_measure, class_conditioned_measure):
        with pytest.raises(SchemaError):
            fn(ds, "nope")
    with pytest.raises(SchemaError):
        concept_conditioned_measure(ds, "nope", 0.0)


def test_class_conditioned_concept_always_present():
    ds = dataset([(1, [1.0], 0.5), (1, [1.0], 0.25), (-1, [-1.0], 0.25)])
    assert class_conditioned_measure(ds, "s").value == 1.0


def test_class_conditioned_no_positive_predictions():
    ds = dataset([(-1, [1.0], 1.0)])
    message = ("class-conditioned measure of 's' is undefined:"
               " no weight on examples predicted +1")
    with pytest.raises(UndefinedMeasureError, match=f"^{re.escape(message)}$"):
        class_conditioned_measure(ds, "s")


def test_class_conditioned_weighted_mean():
    ds = dataset([(1, [0.8], 0.25), (1, [-0.4], 0.25), (-1, [1.0], 0.5)])
    result = class_conditioned_measure(ds, "s")
    assert result.value == pytest.approx(0.2, abs=1e-15)
    assert (result.value, result.effective_count) == naive_class_conditioned(ds, "s")
    assert result.effective_count == pytest.approx(0.5, abs=1e-12)


def test_concept_conditioned_sufficiency():
    ds = dataset([(1, [1.0], 0.5), (-1, [-1.0], 0.25), (-1, [0.0], 0.25)])
    result = concept_conditioned_measure(ds, "s", 1.0)
    assert result.value == 1.0
    assert result.threshold == 1.0


def test_concept_conditioned_theta_minus_one_is_expectation_of_h():
    ds = dataset([(1, [0.3], 0.65), (-1, [-0.9], 0.35)])
    result = concept_conditioned_measure(ds, "s", -1.0)
    assert result.value == pytest.approx(0.3, abs=1e-15)


def test_concept_conditioned_filter_and_average():
    ds = dataset([(1, [0.9], 0.5), (-1, [0.7], 0.25), (1, [0.1], 0.25)])
    result = concept_conditioned_measure(ds, "s", 0.5)
    assert result.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert (result.value, result.effective_count) == naive_concept_conditioned(ds, "s", 0.5)


def test_concept_conditioned_boundary_tie_included():
    ds = dataset([(1, [0.5], 0.5), (-1, [0.49], 0.5)])
    result = concept_conditioned_measure(ds, "s", 0.5)
    assert result.value == 1.0
    assert result.effective_count == pytest.approx(0.5, abs=1e-12)


def test_concept_conditioned_empty_set():
    ds = dataset([(1, [0.0], 1.0)])
    for theta, shown in ((0.5, "0.5"), (1, "1")):
        message = (f"concept-conditioned measure of 's' at theta={shown} is undefined:"
                   " no weight on examples with the concept above threshold")
        with pytest.raises(UndefinedMeasureError, match=f"^{re.escape(message)}$"):
            concept_conditioned_measure(ds, "s", theta)


def test_concept_conditioned_theta_out_of_range():
    ds = dataset([(1, [1.0], 1.0)])
    for theta in (-1.5, 1.5, float("nan"), 10**400, -(10**400)):
        with pytest.raises(DomainError):
            concept_conditioned_measure(ds, "s", theta)


@pytest.mark.parametrize("call, message", [
    (lambda: measures.check_measure_parameters("mean", None, None), "unknown measure kind 'mean'"),
    (lambda: measures.check_theta("0.5"), "theta must be a number, got '0.5'"),
], ids=["unknown-kind", "theta-string"])
def test_parameter_error_messages(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


def test_results_are_deterministic():
    ds = dataset([(1, [0.123], 0.375), (-1, [-0.456], 0.625)])
    assert symmetric_measure(ds, "s") == symmetric_measure(ds, "s")


def test_hoeffding_sample_size_values():
    assert hoeffding_sample_size(0.1, 0.05) == 600
    assert hoeffding_sample_size(0.5, 0.5) == 6
    assert hoeffding_sample_size(0.2, 0.1) == 116
    # epsilon -> 1 limit: ceil of 2 ln(1/delta)
    assert hoeffding_sample_size(1 - 1e-12, 0.05) == math.ceil(2 * math.log(20))


def test_hoeffding_sample_size_domain():
    for epsilon, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(DomainError):
            hoeffding_sample_size(epsilon, delta)


def test_hoeffding_radius_values():
    assert hoeffding_radius(600, 0.05) == pytest.approx(0.0999, abs=5e-5)
    # Quadrupling n halves the radius exactly (power-of-two scaling).
    assert hoeffding_radius(600, 0.05) == hoeffding_radius(150, 0.05) / 2.0


def test_hoeffding_radius_inverts_sample_size():
    for epsilon, delta in ((0.1, 0.05), (0.2, 0.1), (0.37, 0.01)):
        n = hoeffding_sample_size(epsilon, delta)
        assert hoeffding_radius(n, delta) <= epsilon * (1 + 1e-12)
        if n > 1:
            assert hoeffding_radius(n - 1, delta) > epsilon * (1 - 1e-12)


def test_hoeffding_radius_domain():
    with pytest.raises(DomainError):
        hoeffding_radius(0, 0.05)
    with pytest.raises(DomainError):
        hoeffding_radius(10, 1.5)
    with pytest.raises(DomainError):
        hoeffding_radius(2**1024, 0.05)  # too large for a float


def test_confidence_radius_uses_conditioning_count():
    ds = dataset(
        [(1, [1.0], 0.2), (1, [0.5], 0.2), (1, [0.0], 0.2), (-1, [1.0], 0.4)]
    )
    result = class_conditioned_measure(ds, "s", delta=0.05)
    assert result.confidence_radius == hoeffding_radius(3, 0.05)
    full = symmetric_measure(ds, "s", delta=0.05)
    assert full.confidence_radius == hoeffding_radius(4, 0.05)
    assert symmetric_measure(ds, "s").confidence_radius is None


def test_tables_and_suites_call_the_module_functions(monkeypatch):
    # A tracer rebinds these names on conceptscope.measures; the dispatch must reach it.
    calls = []
    names = ("symmetric_measure", "class_conditioned_measure", "concept_conditioned_measure")
    for name in names:
        def spy(*args, _name=name, _original=getattr(measures, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(measures, name, spy)
    ds = dataset([(1, [0.5], 0.5), (-1, [0.2], 0.5)])
    for kind in MEASURE_KINDS:
        compute_measure_table([("A", ds)], kind,
                              theta=0.0 if kind == CONCEPT_CONDITIONED else None)
    assert calls == list(names)
    calls.clear()
    verify._all_measures(ds, "s", 0.0)
    assert calls == list(names)
