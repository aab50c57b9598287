import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptscope.errors import DomainError, ValidationError
from conceptscope.prompts import (
    DEFAULT_LAMBDA_GRID,
    EditPlan,
    classify,
    edit_prompt,
    evaluate,
    fit_lambda,
)
from oracles import naive_macro_f1
from worlds import generate_contamination_instance


def unit(*components):
    v = np.asarray(components, dtype=np.float64)
    return v / np.linalg.norm(v)


def rows(*vectors):
    return np.stack(vectors)


def test_classify_self_similarity():
    prompts = rows(unit(1.0, 0.0), unit(0.0, 1.0))
    assert classify(prompts[1:], prompts).tolist() == [1]


def test_classify_tie_breaks_by_index():
    prompts = rows(unit(1.0, 0.0), unit(1.0, 0.0))
    assert classify(np.array([[1.0, 0.0]]), prompts).tolist() == [0]


def test_classify_hand_built_scores():
    image = np.array([[1.0, 0.0]])
    prompts = rows(
        unit(0.9, math.sqrt(1 - 0.81)),
        unit(0.2, math.sqrt(1 - 0.04)),
        unit(-0.1, math.sqrt(1 - 0.01)),
    )
    assert classify(image, prompts).tolist() == [0]


def test_classify_requires_prompts_and_matching_dims():
    with pytest.raises(DomainError):
        classify(np.array([[1.0, 0.0]]), np.empty((0, 2)))
    with pytest.raises(ValidationError):
        classify(np.array([[1.0, 0.0, 0.0]]), rows(unit(1.0, 0.0)))
    with pytest.raises(ValidationError):
        classify(np.array([1.0, 0.0]), rows(unit(1.0, 0.0)))


def test_classify_rejects_non_finite_prompts():
    prompts = rows(unit(1.0, 0.0), np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError, match="prompt 1 has non-finite"):
        classify(np.array([[1.0, 0.0]]), prompts)


def _row_loop_classify(images, prompts):
    """Per-image np.dot scores, first maximum wins."""
    best = []
    for image in images:
        scores = [float(np.dot(image, prompt)) for prompt in prompts]
        best.append(max(range(len(scores)), key=scores.__getitem__))
    return best


@st.composite
def classify_inputs(draw):
    dim = draw(st.integers(1, 48))
    values = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    vectors = st.lists(values, min_size=dim, max_size=dim)
    # Permutations of one row score alike against a constant image up to
    # rounding, so the per-pair bits decide the winner; a repeated
    # permutation is an exact tie, and a zero row a fully cancelled edit.
    base = draw(vectors)
    permuted = draw(st.lists(st.permutations(base), min_size=1, max_size=6))
    others = draw(st.lists(vectors, max_size=2))
    prompts = np.array(permuted + others, dtype=np.float64).reshape(-1, dim)
    if draw(st.booleans()):
        prompts[draw(st.integers(0, len(prompts) - 1))] = 0.0
    constant = values.map(lambda c: [c] * dim)
    images = draw(st.lists(st.one_of(constant, vectors), min_size=1, max_size=8))
    return np.array(images, dtype=np.float64).reshape(-1, dim), prompts


@given(classify_inputs())
@settings(max_examples=300, deadline=None)
def test_classify_equals_row_loop(inputs):
    images, prompts = inputs
    assert classify(images, prompts).tolist() == _row_loop_classify(images, prompts)


def test_edit_lambda_zero_is_identity():
    p = unit(0.6, 0.8)
    edited = edit_prompt(p, rows(unit(0.0, 1.0)), 0.0)
    assert np.array_equal(edited, p)


def test_edit_componentwise():
    p = unit(1.0, 0.0)
    c = unit(0.0, 1.0)
    edited = edit_prompt(p, rows(c), 0.1)
    assert np.allclose(edited, p - 0.1 * c, atol=0, rtol=0)


def test_edit_mean_of_multiple_concepts():
    p = unit(1.0, 0.0, 0.0)
    c1 = unit(0.0, 1.0, 0.0)
    c2 = unit(0.0, 0.0, 1.0)
    edited = edit_prompt(p, rows(c1, c2), 0.2)
    expected = p - 0.2 * (c1 + c2) / 2.0
    assert np.allclose(edited, expected, atol=1e-16, rtol=0)


def test_edit_full_cancellation_still_classifies():
    zeroed = edit_prompt(unit(1.0, 0.0), rows(unit(1.0, 0.0)), 1.0)
    assert np.all(zeroed == 0.0)
    prompts = rows(zeroed, unit(0.0, 1.0))
    # Zero prompt scores 0; the other prompt wins on a positive dot, and
    # against a negative dot the zero prompt's 0 wins.
    assert classify(np.array([[0.0, 1.0], [0.0, -1.0]]), prompts).tolist() == [1, 0]


def test_edit_requires_concepts():
    with pytest.raises(DomainError):
        edit_prompt(unit(1.0, 0.0), np.empty((0, 2)), 0.1)


def test_edit_requires_unit_inputs_and_matching_dims():
    with pytest.raises(DomainError):
        edit_prompt(unit(1.0, 0.0), rows(unit(0.0, 1.0)), math.inf)
    with pytest.raises(ValidationError, match="class prompt must have unit norm"):
        edit_prompt(np.array([2.0, 0.0]), rows(unit(0.0, 1.0)), 0.1)
    with pytest.raises(ValidationError, match="concept prompt 1 must have unit norm"):
        edit_prompt(unit(1.0, 0.0), rows(unit(0.0, 1.0), np.array([0.0, 3.0])), 0.1)
    with pytest.raises(ValidationError):
        edit_prompt(unit(1.0, 0.0), rows(unit(0.0, 0.0, 1.0)), 0.1)
    with pytest.raises(ValidationError):
        edit_prompt(unit(1.0, 0.0), unit(0.0, 1.0), 0.1)


def test_edit_plan_validation():
    with pytest.raises(ValidationError):
        EditPlan(class_name="a", concept_names=(), lam=0.1)
    with pytest.raises(ValidationError):
        EditPlan(class_name="a", concept_names=("c",), lam=-0.5)
    plan = EditPlan(class_name="a", concept_names=("c",), lam=0.1)
    assert plan.lam == 0.1


def test_evaluate_all_correct():
    report = evaluate(["a", "b"], ["a", "b"])
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0


def test_evaluate_single_wrong():
    assert evaluate(["a"], ["b"]).accuracy == 0.0


def test_evaluate_degenerate_predictor():
    pairs = [("a", "a"), ("a", "a"), ("a", "b"), ("a", "b")]
    report = evaluate([p for p, _ in pairs], [t for _, t in pairs])
    assert report.accuracy == 0.5
    assert report.per_class["a"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert report.per_class["b"] == 0.0
    assert report.macro_f1 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.macro_f1 == pytest.approx(naive_macro_f1(pairs), abs=1e-15)


def test_evaluate_empty_rejected():
    with pytest.raises(DomainError):
        evaluate([], [])


def test_evaluate_rejects_unpaired_inputs():
    with pytest.raises(ValidationError):
        evaluate(["a", "b"], ["a"])


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abce")), min_size=1))
@settings(max_examples=200, deadline=None)
def test_evaluate_equals_pair_loop(pairs):
    report = evaluate([p for p, _ in pairs], [t for _, t in pairs])
    per_class = {}
    for label in sorted({p for p, _ in pairs} | {t for _, t in pairs}):
        tp = sum(1 for p, t in pairs if p == label and t == label)
        fp = sum(1 for p, t in pairs if p == label and t != label)
        fn = sum(1 for p, t in pairs if p != label and t == label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[label] = (
            2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    assert report.per_class == per_class
    assert report.accuracy == sum(1 for p, t in pairs if p == t) / len(pairs)
    assert report.macro_f1 == sum(per_class.values()) / len(per_class)


def test_classify_invariant_to_noop_edits():
    prompts = rows(unit(0.8, 0.6), unit(0.6, -0.8))
    concepts = rows(unit(0.0, 1.0))
    noop = prompts.copy()
    noop[0] = edit_prompt(prompts[0], concepts, 0.0)
    appended = np.vstack([prompts, edit_prompt(prompts[1], concepts, 0.0)])
    rng = np.random.default_rng(11)
    images = rng.standard_normal((50, 2))
    images /= np.linalg.norm(images, axis=1)[:, None]
    base = classify(images, prompts)
    assert np.array_equal(classify(images, noop), base)
    assert np.array_equal(classify(images, appended), base)


def test_fit_lambda_no_contamination_selects_zero():
    prompts = rows(unit(1.0, 0.0, 0.0), unit(0.0, 1.0, 0.0))
    concepts = rows(unit(0.0, 0.0, 1.0))
    names = ("a", "b")
    assert fit_lambda("a", names, prompts, concepts, prompts, names, [0.0, 0.1, 0.2]) == 0.0


def test_fit_lambda_singleton_grid():
    prompts = rows(unit(1.0, 0.0), unit(0.0, 1.0))
    concepts = rows(unit(0.0, 1.0))
    assert fit_lambda("a", ("a", "b"), prompts, concepts, prompts[:1], ("a",), [0.1]) == 0.1


def test_fit_lambda_valid_inputs():
    prompts = rows(unit(1.0, 0.0))
    concepts = rows(unit(0.0, 1.0))
    with pytest.raises(DomainError):
        fit_lambda("a", ("a",), prompts, concepts, np.empty((0, 2)), (), [0.1])
    with pytest.raises(DomainError):
        fit_lambda("a", ("a",), prompts, concepts, prompts, ("a",), [])
    with pytest.raises(ValidationError):
        fit_lambda("zz", ("a",), prompts, concepts, prompts, ("a",), [0.1])
    with pytest.raises(ValidationError):
        fit_lambda("a", ("a", "b"), prompts, concepts, prompts, ("a",), [0.1])
    with pytest.raises(ValidationError, match="class prompt 1 must have unit norm"):
        fit_lambda("a", ("a", "b"), rows(unit(1.0, 0.0), np.array([0.0, 2.0])), concepts,
                   prompts, ("a",), [0.1])


# fit_lambda on generate_contamination_instance(seed) for seeds 0-9,
# recorded from the row-at-a-time implementation this one replaced.
FITTED_LAMBDAS = [0.12, 0.34, 0.16, 0.2, 0.24, 0.12, 0.22, 0.2, 0.2, 0.18]


def _fit(instance, grid=DEFAULT_LAMBDA_GRID):
    return fit_lambda(
        instance.contaminated_class, instance.class_names, instance.class_prompts,
        instance.concept_prompts, instance.few_shot, instance.few_shot_labels, grid,
    )


def _macro_f1(instance, value, images, labels):
    prompts = instance.class_prompts.copy()
    prompts[0] = edit_prompt(prompts[0], instance.concept_prompts, value)
    names = np.array(instance.class_names, dtype=object)
    return evaluate(names[classify(images, prompts)], labels).macro_f1


def test_fit_lambda_is_pinned_on_contaminated_instances():
    assert [_fit(generate_contamination_instance(seed)) for seed in range(10)] == FITTED_LAMBDAS


def test_fit_lambda_on_contaminated_instance():
    instance = generate_contamination_instance(3)
    lam = _fit(instance)
    assert lam > 0.0

    def few_shot_f1(value):
        return _macro_f1(instance, value, instance.few_shot, instance.few_shot_labels)

    assert few_shot_f1(lam) > few_shot_f1(0.0)


def test_fitted_lambda_never_hurts_and_helps_under_contamination():
    def eval_gain(seed, coefficient):
        instance = generate_contamination_instance(seed, contamination=coefficient)
        lam = _fit(instance)

        def macro(value):
            return _macro_f1(instance, value, instance.images, instance.labels)

        return macro(lam) - macro(0.0)

    for seed in range(3):
        assert eval_gain(seed, 0.0) >= 0.0
        assert eval_gain(seed, 0.3) > 0.0
        assert eval_gain(seed, 0.5) > 0.0


def test_edit_linearity_in_lambda():
    rng = np.random.default_rng(7)
    p = unit(*rng.standard_normal(8))
    concepts = rows(*(unit(*rng.standard_normal(8)) for _ in range(3)))
    for a, b in ((0.1, 0.3), (0.0, 0.5), (0.25, 0.25)):
        lhs = edit_prompt(p, concepts, a) + edit_prompt(p, concepts, b) - p
        rhs = edit_prompt(p, concepts, a + b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
