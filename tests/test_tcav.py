import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptscope.errors import DomainError, UndefinedMeasureError, ValidationError
from conceptscope.tcav import (
    LinearConceptModel,
    class_conditioned_from_embeddings,
    decision_margins,
    tcav_continuous,
    tcav_discrete,
)
from oracles import exact_sum


def unit(*components):
    v = np.asarray(components, dtype=np.float64)
    return v / np.linalg.norm(v)


def model(w, v, theta=0.0):
    w = np.asarray(w, dtype=np.float64)
    return LinearConceptModel(w_h=w, theta_h=theta, v=np.asarray(v, dtype=np.float64))


E0 = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.0, 1.0, 0.0, 0.0])


def members_along(w, count=3):
    return np.tile(w, (count, 1))


def test_discrete_positive_alignment():
    m = model(E0, unit(0.6, 0.8, 0.0, 0.0))
    assert tcav_discrete(m, members_along(E0)) == 1.0


def test_discrete_orthogonal_is_zero():
    m = model(E0, E1)
    assert float(np.dot(m.w_h, m.v)) == 0.0
    assert tcav_discrete(m, members_along(E0)) == 0.0


def test_discrete_negative_alignment():
    m = model(E0, -E0)
    assert tcav_discrete(m, members_along(E0)) == 0.0


def test_continuous_aligned_and_antialigned():
    assert tcav_continuous(model(E0, E0), members_along(E0)) == 1.0
    assert tcav_continuous(model(E0, -E0), members_along(E0)) == -1.0


def test_continuous_dot_product():
    m = model(E0, np.array([0.6, 0.8, 0.0, 0.0]))
    assert tcav_continuous(m, members_along(E0)) == pytest.approx(0.6, abs=1e-15)


def test_empty_class_rejected():
    m = model(E0, E1)
    with pytest.raises(DomainError):
        tcav_discrete(m, np.empty((0, 4)))
    with pytest.raises(DomainError):
        tcav_continuous(m, np.empty((0, 4)))


def test_non_member_rejected():
    m = model(E0, E1, theta=0.5)
    with pytest.raises(ValidationError, match="embedding 0"):
        tcav_discrete(m, E1[None, :])
    with pytest.raises(ValidationError, match="embedding 2 is not predicted positive"):
        tcav_continuous(m, np.stack([E0, E0, E1, E1]))


def test_boundary_margin_is_not_membership():
    m = model(E0, E1, theta=1.0)
    boundary = E0[None, :]
    assert decision_margins(m, boundary).tolist() == [0.0]
    with pytest.raises(ValidationError):
        tcav_continuous(m, boundary)


def test_class_conditioned_zero_spread():
    v = unit(0.3, -0.4, 0.5, 0.1)
    m = model(E0, v, theta=0.5)
    embeddings = members_along(E0, count=5)
    assert class_conditioned_from_embeddings(m, embeddings) == pytest.approx(
        tcav_continuous(m, embeddings), abs=1e-15
    )


def test_class_conditioned_single_example_on_concept():
    v = unit(0.8, 0.6)
    w = unit(1.0, 0.2)
    assert float(np.dot(w, v)) > 0.5
    m = model(w, v, theta=0.5)
    result = class_conditioned_from_embeddings(m, v[None, :])
    assert result == pytest.approx(1.0, abs=1e-12)


def test_class_conditioned_filters_nonmembers():
    m = model(E0, E0, theta=0.5)
    assert class_conditioned_from_embeddings(m, np.stack([E1, E0])) == pytest.approx(1.0)


def test_class_conditioned_no_members():
    m = model(E0, E0, theta=0.5)
    with pytest.raises(UndefinedMeasureError):
        class_conditioned_from_embeddings(m, E1[None, :])


def test_unit_norm_enforced():
    m = model(unit(1.0, 0.0), unit(0.0, 1.0))
    with pytest.raises(ValidationError, match="embedding 0 must have unit norm"):
        decision_margins(m, np.array([[1.0, 1.0]]))
    with pytest.raises(ValidationError, match="embedding 1 must have unit norm"):
        class_conditioned_from_embeddings(m, np.array([[1.0, 0.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError, match="embedding 1 must have unit norm, got nan"):
        decision_margins(m, np.array([[1.0, 0.0], [np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        LinearConceptModel(w_h=np.array([2.0, 0.0]), theta_h=0.0, v=np.array([1.0, 0.0]))


def test_dim_mismatch_rejected():
    with pytest.raises(ValidationError):
        LinearConceptModel(w_h=np.array([1.0, 0.0]), theta_h=0.0, v=np.array([1.0, 0.0, 0.0]))
    m = model(E0, E1)
    with pytest.raises(ValidationError):
        decision_margins(m, np.array([[1.0, 0.0]]))
    with pytest.raises(ValidationError):
        decision_margins(m, E0)


def row_loop_margins(w_h, theta_h, rows):
    return [float(np.dot(w_h, row)) - theta_h for row in rows]


def row_loop_conditional(w_h, theta_h, v, rows):
    """The per-row reference: membership, then the members' concept values summed exactly."""
    values = [float(np.dot(row, v)) for row in rows if float(np.dot(w_h, row)) - theta_h > 0.0]
    return exact_sum(values) / len(values) if values else None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.integers(1, 60))
def test_array_path_matches_row_loop(seed, dim, n):
    # Random unit rows, not aligned with any axis, so every dot product
    # rounds and the reduction order of each one shows in the last bits.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    w_h = unit(*rng.standard_normal(dim))
    v = unit(*rng.standard_normal(dim))
    theta_h = float(rng.uniform(-1.0, 1.0) * np.max(np.abs(rows @ w_h)))
    m = LinearConceptModel(w_h=w_h, theta_h=theta_h, v=v)
    assert decision_margins(m, rows).tolist() == row_loop_margins(w_h, theta_h, rows)
    expected = row_loop_conditional(w_h, theta_h, v, rows)
    if expected is None:
        with pytest.raises(UndefinedMeasureError):
            class_conditioned_from_embeddings(m, rows)
    else:
        assert class_conditioned_from_embeddings(m, rows) == expected


def test_pointwise_gap_bound_small_sample():
    # Every member of the cap {g : w.g >= 1 - eps^2/8} has
    # |g.v - w.v| <= eps/2 (Cauchy-Schwarz on the chord length).
    rng = np.random.default_rng(5)
    epsilon = 0.6
    theta = 1.0 - epsilon**2 / 8.0
    w = unit(*rng.standard_normal(6))
    v = unit(*rng.standard_normal(6))
    for _ in range(200):
        tangent = rng.standard_normal(6)
        tangent -= np.dot(tangent, w) * w
        tangent /= np.linalg.norm(tangent)
        t = rng.uniform(theta, 1.0)
        g = t * w + math.sqrt(1.0 - t * t) * tangent
        assert abs(float(np.dot(g, v) - np.dot(w, v))) <= epsilon / 2.0 + 1e-12
