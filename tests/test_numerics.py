import math
import random

from conceptscope.numerics import kahan_sum


def test_empty_sum_is_zero():
    assert kahan_sum([]) == 0.0


def test_matches_fsum_on_random_values():
    rng = random.Random(1)
    values = [rng.uniform(-1, 1) * rng.choice([1e-8, 1.0, 1e4]) for _ in range(5000)]
    assert abs(kahan_sum(values) - math.fsum(values)) <= 1e-9 * sum(abs(v) for v in values)


def test_compensation_keeps_tiny_terms():
    # Plain summation drops every 1e-16 term against the leading 1.0.
    values = [1.0] + [1e-16] * 64
    plain = 0.0
    for v in values:
        plain += v
    assert plain == 1.0
    assert abs(kahan_sum(values) - math.fsum(values)) < 1e-18


def test_fixed_order_is_deterministic():
    values = [math.sin(i) for i in range(1000)]
    assert kahan_sum(values) == kahan_sum(list(values))
