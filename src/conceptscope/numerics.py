"""Deterministic floating-point reduction.

Every measure in this package is a weighted sum over a dataset's rows.
Each sum is a compensated (Kahan) sum taken in row order over the same
IEEE products, so identical input bytes give bit-identical results on
every run. The measures feed ``kahan_sum`` straight from the dataset's
columns (``map``/``compress`` over tuples), so no per-row objects are
built and the reduction order is always the input order.
"""

from __future__ import annotations

from collections.abc import Iterable


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated sum of ``values`` in iteration order."""
    total = 0.0
    correction = 0.0
    for value in values:
        # Classic Kahan step: fold the previous rounding loss back in.
        adjusted = value - correction
        new_total = total + adjusted
        correction = (new_total - total) - adjusted
        total = new_total
    return total
