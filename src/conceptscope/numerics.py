"""Deterministic floating-point reduction helpers.

Every measure in this package reduces with compensated (Kahan)
summation in the input's order, so identical input bytes give
bit-identical results on every run.
"""

from __future__ import annotations

from collections.abc import Iterable


class KahanAccumulator:
    """Running compensated sum: total plus a correction term."""

    __slots__ = ("total", "_correction")

    def __init__(self) -> None:
        self.total = 0.0
        self._correction = 0.0

    def add(self, value: float) -> None:
        # Classic Kahan step: fold the previous rounding loss back in.
        adjusted = value - self._correction
        new_total = self.total + adjusted
        self._correction = (new_total - self.total) - adjusted
        self.total = new_total


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated sum of ``values`` in iteration order."""
    acc = KahanAccumulator()
    for v in values:
        acc.add(v)
    return acc.total
