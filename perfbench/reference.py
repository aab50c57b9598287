"""Correctness reference for the large-file workload.

Shares no code with conceptscope: each JSONL file is parsed again with
``json`` and every cell is recomputed with ``math.fsum``, which is
correctly rounded and so independent of the package's summation order.
Each ``check_*`` function returns None when an output is correct and a
one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-12


@dataclass(frozen=True)
class Series:
    names: tuple[str, ...]
    prediction: np.ndarray
    ground_truth: np.ndarray | None
    weight: np.ndarray
    concepts: np.ndarray  # rows x concepts, columns in ``names`` order

    def with_predictions(self, prediction: np.ndarray) -> "Series":
        return Series(self.names, prediction, None, self.weight, self.concepts)


def load_series(path) -> Series:
    rows = [json.loads(line) for line in path.read_bytes().decode("utf-8").splitlines() if line]
    names = tuple(rows[0]["concepts"])
    raw = [float(row["weight"]) for row in rows]
    total = math.fsum(raw)
    truth = [row.get("ground_truth") for row in rows]
    return Series(
        names=names,
        prediction=np.array([row["prediction"] for row in rows], dtype=np.int64),
        ground_truth=None if None in truth else np.array(truth, dtype=np.int64),
        weight=np.array([w / total for w in raw]),
        concepts=np.array([[row["concepts"][n] for n in names] for row in rows]),
    )


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def _clamp(value: float) -> float:
    return min(1.0, max(-1.0, value))


def _radius(count: int, delta: float | None) -> float | None:
    return None if delta is None else math.sqrt(2.0 * math.log(1.0 / delta) / count)


def _cell(series: Series, j: int, kind: str, theta, delta):
    """(value, ci_radius) of one concept, or (None, None) when undefined."""
    w, h, c = series.weight, series.prediction, series.concepts[:, j]
    if kind == "symmetric":
        return _clamp(_fsum(w * h * c)), _radius(len(w), delta)
    members = h == 1 if kind == "class_conditioned" else c >= theta
    count = int(members.sum())
    mass = _fsum(w[members])
    if count == 0 or mass <= 0.0:
        return None, None
    numerator = w * c if kind == "class_conditioned" else w * h
    return _clamp(_fsum(numerator[members]) / mass), _radius(count, delta)


def expected_table(series, kind, *, theta=None, delta=None, ground_truth=False):
    """[(concept, label, value, ci_radius)] in the CLI's concept-major order."""
    labelled = list(series)
    if ground_truth:
        labelled += [(f"{label}:ground_truth", s.with_predictions(s.ground_truth))
                     for label, s in series]
    names = labelled[0][1].names
    return [
        (name, label, *_cell(s, j, kind, theta, delta))
        for j, name in enumerate(names)
        for label, s in labelled
    ]


def _compare_cells(got, expected) -> str | None:
    if len(got) != len(expected):
        return f"{len(got)} cells, expected {len(expected)}"
    for (concept, label, value, radius), want in zip(got, expected):
        w_concept, w_label, w_value, w_radius = want
        where = f"cell {concept}/{label}"
        if (concept, label) != (w_concept, w_label):
            return f"{where}: expected {w_concept}/{w_label} here"
        if (value is None) != (w_value is None):
            return f"{where}: n/a on one side only ({value!r} vs {w_value!r})"
        if value is not None and not abs(value - w_value) <= TOLERANCE:
            return f"{where}: value {value!r} vs reference {w_value!r}"
        if radius != w_radius:
            return f"{where}: ci_radius {radius!r}, expected {w_radius!r}"
    return None


def check_csv(stdout: bytes, expected) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    if not rows or rows[0] != ["concept", "label", "value", "ci_radius"]:
        return "missing CSV header"
    got = [
        (concept, label, None if value == "n/a" else float(value),
         None if radius == "" else float(radius))
        for concept, label, value, radius in rows[1:]
    ]
    return _compare_cells(got, expected)


def check_json(stdout: bytes, expected, *, kind, theta, delta) -> str | None:
    payload = json.loads(stdout)
    header = (payload["measure"], payload["theta"], payload["delta"])
    if header != (kind, theta, delta):
        return f"header {header!r}, expected {(kind, theta, delta)!r}"
    got = [(r["concept"], r["label"], r["value"], r["ci_radius"]) for r in payload["rows"]]
    return _compare_cells(got, expected)


_BAR = re.compile(
    r'<rect x="([-\d.]+)" y="([-\d.]+)" width="16\.00" height="([-\d.]+)" fill="#[0-9a-f]{6}"/>'
)
# Geometry of the chart: y axis [-1, 1] over 240 px starting at y = 48,
# 18 px bars, 18 px gaps between concept groups, 56 px left margin.
_HALF_HEIGHT = 120.0
_BASELINE = 168.0
_PIXEL = 0.005 + 1e-9  # coordinates are printed with two decimals


def check_svg(stdout: bytes, expected, *, title: str) -> str | None:
    text = stdout.decode("utf-8")
    if f'class="title">{title}</text>' not in text:
        return f"missing title {title!r}"
    labels = list(dict.fromkeys(label for _, label, _, _ in expected))
    concepts = list(dict.fromkeys(concept for concept, _, _, _ in expected))
    group = 18.0 * len(labels)
    want = [
        (56.0 + 9.0 + concepts.index(concept) * (group + 18.0) + labels.index(label) * 18.0,
         value, f"{concept}/{label}")
        for concept, label, value, _ in expected
        if value is not None
    ]
    bars = [tuple(float(v) for v in m) for m in _BAR.findall(text)]
    if len(bars) != len(want):
        return f"{len(bars)} bars, expected {len(want)}"
    for (x, y, height), (w_x, value, where) in zip(bars, want):
        top = _BASELINE - _HALF_HEIGHT * max(value, 0.0)
        if (abs(x - w_x) > _PIXEL or abs(y - top) > _PIXEL
                or abs(height - _HALF_HEIGHT * abs(value)) > _PIXEL):
            return f"bar {where}: x={x} y={y} height={height} does not draw {value!r}"
    return None


def expected_completeness(series: Series, concept: str):
    """Closed form, per-level terms and brute-force maximum, all with fsum."""
    j = series.names.index(concept)
    w, h, c = series.weight, series.prediction, series.concepts[:, j]
    terms = {}
    for level in (1, -1):
        members = c == float(level)
        mass = _fsum(w[members])
        if mass > 0.0:
            terms[str(level)] = (abs(_fsum((w * h)[members]) / mass), mass)
    closed = min(1.0, 0.5 + 0.5 * math.fsum(a * b for a, b in terms.values()))
    brute = max(
        _fsum(w[h == np.where(c == 1.0, out_pos, out_neg)])
        for out_pos in (1, -1)
        for out_neg in (1, -1)
    )
    return closed, terms, min(1.0, brute)


def check_completeness(stdout: bytes, concept: str, expected) -> str | None:
    closed, terms, brute = expected
    payload = json.loads(stdout)
    got_terms = payload["closed_form"]["per_level_terms"]
    if payload["concept"] != concept or set(got_terms) != set(terms):
        return f"concept or levels differ: {payload['concept']!r} {sorted(got_terms)}"
    pairs = [(payload["closed_form"]["value"], closed, "closed form"),
             (payload["brute_force"]["value"], brute, "brute force")]
    for level, (cond, prob) in terms.items():
        pairs += [(got_terms[level][0], cond, f"level {level} conditional"),
                  (got_terms[level][1], prob, f"level {level} probability")]
    for got, want, what in pairs:
        if not abs(got - want) <= TOLERANCE:
            return f"{what}: {got!r} vs reference {want!r}"
    if not payload["difference"] <= TOLERANCE:
        return f"difference {payload['difference']!r} > {TOLERANCE}"
    return None
