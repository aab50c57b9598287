"""Measure tables and their CSV/JSON/SVG renderings.

A table has one cell per (concept, series label); series are the input
datasets in order, followed by per-dataset ground-truth series when
requested, and no two series may share a label. Undefined measures become None cells, rendered as "n/a" in
CSV and null in JSON. All renderers produce byte-stable output for
fixed inputs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from conceptscope.dataset import ConceptDataset, with_ground_truth_predictions
from conceptscope.errors import DomainError, SchemaError, UndefinedMeasureError
from conceptscope.measures import (
    CLASS_CONDITIONED,
    CONCEPT_CONDITIONED,
    MEASURE_KINDS,
    SYMMETRIC,
    check_theta,
    class_conditioned_measure,
    concept_conditioned_measure,
    hoeffding_radius,
    symmetric_measure,
)

GROUND_TRUTH_SUFFIX = ":ground_truth"


@dataclass(frozen=True)
class MeasureCell:
    concept: str
    label: str
    value: float | None
    ci_radius: float | None


def _one_measure(
    dataset: ConceptDataset,
    concept: str,
    kind: str,
    theta: float | None,
    delta: float | None,
):
    if kind == SYMMETRIC:
        return symmetric_measure(dataset, concept, delta=delta)
    if kind == CLASS_CONDITIONED:
        return class_conditioned_measure(dataset, concept, delta=delta)
    if kind == CONCEPT_CONDITIONED:
        assert theta is not None
        return concept_conditioned_measure(dataset, concept, theta, delta=delta)
    raise DomainError(f"unknown measure kind {kind!r}")


def check_measure_parameters(kind: str, theta: float | None, delta: float | None) -> None:
    """Raise DomainError for a measure kind, theta or delta that no table can use."""
    if kind not in MEASURE_KINDS:
        raise DomainError(f"unknown measure kind {kind!r}")
    if (theta is None) and kind == CONCEPT_CONDITIONED:
        raise DomainError("theta is required for the concept-conditioned measure")
    if (theta is not None) and kind != CONCEPT_CONDITIONED:
        raise DomainError("theta is only valid for the concept-conditioned measure")
    if delta is not None:
        hoeffding_radius(1, delta)  # its checks on delta do not depend on the count
    if theta is not None:
        check_theta(theta)


def compute_measure_table(
    datasets: Sequence[tuple[str, ConceptDataset]],
    kind: str,
    *,
    theta: float | None = None,
    delta: float | None = None,
    include_ground_truth: bool = False,
    strict: bool = False,
) -> list[MeasureCell]:
    """One cell per concept per series, concept-major order.

    ``strict`` propagates UndefinedMeasureError instead of emitting a
    None cell.
    """
    if not datasets:
        raise DomainError("at least one dataset is required")
    check_measure_parameters(kind, theta, delta)
    labels = [label for label, _ in datasets]
    if include_ground_truth:
        labels += [label + GROUND_TRUTH_SUFFIX for label in labels]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise DomainError(f"series labels must be unique; repeated: {repeated}")

    schema = datasets[0][1].concept_names
    for label, dataset in datasets[1:]:
        if dataset.concept_names != schema:
            missing = sorted(set(schema) - set(dataset.concept_names))
            extra = sorted(set(dataset.concept_names) - set(schema))
            raise SchemaError(
                f"dataset {label!r} schema differs from {datasets[0][0]!r}:"
                f" missing {missing}, extra {extra}"
                + ("" if missing or extra else " (same names, different order)")
            )

    series: list[tuple[str, ConceptDataset]] = list(datasets)
    if include_ground_truth:
        for label, dataset in datasets:
            series.append((label + GROUND_TRUTH_SUFFIX, with_ground_truth_predictions(dataset)))

    cells = []
    for concept in schema:
        for label, dataset in series:
            try:
                result = _one_measure(dataset, concept, kind, theta, delta)
            except UndefinedMeasureError:
                if strict:
                    raise
                cells.append(MeasureCell(concept, label, None, None))
            else:
                cells.append(MeasureCell(concept, label, result.value, result.confidence_radius))
    return cells


def filter_positive(cells: Sequence[MeasureCell]) -> list[MeasureCell]:
    """Keep only concepts where some series has a positive value.

    Figure-style filter; concepts whose measures are all undefined,
    zero or negative drop out entirely.
    """
    keep = {cell.concept for cell in cells if cell.value is not None and cell.value > 0.0}
    return [cell for cell in cells if cell.concept in keep]


def render_csv(cells: Sequence[MeasureCell]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["concept", "label", "value", "ci_radius"])
    for cell in cells:
        writer.writerow(
            [
                cell.concept,
                cell.label,
                "n/a" if cell.value is None else repr(cell.value),
                "" if cell.ci_radius is None else repr(cell.ci_radius),
            ]
        )
    return buffer.getvalue().encode("utf-8")


def render_json(
    cells: Sequence[MeasureCell],
    *,
    kind: str,
    theta: float | None = None,
    delta: float | None = None,
) -> bytes:
    payload = {
        "measure": kind,
        "theta": theta,
        "delta": delta,
        "rows": [
            {
                "concept": cell.concept,
                "label": cell.label,
                "value": cell.value,
                "ci_radius": cell.ci_radius,
            }
            for cell in cells
        ],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc949",
    "#af7aa1",
    "#bab0ac",
)

_PLOT_HEIGHT = 240.0
_BAR_WIDTH = 18.0
_GROUP_GAP = 18.0
_MARGIN_LEFT = 56.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 48.0
_MARGIN_BOTTOM = 104.0


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, whose import chain loads ``urllib.request``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_svg(cells: Sequence[MeasureCell], *, title: str) -> bytes:
    """Self-contained grouped bar chart, concepts on the x axis.

    The y axis is fixed to [-1, 1] so charts are comparable; undefined
    cells simply have no bar. Element order and number formatting are
    fixed, so output bytes are stable.
    """
    concepts: list[str] = []
    labels: list[str] = []
    for cell in cells:
        if cell.concept not in concepts:
            concepts.append(cell.concept)
        if cell.label not in labels:
            labels.append(cell.label)
    values = {(cell.concept, cell.label): cell.value for cell in cells}

    group_width = _BAR_WIDTH * max(1, len(labels))
    plot_width = max(1, len(concepts)) * (group_width + _GROUP_GAP)
    width = _MARGIN_LEFT + plot_width + _MARGIN_RIGHT
    height = _MARGIN_TOP + _PLOT_HEIGHT + _MARGIN_BOTTOM

    def y_of(value: float) -> float:
        return _MARGIN_TOP + (1.0 - value) / 2.0 * _PLOT_HEIGHT

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}"'
        f' viewBox="0 0 {width:.0f} {height:.0f}" role="img">'
    )
    out.append(
        "<style>text{font-family:monospace;font-size:11px;fill:#222}"
        ".title{font-size:14px;font-weight:bold}.grid{stroke:#ccc;stroke-width:1}"
        ".axis{stroke:#222;stroke-width:1}</style>"
    )
    out.append(f'<text x="{_MARGIN_LEFT:.2f}" y="20" class="title">{_escape(title)}</text>')

    for tick in (-1.0, -0.5, 0.0, 0.5, 1.0):
        y = y_of(tick)
        cls = "axis" if tick == 0.0 else "grid"
        out.append(
            f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}"'
            f' x2="{_MARGIN_LEFT + plot_width:.2f}" y2="{y:.2f}" class="{cls}"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{tick:g}</text>'
        )

    baseline = y_of(0.0)
    for i, concept in enumerate(concepts):
        group_x = _MARGIN_LEFT + _GROUP_GAP / 2.0 + i * (group_width + _GROUP_GAP)
        for j, label in enumerate(labels):
            value = values.get((concept, label))
            if value is None:
                continue
            top = min(y_of(value), baseline)
            bar_height = abs(y_of(value) - baseline)
            color = _PALETTE[j % len(_PALETTE)]
            out.append(
                f'<rect x="{group_x + j * _BAR_WIDTH:.2f}" y="{top:.2f}"'
                f' width="{_BAR_WIDTH - 2:.2f}" height="{bar_height:.2f}" fill="{color}"/>'
            )
        label_x = group_x + group_width / 2.0
        label_y = _MARGIN_TOP + _PLOT_HEIGHT + 14.0
        out.append(
            f'<text x="{label_x:.2f}" y="{label_y:.2f}" text-anchor="end"'
            f' transform="rotate(-40 {label_x:.2f} {label_y:.2f})">{_escape(concept)}</text>'
        )

    legend_x = _MARGIN_LEFT
    legend_y = 34.0
    for j, label in enumerate(labels):
        color = _PALETTE[j % len(_PALETTE)]
        out.append(
            f'<rect x="{legend_x:.2f}" y="{legend_y - 9:.2f}" width="10" height="10" fill="{color}"/>'
        )
        out.append(f'<text x="{legend_x + 14:.2f}" y="{legend_y:.2f}">{_escape(label)}</text>')
        legend_x += 24.0 + 7.0 * len(label)

    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
