"""Row-by-row reference for the dataset validation rules.

It walks the rows in input order and, within a row, the fields in the
order id, duplicate id, prediction, concepts object, each concept value
in schema order, weight and ground truth, and raises for the first
failure. The package checks whole columns instead; its errors must be
the ones raised here. Nothing here is shared with
``conceptscope.dataset``.
"""

from __future__ import annotations

import json
import math
import sys

from conceptscope.errors import ParseError, SchemaError, ValidationError

MISSING = object()  # a JSONL line without "prediction"


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sign(value):
    return _number(value) and value in (-1, 1)


def _sign_error(at, field, value):
    got = "a boolean" if isinstance(value, bool) else repr(value)
    return ValidationError(f"{at}: {field}: expected -1 or +1, got {got}")


def check_rows(rows, names, where):
    """Raise for the first invalid field of ``rows``.

    ``rows`` holds one (id, prediction, concepts, weight, ground truth)
    tuple per row; ``concepts`` is whatever the row carries for its
    concepts object. ``where(i)`` names row i.
    """
    first_seen = {}
    for i, (example_id, prediction, concepts, weight, truth) in enumerate(rows):
        at = where(i)
        if not (isinstance(example_id, str) and example_id != ""):
            raise ValidationError(f"{at}: missing or empty 'id'")
        if example_id in first_seen:
            raise ValidationError(
                f"{at}: duplicate id {example_id!r}"
                f" (first seen on {where(first_seen[example_id])})"
            )
        first_seen[example_id] = i
        if prediction is MISSING:
            raise ValidationError(f"{at}: missing 'prediction'")
        if not _sign(prediction):
            raise _sign_error(at, "prediction", prediction)
        if not isinstance(concepts, dict):
            raise ValidationError(f"{at}: 'concepts' must be an object")
        if set(concepts) != set(names):
            missing = sorted(set(names) - set(concepts))
            extra = sorted(set(concepts) - set(names))
            raise SchemaError(
                f"{at}: concept keys do not match schema (missing {missing}, extra {extra})"
            )
        for name in names:
            value = concepts[name]
            if not (_number(value) and -1.0 <= value <= 1.0):
                raise ValidationError(f"{at}: concept {name!r} value {value!r} outside [-1, +1]")
        if not (_number(weight) and 0.0 <= weight <= sys.float_info.max):
            raise ValidationError(f"{at}: weight must be a finite number >= 0")
        if not (truth is None or _sign(truth)):
            raise _sign_error(at, "ground_truth", truth)


def _sum(values):
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _check_sum(weights):
    total = _sum(weights)
    if not abs(total - 1.0) <= 1e-9:
        raise ValidationError(f"weights sum to {total!r}; expected 1 within 1e-09")


def check_constructor(ids, predictions, concepts, weights, ground_truth):
    """Raise as ``ConceptDataset(...)`` must on these equal-length columns."""
    if not ids:
        raise ValidationError("dataset has no examples")
    names = list(concepts)
    rows = [dict(zip(names, values)) for values in zip(*concepts.values())] or [{}] * len(ids)
    check_rows(
        list(zip(ids, predictions, rows, weights, ground_truth)), names,
        lambda i: f"example {i}",
    )
    _check_sum(weights)


def check_jsonl(text):
    """Raise as ``load_dataset`` must on ``text``, which holds only JSON objects."""
    rows, linenos = [], []
    names = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        obj = json.loads(line)
        concepts = obj.get("concepts")
        if names is None:
            names = list(concepts) if isinstance(concepts, dict) else []
        rows.append([obj.get("id"), obj.get("prediction", MISSING), concepts,
                     obj.get("weight"), obj.get("ground_truth")])
        linenos.append(lineno)
    if not rows:
        raise ParseError("no examples found in input")
    for row in rows:
        if row[3] is None:
            row[3] = 1.0 / len(rows)
    check_rows(rows, names, lambda i: f"line {linenos[i]}")
    weights = [float(row[3]) for row in rows]
    total = _sum(weights)
    if not math.isfinite(total):
        raise ValidationError("weight total overflows a float; scale the weights down")
    if total <= 0.0:
        raise ValidationError("total weight must be positive")
    _check_sum([weight / total for weight in weights])
