"""Dataset model: weighted examples labeled with a prediction and concepts.

The JSONL interchange format (one example per line) is the contract
every other module consumes:

    {"id": "x1", "prediction": 1, "concepts": {"stripes": 1.0},
     "weight": 0.01, "ground_truth": -1}

Files are UTF-8 without BOM. ``weight`` and ``ground_truth`` are
optional; missing weights default to uniform 1/n and the whole weight
column is renormalized to sum to 1 at load time.

A ``ConceptDataset`` is columns and nothing else: one tuple per field,
all in input order: ``ids``, ``predictions`` (+1/-1), ``weights``,
``ground_truth`` (+1/-1 or None per row) and one column per concept,
read with ``column(name)``. There is no row type; code that wants row
``i`` reads index ``i`` of each column. A dataset is built either by
the constructor, from in-memory columns, or by ``load_dataset``, which
parses each line once straight into columns, as ints and floats. Both
run the same single validation pass, ``_check_columns``. It reports the
first invalid row in input order and, within that row, the first
failing field, so a message names the same line a row-by-row check
would.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import FrozenInstanceError
from itertools import compress, repeat
from operator import itemgetter, mul
from typing import BinaryIO, Callable, Mapping, Sequence

from conceptscope.errors import (
    JSON_ERRORS,
    ParseError,
    SchemaError,
    ValidationError,
)
from conceptscope.numerics import kahan_sum

WEIGHT_SUM_TOLERANCE = 1e-9


class ConceptDataset:
    """Immutable weighted dataset with a fixed concept schema, held as columns.

    ``ConceptDataset(ids, predictions, concepts, weights, ground_truth)``
    takes one sequence per field, all in row order; ``concepts`` maps
    each concept name to its column, and its key order is the schema.
    ``ground_truth`` defaults to None on every row. The invariants are
    checked here: every column has one value per id, weights are
    nonnegative and sum to 1 within 1e-9, predictions are in {-1,+1},
    ground truth is in {-1,+1} or None, concept values lie in [-1,+1],
    and ids are unique.
    """

    concept_names: tuple[str, ...]
    ids: tuple[str, ...]
    predictions: tuple[int, ...]
    weights: tuple[float, ...]
    ground_truth: tuple[int | None, ...]
    # Pre-normalization weight total when loaded from a file.
    original_weight_total: float | None
    # Kahan sum of ``weights`` in row order.
    weight_total: float
    # weight * prediction per row, the factor of every h-weighted sum.
    signed_weights: tuple[float, ...]

    def __init__(
        self,
        ids: Sequence[str],
        predictions: Sequence[int],
        concepts: Mapping[str, Sequence[float]],
        weights: Sequence[float],
        ground_truth: Sequence[int | None] | None = None,
        original_weight_total: float | None = None,
    ) -> None:
        names = tuple(concepts)
        n = len(ids)
        if ground_truth is None:
            ground_truth = (None,) * n
        columns = [concepts[name] for name in names]
        if set(map(len, (predictions, weights, ground_truth, *columns))) - {n}:
            raise ValidationError(f"every column must have one value per id ({n} ids)")
        columns = [tuple(column) for column in columns]
        fields = _check_columns(
            names, ids, predictions, columns, weights, ground_truth,
            lambda i: f"example {i}", {},
        )
        _fill(self, names, *fields, original_weight_total)

    def __len__(self) -> int:
        return len(self.ids)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptDataset):
            return NotImplemented
        return _fields(self) == _fields(other)

    __hash__ = None  # type: ignore[assignment]

    def column(self, concept: str) -> tuple[float, ...]:
        """The values of ``concept`` in row order."""
        try:
            return self._columns[concept]
        except (KeyError, TypeError):
            raise SchemaError(
                f"unknown concept {concept!r}; schema has {list(self.concept_names)}"
            ) from None

    @property
    def positives(self) -> tuple[list[bool], list[float], float, int]:
        """Rows predicted +1: mask, their weights, Kahan weight total, row count.

        Computed on first use and kept, since every concept shares it.
        """
        positives = self._positives
        if positives is None:
            mask = [prediction == 1 for prediction in self.predictions]
            weights = list(compress(self.weights, mask))
            positives = mask, weights, kahan_sum(weights), len(weights)
            self.__dict__["_positives"] = positives
        return positives


def _fill(
    dataset: ConceptDataset,
    names: tuple[str, ...],
    ids: tuple[str, ...],
    predictions: tuple[int, ...],
    columns: list[tuple[float, ...]],
    weights: tuple[float, ...],
    ground_truth: tuple[int | None, ...],
    original_weight_total: float | None,
    weight_total: float | None = None,
) -> None:
    """Set the fields of a dataset whose columns have passed ``_check_columns``."""
    if weight_total is None:
        weight_total = kahan_sum(weights)
        if abs(weight_total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                f"weights sum to {weight_total!r}; expected 1 within {WEIGHT_SUM_TOLERANCE}"
            )
    dataset.__dict__.update(
        concept_names=names,
        ids=ids,
        predictions=predictions,
        weights=weights,
        ground_truth=ground_truth,
        original_weight_total=original_weight_total,
        weight_total=weight_total,
        signed_weights=tuple(map(mul, weights, predictions)),
        _columns=dict(zip(names, columns)),
        _positives=None,
    )


def _fields(dataset: ConceptDataset) -> tuple:
    return (dataset.concept_names, dataset.ids, dataset.predictions, dataset.weights,
            dataset.ground_truth, dataset._columns, dataset.original_weight_total)


def _concept_reader(names: tuple[str, ...]) -> tuple[Callable[[dict], tuple], set[str]]:
    """A function giving a concepts object's values in schema order, and the schema's keys."""
    if len(names) == 1:
        name = names[0]
        return (lambda concepts: (concepts[name],)), {name}
    return (itemgetter(*names) if names else lambda concepts: ()), set(names)


# ---------------------------------------------------------------------------
# The validation pass
# ---------------------------------------------------------------------------

_MISSING = object()  # a JSONL line without "prediction"
_NUMBER_TYPES = frozenset({int, float})
_SIGN_OR_NONE_TYPES = frozenset({int, float, type(None)})
_SIGNS = frozenset({-1, 1})
_SIGNS_OR_NONE = frozenset({-1, 1, None})
_STR_TYPES = frozenset({str})
_LARGEST_FLOAT = sys.float_info.max


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Per-value checks. Comparisons between ints and floats are exact in
# Python, so NaN, the infinities and integers too large for a float all
# fail them without raising.
def _is_id(value: object) -> bool:
    return isinstance(value, str) and value != ""


def _is_sign(value: object) -> bool:
    return _is_number(value) and value in (-1, 1)


def _is_sign_or_none(value: object) -> bool:
    return value is None or _is_sign(value)


def _is_unit(value: object) -> bool:
    return _is_number(value) and -1.0 <= value <= 1.0


def _is_weight(value: object) -> bool:
    return _is_number(value) and 0.0 <= value <= _LARGEST_FLOAT


# Whole-column shortcuts for valid data: each passes only if every value
# passes the per-value check above, and costs a few C-level passes over
# the column.
def _types(values: Sequence[object]) -> set[type]:
    return set(map(type, values))


def _all_ids(values: Sequence[object]) -> bool:
    return _types(values) <= _STR_TYPES and "" not in values


def _all_signs(values: Sequence[object]) -> bool:
    return _types(values) <= _NUMBER_TYPES and set(values) <= _SIGNS


def _all_signs_or_none(values: Sequence[object]) -> bool:
    return _types(values) <= _SIGN_OR_NONE_TYPES and set(values) <= _SIGNS_OR_NONE


def _all_within(low: float, high: float) -> Callable[[Sequence[object]], bool]:
    def check(values: Sequence[object]) -> bool:
        if not values:
            return True
        if not _types(values) <= _NUMBER_TYPES:
            return False
        # min and max catch every out-of-range value, and return NaN when
        # a NaN comes first; a later NaN turns the sum into NaN.
        try:
            return low <= min(values) and max(values) <= high and math.isfinite(sum(values))
        except OverflowError:  # a sum of huge integers
            return False

    return check


_all_units = _all_within(-1.0, 1.0)
_all_weights = _all_within(0.0, _LARGEST_FLOAT)


def _sign_error(where: Callable[[int], str], field: str, values: Sequence[object]):
    def describe(index: int) -> ValidationError:
        value = values[index]
        got = "a boolean" if isinstance(value, bool) else repr(value)
        return ValidationError(f"{where(index)}: {field}: expected -1 or +1, got {got}")

    return describe


def _concepts_error(where: str, concepts: object, names: tuple[str, ...]) -> Exception:
    if not isinstance(concepts, dict):
        return ValidationError(f"{where}: 'concepts' must be an object")
    missing = sorted(set(names) - set(concepts))
    extra = sorted(set(concepts) - set(names))
    return SchemaError(
        f"{where}: concept keys do not match schema (missing {missing}, extra {extra})"
    )


def _check_columns(
    names: tuple[str, ...],
    ids: Sequence[object],
    predictions: Sequence[object],
    columns: Sequence[Sequence[object]],
    weights: Sequence[object],
    ground_truth: Sequence[object],
    where: Callable[[int], str],
    bad_concepts: dict[int, object],
) -> tuple:
    """The one validation pass over a dataset's raw columns.

    Valid data costs one whole-column shortcut per column. If any
    shortcut fails, ``_raise_first_error`` finds the row to report.
    ``bad_concepts`` maps each row whose concepts value is not an object
    with exactly the schema's keys to that value; such a row's entries
    in ``columns`` are placeholders. ``where(i)`` names row i in
    messages.

    Returns ids, predictions, the concept columns (already tuples),
    weights and ground truth, each as a tuple.
    """
    if len(set(names)) != len(names):
        raise SchemaError("duplicate concept names in schema")
    if not ids:
        raise ValidationError("dataset has no examples")
    if not (
        _all_ids(ids)
        and len(set(ids)) == len(ids)
        and _MISSING not in predictions
        and _all_signs(predictions)
        and not bad_concepts
        and all(map(_all_units, columns))
        and _all_weights(weights)
        and _all_signs_or_none(ground_truth)
    ):
        _raise_first_error(
            names, ids, predictions, columns, weights, ground_truth, where, bad_concepts
        )

    return tuple(ids), tuple(predictions), columns, tuple(weights), tuple(ground_truth)


def _raise_first_error(names, ids, predictions, columns, weights, ground_truth, where,
                       bad_concepts) -> None:
    """Raise for the first invalid row in input order, if there is one.

    Within a row the fields are checked in the order id, duplicate id,
    prediction, concepts object, each concept value in schema order,
    weight and ground truth. Each check reads only the rows before the
    earliest failure found so far, so the error is the one a row-by-row
    check would raise first. A whole-column shortcut can fail on valid
    data (a weight sum that overflows, a float subclass), so this may
    find nothing.
    """
    seen: set[object] = set()

    def unseen(value: object) -> bool:
        if value in seen:
            return False
        seen.add(value)
        return True

    def concept_error(name, column):
        return lambda i: ValidationError(
            f"{where(i)}: concept {name!r} value {column[i]!r} outside [-1, +1]"
        )

    # (values, check on one value, error for row i), in the order a row is checked.
    checks = [
        (ids, _is_id, lambda i: ValidationError(f"{where(i)}: missing or empty 'id'")),
        (ids, unseen, lambda i: ValidationError(
            f"{where(i)}: duplicate id {ids[i]!r} (first seen on {where(ids.index(ids[i]))})"
        )),
        (predictions, lambda value: value is not _MISSING,
         lambda i: ValidationError(f"{where(i)}: missing 'prediction'")),
        (predictions, _is_sign, _sign_error(where, "prediction", predictions)),
        (range(len(ids)), lambda i: i not in bad_concepts,
         lambda i: _concepts_error(where(i), bad_concepts[i], names)),
        *((column, _is_unit, concept_error(name, column))
          for name, column in zip(names, columns)),
        (weights, _is_weight,
         lambda i: ValidationError(f"{where(i)}: weight must be a finite number >= 0")),
        (ground_truth, _is_sign_or_none, _sign_error(where, "ground_truth", ground_truth)),
    ]
    limit = len(ids)
    error: Exception | None = None
    for values, value_ok, describe in checks:
        index = next(
            (i for i, value in enumerate(values[:limit]) if not value_ok(value)), None
        )
        if index is not None:
            limit, error = index, describe(index)
    if error is not None:
        raise error


def _split_lines(text: str, block: int = 1 << 20):
    """The items of ``text.split("\\n")``, split about ``block`` characters at a time.

    Splitting the whole text at once would hold every line of the file
    in memory next to the text itself.
    """
    start = 0
    while True:
        end = text.find("\n", start + block)
        if end < 0:
            yield from text[start:].split("\n")
            return
        yield from text[start:end].split("\n")
        start = end + 1


def load_dataset(
    source: bytes | BinaryIO,
    *,
    schema: Sequence[str] | None = None,
) -> ConceptDataset:
    """Parse JSONL bytes into a ConceptDataset.

    Args:
        source: raw bytes or a binary file object.
        schema: concept names every line must carry exactly. Without
            it the schema is the first line's concept keys, in their
            order.

    Missing weights default to uniform 1/n; the weight column is then
    renormalized to total 1 and the raw total is kept on the dataset.
    """
    data = source if isinstance(source, bytes) else source.read()
    if data.startswith(b"\xef\xbb\xbf"):
        raise ParseError("input starts with a UTF-8 BOM; the format forbids it")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None

    names: tuple[str, ...] | None = tuple(schema) if schema else None
    if names is not None:
        read, keys = _concept_reader(names)
    linenos: list[int] = []
    ids: list[object] = []
    predictions: list[object] = []
    weights: list[object] = []
    truths: list[object] = []
    rows: list[tuple] = []
    bad_concepts: dict[int, object] = {}
    loads = json.loads
    for lineno, line in enumerate(_split_lines(text), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = loads(stripped)
        except JSON_ERRORS as exc:
            message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise ParseError(f"line {lineno}: invalid JSON ({message})") from None
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected a JSON object")
        concepts = obj.get("concepts")
        if names is None:
            names = tuple(concepts) if isinstance(concepts, dict) else ()
            read, keys = _concept_reader(names)
        if isinstance(concepts, dict) and concepts.keys() == keys:
            rows.append(read(concepts))
        else:
            bad_concepts[len(rows)] = concepts
            rows.append((0.0,) * len(names))
        linenos.append(lineno)
        ids.append(obj.get("id"))
        predictions.append(obj.get("prediction", _MISSING))
        weights.append(obj.get("weight"))
        truths.append(obj.get("ground_truth"))
    if not rows:
        raise ParseError("no examples found in input")
    assert names is not None

    uniform = 1.0 / len(rows)
    weights = [uniform if w is None else w for w in weights]
    columns = list(zip(*rows))
    del rows
    ids, predictions, columns, raw_weights, truths = _check_columns(
        names, ids, predictions, columns, weights, truths,
        lambda i: f"line {linenos[i]}", bad_concepts,
    )
    # The file's numbers as the format's types: +1/-1 as ints (a JSON 1.0
    # is accepted), concept values and weights as floats (a JSON 1 is too).
    if not _types(predictions) <= {int}:
        predictions = tuple(map(int, predictions))
    if not _types(truths) <= {int, type(None)}:
        truths = tuple(None if v is None else int(v) for v in truths)
    columns = [c if _types(c) <= {float} else tuple(map(float, c)) for c in columns]
    raw_weights = list(map(float, raw_weights))
    total = kahan_sum(raw_weights)
    if total <= 0.0:
        raise ValidationError("total weight must be positive")
    dataset = ConceptDataset.__new__(ConceptDataset)
    _fill(dataset, names, ids, predictions, columns,
          tuple([w / total for w in raw_weights]), truths, total)
    return dataset


def to_jsonl(dataset: ConceptDataset) -> bytes:
    """Serialize in the JSONL interchange format with stable bytes."""
    names = dataset.concept_names
    columns = [dataset.column(name) for name in names]
    rows = zip(*columns) if columns else repeat((), len(dataset))
    lines = []
    for example_id, prediction, values, weight, truth in zip(
        dataset.ids, dataset.predictions, rows, dataset.weights, dataset.ground_truth
    ):
        obj: dict[str, object] = {
            "id": example_id,
            "prediction": prediction,
            "concepts": {name: float(value) for name, value in zip(names, values)},
            "weight": float(weight),
        }
        if truth is not None:
            obj["ground_truth"] = truth
        lines.append(json.dumps(obj, separators=(",", ":"), allow_nan=False))
    return ("\n".join(lines) + "\n").encode("utf-8")


def with_ground_truth_predictions(dataset: ConceptDataset) -> ConceptDataset:
    """Dataset with predictions replaced by ground-truth labels.

    Used for the "ground truth" comparison series in reports; errors if
    any example lacks a ground-truth label. Every other column is
    shared with ``dataset``; nothing is validated again.
    """
    truth = dataset.ground_truth
    if None in truth:
        example_id = dataset.ids[truth.index(None)]
        raise ValidationError(
            f"example {example_id!r} has no ground_truth; cannot build the ground-truth series"
        )
    swapped = ConceptDataset.__new__(ConceptDataset)
    names = dataset.concept_names
    _fill(swapped, names, dataset.ids, truth, [dataset.column(n) for n in names],
          dataset.weights, truth, dataset.original_weight_total,
          weight_total=dataset.weight_total)
    return swapped
