"""Dataset model: weighted examples labeled with a prediction and concepts.

The JSONL interchange format (one example per line) is the contract
every other module consumes:

    {"id": "x1", "prediction": 1, "concepts": {"stripes": 1.0},
     "weight": 0.01, "ground_truth": -1}

Files are UTF-8 without BOM. ``weight`` and ``ground_truth`` are
optional; missing weights default to uniform 1/n and the whole weight
column is renormalized to sum to 1 at load time.

A ``ConceptDataset`` is columns and nothing else, all in input order:
``ids``, ``predictions`` (+1/-1), ``ground_truth`` (+1/-1 or None per
row) as tuples, and ``weights`` and one column per concept, read with
``column(name)``, as read-only memoryviews of doubles. There is no row
type; code that wants row ``i`` reads index ``i`` of each column. A
dataset is built either by the constructor, from in-memory columns, or by
``load_dataset``. From ``MIN_PART`` bytes on, orjson parses the input in parts,
one per usable CPU, a chunk of text and a block of lines at a time straight
into typed columns, and a part gives up at any error. A smaller input, and any
input a part gives up on, takes one pass with ``json.loads``, so every value
and error is json's. Rules are exact, one per field, run once over a whole
column (or a block's, which passes exactly when the column does), so valid
data always passes. When a rule fails, ``_check_columns``, which the
constructor and the one pass share, bisects with it to the first bad row, and
names the row and field a row-by-row check would.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from array import array
from dataclasses import FrozenInstanceError
from functools import reduce
from itertools import compress, repeat
from operator import iadd, is_not, itemgetter, mul
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence

from conceptscope import fanout
from conceptscope.errors import (
    JSON_ERRORS,
    ParseError,
    SchemaError,
    ValidationError,
)

WEIGHT_SUM_TOLERANCE = 1e-9
# Fewest bytes per part when load_dataset splits its parse; a forked part
# (read, parse, checks, normalization) saves time from a quarter of this on.
MIN_PART = 1 << 20
# Lines per block of a part's parse, and bytes of a part decoded at a time.
BLOCK = 128
CHUNK = 1 << 20


class ConceptDataset:
    """Immutable weighted dataset with a fixed concept schema, held as columns.

    ``ConceptDataset(ids, predictions, concepts, weights, ground_truth)``
    takes one sequence per field, all in row order; ``concepts`` maps
    each concept name to its column, and its key order is the schema.
    ``ground_truth`` defaults to None on every row. The invariants are
    checked here: every column has one value per id, weights are
    nonnegative and sum to 1 within 1e-9, predictions are in {-1,+1},
    ground truth is in {-1,+1} or None, concept values lie in [-1,+1],
    and ids are unique. Columns of numbers are read-only views of doubles.
    """

    concept_names: tuple[str, ...]
    ids: tuple[str, ...]
    predictions: tuple[int, ...]
    weights: memoryview
    ground_truth: tuple[int | None, ...]
    # Pre-normalization weight total when loaded from a file.
    original_weight_total: float | None
    # ``math.fsum`` of ``weights``: correctly rounded, so independent of row order.
    weight_total: float
    # weight * prediction per row, the factor of every h-weighted sum.
    signed_weights: memoryview

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

    def __reduce__(self) -> tuple:  # a memoryview does not pickle: rebuild from the columns
        columns = {name: tuple(column) for name, column in self._columns.items()}
        return ConceptDataset, (self.ids, self.predictions, columns, tuple(self.weights),
                                self.ground_truth, self.original_weight_total)

    def column(self, concept: str) -> memoryview:
        """The values of ``concept`` in row order."""
        try:
            return self._columns[concept]
        except (KeyError, TypeError):
            raise SchemaError(
                f"unknown concept {concept!r}; schema has {list(self.concept_names)}"
            ) from None

    @property
    def positives(self) -> tuple[list[bool], list[float], float, int]:
        """Rows predicted +1: mask, their weights, their ``math.fsum`` total, row count.

        Computed on first use and kept, since every concept shares it.
        """
        positives = self._positives
        if positives is None:
            mask = [prediction == 1 for prediction in self.predictions]
            weights = list(compress(self.weights, mask))
            positives = mask, weights, math.fsum(weights), len(weights)
            self.__dict__["_positives"] = positives
        return positives


def _fill(
    dataset: ConceptDataset,
    names: tuple[str, ...],
    ids: tuple[str, ...],
    predictions: tuple[int, ...],
    columns: Sequence[array | memoryview],
    weights: array | memoryview,
    ground_truth: tuple[int | None, ...],
    original_weight_total: float | None,
    weight_total: float | None = None,
) -> None:
    """Set the fields of a dataset whose columns have passed ``_check_columns``."""
    if weight_total is None:
        weight_total = _total(weights)
        if abs(weight_total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValidationError(
                f"weights sum to {weight_total!r}; expected 1 within {WEIGHT_SUM_TOLERANCE}"
            )
    dataset.__dict__.update(
        concept_names=names,
        ids=ids,
        predictions=predictions,
        weights=memoryview(weights).toreadonly(),
        ground_truth=ground_truth,
        original_weight_total=original_weight_total,
        weight_total=weight_total,
        signed_weights=memoryview(array("d", map(mul, weights, predictions))).toreadonly(),
        _columns={name: memoryview(c).toreadonly() for name, c in zip(names, columns)},
        _positives=None,
    )


def _total(weights: Iterable[float]) -> float:
    """``math.fsum(weights)``, or inf where the sum overflows a float."""
    try:
        return math.fsum(weights)
    except OverflowError:
        return math.inf


def _fields(dataset: ConceptDataset) -> tuple:
    return (dataset.concept_names, dataset.ids, dataset.predictions, dataset.weights,
            dataset.ground_truth, dataset._columns, dataset.original_weight_total)


# ---------------------------------------------------------------------------
# The validation pass
# ---------------------------------------------------------------------------

_MISSING = ...  # a JSONL line without "prediction"; no JSON value, and unpickled as itself


def _types(values: Sequence[object]) -> set[type]:
    return set(map(type, values))


# One rule per field, exact: it holds when every value in the column is
# valid, so also on each prefix of a column it holds on. Types are checked
# once each: int and float subclasses pass, bool does not.
def _numbers(types: set[type], *extra: type) -> bool:
    return types <= {int, float, *extra} or all(
        issubclass(t, (int, float, *extra)) and not issubclass(t, bool) for t in types
    )


def _ids(values: Sequence[object]) -> bool:
    return all(issubclass(t, str) for t in _types(values)) and "" not in values


def _members(allowed: frozenset, *extra: type) -> Callable[[Sequence[object]], bool]:
    return lambda values: _numbers(_types(values), *extra) and set(values) <= allowed


def _within(low: float, high: float) -> Callable[[Sequence[object]], bool]:
    def rule(values: Sequence[object]) -> bool:
        types = _types(values)
        if not types <= {int, float}:
            if not _numbers(types):
                return False
            if int in types:  # np.float64 and an int may compare inexactly
                return all(low <= value <= high for value in values)
        # min and max catch out-of-range values and a leading NaN; a later
        # NaN makes the sum NaN. Only a sum that is not finite, as when
        # valid weights overflow, costs a look at each value.
        if values and not (low <= min(values) and max(values) <= high):
            return False
        try:
            if math.isfinite(sum(values)):
                return True
        except OverflowError:  # a sum of large integers
            pass
        return not any(value != value for value in values)

    return rule


_signs = _members(frozenset({-1, 1}))
_signs_or_none = _members(frozenset({-1, 1, None}), type(None))
_units = _within(-1.0, 1.0)
_weights = _within(0.0, sys.float_info.max)
_fast_weights = _within(0.0, 2.0 ** 63)  # orjson reads integer literals past 64 bits as floats


def _first_failure(rule: Callable[[Sequence[object]], bool], values: Sequence[object]) -> int:
    """The first i with ``rule(values[:i + 1])`` false; ``rule(values)`` must be false."""
    good, bad = 0, len(values)  # rule holds on values[:good], fails on values[:bad]
    while bad - good > 1:
        middle = (good + bad) // 2
        if rule(values[:middle]):
            good = middle
        else:
            bad = middle
    return good


def _sign_error(where: str, field: str, value: object) -> ValidationError:
    if value is _MISSING:
        return ValidationError(f"{where}: missing {field!r}")
    got = "a boolean" if isinstance(value, bool) else repr(value)
    return ValidationError(f"{where}: {field}: expected -1 or +1, got {got}")


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

    Each field's rule runs once over its whole column; if it fails,
    bisection with the same rule finds the field's first bad row. Fields
    go in the order a row is checked (id, duplicate id, prediction,
    concepts object, each concept value in schema order, weight, ground
    truth), each over the rows before the earliest failure so far, so
    the error is the one a row-by-row check would raise first.
    ``bad_concepts`` maps each row whose concepts value is not an object
    with exactly the schema's keys to that value; its entries in
    ``columns`` are placeholders. ``where(i)`` names row i. Returns ids,
    predictions, the concept columns and weights as double arrays, and ground truth.
    """
    n = len(ids)
    if not n:
        raise ValidationError("dataset has no examples")
    first_bad_object = min(bad_concepts, default=n)

    # (column, its rule, the error for row i), in the order a row is checked.
    fields = [
        (ids, _ids, lambda i: ValidationError(f"{where(i)}: missing or empty 'id'")),
        (ids, lambda values: len(set(values)) == len(values), lambda i: ValidationError(
            f"{where(i)}: duplicate id {ids[i]!r} (first seen on {where(ids.index(ids[i]))})"
        )),
        (predictions, _signs, lambda i: _sign_error(where(i), "prediction", predictions[i])),
        (range(n), lambda rows: len(rows) <= first_bad_object,
         lambda i: _concepts_error(where(i), bad_concepts[i], names)),
        *((column, _units, lambda i, name=name, column=column: ValidationError(
            f"{where(i)}: concept {name!r} value {column[i]!r} outside [-1, +1]"
        )) for name, column in zip(names, columns)),
        (weights, _weights,
         lambda i: ValidationError(f"{where(i)}: weight must be a finite number >= 0")),
        (ground_truth, _signs_or_none,
         lambda i: _sign_error(where(i), "ground_truth", ground_truth[i])),
    ]
    limit = n
    error: Exception | None = None
    for values, rule, describe in fields:
        head = values if limit == n else values[:limit]
        if not rule(head):
            limit = _first_failure(rule, head)
            error = describe(limit)
    if error is not None:
        raise error

    return (tuple(ids), tuple(predictions), [array("d", column) for column in columns],
            array("d", weights), tuple(ground_truth))


class _File:
    """A regular file from its position on, as bytes that ``os.pread`` reads in
    spans, which forked workers can share; a file that has shrunk reads short."""

    def __init__(self, file: BinaryIO, size: int) -> None:
        self.fd, self.offset = file.fileno(), file.tell()
        self.size = max(0, size - self.offset)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, span: slice) -> bytes:
        start, stop, _ = span.indices(self.size)
        chunks = []
        while start < stop and (chunk := os.pread(self.fd, stop - start, self.offset + start)):
            chunks.append(chunk)
            start += len(chunk)
        return b"".join(chunks)


def _input(source: bytes | BinaryIO) -> memoryview | _File:
    """``source`` as bytes that parts slice: a view, a ``_File``, or all read now."""
    if isinstance(source, bytes):
        return memoryview(source)
    try:  # Windows has no os.pread; io.BytesIO raises io.UnsupportedOperation
        status = os.fstat(source.fileno()) if hasattr(os, "pread") else None
    except (AttributeError, OSError):
        status = None
    if status and stat.S_ISREG(status.st_mode) and status.st_size:  # /proc files have size 0
        return _File(source, status.st_size)
    return memoryview(source.read())


def _chunks(data: memoryview | _File, start: int, end: int, size: int):
    """Bytes ``start`` (a line start) to ``end`` of ``data`` as lines, decoded about ``size``
    bytes at a time up to a newline: each chunk's lines, end to end ``split("\\n")``'s."""
    while start + size < end and (cut := min(end, _line_end(data, start + size - 1))) < end:
        yield str(data[start:cut], "utf-8").split("\n")[:-1]  # not the "" after its last newline
        start = cut
    yield str(data[start:end], "utf-8").split("\n")


def _reader(names: tuple[str, ...]) -> Callable[[dict], tuple]:
    """A concepts object's values in schema order (itemgetter gives one name's bare)."""
    return itemgetter(*names) if len(names) > 1 else lambda c: tuple(map(c.__getitem__, names))


def _typed(ids: list, predictions: list, weights: list, truths: list,
           columns: list) -> tuple | None:
    """Predictions, weights, truths and concept columns in the format's types if the rows
    pass each rule that needs no other row and no weight reaches 2**63, else None: +1/-1
    as ints, numbers as doubles, a missing weight as NaN, which no valid weight is."""
    present = list(compress(weights, map(is_not, weights, repeat(None))))
    if not (_ids(ids) and _signs(predictions) and all(map(_units, columns))
            and _fast_weights(present) and _signs_or_none(truths)):
        return None
    if not _types(predictions) <= {int}:
        predictions = list(map(int, predictions))
    if not _types(truths) <= {int, type(None)}:
        truths = [None if v is None else int(v) for v in truths]
    if len(present) < len(weights):
        weights = [math.nan if w is None else w for w in weights]
    return predictions, array("d", weights), truths, [array("d", column) for column in columns]


def _parse_lines(data: memoryview | _File, start: int, end: int, names: tuple[str, ...]
                 ) -> tuple | None:
    """One part of a load: the JSONL lines in bytes ``start`` (a line start) to ``end`` of
    ``data``, decoded ``CHUNK`` bytes and parsed ``BLOCK`` lines at a time, as ids,
    predictions, weights, truths and concept columns typed by ``_typed``; or None, giving
    up, at a bad byte, a bad line, concepts without the schema's keys or a failed rule.
    orjson parses each block. A block that it rejects, or with ``[`` or more than two
    ``{`` a line, as no valid line has, is parsed line by line, and json parses each line
    that orjson rejects or is not given: orjson can overflow the C stack on deep nesting."""
    from orjson import loads

    def parse(text: str) -> object:
        if text.count("{") <= 2 and "[" not in text:
            try:
                return loads(text)
            except ValueError:
                pass
        return json.loads(text)

    read, ids, predictions, truths = _reader(names), [], [], []
    weights, *columns = (array("d") for _ in range(len(names) + 1))
    try:
        "".join(names).encode("utf-8")  # a name with a lone surrogate: the one pass names it
        for lines in _chunks(data, start, end, CHUNK):
            for at in range(0, len(lines), BLOCK):
                texts = list(filter(None, map(str.strip, lines[at:at + BLOCK])))
                try:
                    joined = "".join(texts)
                    if "[" in joined or joined.count("{") > 2 * len(texts):
                        raise ValueError("a line may nest deep")
                    objs = list(map(loads, texts))
                except ValueError:
                    objs = list(map(parse, texts))
                if not _types(objs) <= {dict}:
                    return None
                block_ids, ws, trs, concepts = (list(map(dict.get, objs, repeat(key)))
                                                for key in ("id", "weight", "ground_truth", "concepts"))
                preds = list(map(dict.get, objs, repeat("prediction"), repeat(_MISSING)))
                if not (_types(concepts) <= {dict} and set(map(len, concepts)) <= {len(names)}):
                    return None
                cols = list(zip(*map(read, concepts))) or [()] * len(names)
                if not (typed := _typed(block_ids, preds, ws, trs, cols)):
                    return None
                preds, ws, trs, cols = typed
                for column, values in zip((ids, predictions, weights, truths, *columns),
                                          (block_ids, preds, ws, trs, *cols)):
                    column.extend(values)
    except (KeyError, *JSON_ERRORS):  # a concept name missing, a bad byte, name or line
        return None
    return tuple(ids), tuple(predictions), weights, tuple(truths), columns


def _line_end(data: memoryview | _File, pos: int) -> int:
    """The offset just past the first newline at or after ``pos``, or ``len(data)``."""
    span = 256
    while window := bytes(data[pos:pos + span]):
        if (at := window.find(b"\n")) >= 0:
            return pos + at + 1
        pos, span = pos + len(window), 2 * span
    return len(data)


def _first_line(data: memoryview | _File) -> str:
    """The first non-blank line of ``data``, stripped, or ""; the parse reports bad UTF-8."""
    start = end = 0
    while not (line := str(data[start:end], "utf-8", "replace").strip()) and end < len(data):
        start, end = end, _line_end(data, end)
    return line


class _GiveUp(Exception):
    """The first part of a split load gave up."""


def _parse_parts(data: memoryview | _File, names: tuple[str, ...]) -> tuple | None:
    """``_parse_lines`` on ``data`` cut at newlines into up to one part per usable CPU, the
    parts after the first in forked workers (``fork_map``), joined; None if a part gives up
    or no id is found or an id repeats. The first part's give-up raises, so that the workers
    are killed, not waited for; a later part's comes back as None, so that its span is not
    parsed again here."""
    size = len(data)
    k = max(1, min(size // MIN_PART, fanout.usable_cpus()))
    import orjson  # noqa: F401  (here, so that the workers fork with it loaded)

    def parse(start: int, end: int) -> tuple | None:
        if (part := _parse_lines(data, start, end, names)) is None and not start:
            raise _GiveUp
        return part

    cuts = [0, *(_line_end(data, size * i // k) for i in range(1, k)), size]
    try:
        parts = fanout.fork_map(parse, list(zip(cuts, cuts[1:])))
    except _GiveUp:
        return None
    if None in parts:
        return None
    ids, predictions, weights, truths, columns = zip(*parts)
    del parts  # so that each field's parts go once they are joined
    if not (ids := reduce(iadd, ids)) or len(set(ids)) < len(ids):  # += joins tuples
        return None
    predictions, truths = reduce(iadd, predictions), reduce(iadd, truths)
    columns = [reduce(iadd, column) for column in zip(*columns)]  # += extends arrays in place
    return ids, predictions, reduce(iadd, weights), truths, columns


def _one_pass(data: memoryview | _File, names: tuple[str, ...]) -> tuple:
    """The whole input in ``_parse_parts``' fields (a missing weight as 1/n), or its first
    error as a line-by-line load finds it: the input is decoded at once, ``json.loads``
    parses each stripped, non-blank line in order, of which only the fields are kept,
    and ``_check_columns`` checks them, naming each row by its line."""
    try:
        lines = str(data[0:len(data)], "utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None
    read, keys, blank = _reader(names), set(names), dict.fromkeys(names, 0.0)
    rows, bad_concepts = [], {}
    for lineno, text in enumerate(lines, 1):
        if not (text := text.strip()):
            continue
        try:
            obj = json.loads(text)
        except JSON_ERRORS as exc:
            message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise ParseError(f"line {lineno}: invalid JSON ({message})") from None
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected a JSON object")
        if not (isinstance(concepts := obj.get("concepts"), dict) and concepts.keys() == keys):
            bad_concepts[len(rows)], concepts = concepts, blank
        rows.append((lineno, obj.get("id"), obj.get("prediction", _MISSING), obj.get("weight"),
                     obj.get("ground_truth"), read(concepts)))
    if not rows:
        raise ParseError("no examples found in input")
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"concept name {name!r} holds a lone surrogate") from None
    linenos, ids, predictions, weights, truths, values = zip(*rows)
    ids, predictions, columns, weights, truths = _check_columns(
        names, ids, predictions, list(zip(*values)) or [()] * len(names),
        [1.0 / len(ids) if w is None else w for w in weights], truths,
        lambda i: f"line {linenos[i]}", bad_concepts)
    return ids, tuple(map(int, predictions)), weights, tuple(t and int(t) for t in truths), columns


def check_schema(schema: Sequence[str]) -> tuple[str, ...]:
    """``schema`` as a tuple of concept names; SchemaError if a name repeats."""
    names = tuple(schema)
    if len(set(names)) != len(names):
        raise SchemaError("duplicate concept names in schema")
    return names


def load_dataset(
    source: bytes | BinaryIO,
    *,
    schema: Sequence[str] | None = None,
) -> ConceptDataset:
    """Parse JSONL bytes into a ConceptDataset.

    Args:
        source: raw bytes or a binary file object, read from its position.
        schema: concept names every line must carry exactly; an empty
            one means every line's concepts are ``{}``. If None, the schema
            is the first line's concept keys, in their order.

    Missing weights default to uniform 1/n; the weight column is then
    renormalized to total 1 and the raw total is kept on the dataset.
    From ``MIN_PART`` bytes on, ``_parse_lines`` parses parts with orjson; from
    ``2 * MIN_PART`` bytes on, forked workers read (a regular file with ``os.pread``,
    where the OS has it; any other file is read whole here), parse, check and type the
    parts after the first, one per usable CPU. A smaller input, one that a part gives
    up on, and one whose ids repeat across parts take ``_one_pass`` with ``json.loads``,
    which loads it or raises its first error.
    """
    data = _input(source)
    if bytes(data[0:3]) == b"\xef\xbb\xbf":
        raise ParseError("input starts with a UTF-8 BOM; the format forbids it")

    if schema is not None:
        names = check_schema(schema)
    else:  # the first line's concept keys; a bad first line fails its parse below
        try:
            first = json.loads(_first_line(data))
        except JSON_ERRORS:
            first = None
        concepts = first.get("concepts") if isinstance(first, dict) else None
        names = tuple(concepts) if isinstance(concepts, dict) else ()
    fields = _parse_parts(data, names) if len(data) >= MIN_PART else None
    ids, predictions, weights, truths, columns = fields or _one_pass(data, names)
    # A missing weight is NaN, so the total is NaN, or inf if the others overflow anyway.
    if (total := _total(weights)) != total:
        uniform = 1.0 / len(ids)
        weights = array("d", [uniform if w != w else w for w in weights])
        total = _total(weights)
    if not math.isfinite(total):
        raise ValidationError("weight total overflows a float; scale the weights down")
    if total <= 0.0:
        raise ValidationError("total weight must be positive")
    dataset = ConceptDataset.__new__(ConceptDataset)
    _fill(dataset, names, ids, predictions, columns,
          array("d", [w / total for w in weights]), truths, total)
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
