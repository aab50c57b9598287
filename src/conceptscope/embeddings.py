"""Shared JSON vector-file format, and the package's vector checks.

    {"dim": D, "vectors": [{"id": "...", "values": [... D floats ...]},
                            ...]}

``load_vector_file`` returns the ids, the optional "label" strings
(used by image files in zero-shot evaluation) and one ``(n, D)`` array
of unit rows in file order; zero or non-finite vectors are rejected.
A dimension is read from an array's shape, never kept beside it. The
writer emits raw rows without renormalizing, so edited (non-unit)
prompts round-trip unchanged.

``parse_vector`` is the one reader of a JSON vector (vector files and
model files), and ``as_rows`` the one ``(n, dim)`` shape check.
``check_unit_vectors`` is the package's one unit-norm check, for a
single vector and for the rows of an ``(n, dim)`` array alike; it and
``unit_normalize`` take norms as sqrt(vecdot(x, x)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conceptscope.errors import ParseError, ValidationError, load_json

UNIT_NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VectorFile:
    """The entries of a vector file: ``vectors[i]`` is the unit row of ``ids[i]``."""

    ids: tuple[str, ...]
    labels: tuple[str | None, ...]
    vectors: np.ndarray


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of a vector, or of each row of an ``(n, dim)`` array.

    ``np.vecdot`` runs the same dot kernel as a 1-D ``np.dot``, so each
    norm is bit-identical to ``np.linalg.norm`` of that vector alone.
    """
    return np.sqrt(np.vecdot(vectors, vectors))


def check_unit_vectors(vectors: np.ndarray, what: str) -> None:
    """Reject a vector, or ``(n, dim)`` rows, unless each has unit norm.

    A non-finite component makes the norm nan or inf, which fails too.
    For rows the error names the first bad one as ``what i``.
    """
    norms = _norms(vectors)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE))
    if bad.size:
        name = f"{what} {bad[0]}" if vectors.ndim == 2 else what
        norm = float(norms.flat[bad[0]])
        raise ValidationError(f"{name} must have unit norm, got {norm!r}")


def check_unit_vector(vector: np.ndarray, what: str) -> None:
    """Reject a ``vector`` that is not a 1-D vector of unit norm."""
    if vector.ndim != 1:
        raise ValidationError(f"{what} must be a 1-D vector")
    check_unit_vectors(vector, what)


def as_rows(array: np.ndarray, what: str, dim: int | None = None) -> np.ndarray:
    """``array`` as float64 rows, with ``dim`` columns when one is given."""
    rows = np.asarray(array, dtype=np.float64)
    if rows.ndim != 2 or (dim is not None and rows.shape[1] != dim):
        shape = f"(n, {dim})" if dim is not None else "(n, dim)"
        raise ValidationError(f"{what} must be an {shape} array, got shape {rows.shape}")
    return rows


def unit_normalize(vector: np.ndarray, what: str) -> np.ndarray:
    """``vector`` divided by its Euclidean norm, which must be finite and nonzero."""
    norm = float(_norms(vector))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError(f"{what} has norm {norm!r} and cannot be normalized")
    return vector / norm


def parse_dim(value: object, what: str) -> int:
    """A positive JSON integer; booleans are rejected."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValidationError(f"{what} must be a positive integer, got {value!r}")
    return value


def parse_vector(raw: object, dim: int, what: str) -> np.ndarray:
    """A JSON list of ``dim`` numbers (not booleans), unit-normalized.

    A non-finite component makes the norm non-finite, so
    ``unit_normalize`` rejects it.
    """
    message = f"{what} must be a list of {dim} finite numbers"
    if not isinstance(raw, list) or len(raw) != dim or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    ):
        raise ValidationError(message)
    try:
        vector = np.asarray(raw, dtype=np.float64)
    except OverflowError:  # an integer literal too large for a float
        raise ValidationError(message) from None
    return unit_normalize(vector, what)


def load_vector_file(data: bytes) -> VectorFile:
    """Parse a vector file; each entry is checked and unit-normalized in file order."""
    obj = load_json(data, "vector file")
    if not isinstance(obj, dict):
        raise ParseError("vector file must be a JSON object")

    dim = parse_dim(obj.get("dim"), "'dim'")
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ValidationError("'vectors' must be a non-empty list")

    ids: list[str] = []
    labels: list[str | None] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    for index, item in enumerate(vectors):
        where = f"vectors[{index}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{where}: expected an object")
        vector_id = item.get("id")
        if not isinstance(vector_id, str) or not vector_id:
            raise ValidationError(f"{where}: missing or empty 'id'")
        if vector_id in seen:
            raise ValidationError(f"{where}: duplicate id {vector_id!r}")
        seen.add(vector_id)
        rows.append(parse_vector(item.get("values"), dim, f"{where}: 'values' of {vector_id!r}"))
        label = item.get("label")
        if label is not None and not isinstance(label, str):
            raise ValidationError(f"{where}: 'label' must be a string when present")
        ids.append(vector_id)
        labels.append(label)
    return VectorFile(ids=tuple(ids), labels=tuple(labels), vectors=np.stack(rows))


def dump_vector_file(ids: Sequence[str], vectors: np.ndarray) -> bytes:
    """Serialize ``(n, dim)`` rows under ``ids`` with stable bytes (raw, not renormalized)."""
    payload = {
        "dim": vectors.shape[1],
        "vectors": [{"id": id_, "values": row.tolist()} for id_, row in zip(ids, vectors)],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
