"""Shared JSON vector-file format.

    {"dim": D, "vectors": [{"id": "...", "values": [... D floats ...]},
                            ...]}

Loaded vectors are normalized to unit Euclidean norm; zero or
non-finite vectors are rejected. A vector entry may carry an optional
"label" string, used by image files in zero-shot evaluation. The
writer emits raw values without renormalizing, so edited (non-unit)
prompts round-trip unchanged.

The unit-norm check and the normalization here are the package's only
ones; every module that takes unit vectors uses them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from conceptscope.errors import JSON_ERRORS, ParseError, ValidationError

UNIT_NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VectorEntry:
    id: str
    values: np.ndarray
    label: str | None = None


@dataclass(frozen=True)
class VectorFile:
    dim: int
    entries: tuple[VectorEntry, ...]


def _read_bytes(source: bytes | BinaryIO) -> bytes:
    return source if isinstance(source, bytes) else source.read()


def check_finite_vector(vector: np.ndarray, what: str) -> None:
    """Reject a ``vector`` that is not 1-D or has non-finite components."""
    if vector.ndim != 1:
        raise ValidationError(f"{what} must be a 1-D vector")
    if not np.all(np.isfinite(vector)):
        raise ValidationError(f"{what} has non-finite components")


def check_unit_vector(vector: np.ndarray, what: str) -> None:
    """Reject a ``vector`` that is not a finite 1-D vector of unit norm."""
    check_finite_vector(vector, what)
    norm = float(np.linalg.norm(vector))
    if abs(norm - 1.0) > UNIT_NORM_TOLERANCE:
        raise ValidationError(f"{what} must have unit norm, got {norm!r}")


def unit_normalize(vector: np.ndarray, what: str) -> np.ndarray:
    """``vector`` divided by its Euclidean norm, which must be finite and nonzero."""
    norm = float(np.linalg.norm(vector))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValidationError(f"{what} has norm {norm!r} and cannot be normalized")
    return vector / norm


def load_vector_file(source: bytes | BinaryIO) -> VectorFile:
    """Parse and unit-normalize a vector file."""
    data = _read_bytes(source)
    try:
        obj = json.loads(data.decode("utf-8"))
    except JSON_ERRORS as exc:
        raise ParseError(f"invalid vector file: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("vector file must be a JSON object")

    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise ValidationError(f"'dim' must be a positive integer, got {dim!r}")
    vectors = obj.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ValidationError("'vectors' must be a non-empty list")

    entries: list[VectorEntry] = []
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
        raw = item.get("values")
        if not isinstance(raw, list) or len(raw) != dim:
            raise ValidationError(f"{where}: 'values' must be a list of {dim} numbers")
        try:
            values = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: 'values' must be a list of {dim} numbers") from None
        what = f"{where}: vector {vector_id!r}"
        check_finite_vector(values, what)
        values = unit_normalize(values, what)
        label = item.get("label")
        if label is not None and not isinstance(label, str):
            raise ValidationError(f"{where}: 'label' must be a string when present")
        entries.append(VectorEntry(id=vector_id, values=values, label=label))
    return VectorFile(dim=dim, entries=tuple(entries))


def dump_vector_file(dim: int, entries: Sequence[VectorEntry]) -> bytes:
    """Serialize entries with stable bytes (raw values, no renormalizing)."""
    payload = {
        "dim": dim,
        "vectors": [
            {
                "id": entry.id,
                "values": [float(v) for v in entry.values],
                **({"label": entry.label} if entry.label is not None else {}),
            }
            for entry in entries
        ],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
