"""Typed errors shared across the package.

Each class carries the CLI exit code its failure maps to, so the
command layer and library callers agree on what a failure means.
"""

from __future__ import annotations

# What UTF-8 decoding and ``json.loads`` raise on bad input. ValueError
# covers invalid UTF-8, invalid JSON and integer literals longer than
# the int-to-str digit limit; RecursionError covers nesting too deep to
# parse. ``load_json``, the reader of whole JSON files, and the JSONL
# loader in ``dataset`` turn these into ParseError.
JSON_ERRORS = (ValueError, RecursionError)


class ConceptScopeError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class ParseError(ConceptScopeError):
    """Malformed input bytes (bad JSON/CSV, wrong header, BOM)."""


class ValidationError(ConceptScopeError):
    """Structurally valid input that violates a domain invariant."""


class SchemaError(ConceptScopeError):
    """Concept-schema problem: unknown concept or mismatched schemas."""


class DomainError(ConceptScopeError):
    """Parameter outside its documented domain."""


class UndefinedMeasureError(ConceptScopeError):
    """A conditional measure was requested on an empty conditioning set.

    Never surfaces as NaN; tabular reports render these as "n/a" unless
    strict mode asked for an error.
    """

    exit_code = 3


class InfeasiblePlantError(ConceptScopeError):
    """Requested planted measures cannot be realized by any dataset."""


class SamplingError(ConceptScopeError):
    """Constrained sampling failed within its retry budget."""


class OracleMismatchError(ConceptScopeError):
    """A brute-force oracle disagreed with the closed form it checks."""

    exit_code = 1


def load_json(data: bytes, what: str) -> object:
    """``data`` parsed as UTF-8 JSON; bad bytes raise ParseError("invalid {what}: ...")."""
    import json

    try:
        return json.loads(data.decode("utf-8"))
    except JSON_ERRORS as exc:
        raise ParseError(f"invalid {what}: {exc}") from None
