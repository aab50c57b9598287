"""Concept labels from yes/no captioner votes, thresholded at k.

A record is labeled "present" at threshold k when its yes-vote count
is at least k, so recall can only shrink as k grows.

CSV input contract: header ``example_id,concept,yes_count,total_votes,
true_label`` with true_label in {present, absent}.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence

from conceptscope.errors import (
    DomainError,
    ParseError,
    UndefinedMeasureError,
    ValidationError,
)

PRESENT = "present"
ABSENT = "absent"

_CSV_HEADER = ["example_id", "concept", "yes_count", "total_votes", "true_label"]
# What int() also reads, such as "1_1" or non-ASCII digits, is refused.
_COUNT = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class VoteRecord:
    example_id: str
    concept: str
    yes_count: int
    total_votes: int
    true_label: str

    def __post_init__(self) -> None:
        if self.yes_count < 0:
            raise ValidationError(f"yes_count must be >= 0, got {self.yes_count}")
        if self.total_votes <= 0:
            raise ValidationError(f"total_votes must be positive, got {self.total_votes}")
        if self.yes_count > self.total_votes:
            raise ValidationError(
                f"yes_count {self.yes_count} exceeds total_votes {self.total_votes}"
            )
        if self.true_label not in (PRESENT, ABSENT):
            raise ValidationError(
                f"true_label must be 'present' or 'absent', got {self.true_label!r}"
            )


@dataclass(frozen=True)
class VoteMetrics:
    accuracy: float
    recall: float


def label_at_k(record: VoteRecord, k: int) -> str:
    """"present" when yes_count >= k (ties count as present)."""
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= record.total_votes:
        raise DomainError(
            f"k must be an integer in [0, {record.total_votes}], got {k!r}"
        )
    return PRESENT if record.yes_count >= k else ABSENT


def metrics_at_k(records: Sequence[VoteRecord], k: int) -> VoteMetrics:
    """Accuracy over all records and recall over the true-present ones."""
    if not records:
        raise DomainError("records must be non-empty")
    correct = 0
    present_total = 0
    present_hit = 0
    for record in records:
        label = label_at_k(record, k)
        if label == record.true_label:
            correct += 1
        if record.true_label == PRESENT:
            present_total += 1
            if label == PRESENT:
                present_hit += 1
    if present_total == 0:
        raise UndefinedMeasureError(
            "recall is undefined: no record has true_label 'present'"
        )
    return VoteMetrics(
        accuracy=correct / len(records),
        recall=present_hit / present_total,
    )


def _numbered_rows(reader: Iterator[list[str]]) -> Iterator[tuple[int, list[str]]]:
    """(row number, fields) per CSV row, the header being row 1.

    A row the csv module cannot read (a field over its size limit, a bare
    carriage return) raises ParseError naming the row. The size limit is
    process-wide, so it is left as it is.
    """
    rownum = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
        yield rownum, row
        rownum += 1


def load_votes_csv(source: bytes | BinaryIO) -> list[VoteRecord]:
    """Parse the vote CSV contract; errors carry data row numbers."""
    data = source if isinstance(source, bytes) else source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"votes CSV is not valid UTF-8: {exc}") from None
    rows = _numbered_rows(csv.reader(io.StringIO(text)))
    _, header = next(rows, (1, None))
    if header is None:
        raise ParseError("votes CSV is empty")
    if [h.strip() for h in header] != _CSV_HEADER:
        raise ParseError(
            f"votes CSV header must be {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    records: list[VoteRecord] = []
    for rownum, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(_CSV_HEADER):
            raise ParseError(f"row {rownum}: expected {len(_CSV_HEADER)} fields, got {len(row)}")
        example_id, concept, yes_raw, total_raw, true_label = (f.strip() for f in row)
        try:
            if not (_COUNT.fullmatch(yes_raw) and _COUNT.fullmatch(total_raw)):
                raise ValueError
            yes_count = int(yes_raw)
            total_votes = int(total_raw)
        except ValueError:
            raise ParseError(f"row {rownum}: vote counts must be integers") from None
        try:
            records.append(
                VoteRecord(
                    example_id=example_id,
                    concept=concept,
                    yes_count=yes_count,
                    total_votes=total_votes,
                    true_label=true_label,
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"row {rownum}: {exc}") from None
    if not records:
        raise ParseError("votes CSV has no data rows")
    return records
