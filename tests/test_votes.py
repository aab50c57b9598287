import pytest

from conceptscope.errors import (
    DomainError,
    ParseError,
    UndefinedMeasureError,
    ValidationError,
)
from conceptscope.votes import (
    VoteRecord,
    label_at_k,
    load_votes_csv,
    metrics_at_k,
)
from oracles import naive_vote_metrics


def record(yes, total=11, true_label="present", example="x", concept="wing"):
    return VoteRecord(
        example_id=example,
        concept=concept,
        yes_count=yes,
        total_votes=total,
        true_label=true_label,
    )


def test_label_thresholding():
    assert label_at_k(record(11), 5) == "present"
    assert label_at_k(record(0), 1) == "absent"
    # Boundary: ties count as present.
    assert label_at_k(record(3), 3) == "present"
    assert label_at_k(record(2), 3) == "absent"


def test_label_k_out_of_range():
    with pytest.raises(DomainError):
        label_at_k(record(3), 12)
    with pytest.raises(DomainError):
        label_at_k(record(3), -1)


def test_record_invariants():
    with pytest.raises(ValidationError):
        record(12)
    with pytest.raises(ValidationError):
        record(-1)
    with pytest.raises(ValidationError):
        record(3, total=0)
    with pytest.raises(ValidationError):
        record(3, true_label="maybe")


def test_metrics_all_present_full_votes():
    records = [record(11, example=f"x{i}") for i in range(4)]
    for k in (1, 5, 11):
        metrics = metrics_at_k(records, k)
        assert metrics.accuracy == 1.0
        assert metrics.recall == 1.0


def test_metrics_k_zero_labels_everything_present():
    records = [
        record(0, true_label="present", example="a"),
        record(0, true_label="absent", example="b"),
    ]
    metrics = metrics_at_k(records, 0)
    assert metrics.recall == 1.0
    assert metrics.accuracy == 0.5


def test_metrics_hand_built_against_oracle():
    records = [
        record(9, true_label="present", example="a"),
        record(2, true_label="present", example="b"),
        record(7, true_label="absent", example="c"),
        record(1, true_label="absent", example="d"),
    ]
    for k in range(12):
        metrics = metrics_at_k(records, k)
        accuracy, recall = naive_vote_metrics(records, k)
        assert metrics.accuracy == accuracy
        assert metrics.recall == recall


def test_metrics_need_a_present_record():
    with pytest.raises(UndefinedMeasureError):
        metrics_at_k([record(5, true_label="absent")], 3)


def test_metrics_need_records():
    with pytest.raises(DomainError):
        metrics_at_k([], 3)


def test_recall_monotone_in_k():
    records = [
        record(yes, true_label="present" if yes % 2 else "absent", example=f"x{yes}")
        for yes in range(12)
    ]
    recalls = [metrics_at_k(records, k).recall for k in range(12)]
    assert all(earlier >= later for earlier, later in zip(recalls, recalls[1:]))


CSV = b"""example_id,concept,yes_count,total_votes,true_label
x0,wing,9,11,present
x1,wing,2,11,absent
"""


def test_csv_round_trip():
    records = load_votes_csv(CSV)
    assert len(records) == 2
    assert records[0].yes_count == 9
    assert records[1].true_label == "absent"


def test_csv_bad_header():
    with pytest.raises(ParseError, match="header"):
        load_votes_csv(b"id,concept,yes,total,label\nx,w,1,11,present\n")


def test_csv_bad_counts_name_row():
    # int() alone would read "1_1" as 11 and the Arabic-Indic digit as 3.
    for count in ("lots", "1_1", "\u0663", "1.0", ""):
        bad = CSV + f"x2,wing,{count},11,present\n".encode()
        with pytest.raises(ParseError, match="row 4: vote counts must be integers"):
            load_votes_csv(bad)
    with pytest.raises(ValidationError, match="row 4: yes_count must be >= 0"):
        load_votes_csv(CSV + b"x2,wing,-1,11,present\n")
    assert load_votes_csv(CSV + b"x2,wing,+3,11,present\n")[-1].yes_count == 3


def test_csv_invariant_violation_names_row():
    bad = CSV + b"x2,wing,12,11,present\n"
    with pytest.raises(ValidationError, match="row 4"):
        load_votes_csv(bad)


def test_csv_empty_rejected():
    with pytest.raises(ParseError):
        load_votes_csv(b"")
    with pytest.raises(ParseError, match="no data"):
        load_votes_csv(b"example_id,concept,yes_count,total_votes,true_label\n")
