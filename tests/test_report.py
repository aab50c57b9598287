"""SVG text escaping in the report renderer, and the table's fan-out."""

from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_fixtures import assert_nothing_left, lose_workers, open_fds
from conceptscope import fanout, report
from conceptscope.dataset import ConceptDataset
from conceptscope.errors import DomainError, UndefinedMeasureError
from conceptscope.report import _escape, compute_measure_table

# The characters escape() rewrites or could confuse with an entity, mixed
# with any other character, non-ASCII included.
text_st = st.text(alphabet=st.one_of(st.sampled_from("&<>\"';#"), st.characters()),
                  max_size=40)


@settings(max_examples=500, deadline=None)
@given(text_st)
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_escape_replaces_ampersand_first():
    assert _escape("a<&>b") == "a&lt;&amp;&gt;b"
    assert _escape("&lt;") == "&amp;lt;"


@pytest.mark.parametrize("datasets, kind, message", [
    ([], "symmetric", "at least one dataset is required"),
    (None, "mean", "unknown measure kind 'mean'"),
], ids=["no-datasets", "unknown-kind"])
def test_table_argument_error_messages(datasets, kind, message):
    with pytest.raises(DomainError) as raised:
        compute_measure_table(_table_input() if datasets is None else datasets, kind)
    assert str(raised.value) == message


# A table of at least 2 * MIN_TABLE_PART row-cells forks one worker per span
# of cells after the first; whatever happens to a worker, the cells and the
# error are those of one pass.
def _table_input():
    n = 12
    return [("A", ConceptDataset(
        ids=[f"r{i}" for i in range(n)], predictions=[1 - 2 * (i % 3 == 0) for i in range(n)],
        concepts={"a": [i / n for i in range(n)], "b": [1 - 2 * i / n for i in range(n)],
                  "c": [0.25] * n},
        weights=[(i + 1) / 78 for i in range(n)], ground_truth=[1] * n,
    ))]


@pytest.fixture()
def three_spans(monkeypatch, forks):
    """Tables in this test cut into three spans; the list of forks made."""
    monkeypatch.setattr(report, "MIN_TABLE_PART", 1)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    return forks


@pytest.mark.parametrize("sent", [0.0, 0.5, None])
def test_table_computes_a_lost_workers_cells_itself(three_spans, monkeypatch, sent):
    fds = open_fds()
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(fanout, "usable_cpus", lambda: 1)
        serial = compute_measure_table(_table_input(), "symmetric", include_ground_truth=True)
    assert three_spans == []
    lose_workers(monkeypatch, sent)
    assert compute_measure_table(_table_input(), "symmetric", include_ground_truth=True) == serial
    assert len(three_spans) == 2 * (sent is not None)
    assert_nothing_left(fds)


def test_strict_table_raises_the_first_undefined_cell_of_one_pass(three_spans):
    """Concept c never reaches theta: its cell, in the last worker's span,
    fails the table, and the parent raises it again."""
    fds = open_fds()
    with pytest.raises(UndefinedMeasureError, match="^concept-conditioned measure of 'c' at"):
        compute_measure_table(_table_input(), "concept_conditioned", theta=0.5, strict=True)
    assert len(three_spans) == 2
    cells = compute_measure_table(_table_input(), "concept_conditioned", theta=0.5)
    assert [cell.value is None for cell in cells] == [False, False, True]
    assert_nothing_left(fds)
