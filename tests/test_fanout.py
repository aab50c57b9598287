"""fork_map gives the results and the first error of one pass, and leaves no
worker or pipe behind; the verify suites that run through it give the
report of one pass."""

import errno
import os
import threading
import time

import pytest

from cli_fixtures import assert_nothing_left, lose_workers, open_fds
from conceptscope import fanout, verify
from conceptscope.errors import DomainError
from conceptscope.fanout import fork_map

SPANS = [(0, 3), (3, 6), (6, 9)]


def squares(start, end):
    return [i * i for i in range(start, end)]


def test_fork_map_equals_one_pass_and_reaps_its_workers(forks):
    fds = open_fds()
    assert fork_map(squares, SPANS) == [squares(*span) for span in SPANS]
    assert len(forks) == 2
    assert_nothing_left(fds)


def test_fork_map_forks_nothing_for_one_span(forks):
    assert fork_map(squares, SPANS[:1]) == [[0, 1, 4]]
    assert fork_map(squares, []) == []
    assert forks == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_fork_map_stops_its_workers_when_the_parent_part_raises(forks, error):
    """The workers are stopped, not waited for: here they would take 10 s."""
    fds = open_fds()

    def first_part_fails(start, end):
        if start:
            time.sleep(10)
        raise error("first part")

    started = time.monotonic()
    with pytest.raises(error, match="first part"):
        fork_map(first_part_fails, SPANS)
    assert time.monotonic() - started < 5
    assert len(forks) == 2
    assert_nothing_left(fds)


def test_fork_map_raises_the_first_error_of_one_pass(forks):
    """Both workers' parts raise; the parent computes the second part again
    and raises its error, as one pass would."""
    fds = open_fds()

    def later_parts_fail(start, end):
        if start:
            raise ValueError(f"part from {start}")
        return squares(start, end)

    with pytest.raises(ValueError, match="^part from 3$"):
        fork_map(later_parts_fail, SPANS)
    assert len(forks) == 2
    assert_nothing_left(fds)


@pytest.mark.parametrize("sent", [0.0, 0.5, None])
def test_fork_map_computes_a_lost_workers_part_itself(forks, monkeypatch, sent):
    """A worker killed before it sends or midway, or one that cannot be
    forked (``sent`` None), leaves its part to the parent."""
    fds = open_fds()
    lose_workers(monkeypatch, sent)
    assert fork_map(squares, SPANS) == [squares(*span) for span in SPANS]
    assert len(forks) == 2 * (sent is not None)
    assert_nothing_left(fds)


def test_fork_map_computes_the_spans_it_has_no_pipe_for(forks, monkeypatch):
    """Once ``os.pipe`` fails, as when descriptors run out, that span and the
    ones after it are computed here."""
    fds = open_fds()
    pipe, made = os.pipe, []

    def one_pipe():
        if made:
            raise OSError(errno.EMFILE, "Too many open files")
        made.append(1)
        return pipe()

    monkeypatch.setattr(os, "pipe", one_pipe)
    assert fork_map(squares, SPANS) == [squares(*span) for span in SPANS]
    assert len(forks) == 1
    assert_nothing_left(fds)


def test_usable_cpus_is_one_while_a_second_thread_runs():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fanout.usable_cpus() == 1
    finally:
        stop.set()
        thread.join()


def test_run_trials_needs_a_trial():
    with pytest.raises(DomainError, match="trials must be >= 1"):
        verify.run_trials(lambda index: index, 0)


@pytest.mark.parametrize("trials", [1, 2, 2 * verify.MIN_TRIALS - 1,
                                    2 * verify.MIN_TRIALS, 3 * verify.MIN_TRIALS + 5])
def test_run_trials_keeps_trial_order(forks, monkeypatch, trials):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    assert verify.run_trials(lambda index: index, trials) == list(range(trials))
    assert len(forks) == max(1, min(3, trials // verify.MIN_TRIALS)) - 1


def test_theorem2_parameters_fail_before_any_fork(forks, monkeypatch):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    with pytest.raises(DomainError, match="epsilon"):
        verify.run_theorem2_suite(1.5, 0.1, 4, 3 * verify.MIN_TRIALS, 0)
    assert forks == []


# These trials make no BLAS call, so a worker forked beside a BLAS thread of
# the test process cannot block on that thread's locks.
@pytest.mark.parametrize("suite", [verify.run_axioms_suite, verify.run_theorem1_suite],
                         ids=["axioms", "theorem1"])
def test_split_suite_reports_what_one_pass_reports(forks, monkeypatch, suite):
    """With a tolerance no gap meets, every trial fails; the failure records
    of three spans are those of one pass, in trial order."""
    monkeypatch.setattr(verify, "IDENTITY_TOLERANCE", -1.0)
    trials = 3 * verify.MIN_TRIALS
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    serial = suite(trials, 11)
    assert forks == []
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    split = suite(trials, 11)
    assert len(forks) == 2
    assert split == serial
    assert not split.passed
    failed = [failure["trial"] for failure in split.failures]
    assert failed == sorted(failed)
    assert set(failed) == set(range(trials))
