"""Metric arithmetic and outcome checks of the benchmark."""

import math

import pytest

import outcome
from stats import REFERENCE_S, QueryRecord, median, setup_seconds, summarize


def record(seconds, failure=None, reference_s=0.5):
    return QueryRecord(seconds, failure, reference_s)


def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median(iter([7.0])) == 7.0
    with pytest.raises(ValueError):
        median([])


def test_failures_count_at_their_time_to_failure():
    answered = [record(1.0), record(2.0)]
    slow_failures = [record(9.0, "InstanceTooLarge"), record(8.0, "InstanceTooLarge")]
    summary = summarize(answered + slow_failures)
    assert summary.query_p50_s == 5.0  # median of 1, 2, 8, 9: failures are not dropped
    assert summary.query_p50_ref == 10.0
    assert summary.attempted == 4
    assert summary.failed == 2
    assert summary.failed_share == 0.5


def test_throughput_counts_every_query_that_ended():
    summary = summarize([record(1.0), record(1.0, "InstanceTooLarge"), record(2.0)])
    assert summary.queries_per_s == 0.75
    assert summary.queries_per_ref == 0.375
    assert summary.attempted == 3
    assert summary.failed_share == pytest.approx(1 / 3)


def test_each_query_is_measured_against_its_own_reference_time():
    # the machine ran at half speed for the second query: the reference task
    # and the query both took twice as long, and the ratios agree
    summary = summarize([record(1.0, reference_s=0.25), record(2.0, reference_s=0.5),
                         record(3.0, reference_s=0.75)])
    assert summary.query_p50_s == 2.0
    assert summary.query_p50_ref == 4.0
    assert summary.queries_per_ref == 0.25
    assert record(3.0, reference_s=0.75).ref == 4.0


def test_setup_time_is_reported_at_the_reference_speed():
    # the second set-up ran at half speed; its reference time doubled with it
    setups = [(1.0, 0.1), (2.0, 0.2), (0.3, 0.1)]
    assert setup_seconds(setups) == pytest.approx(10 * REFERENCE_S)


def test_no_failures_gives_zero_share():
    summary = summarize([record(0.5) for _ in range(5)])
    assert summary.failed == 0 and summary.failed_share == 0.0
    assert summary.queries_per_s == 2.0


def test_summarize_rejects_empty_runs_and_times_that_are_not_positive():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize([record(0.0)])
    with pytest.raises(ValueError):
        summarize([record(1.0, reference_s=0.0)])


def test_solved_digest_sees_every_bit_of_the_objective():
    base = outcome.solved_digest(["a b."], (0,), 2.5)
    assert outcome.solved_digest(["a b."], (0,), math.nextafter(2.5, 3.0)) != base
    assert outcome.solved_digest(["a b."], (1,), 2.5) != base
    assert outcome.solved_digest(["a c."], (0,), 2.5) != base
    assert outcome.solved_digest(["a b."], (0,), 2.5) == base


def test_pins_accept_an_answer_where_the_pin_is_the_expected_failure():
    failed = outcome.failed_digest(outcome.EXPECTED_FAILURE)
    pins = {0: "aaaa", 1: failed, 2: failed}
    assert outcome.check_pins({0: "aaaa", 1: "bbbb", 2: failed}, pins) == []
    assert outcome.check_pins({0: "cccc"}, pins) != []  # a pinned answer must match exactly
    assert outcome.check_pins({0: failed}, pins) != []  # and may not turn into a failure
    assert outcome.check_pins({2: outcome.failed_digest("EmptyPool")}, pins) != []


def test_check_solved_flags_constraint_violations():
    class Config:
        max_words, max_sentences = 10, 2

    assert outcome.check_solved(["a", "b"], (0, 3), 10, Config) == []
    assert outcome.check_solved(["a", "b", "c"], (0, 1, 2), 3, Config) != []
    assert outcome.check_solved(["a"], (0,), 11, Config) != []
    assert outcome.check_solved(["a", "b"], (3, 0), 2, Config) != []
