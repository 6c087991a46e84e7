"""Acceptance gate: twelve numbered checks over the fixed instance matrix.

One test per criterion.  The suite itself runs once per session (the last
criterion internally replays the others at 4 and 8 workers, so a single
run already exercises every parallel path); each test then inspects the
records for its number.  Tolerances are pinned here and must not drift.
"""

import hashlib
import time

import pytest

from threshlab.estimate import constant_check
from threshlab.suite import (
    DEFAULT_SEED,
    DESK_INSTANCES,
    _Ctx,
    criterion_02,
    pc_exact,
    q_star,
    run_suite,
)


# sha256 of the records of the full run below (criteria 1-12, DEFAULT_SEED,
# one worker).  A change that moves a record on purpose updates these and
# says in CHANGES.md what moved and why.
RECORDS_CSV_SHA256 = "219b3abdddd2a944c040c52bd05ebab83035579f62a6cc5e4ef7f9f3858234e5"
RECORDS_JSON_SHA256 = "bfa979136216d05133827483d4ae9d86d3d9e2208e47efacf8172c8e9f9ecc76"


@pytest.fixture(scope="module")
def suite():
    return run_suite(DEFAULT_SEED, workers=1)


def _all_pass(suite, number):
    recs = suite.records(number)
    assert recs, f"criterion {number} produced no records"
    failed = [r for r in recs if not r.passed]
    assert not failed, f"criterion {number}: {failed}"
    print(f"criterion {number}: PASS ({len(recs)} checks)")
    return recs


def test_criterion_01_exact_constant(suite):
    recs = _all_pass(suite, 1)
    (r,) = recs
    assert r.lhs == 947 / 4096
    assert r.rhs == 0.25
    assert r.details["partial"] == "819/4096"
    assert r.details["tail_bound"] == "1/32"
    start = time.perf_counter()
    assert constant_check().passed
    assert time.perf_counter() - start < 1.0


def test_criterion_02_singleton_closed_forms(suite):
    recs = _all_pass(suite, 2)
    assert len(recs) == 16
    assert {r.operation for r in recs} == {"singleton_q", "singleton_pc"}
    assert all(r.tolerance == 1e-9 for r in recs)
    q_star.cache_clear()
    pc_exact.cache_clear()
    start = time.perf_counter()
    fresh = criterion_02(_Ctx(DEFAULT_SEED, 1))
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in fresh)
    assert elapsed < 10.0


def test_criterion_03_first_moment_bound(suite):
    recs = _all_pass(suite, 3)
    assert {r.instance for r in recs} == set(DESK_INSTANCES)
    assert all(r.tolerance == 1e-6 for r in recs)
    assert all(r.lhs <= r.rhs + r.tolerance for r in recs)


def test_criterion_04_threshold_upper_bound(suite):
    recs = _all_pass(suite, 4)
    bounds = [r for r in recs if r.operation == "threshold_bound"]
    assert {r.instance for r in bounds} == set(DESK_INSTANCES)
    unclamped = [r for r in bounds if not r.vacuous]
    assert len(unclamped) >= 3
    (tally,) = [r for r in recs if r.operation == "threshold_nonvacuous"]
    assert tally.lhs == float(len(unclamped))


def test_criterion_05_fragment_weight_means(suite):
    recs = _all_pass(suite, 5)
    assert len(recs) == 18  # three 3-uniform and two cycle instances
    assert all(r.operation.startswith("fragment_weight_t") for r in recs)
    assert all(r.trials == 10_000 for r in recs)


def test_criterion_06_tiebreaker_recovery(suite):
    recs = _all_pass(suite, 6)
    (r,) = recs
    assert r.lhs == r.rhs == 10_000.0
    assert r.trials == 10_000


def test_criterion_07_halving_dichotomy_and_rate(suite):
    recs = _all_pass(suite, 7)
    dich = [r for r in recs if r.operation == "halving_dichotomy"]
    rates = [r for r in recs if r.operation == "halving_found_rate"]
    assert len(dich) == 4 and len(rates) == 4
    assert all(r.lhs == 10_000.0 for r in dich)
    assert all(r.lhs > 0.5 - r.tolerance for r in rates)


def test_criterion_08_retry_caps_and_rates(suite):
    recs = _all_pass(suite, 8)
    caps = [r for r in recs if r.operation == "retry_weight_cap"]
    assert len(caps) == 3 and all(r.lhs < 0.5 for r in caps)
    rates = [r for r in recs if r.operation.startswith("retry_failure_rate")]
    assert len(rates) == 9
    assert all(r.details["not_small"] for r in rates)
    assert all(r.lhs <= r.rhs + r.tolerance for r in rates)
    (live,) = [r for r in recs if r.operation == "highprob_nonvacuous"]
    assert live.lhs >= 1.0
    hp = [r for r in recs if r.operation == "highprob_bound"]
    assert len(hp) == 3


def test_criterion_09_restart_rates(suite):
    recs = _all_pass(suite, 9)
    assert len(recs) == 9
    assert all(r.operation.startswith("restart_failure_rate") for r in recs)
    assert all(r.lhs <= r.rhs + r.tolerance for r in recs)


def test_criterion_10_spread_blocks_smallness(suite):
    recs = _all_pass(suite, 10)
    assert {r.instance for r in recs} == set(DESK_INSTANCES)
    assert all(r.operation == "spread_not_small" for r in recs)
    assert all(r.lhs >= 1.0 - 1e-9 for r in recs)
    assert all(not r.details["is_q_small"] for r in recs)


def test_criterion_11_oracle_equivalence(suite):
    recs = _all_pass(suite, 11)
    covers = [r for r in recs if r.operation.startswith("bb_vs_exhaustive")]
    probs = [r for r in recs if r.operation.startswith("counts_vs_inclexcl")]
    assert len(covers) + len(probs) == len(recs)
    assert covers and all(r.lhs == r.rhs for r in covers)
    assert len(probs) == 10
    assert all(r.tolerance == 1e-12 for r in probs)
    assert all(abs(r.lhs - r.rhs) <= 1e-12 for r in probs)


def test_criterion_12_byte_identical_reruns(suite):
    recs = _all_pass(suite, 12)
    assert {r.operation for r in recs} == {"csv_identical", "json_identical"}
    assert all(r.lhs == 1.0 for r in recs)
    assert all(r.details["workers"] == [1, 4, 8] for r in recs)


def test_records_are_pinned(suite):
    assert hashlib.sha256(suite.csv_text.encode()).hexdigest() == RECORDS_CSV_SHA256
    assert hashlib.sha256(suite.json_text.encode()).hexdigest() == RECORDS_JSON_SHA256


def test_suite_verdict(suite):
    assert suite.passed
    assert suite.summary_text.strip().endswith("suite: PASS")
