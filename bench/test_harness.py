"""Tests for the benchmark harness itself (not for `ddr`).

    python3 -m pytest bench/test_harness.py -q

Every case here is fixture-sized; the budget test uses a tiny budget on a
small case and never launches a large one.
"""

import math
import random
import signal
import sys

import pytest

import run
import workloads as W
from tracer import Tracer


@pytest.fixture(scope="module")
def cli():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield run.import_ddr()
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_case(tmp_path, cli):
    w = W._Writer(tmp_path, 0)
    return w.check("fx1-finite", W._fixture("fx1.pres"), ["a", "b"], ["--tests", "finite"])


def test_budget_fires_and_is_not_swallowed(cli, small_case):
    assert issubclass(run.BudgetExceeded, BaseException)
    assert not issubclass(run.BudgetExceeded, Exception)
    stdout = sys.stdout
    outcome = run.run_case(cli, small_case, 1e-4)
    assert outcome.status == "over_budget"
    assert outcome.wall == 1e-4  # an over-budget case is recorded at the budget
    assert outcome.code is None  # main's `except ValueError` did not turn it into exit 3
    assert sys.stdout is stdout
    # the timer is disarmed afterwards: the same case completes under a real budget
    done = run.run_case(cli, small_case, 30.0)
    assert done.status == "ok" and done.code == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "ddr" or name.startswith("ddr.")
            for attr, value in vars(module).items() if callable(value)}


def test_install_then_remove_restores_originals(cli):
    before = _bindings()
    to_json = sys.modules["ddr.certificates"].Report.__dict__["to_json"]
    tracer = Tracer()
    tracer.install(run.TRACE_TARGETS)
    try:
        # every module that imported search_weights by name sees the wrapper
        wrapped = {sys.modules[m].search_weights for m in ("ddr.cli", "ddr.lot", "ddr.weights")}
        assert len(wrapped) == 1
        assert wrapped.pop() is not before[("ddr.weights", "search_weights")]
        assert sys.modules["ddr.smallcancel"].build_whitehead is \
            sys.modules["ddr.whitehead"].build_whitehead
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert sys.modules["ddr.certificates"].Report.__dict__["to_json"] is to_json


def test_span_self_times_sum_to_case_wall_time(cli, tmp_path):
    w = W._Writer(tmp_path, 0)
    case = w.check("fx3", W._fixture("fx3.pres"), ["x1", "x2"], ["--run-all"])
    tracer = Tracer()
    tracer.install(run.TRACE_TARGETS)
    try:
        outcome = run.run_case(cli, case, 30.0, tracer)
    finally:
        tracer.remove()
    assert outcome.status == "ok"
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "case")
    assert len(tracer.spans) > 5 and not tracer.stack
    total_self = sum(s.self_time for s in tracer.spans)
    assert math.isclose(total_self, tracer.spans[root].duration, rel_tol=1e-9, abs_tol=1e-12)
    # the root span brackets the timed call, so both clocks agree to well under 1 ms
    assert abs(total_self - outcome.wall) < 1e-3


def test_budget_unwinds_open_spans(cli, small_case):
    tracer = Tracer()
    tracer.install(run.TRACE_TARGETS)
    try:
        outcome = run.run_case(cli, small_case, 1e-3, tracer)
    finally:
        tracer.remove()
    assert outcome.status == "over_budget"
    assert not tracer.stack
    assert all(s.end >= s.start for s in tracer.spans)


def test_gate_fails_a_case_that_ends_without_a_verdict(small_case):
    def gate(case, **outcome):
        return run._gate(case, run.Outcome(case.base, 1.0, (1.0, 1.0), **outcome), {}, {}, (0, 0))

    assert gate(small_case, status="raised", error="AssertionError()")
    assert gate(small_case, status="ok", code=3)
    assert gate(small_case, status="over_budget") is None  # slow, but not wrong
    small_case.expect = lambda code, report: True
    assert gate(small_case, status="over_budget")  # a fixture must reach its verdict
    small_case.expect, small_case.once = None, True
    assert gate(small_case, status="ok", code=3) is None  # a pinned known failure


def test_percentile_nearest_rank():
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.percentile(list(range(1, 11)), 50) == 5
    assert run.percentile([7.0], 90) == 7.0
    rng = random.Random(3)
    for _ in range(200):
        values = [rng.random() for _ in range(rng.randint(1, 300))]
        p90 = run.percentile(values, 90)
        at_or_below = sum(v <= p90 for v in values)
        assert at_or_below >= 0.9 * len(values)
        assert sum(v < p90 for v in values) < 0.9 * len(values)
    # with the loop's minimum sample count, at least ten samples lie beyond p90
    values = [rng.random() for _ in range(run.MIN_SAMPLES)]
    assert sum(v > run.percentile(values, 90) for v in values) >= 10
    with pytest.raises(ValueError):
        run.percentile([], 50)
