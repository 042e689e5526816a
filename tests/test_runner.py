"""The pipeline's one runner: every test's fault, spent budget and
certificate is recorded in one place, on every path through `run_check`."""

import pytest

from ddr import pipeline
from ddr.core import BudgetSpent, DdrError
from ddr.pipeline import TEST_ORDER, CheckConfig, presentation_dr, run_check


def _raising(exc):
    def test(p, s, config):
        raise exc
    return test


@pytest.mark.parametrize("name", TEST_ORDER)
def test_a_fault_is_a_skipped_attempt_with_its_code(name, fx4, monkeypatch):
    monkeypatch.setitem(pipeline.TESTS, name, _raising(DdrError("boom", code="PROBE")))
    report = run_check(fx4, frozenset(), CheckConfig(tests=(name,)))
    assert report.attempts == [{"test": name, "status": "skipped", "reason": "PROBE: boom"}]
    assert report.certificates == []


@pytest.mark.parametrize("name", TEST_ORDER)
def test_a_spent_budget_is_an_unknown_attempt_with_its_reason(name, fx4, monkeypatch):
    monkeypatch.setitem(pipeline.TESTS, name, _raising(BudgetSpent("spent: 3 rounds")))
    report = run_check(fx4, frozenset(), CheckConfig(tests=(name,)))
    assert report.attempts == [{"test": name, "status": "unknown",
                                "reason": "spent: 3 rounds"}]


@pytest.mark.parametrize("exc", [DdrError("boom", code="PROBE"), BudgetSpent("spent")])
def test_the_ladder_misses_when_its_tests_raise(exc, fx4, monkeypatch):
    assert presentation_dr(fx4) is not None
    for name in ("forest", "s44", "weight"):
        monkeypatch.setitem(pipeline.TESTS, name, _raising(exc))
    assert presentation_dr(fx4) is None


def test_all_directions_fallback_does_not_reenter_run_check(fx1, monkeypatch):
    calls = []
    original = pipeline.run_check

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_check", counted)
    report = pipeline.run_check(fx1, frozenset(), CheckConfig(all_directions=True))
    assert len(calls) == 1
    # the one-relator and forest steps, then every test on each single generator
    tags = [a.get("subset") for a in report.attempts]
    assert tags == [None, None] + [["a"]] * 6 + [["b"]] * 6 + [["c"]] * 6
    assert report.exit_code() == 1
