"""`SuiteReport` renders every check outcome through one path."""

import pytest

from srlab import report
from srlab.report import CheckResult, SuiteReport


def test_bool_and_check_result_render_the_same_entry():
    for ok in (True, False):
        via_bool, via_result = SuiteReport(), SuiteReport()
        via_bool.check("c", ok)
        via_result.check("c", CheckResult(ok))
        assert via_bool.checks == via_result.checks == [{"name": "c", "ok": ok}]


def test_detail_and_data_only_when_set():
    rep = SuiteReport()
    rep.check("bare", CheckResult(True))
    rep.check("detail", CheckResult(False, "why"))
    rep.check("data", CheckResult(True, data={"z": 3, "a": [1, 2]}))
    assert rep.checks == [
        {"name": "bare", "ok": True},
        {"name": "detail", "ok": False, "detail": "why"},
        {"name": "data", "ok": True, "data": {"a": "[1, 2]", "z": "3"}},
    ]
    assert list(rep.checks[2]["data"]) == ["a", "z"]


def test_payload_leaves_out_empty_stats():
    rep = SuiteReport()
    rep.check("c", True)
    rep.timing["seconds"] = 0.5
    assert rep.payload() == {"checks": [{"name": "c", "ok": True}], "ok": True}
    rep.stats["n"] = 4
    assert rep.payload()["stats"] == {"n": 4}


def test_one_failing_check_fails_the_payload():
    rep = SuiteReport()
    rep.check("a", True)
    rep.check("b", CheckResult(False, "broken"))
    rep.check("c", True)
    assert rep.payload()["ok"] is False


def test_check_refuses_an_outcome_that_is_not_a_bool_or_check_result():
    """A generator or a list is truthy whatever it holds, so `check` refuses
    it by name instead of adding a pass."""
    rep = SuiteReport()
    for outcome in ((ok for ok in [False]), [False], 1, None):
        with pytest.raises(TypeError, match="check 'x'"):
            rep.check("x", outcome)
    assert rep.checks == []


def test_sampled_stops_at_the_first_false_outcome():
    rep = SuiteReport()
    assert rep.sampled("passes", [True, CheckResult(True), True]) == 3
    assert rep.sampled("fails", iter([True, True, False, True])) == 3
    assert rep.checks == [{"name": "passes", "ok": True}, {"name": "fails", "ok": False}]


def test_sampled_draws_from_a_generator_only_up_to_the_failing_draw():
    drawn = []

    def draw(k):
        drawn.append(k)
        return k

    rep = SuiteReport()
    assert rep.sampled("gen", (k != 2 for k in (draw(k) for k in range(5)))) == 3
    assert drawn == [0, 1, 2]
    drawn.clear()
    assert rep.sampled("list", (k != 2 for k in [draw(k) for k in range(5)])) == 3
    assert drawn == [0, 1, 2, 3, 4]


def test_sampled_fails_on_zero_outcomes():
    rep = SuiteReport()
    assert rep.sampled("empty", iter(())) == 0
    assert rep.checks == [{"name": "empty", "ok": False, "detail": "no samples drawn"}]
    assert rep.payload()["ok"] is False


def test_sampled_adds_a_bare_entry_for_a_failing_check_result():
    """As `all()` did, the entry keeps neither the detail nor the data of
    the failing outcome."""
    rep = SuiteReport()
    failing = CheckResult(False, "why", {"x": 1})
    assert rep.sampled("c", [CheckResult(True), failing, CheckResult(True)]) == 2
    assert rep.checks == [{"name": "c", "ok": False}]


def test_timed_writes_seconds_to_three_places(monkeypatch):
    rep = SuiteReport()
    clock = iter([10.0, 10.23456])
    with monkeypatch.context() as m:
        m.setattr(report.time, "perf_counter", lambda: next(clock))
        with rep.timed("block"):
            pass
    assert rep.timing == {"block": 0.235}
    assert isinstance(rep.timing["block"], float)
