"""`SuiteReport` renders every check outcome through one path."""

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
