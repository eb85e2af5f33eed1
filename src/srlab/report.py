"""Check outcomes, the per-suite report, and deterministic JSON rendering.

Every suite states its checks through one `SuiteReport`, which turns each
outcome into a JSON-safe entry.  Reports are plain dicts of JSON-safe
values.  Keys are sorted at render time and timing data is kept out of the
payload unless explicitly requested, so two runs with the same seed produce
identical bytes.
"""

from __future__ import annotations

import json


class CheckResult:
    """Outcome of one check: pass/fail, a reason, and its witness data."""

    def __init__(self, ok: bool, detail: str = "", data: dict | None = None) -> None:
        self.ok = ok
        self.detail = detail
        self.data = {} if data is None else data

    def __bool__(self) -> bool:
        return self.ok


class SuiteReport:
    """The check entries, stats and timings one suite run collects."""

    def __init__(self) -> None:
        self.checks: list[dict] = []
        self.stats: dict = {}
        self.timing: dict = {}

    def check(self, name: str, result: CheckResult | bool) -> None:
        """Record one named outcome; a bool is a result without detail or data."""
        if not isinstance(result, CheckResult):
            result = CheckResult(bool(result))
        entry: dict = {"name": name, "ok": result.ok}
        if result.detail:
            entry["detail"] = result.detail
        if result.data:
            entry["data"] = {k: str(v) for k, v in sorted(result.data.items())}
        self.checks.append(entry)

    def payload(self) -> dict:
        """The suite's report block: its checks, whether all pass, and any stats."""
        out: dict = {"checks": self.checks, "ok": all(c["ok"] for c in self.checks)}
        if self.stats:
            out["stats"] = self.stats
        return out


def render_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
