"""Check outcomes, the per-suite report, and deterministic JSON rendering.

Every suite states its entries, stats and timings through one `SuiteReport`,
which turns each outcome into a JSON-safe entry: `check` judges an entry
once, and `sampled` judges one draw by draw.  Reports are plain dicts of
JSON-safe values.  Keys are sorted at render time and timing data is kept
out of the payload unless explicitly requested, so two runs with the same
seed produce identical bytes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterable, Iterator


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
        """Add one named outcome; a bool is a result without detail or data."""
        if isinstance(result, bool):
            result = CheckResult(result)
        elif not isinstance(result, CheckResult):
            raise TypeError(f"check {name!r}: {type(result).__name__} is not a bool or CheckResult")
        entry: dict = {"name": name, "ok": result.ok}
        if result.detail:
            entry["detail"] = result.detail
        if result.data:
            entry["data"] = {k: str(v) for k, v in sorted(result.data.items())}
        self.checks.append(entry)

    def sampled(self, name: str, outcomes: Iterable[CheckResult | bool]) -> int:
        """Add an entry judged on per-draw outcomes; return how many it took.

        The walk stops at the first false outcome, so a generator of draws
        stops drawing there.  An entry that takes no outcome fails."""
        taken = 0
        for taken, ok in enumerate(outcomes, 1):
            if not ok:
                self.check(name, False)
                return taken
        self.check(name, CheckResult(taken > 0, "" if taken else "no samples drawn"))
        return taken

    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        """Write the seconds the block takes to `timing[key]`, to 3 places."""
        t0 = time.perf_counter()
        yield
        self.timing[key] = round(time.perf_counter() - t0, 3)

    def payload(self) -> dict:
        """The suite's report block: its checks, whether all pass, and any stats."""
        out: dict = {"checks": self.checks, "ok": all(c["ok"] for c in self.checks)}
        if self.stats:
            out["stats"] = self.stats
        return out


def render_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
