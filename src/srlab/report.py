"""Check outcomes and deterministic JSON rendering for suite runs.

Reports are plain dicts of JSON-safe values.  Keys are sorted at render
time and timing data is kept out of the payload unless explicitly
requested, so two runs with the same seed produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of one check: pass/fail, a reason, and its witness data."""

    ok: bool
    detail: str = ""
    data: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def check_entry(name: str, result: CheckResult | bool) -> dict:
    """Flatten a check outcome into a JSON-safe dict."""
    if isinstance(result, CheckResult):
        entry: dict = {"name": name, "ok": result.ok}
        if result.detail:
            entry["detail"] = result.detail
        if result.data:
            entry["data"] = {k: str(v) for k, v in sorted(result.data.items())}
        return entry
    return {"name": name, "ok": bool(result)}


def render_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
