"""The repo's pytest settings: a warning fails its test, and a failing run
reports every failure instead of ending at the first hypothesis failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THREE_FAILURES = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x != x


def test_plain_fails():
    assert False


def test_warning_fails():
    warnings.warn("a deprecated call", DeprecationWarning)
'''


def test_every_failure_is_reported_and_warnings_stay_errors(tmp_path):
    """Hypothesis's failure report loads a module that warns on import; the
    settings ignore only that warning, so the run goes on to the plain
    failure, and the test that only warns still fails."""
    (tmp_path / "test_three.py").write_text(THREE_FAILURES)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "3 failed" in out
    assert run.returncode == 1, out
