"""A failing property test under ``-W error`` ends in a failure report.

Where libcst is installed, hypothesis imports it inside pytest's report hook to explain
a failing example, and libcst's import warns.  ``conftest`` imports it first with that
warning ignored, so the run reports ``1 failed`` and not ``INTERNALERROR``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import fgcbeam

TESTS = Path(__file__).parent
FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_property_test_is_reported_under_w_error(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(fgcbeam.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p",
                           "no:cacheprovider", "test_fails.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed")
