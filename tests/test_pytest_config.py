"""The suite's pytest configuration (pyproject.toml) on a test file of its own."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAIL_THEN_PASS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_hides_no_later_test(tmp_path):
    # filterwarnings turns warnings into errors, and one raised in a
    # plugin's hook, as hypothesis's failure report once did, would end
    # the session with an INTERNALERROR after the first failure
    (tmp_path / "test_pair.py").write_text(FAIL_THEN_PASS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
