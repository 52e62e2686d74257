"""The suite's own pytest settings, run on a throwaway test file in a
fresh pytest process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_property_test_is_a_plain_failure(tmp_path):
    # warnings are errors, and hypothesis's failure report imports libcst,
    # which warns on import: unless that one warning is ignored, a failing
    # @given test is an INTERNALERROR, exit 3, and no later test runs
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = done.stdout + done.stderr
    assert done.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "1 failed, 1 passed" in done.stdout, report
