"""The suite's own pytest settings, each run in a fresh pytest process,
on a throwaway test file or on a fixed subset of the suite."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import conftest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


ENDLESS_LOOP = '''
def test_loops_forever():
    while True:
        pass


def test_after():
    pass
'''


def test_a_test_past_the_time_limit_fails_and_the_run_goes_on(tmp_path):
    # the suite's conftest, its limit cut from TIME_LIMIT_S to 1 s, runs a
    # Python-level endless loop: that test fails and the next one runs
    limit = f"TIME_LIMIT_S = {conftest.TIME_LIMIT_S}\n"
    source = Path(conftest.__file__).read_text()
    assert source.count(limit) == 1
    (tmp_path / "conftest.py").write_text(source.replace(limit, "TIME_LIMIT_S = 1\n"))
    (tmp_path / "test_loop.py").write_text(ENDLESS_LOOP)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_loop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    elapsed = time.perf_counter() - start
    report = done.stdout + done.stderr
    assert done.returncode == 1, report
    assert "TimeoutError: test phase ran past TIME_LIMIT_S = 1 s" in done.stdout, report
    assert "1 failed, 1 passed" in done.stdout, report
    assert elapsed < 30, report


OPTIMIZED_SUBSET = ["tests/test_budget_rule.py", "tests/test_budget_signatures.py",
                    "tests/test_cli.py", "-k", "budget or refus or before"]


def test_the_budget_and_refusal_tests_pass_under_python_O():
    # the guards that keep results exact must not be asserts, which
    # python -O drops.  pytest warns at configuration time that asserts
    # outside test modules are ignored under -O, and the suite's
    # warnings-as-errors would abort on that warning before collecting
    # anything, so this run ignores that one warning category
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "ignore::pytest.PytestConfigWarning", *OPTIMIZED_SUBSET],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env)
    report = done.stdout + done.stderr
    assert done.returncode == 0, report
    passed = re.search(r"(\d+) passed", done.stdout)
    assert passed and int(passed.group(1)) >= 60, report
    assert "failed" not in done.stdout and "error" not in done.stdout, report
