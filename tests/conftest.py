import signal

import pytest

from mdscosets import codes
from mdscosets.verify import DeskCache

# Seconds each phase of a test (setup, call, teardown) may take; the
# slowest test takes under 2 s.  A phase past it is interrupted by
# SIGALRM and fails, so a Python-level endless loop cannot hang the suite.
TIME_LIMIT_S = 60


def _over_time(signum, frame):
    raise TimeoutError(f"test phase ran past TIME_LIMIT_S = {TIME_LIMIT_S} s")


def _time_limited():
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_setup = pytest.hookimpl(wrapper=True)(_time_limited)
pytest_runtest_call = pytest.hookimpl(wrapper=True)(_time_limited)
pytest_runtest_teardown = pytest.hookimpl(wrapper=True)(_time_limited)


@pytest.fixture(scope="session")
def desk():
    """Shared corpus with memoized censuses; built once per test session."""
    return DeskCache()


@pytest.fixture
def kernel_runs(monkeypatch):
    """Every census kernel run of the test, as (code, wmax, lengths), in
    call order."""
    runs = []
    trellis = codes._syndrome_trellis

    def recorded(code, wmax, lengths):
        runs.append((code, wmax, lengths))
        return trellis(code, wmax, lengths)
    monkeypatch.setattr(codes, "_syndrome_trellis", recorded)
    return runs
