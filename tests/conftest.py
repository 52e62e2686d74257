import pytest

from mdscosets import codes
from mdscosets.verify import DeskCache


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
