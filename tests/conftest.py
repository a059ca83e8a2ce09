import pytest


@pytest.fixture(autouse=True)
def default_cell_cap(monkeypatch):
    """Every test starts at the default cell cap, whatever the shell exports;
    a test that wants another cap sets its own."""
    monkeypatch.delenv("SWAPKIT_MAX_CELLS", raising=False)
