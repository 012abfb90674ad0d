import pytest

from spt.tensor import finite_checks


@pytest.fixture(autouse=True)
def finite_guard():
    """Run every test with the per-op NaN/Inf guard enabled."""
    with finite_checks(True):
        yield
