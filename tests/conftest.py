import mpmath as mp
import pytest


@pytest.fixture(scope="session", autouse=True)
def _mpmath_precision():
    mp.mp.dps = 30
    yield
    mp.mp.dps = 15


def rel_err(got, want):
    want = float(want)
    return abs(got - want) / max(abs(want), 1e-300)
