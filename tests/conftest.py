import math

import mpmath as mp
import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _mpmath_precision():
    mp.mp.dps = 30
    yield
    mp.mp.dps = 15


def rel_err(got, want):
    want = float(want)
    return abs(got - want) / max(abs(want), 1e-300)


def max_rel_err(got, want):
    """Largest relative error over two arrays of one shape."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def mc_mean(values) -> tuple[float, float]:
    """Mean of a Monte Carlo batch with its delta-method standard error."""
    v = np.asarray(values, dtype=float)
    assert v.size >= 2, "need at least two samples for an error bar"
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def draw_side(sampler, rng, n: int) -> np.ndarray:
    """n values of an IdentitySpec sampler (a fill) on rng's stream, from one
    call with work rows of n values."""
    out = np.empty(n)
    sampler(rng, out, (np.empty(n), np.empty(n)))
    return out
