"""Quadrature machinery: endpoint substitutions, infinite tails, Jacobi rules."""

import math

import numpy as np
import pytest

from bpl.errors import DomainError, QuadratureError
from bpl.options import EvalOptions
from bpl.quadrature import (
    _BLOCK_COLUMNS,
    _MAX_ROUND_VALUES,
    _RoundTooWide,
    beta_kernel,
    column_blocks,
    halfline_power,
    integrate,
    jacobi_rule,
    power_weighted,
)


def test_plain_polynomial():
    assert integrate(lambda x: 3.0 * x * x, 0.0, 2.0) == pytest.approx(8.0, rel=1e-13)


def test_exponential_tail():
    assert integrate(lambda x: np.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-12)


def test_slow_tail_with_map():
    # integral of 1/(1+x)^2 over (0, inf) = 1
    assert integrate(lambda x: (1.0 + x) ** (-2.0), 0.0, math.inf) == pytest.approx(1.0, rel=1e-10)


def test_beta_kernel_matches_beta_function():
    for (p, q) in [(0.5, 0.5), (0.05, 1.7), (2.0, 0.01), (1.0, 1.0)]:
        got = beta_kernel(lambda x: np.ones_like(x), p - 1.0, q - 1.0)
        want = math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))
        assert got == pytest.approx(want, rel=1e-12)


def test_beta_kernel_smooth_payload():
    # integral x^(-1/2) (1-x)^(-1/2) cos(x) dx, reference from a dense Gauss-Jacobi rule
    x, w = jacobi_rule(220, -0.5, -0.5)
    want = float(np.sum(w * np.cos(x)))
    got = beta_kernel(np.cos, -0.5, -0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_halfline_power_gamma():
    for (k, z) in [(-0.5, 1.0), (0.3, 2.0), (-0.97, 0.7)]:
        got = halfline_power(lambda t: np.exp(-z * t), k)
        want = math.exp(math.lgamma(k + 1.0) - (k + 1.0) * math.log(z))
        assert got == pytest.approx(want, rel=1e-11)


def test_power_weighted():
    # integral_0^(1/2) x^(-0.6) dx = (1/2)^0.4 / 0.4
    got = power_weighted(lambda x: np.ones_like(x), -0.6, 0.5)
    assert got == pytest.approx(0.5 ** 0.4 / 0.4, rel=1e-12)


def test_budget_exhaustion_raises():
    tight = EvalOptions(rel_tol=1e-13, max_quad_refinements=1)
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.abs(np.sin(50.0 * x)), 0.0, 10.0, tight)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(DomainError):
        beta_kernel(lambda x: np.ones_like(x), -1.0, 0.0)


def test_jacobi_rule_moments():
    # exactness on polynomials against closed beta moments
    alpha, beta = -0.3, 0.7
    x, w = jacobi_rule(24, alpha, beta)
    for k in range(8):
        got = float(np.sum(w * x ** k))
        want = math.exp(math.lgamma(beta + 1.0 + k) + math.lgamma(alpha + 1.0)
                        - math.lgamma(alpha + beta + 2.0 + k))
        assert got == pytest.approx(want, rel=1e-12)


class TestVectorValued:
    """(N,) -> (N, m) integrands: m integrals refined on one shared mesh."""

    RATES = np.array([0.05, 0.7, 3.0, 40.0])

    def test_columns_match_scalar_integrate(self):
        got = integrate(lambda x: np.exp(-np.multiply.outer(x, self.RATES)), 0.0, 2.0)
        assert got.shape == self.RATES.shape
        for g, k in zip(got, self.RATES):
            want = integrate(lambda x: np.exp(-k * x), 0.0, 2.0)
            assert abs(g - want) <= 1e-14 * abs(want)

    def test_columns_match_scalar_infinite_range(self):
        got = integrate(lambda x: 1.0 / (1.0 + np.multiply.outer(x * x, self.RATES)),
                        0.0, math.inf)
        for g, k in zip(got, self.RATES):
            want = integrate(lambda x: 1.0 / (1.0 + k * x * x), 0.0, math.inf)
            assert abs(g - want) <= 1e-14 * abs(want)

    def test_columns_match_scalar_beta_kernel(self):
        got = beta_kernel(lambda x: np.cos(np.multiply.outer(x, self.RATES)), -0.5, 0.3)
        for g, k in zip(got, self.RATES):
            want = beta_kernel(lambda x: np.cos(k * x), -0.5, 0.3)
            assert abs(g - want) <= 1e-14 * abs(want)

    def test_columns_match_scalar_halfline_power(self):
        got = halfline_power(lambda t: np.exp(-np.multiply.outer(t, self.RATES)), -0.4)
        for g, k in zip(got, self.RATES):
            want = halfline_power(lambda t: np.exp(-k * t), -0.4)
            assert abs(g - want) <= 1e-14 * abs(want)

    def test_power_weighted_columns(self):
        got = power_weighted(lambda x: np.ones((x.size, 3)), -0.6, 0.5)
        assert got == pytest.approx(np.full(3, 0.5 ** 0.4 / 0.4), rel=1e-12)

    def test_quad_vec_oracle(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        ks = np.linspace(0.5, 12.0, 9)

        def f(x):
            return np.exp(-np.multiply.outer(x, ks)) / (1.0 + np.asarray(x)[..., None] ** 2)

        got = integrate(f, 0.0, 3.0)
        want, _ = scipy_integrate.quad_vec(f, 0.0, 3.0, epsabs=0.0, epsrel=1e-12)
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    def test_one_hard_column_exhausts_budget(self):
        tight = EvalOptions(rel_tol=1e-13, max_quad_refinements=1)
        # the smooth column alone converges within the same budget
        assert integrate(lambda x: x * x, 0.0, 10.0, tight) == pytest.approx(1000.0 / 3.0)

        def both(x):
            return np.stack([x * x, np.abs(np.sin(50.0 * x))], axis=1)

        with pytest.raises(QuadratureError):
            integrate(both, 0.0, 10.0, tight)

    def test_unreachable_tolerance_stops(self):
        # cos(12 x)/(1+x^2) cancels below the rounding floor of its panels:
        # the doubling mesh is stopped instead of exhausting memory
        with pytest.raises(QuadratureError):
            integrate(lambda x: np.cos(np.multiply.outer(x, [0.5, 12.0])) / (1.0 + x * x)[:, None],
                      0.0, 3.0)

    def test_scalar_constant_broadcasts(self):
        got = integrate(lambda x: 2.0, 0.0, 3.0)
        assert type(got) is float
        assert got == pytest.approx(6.0, rel=1e-14)
        assert beta_kernel(lambda x: 1.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-14)


class TestColumnBlocks:
    """column_blocks: long arrays in blocks of columns, shape kept."""

    def test_block_width(self):
        assert _BLOCK_COLUMNS >= 256
        # a round over a full block may split 64 panels within the value cap
        assert 2 * 15 * 64 * _BLOCK_COLUMNS <= _MAX_ROUND_VALUES

    @pytest.mark.parametrize("width", [1, 5])
    def test_blocks_cover_the_array_in_order(self, width):
        seen = []

        def fn(block):
            seen.append(block.size)
            return 2.0 * block

        z = np.arange(1.0, 1001.0).reshape(10, 100)
        got = column_blocks(fn, z, width=width)
        assert got.shape == z.shape and np.array_equal(got, 2.0 * z)
        step = _BLOCK_COLUMNS // width
        assert seen == [step] * (1000 // step) + ([1000 % step] if 1000 % step else [])

    def test_short_array_is_one_block(self):
        sizes = []
        column_blocks(lambda b: sizes.append(b.size) or b, np.ones(_BLOCK_COLUMNS))
        assert sizes == [_BLOCK_COLUMNS]

    def test_scalar_and_empty(self):
        assert type(column_blocks(lambda b: b + 1.0, 2.0)) is float
        assert column_blocks(lambda b: b + 1.0, np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_domain_checked_before_any_block(self, bad):
        calls = []
        z = np.append(np.ones(600), bad)
        with pytest.raises(DomainError, match="z > 0"):
            column_blocks(lambda b: calls.append(b) or b, z, "z > 0")
        assert calls == []

    def test_too_wide_block_is_halved(self):
        sizes = []

        def fn(block):
            sizes.append(block.size)
            if block.size > 3:
                raise _RoundTooWide("refinement round would split too many panels")
            return block + 1.0

        z = np.arange(10.0)
        assert np.array_equal(column_blocks(fn, z), z + 1.0)
        assert sizes == [10, 5, 2, 3, 5, 2, 3]

    def test_single_value_past_the_cap_raises(self):
        def fn(block):
            raise _RoundTooWide("refinement round would split too many panels")

        with pytest.raises(QuadratureError, match="refinement round"):
            column_blocks(fn, np.ones(4))

    def test_other_errors_are_not_retried(self):
        sizes = []

        def fn(block):
            sizes.append(block.size)
            raise QuadratureError("refinement budget exhausted")

        with pytest.raises(QuadratureError, match="budget"):
            column_blocks(fn, np.ones(4))
        assert sizes == [4]

    def test_wide_integrand_over_blocks(self):
        ks = np.linspace(0.5, 40.0, 20000)

        def block(kb):
            return integrate(lambda x: np.exp(-np.multiply.outer(x, kb)), 0.0, 1.0)

        # one mesh over all 20,000 columns exceeds the value cap in its first split
        with pytest.raises(QuadratureError, match="refinement round"):
            block(ks)
        got = column_blocks(block, ks)
        want = -np.expm1(-ks) / ks
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
