"""Quadrature machinery: endpoint substitutions, infinite tails, Jacobi rules."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpl.errors import DomainError, QuadratureError
from bpl.options import EvalOptions
from bpl.quadrature import (
    _BLOCK_COLUMNS,
    _GAUSS_IDX,
    _MAX_ROUND_VALUES,
    _WG,
    _WGK,
    _XGK,
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
    """(1+t)^(-1-delta) puts T^(-delta) of its mass beyond any T (a millionth
    beyond 1e15 at delta = 0.4): the half-line keeps that mass or raises,
    and only a tail slower than t^-1.3 may run out of rounds. The grid is
    fixed and dense across the edge where refinement stops converging."""
    deltas = np.concatenate((np.linspace(0.02, 1.5, 149), np.linspace(0.2, 0.35, 151)))
    for delta in deltas:
        try:
            got = integrate(lambda t: (1.0 + t) ** (-1.0 - delta), 0.0, math.inf)
        except QuadratureError:
            assert delta < 0.3
            continue
        assert got == pytest.approx(1.0 / delta, rel=1e-12), delta


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


# one integral per entry point, (N,)- and (N, m)-valued, with an oscillation
# w and an endpoint exponent or decay p
_BUDGET_CASES = {
    "integrate": lambda w, p, o: integrate(
        lambda x: np.cos(w * x) * np.exp(-p * x), 0.0, 3.0, o),
    "integrate-tail": lambda w, p, o: integrate(
        lambda x: np.cos(w * x) / (1.0 + x) ** (1.0 + p), 0.0, math.inf, o),
    "power_weighted": lambda w, p, o: power_weighted(np.cos, p - 1.0, w / 10.0 + 0.1, o),
    "beta_kernel": lambda w, p, o: beta_kernel(
        lambda x: np.cos(np.multiply.outer(x, w * np.arange(1.0, 4.0))), p - 1.0, -0.5, o),
    "halfline_power": lambda w, p, o: halfline_power(
        lambda t: np.exp(-t) * np.cos(w * t), p - 1.0, o),
}


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(sorted(_BUDGET_CASES)), w=st.floats(0.0, 40.0),
       p=st.floats(0.01, 3.0), rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
       budget=st.integers(1, 40), extra=st.integers(1, 150))
def test_larger_budget_never_changes_a_converged_value(case, w, p, rel_tol, budget, extra):
    """The refinement loop stops on the round where every column converges,
    so any budget past that round gives the same value, bit for bit."""
    integral = _BUDGET_CASES[case]
    try:
        got = integral(w, p, EvalOptions(rel_tol=rel_tol, max_quad_refinements=budget))
    except QuadratureError:
        assume(False)
    more = EvalOptions(rel_tol=rel_tol, max_quad_refinements=budget + extra)
    assert np.array_equal(integral(w, p, more), got)


def test_panel_at_float_resolution_raises():
    # a spike of height 1e150 at the breakpoint 0.5: the error of the panel
    # next to it stays above tolerance down to a width of one ulp
    with pytest.raises(QuadratureError, match="float resolution"):
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.5) + 1e-300), 0.0, 1.0)


def test_panel_at_float_resolution_kept_while_the_rest_converges():
    # |x - 0.5|^-0.26, 0 at the breakpoint: the panel next to 0.5 reaches one
    # ulp with an error below the tolerance, and splitting the other panels
    # still brings the total error under it
    def f(x):
        d = np.abs(x - 0.5)
        with np.errstate(divide="ignore"):
            return np.where(d > 0.0, d ** -0.26, 0.0)

    assert integrate(f, 0.0, 1.0) == pytest.approx(2.0 * 0.5 ** 0.74 / 0.74, rel=1e-11)


def test_gauss_kronrod_constants():
    from scipy.special import roots_legendre

    x, w = roots_legendre(7)
    assert np.allclose(_XGK[_GAUSS_IDX], x, rtol=0.0, atol=2e-16)
    assert np.allclose(_WG, w, rtol=0.0, atol=4e-16)
    assert np.array_equal(_XGK, -_XGK[::-1]) and np.array_equal(_WGK, _WGK[::-1])
    # the Kronrod rule is exact for polynomials of degree 3 * 7 + 1 = 22
    for k in range(23):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(_WGK * _XGK ** k) - want) <= 4 * np.finfo(float).eps


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

    @settings(max_examples=40, deadline=None)
    @given(kw=st.lists(st.tuples(st.floats(0.1, 4.0), st.floats(0.0, 3.0)), min_size=1, max_size=6),
           top=st.sampled_from([3.0, math.inf]))
    def test_damped_cosine_columns_match_quad(self, kw, top):
        # e^(-kx) cos(wx) / (1 + x^2): one column per (k, w) on a shared mesh,
        # each against its own QUADPACK integral
        quad = pytest.importorskip("scipy.integrate").quad
        k, w = np.array(kw).T

        def f(x):
            return (np.exp(-np.multiply.outer(x, k)) * np.cos(np.multiply.outer(x, w))
                    / (1.0 + x * x)[:, None])

        got = integrate(f, 0.0, top)
        want = [quad(lambda x: math.exp(-kj * x) * math.cos(wj * x) / (1.0 + x * x), 0.0, top,
                     epsabs=0.0, epsrel=1e-12, limit=200)[0] for kj, wj in kw]
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

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
