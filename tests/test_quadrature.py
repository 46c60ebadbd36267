"""Quadrature machinery: endpoint maps, half-lines, Jacobi rules."""

import math
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from bpl import quadrature
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
    _corner_split,
    _jacobi_pair,
    beta_kernel,
    column_blocks,
    halfline_power,
    integrate,
    jacobi_rule,
    power_weighted,
)
from conftest import max_rel_err


# Reference rules come from scipy: numpy's dense eigh, which jacobi_rule
# calls, has stalled for 0.7 s in some fresh processes at 220 nodes, and
# never at the 24 nodes of the library's own rules.


def _roots_jacobi_rule(n, alpha, beta):
    """jacobi_rule's nodes and weights on [0, 1] from scipy's roots_jacobi."""
    t, w = roots_jacobi(n, alpha, beta)
    return 0.5 * (1.0 + t), w * 0.5 ** (alpha + beta + 1.0)


@lru_cache(maxsize=None)
def _tridiagonal_rule(n, alpha, beta):
    """jacobi_rule's nodes and weights on [0, 1] by Golub-Welsch on the
    Jacobi recurrence with scipy's eigh_tridiagonal. roots_jacobi's weights
    are 6e-9 off at an exponent of -0.999, which TestCornerSplit's grid
    reaches."""
    s = alpha + beta
    k = np.arange(1, n, dtype=float)
    diag = np.append((beta - alpha) / (s + 2.0),
                     (beta * beta - alpha * alpha) / ((2 * k + s) * (2 * k + s + 2.0)))
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + s)
                  / ((2 * k + s) ** 2 * (2 * k + s + 1.0) * (2 * k + s - 1.0)))
    nodes, vecs = eigh_tridiagonal(diag, off)
    mass = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(s + 2.0))
    return 0.5 * (1.0 + nodes), mass * vecs[0] ** 2


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
    x, w = _roots_jacobi_rule(220, -0.5, -0.5)
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


@settings(max_examples=60, deadline=None)
@given(log_p=st.floats(math.log(1e-6), math.log(4.0)), b=st.floats(0.0, 2.0))
def test_power_weighted_matches_qaws(log_p, b):
    # x^kappa cos(x) (1 + x^b) on [0, 0.7] with 1 + kappa from 1e-6 to 4,
    # against QUADPACK's QAWS with each term's power in its algebraic weight.
    # R is taken at the smallest normal double t below it, which replaces
    # x^b by t^b there and adds the integral of x^kappa (t^b - x^b) over
    # [0, t], t^(kappa+1+b) b / ((kappa+1)(kappa+1+b)): no double resolves
    # x^b below t. The kink this leaves at x = t is resolved to a part of
    # that term, so twice the term is allowed; it is below 1e-12 of the
    # total unless both kappa + 1 and b are under about 0.04
    quad = pytest.importorskip("scipy.integrate").quad
    kappa = math.exp(log_p) - 1.0
    got = power_weighted(lambda x: np.cos(x) * (1.0 + x ** b), kappa, 0.7)
    want = sum(quad(math.cos, 0.0, 0.7, weight="alg", wvar=(e, 0.0),
                    epsabs=0.0, epsrel=1e-13, limit=200)[0] for e in (kappa, kappa + b))
    p = kappa + 1.0
    below_tiny = np.finfo(float).tiny ** (p + b) * b / (p * (p + b))
    assert abs(got - want) <= 1e-12 * abs(want) + 2.0 * below_tiny


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


def test_jacobi_rule_large_exponent():
    # exp(log mu0) and 2^(alpha+beta+1) formed apart overflowed here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, w = jacobi_rule.__wrapped__(24, -0.5, 1089.0)
    want = math.exp(math.lgamma(0.5) + math.lgamma(1090.0) - math.lgamma(1090.5))
    assert abs(w.sum() - want) <= 1e-11 * want
    assert np.all((x > 0.0) & (x < 1.0))


def _root_product(b):
    """The smooth factor of theorem-b's Mellin integrand in the square roots
    u, v of its two beta variables."""
    return lambda u, v: (1.0 + u) ** -0.5 * (1.0 + v) ** (-b - 0.5)


def _theorem_b_integral(a, b, s, c=0.5):
    return _corner_split(_root_product(b), 2.0 * a - 1.0, -0.5, 2.0 * b - s - 1.0,
                         -b - 0.5, s, c)


def _mpmath_corner_reference(a, b, s, c=0.5):
    """_theorem_b_integral by mpmath's tanh-sinh 2-D quad over the same five
    blocks, each endpoint power x^e removed by x = t^(1/(e+1)) instead of
    carried by Gauss-Jacobi weights."""
    import mpmath as mp

    a, b, s, c = mp.mpf(a), mp.mpf(b), mp.mpf(s), mp.mpf(c)
    A, B, C, D = 2 * a - 1, mp.mpf(-0.5), 2 * b - s - 1, -b - mp.mpf(0.5)
    E = A + C + s + 1

    def g(u, v):
        return (1 + u) ** mp.mpf(-0.5) * (1 + v) ** (-b - mp.mpf(0.5))

    def lo(t, e):  # x^e dx = dt / (e + 1)
        return t ** (1 / (e + 1))

    def hi(t, e):  # (1 - x)^e dx = dt / (e + 1)
        return 1 - t ** (1 / (e + 1))

    def below(t1, t2):  # v = r w < u = r
        r, w = c * lo(t1, E), lo(t2, C)
        return (1 + w) ** s * (1 - r) ** B * (1 - r * w) ** D * g(r, r * w)

    def above(t1, t2):  # u = r w < v = r
        r, w = c * lo(t1, E), lo(t2, A)
        return (1 + w) ** s * (1 - r * w) ** B * (1 - r) ** D * g(r * w, r)

    def lo_hi(t1, t2):
        u, v = c * lo(t1, A), c + (1 - c) * hi(t2, D)
        return (1 - u) ** B * v ** C * (u + v) ** s * g(u, v)

    def hi_lo(t1, t2):
        u, v = c + (1 - c) * hi(t1, B), c * lo(t2, C)
        return u ** A * (1 - v) ** D * (u + v) ** s * g(u, v)

    def hi_hi(t1, t2):
        u, v = c + (1 - c) * hi(t1, B), c + (1 - c) * hi(t2, D)
        return u ** A * v ** C * (u + v) ** s * g(u, v)

    def quad(f):
        return mp.quad(f, [0, 1], [0, 1])

    corner = c ** (E + 1) / (E + 1)
    return (corner / (C + 1) * quad(below) + corner / (A + 1) * quad(above)
            + c ** (A + 1) * (1 - c) ** (D + 1) / ((A + 1) * (D + 1)) * quad(lo_hi)
            + c ** (C + 1) * (1 - c) ** (B + 1) / ((C + 1) * (B + 1)) * quad(hi_lo)
            + (1 - c) ** (B + D + 2) / ((B + 1) * (D + 1)) * quad(hi_hi))


class TestCornerSplit:
    """The corner-split Gauss-Jacobi rule on theorem-b's Mellin integrand
    u^(2a-1) (1-u)^(-1/2) v^(2b-s-1) (1-v)^(-b-1/2) (u+v)^s times the smooth
    (1+u)^(-1/2) (1+v)^(-b-1/2)."""

    GRID = [(a, b, f * 2.0 * b) for a in (0.05, 0.2, 0.5, 0.99, 2.0, 5.0, 10.0, 50.0)
            for b in (0.001, 0.01, 0.05, 0.2, 0.35, 0.499) for f in (0.05, 0.5, 0.99)]

    # _mpmath_corner_reference(a, b, s) at 30 digits, within 1e-20 relative
    # of its own 20-digit value at every point
    MPMATH = {
        (0.5, 0.2, 0.2): 9.708055193627332594,
        (0.99, 0.01, 0.008): 84.37394103918953465,
        (2.0, 0.3, 0.54): 12.81167111750209771,
        (0.05, 0.1, 0.1): 84.15623723108271196,
        (10.0, 0.45, 0.18): 3.535256432932486034,
        (0.7, 0.499, 0.0499): 644.0547646012346523,
        (0.5, 0.05, 0.05): 31.80753001191455758,
    }

    def test_agrees_with_100_nodes(self, monkeypatch):
        got = [_theorem_b_integral(*point) for point in self.GRID]
        monkeypatch.setattr(quadrature, "_RULE_NODES", (50, 100))
        monkeypatch.setattr(quadrature, "jacobi_rule", _tridiagonal_rule)
        want = [_theorem_b_integral(*point) for point in self.GRID]
        assert max_rel_err(got, want) <= 1e-13

    def test_agrees_with_mpmath_quad(self):
        for (a, b, s), want in self.MPMATH.items():
            assert abs(_theorem_b_integral(a, b, s) / want - 1.0) <= 1e-13, (a, b, s)

    def test_mpmath_table_reproduces(self):
        import mpmath as mp

        with mp.workdps(15):
            got = _mpmath_corner_reference(0.5, 0.2, 0.2)
        assert abs(float(got) / self.MPMATH[(0.5, 0.2, 0.2)] - 1.0) <= 1e-14

    def test_split_point_moves_nodes_not_value(self):
        for point in self.GRID[::7]:
            moved = _theorem_b_integral(*point, c=math.sqrt(0.5))
            assert abs(moved / _theorem_b_integral(*point) - 1.0) <= 1e-13, point

    @pytest.mark.parametrize("A, C", [(-0.7, -0.2), (99.0, -0.2), (-0.7, 1089.0)])
    def test_beta_moments(self, A, C):
        # s = 0 and a product payload: a product of two beta functions. A
        # power of 99 or 1089 runs over 9 or 95 panels of the far rule
        got = _corner_split(lambda u, v: u * v ** 2, A, 0.4, C, -0.9, 0.0)
        lg = math.lgamma
        want = math.exp(lg(A + 2.0) + lg(1.4) - lg(A + 3.4) + lg(C + 3.0) + lg(0.1) - lg(C + 3.1))
        assert abs(got / want - 1.0) <= 1e-13

    def test_disagreement_raises(self):
        # a kink inside the square: 12 and 24 nodes disagree far beyond 1e-12
        def kinked(u, v):
            return np.abs(u - 0.3) + 0.0 * v

        with pytest.raises(QuadratureError, match="12- and 24-node rules differ"):
            _corner_split(kinked, 0.0, 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(QuadratureError, match="differ by nan"):
            _corner_split(lambda u, v: np.where(u > 0.3, np.nan, v), 0.0, 0.0, 0.0, 0.0, 0.5)

    def test_jacobi_pair(self):
        got = _jacobi_pair(lambda x: x ** 3, -0.5, 2.5)
        want = math.exp(math.lgamma(3.5) + math.lgamma(3.5) - math.lgamma(7.0))
        assert abs(got / want - 1.0) <= 1e-14
        with pytest.raises(QuadratureError, match="differ"):
            _jacobi_pair(lambda x: np.abs(x - 0.3), 0.0, 0.0)


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
    @example(kw=[(1.96875, 1.1796875)], top=math.inf)
    def test_damped_cosine_columns_match_quad(self, kw, top):
        # e^(-kx) cos(wx) / (1 + x^2): one column per (k, w) on a shared mesh,
        # each against its own QUADPACK integral. The example's [1, inf) part
        # cancels to 6.1e-6 of its 0.3417 total, so a tail held to a
        # tolerance of its own could not converge
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


def _wavy(x):
    # needs a few refinement rounds on every entry point
    return np.exp(-x) * (1.5 + np.cos(20.0 * x))


# one call of each public entry point with the payload R
_ENTRIES = {
    "integrate-finite": lambda R: integrate(R, 0.0, 3.0),
    "integrate": lambda R: integrate(R, 0.0, math.inf),
    "power_weighted": lambda R: power_weighted(R, -0.5, 0.7),
    "beta_kernel": lambda R: beta_kernel(R, -0.5, 0.3),
    "halfline_power": lambda R: halfline_power(R, -0.4),
}
# node sets R is evaluated on per mesh node
_SIDES = {"beta_kernel": 2, "halfline_power": 2}


class TestOneMesh:
    """Every public entry point is one _adaptive call whose integrand calls
    the payload R once per refinement round, and none calls another."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_one_adaptive_call_and_one_payload_call_per_round(self, entry, monkeypatch):
        counts = {"adaptive": 0, "rounds": 0}
        nodes = []
        adaptive, panels = quadrature._adaptive, quadrature._panels

        def counting_adaptive(*args, **kwargs):
            counts["adaptive"] += 1
            return adaptive(*args, **kwargs)

        def counting_panels(f, a, b, where):
            counts["rounds"] += 1
            nodes.append(a.size * _XGK.size)
            return panels(f, a, b, where)

        sizes = []

        def R(x):
            sizes.append(x.size)
            return _wavy(x)

        monkeypatch.setattr(quadrature, "_adaptive", counting_adaptive)
        monkeypatch.setattr(quadrature, "_panels", counting_panels)
        _ENTRIES[entry](R)
        assert counts["adaptive"] == 1
        assert counts["rounds"] >= 2
        assert len(sizes) == counts["rounds"]
        assert sizes == [_SIDES.get(entry, 1) * n for n in nodes]

    def test_entry_points_do_not_call_each_other(self, monkeypatch):
        originals = {name: _ENTRIES[name](_wavy) for name in _ENTRIES}

        def refuse(*args, **kwargs):
            raise AssertionError("a public entry point called another")

        # the lambdas above look the entry points up here, not in quadrature
        monkeypatch.setattr(quadrature, "integrate", refuse)
        monkeypatch.setattr(quadrature, "power_weighted", refuse)
        monkeypatch.setattr(quadrature, "beta_kernel", refuse)
        monkeypatch.setattr(quadrature, "halfline_power", refuse)
        for name, want in originals.items():
            assert _ENTRIES[name](_wavy) == want, name

    @pytest.mark.parametrize("entry", ["beta_kernel", "halfline_power"])
    def test_round_values_bound_both_node_sets(self, entry, monkeypatch):
        # R sees both node sets of every split panel, so a round that would
        # ask it for more than _MAX_ROUND_VALUES values stops before the call
        cap = 2 * _XGK.size * 12
        monkeypatch.setattr(quadrature, "_MAX_ROUND_VALUES", cap)
        sizes = []

        def R(x):
            sizes.append(x.size)
            return np.cos(np.multiply.outer(x, [60.0, 90.0])) * np.exp(-x)[:, None]

        with pytest.raises(_RoundTooWide):
            _ENTRIES[entry](R)
        # the first call, over the initial partition, is not a refinement round
        assert len(sizes) > 1 and all(2 * size <= cap for size in sizes[1:])


def _ranges(message: str):
    return [(float(lo), float(hi))
            for lo, hi in re.findall(r"\[([-+0-9.e]+|inf), ([-+0-9.e]+|inf)\]", message)]


class TestErrorRanges:
    """A QuadratureError names its range in the variable of the public call,
    t or x, not in the mesh variable: on a two-sided mesh, the range of each
    side."""

    @pytest.mark.parametrize("entry, R, edge, name", [
        ("integrate-finite", lambda t: np.where(t < 2.3, 1.0, np.inf), 2.3, "t in"),
        ("integrate", lambda t: np.where(t < 40.0, np.exp(-t), np.inf), 40.0, "t in"),
        ("halfline_power", lambda t: np.where(t < 40.0, np.exp(-t), np.inf), 40.0, "t in"),
        ("power_weighted", lambda x: np.where(x > 1e-5, 1.0, np.inf), 1e-5, "x in"),
        ("beta_kernel", lambda x: np.where(x < 1.0 - 1e-5, 1.0, np.inf), 1.0 - 1e-5, "x in"),
    ])
    def test_range_holds_the_edge_of_finiteness(self, entry, R, edge, name):
        with pytest.raises(QuadratureError, match="not finite") as info:
            _ENTRIES[entry](R)
        message = str(info.value)
        assert name in message
        assert any(lo <= edge <= hi for lo, hi in _ranges(message)), message

    def test_float_resolution_names_t(self):
        with pytest.raises(QuadratureError, match=r"panel t in \[") as info:
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.5) + 1e-300), 0.0, 1.0)
        assert any(lo <= 0.5 <= hi for lo, hi in _ranges(str(info.value)))
