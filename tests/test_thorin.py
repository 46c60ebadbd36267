"""Thorin measure computations: the increasing ratio, cumulative measure,
density, the a = 1 Frullani case, Levy density and the symmetrized law."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bpl import thorin
from bpl.errors import DomainError
from bpl.options import EvalOptions
from bpl.quadrature import integrate
from bpl.special import gamma_ln, tricomi_psi
from bpl.thorin import (
    ThorinParams,
    _cdf_table,
    awk_density,
    f_ax,
    f_ax_hyp,
    gx_frullani,
    levy_density,
    ordering_g1_g2,
    thorin_cdf,
    thorin_cdf_a1,
    thorin_density,
)
from conftest import max_rel_err, rel_err


P = ThorinParams(0.5, 0.5)


def _f_confluent(p, t):
    """f_ax_hyp's closed form evaluated in mpmath:
    Gamma(a+x) Phi(1-a, 1+x, t) / (Gamma(1+x) Psi(1-a, 1+x, t))."""
    a, x, t = mp.mpf(p.a), mp.mpf(p.x), mp.mpf(t)
    return (mp.gamma(a + x) * mp.hyp1f1(1 - a, 1 + x, t)
            / (mp.gamma(1 + x) * mp.hyperu(1 - a, 1 + x, t)))


class TestRatio:
    def test_quadrature_vs_confluent_form(self):
        ts = np.array([1e-8, 0.1, 1.0, 10.0, 50.0, 200.0])
        assert max_rel_err(f_ax(P, ts), f_ax_hyp(P, ts)) < 1e-11

    def test_small_t_against_confluent_oracle(self):
        # the lower integral's mass sits near u ~ 1/t, far out on its half-line
        p = ThorinParams(0.6, 0.5)
        ts = np.array([1e-12, 1e-9])
        assert max_rel_err(f_ax(p, ts), [float(_f_confluent(p, t)) for t in ts]) < 1e-13

    def test_small_t_against_direct_quadrature(self):
        # direct, separately coded oracle for the two singular integrals
        a, x, t = 0.5, 0.5, 1e-8
        num = float(mp.quad(lambda u: u ** (-a) * (1 - u) ** (a + x - 1) * mp.exp(t * u),
                            [0, 0.5, 1]))
        den = float(mp.quad(lambda u: u ** (-a) * (1 + u) ** (a + x - 1) * mp.exp(-t * u),
                            [0, 1, mp.inf]))
        assert rel_err(f_ax(P, t), num / den) < 1e-9

    def test_monotone_bijection(self):
        assert f_ax(P, 0.1) < f_ax(P, 1.0) < f_ax(P, 10.0)
        assert f_ax(P, 50.0) > 1e3

    def test_decreasing_in_x(self):
        assert f_ax(ThorinParams(0.5, 0.3), 1.0) > f_ax(ThorinParams(0.5, 1.0), 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ThorinParams(1.2, 0.5)
        with pytest.raises(DomainError):
            f_ax(ThorinParams(1.0, 0.5), 1.0)


class TestNearUnitShape:
    """a = 0.999: the (1-w)^(-a) endpoint of the upper integral takes more
    refinement rounds than the former per-call budget of 80 allowed."""

    p = ThorinParams(0.999, 0.5)

    def _f(self, t):
        return _f_confluent(self.p, t)

    def test_against_confluent_oracle(self):
        ts = np.geomspace(1.0, 10.0, 3)  # the grid of thorin --t 1:10:3
        f, cdf, dens = f_ax(self.p, ts), thorin_cdf(self.p, ts), thorin_density(self.p, ts)
        a = mp.mpf(self.p.a)
        s, c = mp.sinpi(a), mp.cospi(a)
        for i, t in enumerate(map(mp.mpf, ts)):
            fv = self._f(t)
            assert rel_err(f[i], fv) < 5e-12
            assert rel_err(cdf[i], (mp.atan((fv + c) / s) - mp.atan2(c, s)) / (mp.pi * a)) < 5e-12
            # the five-point stencil divides the quadrature error of log f by
            # its step of 1e-4: the density keeps about nine digits
            want = s * mp.diff(self._f, t) / (mp.pi * a * (fv * fv + 2 * c * fv + 1))
            assert rel_err(dens[i], want) < 1e-8


class TestLargeX:
    """x = 40: (1 + u)^(a+x-1) e^(-tu) and (1+y)^x e^(-ty) used to be inf * 0
    on the last tail panel of the mapped half-line."""

    X = 40.0
    TS = np.array([0.1, 1.0, 10.0])

    @pytest.mark.parametrize("a", [0.01, 0.5, 0.9])
    def test_ratio_against_confluent_oracle(self, a):
        p = ThorinParams(a, self.X)
        for t, got in zip(self.TS, f_ax(p, self.TS)):
            assert rel_err(got, _f_confluent(p, t)) < 1e-12

    def test_cdf_against_confluent_oracle(self):
        # the cdf is atan2(f s, 1 + c f) / (pi a); written as the difference of
        # two arctangents it cancelled to 0 at t = 0.1, where f ~ 1e-87
        a = 0.5
        ts = np.geomspace(0.1, 10.0, 4)
        p = ThorinParams(a, self.X)
        am = mp.mpf(a)
        s, c = mp.sinpi(am), mp.cospi(am)
        for t, got in zip(ts, thorin_cdf(p, ts)):
            f = _f_confluent(p, t)
            assert rel_err(got, mp.atan2(f * s, 1 + c * f) / (mp.pi * am)) < 1e-10

    def test_frullani_against_direct_quadrature(self):
        x = mp.mpf(self.X)
        for t, got in zip(self.TS, gx_frullani(self.X, self.TS)):
            t = mp.mpf(t)
            head = mp.quad(lambda y: ((1 - y) ** x * mp.exp(t * y)
                                      - (1 + y) ** x * mp.exp(-t * y)) / y, [0, 0.5, 1])
            peak = x / t  # the tail's mass sits near y = x / t
            tail = mp.quad(lambda y: (1 + y) ** x * mp.exp(-t * y) / y,
                           [1, peak / 4, peak, 4 * peak, mp.inf])
            assert rel_err(got, (head - tail) / mp.pi) < 1e-12


class TestCdf:
    def test_total_mass(self):
        assert thorin_cdf(P, 1e3) == pytest.approx(1.0, abs=1e-4)

    def test_monotone_with_limits(self):
        ts = np.geomspace(1e-3, 1e3, 25)
        vals = thorin_cdf(P, ts)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 0.05 and vals[-1] > 1.0 - 1e-3

    def test_gamma_limit_small_a(self):
        # G_{a,x} -> Gamma_x as a -> 0
        pa = ThorinParams(0.01, 0.5)
        for t in (0.5, 2.0):
            want = float(mp.gammainc(0.5, 0, t, regularized=True))
            assert abs(thorin_cdf(pa, t) - want) < 1e-2

    def test_x_ordering(self):
        # the Levy-measure difference mu_{a,b} - mu_{a,b'} (b' > b) is positive,
        # i.e. the cumulative measure is non-increasing in x; forced by the
        # a -> 0 gamma limit as well
        for a in (0.3, 0.6, 0.9):
            for t in (0.5, 2.0, 8.0):
                cds = [thorin_cdf(ThorinParams(a, x), t) for x in (0.4, 1.0, 2.5)]
                assert cds[0] >= cds[1] - 1e-9 >= cds[2] - 2e-9


class TestDensity:
    def test_matches_cdf_derivative(self):
        ts, h = np.array([0.5, 2.0]), 1e-5
        want = (thorin_cdf(P, ts + h) - thorin_cdf(P, ts - h)) / (2 * h)
        assert max_rel_err(thorin_density(P, ts), want) < 1e-5

    def test_total_mass(self):
        lo = integrate(lambda u: 2 * u * thorin_density(P, u * u), 1e-6, 1.0)
        hi = integrate(lambda t: thorin_density(P, t), 1.0, np.inf,
                       EvalOptions(rel_tol=1e-9, abs_tol=1e-12, max_quad_refinements=60))
        assert lo + hi == pytest.approx(1.0, abs=1e-5)


class TestFrullani:
    def test_increasing_onto_r(self):
        assert gx_frullani(0.5, 0.01) < 0.0 < gx_frullani(0.5, 100.0)
        ts = np.geomspace(0.05, 50.0, 12)
        assert np.all(np.diff(gx_frullani(0.5, ts)) > 0.0)

    def test_matches_generic_a_near_one(self):
        pa = ThorinParams(0.99, 0.5)
        for t in (0.5, 2.0):
            assert abs(thorin_cdf_a1(0.5, t) - thorin_cdf(pa, t)) < 2e-2

    def test_density_identity(self):
        # g'/(pi (1+g^2)) equals the t-derivative of the a = 1 cumulative
        x, t, h = 0.5, 1.0, 1e-5
        g = gx_frullani(x, t + np.arange(-2, 3) * h)
        dg = (g[0] - 8 * g[1] + 8 * g[3] - g[4]) / (12 * h)
        lhs = dg / (math.pi * (1.0 + g[2] ** 2))
        rhs = (thorin_cdf_a1(x, t + h) - thorin_cdf_a1(x, t - h)) / (2 * h)
        assert rel_err(lhs, rhs) < 1e-6

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_sweep_across_the_middle_sign_change(self, x):
        # the y-integrand on [1e-3, 1] changes sign near t = 1.1475 at x = 1,
        # where its own relative tolerance was out of reach
        ts = np.linspace(0.05, 5.0, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gx_frullani(x, ts)
        assert np.all(np.isfinite(g)) and np.all(np.diff(g) > 0.0)

    @pytest.mark.parametrize("x, t", [(1.0, 1.147469521897249), (1.0, 1.3402), (1.0, 1.14),
                                      (0.5, 0.3), (2.0, 4.0)])
    def test_matches_mpmath(self, x, t):
        # t = 1.3402 sits next to the root of g_1
        def integrand(y):
            return ((1 - y) ** x * mp.exp(t * y) - (1 + y) ** x * mp.exp(-t * y)) / y

        want = (mp.quad(integrand, [0, 0.5, 1])
                + mp.quad(lambda y: -(1 + y) ** x * mp.exp(-t * y) / y, [1, 2, 10, mp.inf])) / mp.pi
        assert abs(gx_frullani(x, t) - float(want)) < 1e-14

    @pytest.mark.parametrize("x", [0.3, 2.5, 40.0])
    def test_density_equals_the_plain_form(self, x):
        # g'/(g + 1/g) where |g| > 1 against g'/(1 + g^2) on the same stencil
        ts = np.geomspace(0.01, 20.0, 12)
        pts, h = thorin._stencil(ts)
        g = thorin._gx(x, pts.ravel()).reshape(pts.shape)
        want = thorin._five_point(g, h) / (math.pi * (1.0 + g[2] ** 2))
        assert np.any(np.abs(g[2]) > 1.0)
        assert max_rel_err(thorin_density(ThorinParams(1.0, x), ts), want) <= 1e-15


class TestLevy:
    def test_small_y_mass(self):
        assert 1e-4 * levy_density(P, 1e-4) == pytest.approx(P.a, abs=1e-3)

    def test_levy_khintchine_consistency(self):
        z = 1.0
        got = integrate(lambda y: (1.0 - np.exp(-z * y)) * levy_density(P, y), 1e-9, np.inf,
                        EvalOptions(rel_tol=1e-6, abs_tol=1e-9, max_quad_refinements=80))
        want = -math.log(tricomi_psi(P.a, 1.0 - P.x, z)
                         * math.exp(gamma_ln(P.a + P.x) - gamma_ln(P.x)))
        assert abs(got - want) < 1e-4

    def test_positive_difference_in_x(self):
        ys = np.array([0.05, 0.5, 3.0])
        assert np.all(levy_density(ThorinParams(0.5, 0.5), ys)
                      > levy_density(ThorinParams(0.5, 1.5), ys))

    @pytest.mark.parametrize("p", [ThorinParams(0.5, 0.5), ThorinParams(0.9, 2.0),
                                   ThorinParams(0.2, 0.3)], ids=str)
    def test_against_split_scipy_reference(self, p):
        # a integral_0^inf e^(-yt) P[G <= t] dt by QUADPACK, split at the CDF
        # table's ends; beyond them as e^(-y hi)/y less the integral of
        # e^(-yt) P[G > t]. At y below about 1e-4 the quadrature in u = yt
        # once stopped on nodes that never reached the table.
        from scipy.integrate import quad

        cdf = _cdf_table(p)
        ys = np.geomspace(1e-6, 10.0, 8)

        def reference(y):
            head = sum(quad(lambda t: math.exp(-y * t) * cdf(t), lo, hi,
                            epsabs=0.0, epsrel=1e-13, limit=500)[0]
                       for lo, hi in ((0.0, cdf.lo), (cdf.lo, cdf.hi)))
            tail = quad(lambda t: math.exp(-y * t) * cdf.upper_tail(t), cdf.hi, np.inf,
                        epsabs=0.0, epsrel=1e-13, limit=500)[0]
            return p.a * (head + math.exp(-y * cdf.hi) / y - tail)

        want = np.array([reference(y) for y in ys])
        assert max_rel_err(levy_density(p, ys), want) < 1e-10

    @pytest.mark.parametrize("p, y", [(ThorinParams(0.9, 2.0), 1e3),
                                      (ThorinParams(0.9, 2.0), 1e5),
                                      (ThorinParams(1.0, 3.0), 1.0),
                                      (ThorinParams(1.0, 3.0), 1e3)], ids=str)
    def test_relative_accuracy_where_the_cdf_is_tiny(self, p, y):
        # at large y the mass of e^(-yt) sits where P[G <= t] ~ t^x is tiny,
        # so a table of P with absolute noise near 1e-16 would be 1e-7 off
        # relative at y = 1e5, and a table of log P needs P itself to keep
        # relative accuracy there (at a = 1 and x = 3, 1/2 + arctan(g)/pi
        # rounds to 0 at the table's bottom). Reference: QUADPACK over log t
        # with thorin_cdf itself, and the power law P(floor) (t/floor)^x
        # below floor = 1e-8.
        from scipy.integrate import quad
        from scipy.special import gamma, gammainc

        floor = 1e-8
        below = (thorin_cdf(p, floor) * floor ** -p.x * y ** -(p.x + 1.0)
                 * gammainc(p.x + 1.0, y * floor) * gamma(p.x + 1.0))

        def in_log_t(s):
            t = math.exp(s)
            return math.exp(-y * t) * thorin_cdf(p, t) * t

        head = quad(in_log_t, math.log(floor), math.log(60.0 / y),
                    epsabs=0.0, epsrel=1e-13, limit=500)[0]
        assert rel_err(levy_density(p, y), p.a * (below + head)) < 1e-9


class TestAwk:
    def test_gaussian_limit(self):
        assert abs(awk_density(0.02, 0.0) - 1.0 / math.sqrt(2 * math.pi)) < 2e-2
        assert abs(awk_density(0.02, 1.0) - math.exp(-0.5) / math.sqrt(2 * math.pi)) < 2e-2

    def test_symmetry(self):
        ts = np.array([0.4, 1.3])
        assert awk_density(1.0, ts) == pytest.approx(awk_density(1.0, -ts), rel=1e-12)

    def test_normalized(self):
        half = integrate(lambda t: awk_density(1.0, t), 1e-6, np.inf,
                         EvalOptions(rel_tol=1e-6, abs_tol=1e-9, max_quad_refinements=60))
        assert 2.0 * half == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            awk_density(2.5, 0.3)
        with pytest.raises(DomainError):
            awk_density(1.0, np.array([0.3, np.inf]))


class TestOrdering:
    def test_ratio_ordering_half(self):
        r = ordering_g1_g2(0.5, [0.5, 1.0, 5.0])
        assert r.verdict == "holds"
        assert np.all(r.details["g1"] >= r.details["g2"])

    def test_chain_and_cdf_ordering(self):
        r = ordering_g1_g2(0.4, [0.5, 2.0])
        assert r.verdict == "holds"
        assert r.details["chain_ok"] and r.details["cdf_ok"]

    def test_g1_columns_match_lone_t(self):
        # one quadrature column per t: the shared mesh agrees with each t's own
        ts = [0.5, 1.0, 5.0, 20.0]
        g1 = ordering_g1_g2(0.3, ts).details["g1"]
        for t, got in zip(ts, g1):
            assert rel_err(got, ordering_g1_g2(0.3, [t]).details["g1"][0]) < 1e-12


# t grid straddling the t = 50 switch to the rescaled integrands
T_GRID = np.concatenate((np.geomspace(1e-3, 49.9, 12), [49.999, 50.0, 50.001],
                         np.geomspace(50.1, 300.0, 6)))
SHAPES = [ThorinParams(0.5, 0.5), ThorinParams(0.05, 0.5), ThorinParams(0.95, 0.5),
          ThorinParams(0.3, 3.0), ThorinParams(1.0, 0.5)]


def _scalar_calls(fn, ts):
    return np.array([fn(float(t)) for t in ts])


class TestArrayThorin:
    """Array t: one shared-mesh pass, one column per t (five for the density)."""

    @pytest.mark.parametrize("p", [p for p in SHAPES if p.a < 1.0], ids=str)
    def test_ratio_array_equals_scalar_calls(self, p):
        got = f_ax(p, T_GRID)
        assert isinstance(got, np.ndarray) and got.shape == T_GRID.shape
        want = _scalar_calls(lambda t: f_ax(p, t), T_GRID)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("p", SHAPES, ids=str)
    def test_cdf_array_equals_scalar_calls(self, p):
        got = thorin_cdf(p, T_GRID)
        want = _scalar_calls(lambda t: thorin_cdf(p, t), T_GRID)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("p", SHAPES, ids=str)
    def test_density_array_equals_scalar_calls(self, p):
        got = thorin_density(p, T_GRID)
        want = _scalar_calls(lambda t: thorin_density(p, t), T_GRID)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    def test_frullani_array_equals_scalar_calls(self):
        got = gx_frullani(0.5, T_GRID)
        want = _scalar_calls(lambda t: gx_frullani(0.5, t), T_GRID)
        # g_x changes sign on the grid: relative to the scale of the integrals
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
        got = thorin_cdf_a1(0.5, T_GRID)
        want = _scalar_calls(lambda t: thorin_cdf_a1(0.5, t), T_GRID)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("p", [p for p in SHAPES if p.a < 1.0], ids=str)
    def test_ratio_matches_confluent_form(self, p):
        ts = np.geomspace(1e-3, 200.0, 15)
        assert max_rel_err(f_ax(p, ts), f_ax_hyp(p, ts)) < 1e-11

    def test_scalar_in_float_out_and_shape_kept(self):
        pa1 = ThorinParams(1.0, 0.5)
        for fn in (lambda t: f_ax(P, t), lambda t: thorin_cdf(P, t),
                   lambda t: thorin_density(P, t), lambda t: gx_frullani(0.5, t),
                   lambda t: thorin_cdf(pa1, t), lambda t: thorin_density(pa1, t),
                   lambda t: f_ax_hyp(P, t), lambda y: levy_density(P, y),
                   lambda t: awk_density(1.0, t)):
            assert type(fn(0.7)) is float
            assert type(fn(np.float64(0.7))) is float
            assert fn(T_GRID[:6].reshape(2, 3)).shape == (2, 3)

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan])
    def test_nonpositive_t_in_array(self, bad):
        ts = np.array([0.5, bad, 2.0])
        pa1 = ThorinParams(1.0, 0.5)
        for fn in (lambda t: f_ax(P, t), lambda t: thorin_cdf(P, t),
                   lambda t: thorin_density(P, t), lambda t: gx_frullani(0.5, t),
                   lambda t: thorin_cdf_a1(0.5, t), lambda t: thorin_cdf(pa1, t),
                   lambda t: thorin_density(pa1, t), lambda t: f_ax_hyp(P, t),
                   lambda y: levy_density(P, y)):
            with pytest.raises(DomainError):
                fn(ts)
            with pytest.raises(DomainError):
                fn(bad)

    def test_long_grid_in_column_blocks(self):
        ts = np.geomspace(0.1, 10.0, 2000)
        cdf = thorin_cdf(P, ts)
        assert np.all(np.diff(cdf) >= 0.0)
        idx = [0, 272, 273, 1000, 1999]
        want = _scalar_calls(lambda t: thorin_cdf(P, t), ts[idx])
        assert np.all(np.abs(cdf[idx] - want) <= 1e-13 * want)


def _table_value_scalar(tb, t):
    """The former scalar evaluation of _CdfTable, kept as a reference."""
    if t <= 0.0:
        return 0.0
    if t < tb.lo:
        return tb.cdf_lo * (t / tb.lo) ** tb.p.x
    if t > tb.hi:
        tail = (1.0 - tb.cdf_hi) * (t / tb.hi) ** tb.tail_power * math.exp(tb.hi - t)
        return 1.0 - tail
    xi = (2.0 * math.log(t) - tb.tau_lo - tb.tau_hi) / (tb.tau_hi - tb.tau_lo)
    return math.exp(np.polynomial.chebyshev.chebval(xi, tb.coef))


class TestCdfTable:
    @pytest.mark.parametrize("p", [P, ThorinParams(0.3, 0.8)], ids=str)
    def test_vectorised_matches_scalar_evaluation(self, p):
        tb = _cdf_table(p)
        below = [1e-12, 1e-9, 5e-7, 9.99e-7]
        inside = [1e-6, 3e-6, 1e-3, 0.2, 1.0, 7.5, 30.0, 45.0]
        above = [45.0001, 50.0, 80.0, 200.0]
        ts = np.array([-1.0, 0.0] + below + inside + above)
        got = tb(ts)
        want = np.array([_table_value_scalar(tb, float(t)) for t in ts])
        assert np.all(np.abs(got - want) <= 1e-14)
        outside = np.isin(ts, below + above)
        assert np.all(np.abs(got - want)[outside] <= 1e-13 * np.abs(want[outside]))
        assert got[0] == got[1] == 0.0
        assert type(tb(0.5)) is float

    def test_table_matches_cdf(self):
        tb = _cdf_table(P)
        ts = np.geomspace(1e-5, 40.0, 17)
        assert np.all(np.abs(tb(ts) - thorin_cdf(P, ts)) <= 1e-10)


def test_thorin_does_not_import_probes():
    import subprocess
    import sys

    code = "import sys, bpl.thorin; print('bpl.probes' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"

    from bpl.probes import ProbeResult as FromProbes
    from bpl.results import ProbeResult
    assert FromProbes is ProbeResult
