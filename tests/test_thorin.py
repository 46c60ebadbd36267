"""Thorin measure computations: the increasing ratio, cumulative measure,
density, the a = 1 Frullani case and the symmetrized law."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bpl import thorin
from bpl.errors import DomainError
from bpl.quadrature import integrate
from bpl.thorin import (
    ThorinParams,
    awk_density,
    f_ax,
    thorin_cdf,
    thorin_cdf_a1,
    thorin_density,
)
from conftest import max_rel_err, rel_err


P = ThorinParams(0.5, 0.5)


def _f_confluent(p, t):
    """f in its confluent closed form, evaluated in mpmath:
    Gamma(a+x) Phi(1-a, 1+x, t) / (Gamma(1+x) Psi(1-a, 1+x, t))."""
    a, x, t = mp.mpf(p.a), mp.mpf(p.x), mp.mpf(t)
    return (mp.gamma(a + x) * mp.hyp1f1(1 - a, 1 + x, t)
            / (mp.gamma(1 + x) * mp.hyperu(1 - a, 1 + x, t)))


class TestRatio:
    def test_quadrature_vs_confluent_form(self):
        ts = np.array([1e-8, 0.1, 1.0, 10.0, 50.0, 200.0])
        assert max_rel_err(f_ax(P, ts), [float(_f_confluent(P, t)) for t in ts]) < 1e-11

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

    @pytest.mark.parametrize("a", [0.999, 0.9999, 0.999999])
    @pytest.mark.parametrize("x", [0.5, 3.0])
    def test_near_unit_a_against_confluent_oracle(self, a, x):
        # the (1-w)^(-a) endpoint power of the upper integral and the u^(-a)
        # one of the lower sit within 1e-3 to 1e-6 of the integrability edge
        p = ThorinParams(a, x)
        ts = np.array([1e-3, 1.0, 10.0, 100.0])
        assert max_rel_err(f_ax(p, ts), [float(_f_confluent(p, t)) for t in ts]) < 1e-13

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


class TestApproachToUnitA:
    """As a -> 1, sin(pi a), 1 + cos(pi a) and log f all vanish like 1 - a.
    Formed from 1 - a, the cdf and density keep their digits down to
    1 - a = 1e-7; there the density was 1.6e-3 off with f + 2 cos(pi a) + 1/f,
    and at 1 - a = 2^-53 that sum was 0 and the density inf."""

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-7])
    @pytest.mark.parametrize("x", [0.3, 1.0])
    def test_against_confluent_oracle(self, gap, x):
        p = ThorinParams(1.0 - gap, x)
        ts = np.array([0.5, 0.9, 2.0])
        cdf, dens = thorin_cdf(p, ts), thorin_density(p, ts)
        with mp.workdps(40):
            a = mp.mpf(p.a)
            s, c = mp.sinpi(a), mp.cospi(a)
            for i, t in enumerate(map(mp.mpf, ts)):
                f = _f_confluent(p, t)
                df = mp.diff(lambda u: _f_confluent(p, u), t)
                assert rel_err(cdf[i], mp.atan2(f * s, 1 + c * f) / (mp.pi * a)) < 1e-7
                # log f ~ 1 - a: the stencil's error in d/dt log f grows as a -> 1
                want = s * df / (mp.pi * a * (f * f + 2 * c * f + 1))
                assert rel_err(dens[i], want) < 3e-4

    @pytest.mark.parametrize("a", [1.0 - 1e-8, 1.0 - 2.0 ** -53])
    def test_out_of_reach_is_a_domain_error(self, a):
        p = ThorinParams(a, 1.0)
        for fn in (thorin_cdf, thorin_density):
            with pytest.raises(DomainError, match="within 1e-7 of 1"):
                fn(p, 1.0)


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
        for t, got in zip(self.TS, thorin._gx(self.X, self.TS)):
            t = mp.mpf(t)
            head = mp.quad(lambda y: ((1 - y) ** x * mp.exp(t * y)
                                      - (1 + y) ** x * mp.exp(-t * y)) / y, [0, 0.5, 1])
            peak = x / t  # the tail's mass sits near y = x / t
            tail = mp.quad(lambda y: (1 + y) ** x * mp.exp(-t * y) / y,
                           [1, peak / 4, peak, 4 * peak, mp.inf])
            assert rel_err(got, (head - tail) / mp.pi) < 1e-12


class TestLargeT:
    """The numerator integral is rescaled only where its value would fall
    below e^-600. A fixed switch at t = 50 kept the e^-r mass beyond
    r = t, 3.6e-6 of f at (0.6, 20) and t = 50.5, and at (0.95, 40) its
    integrand overflowed."""

    TS = np.array([1.0, 50.0, 51.0, 80.0, 300.0, 650.0])
    CASES = [ThorinParams(0.6, 20.0), ThorinParams(0.5, 0.5), ThorinParams(0.95, 40.0)]

    @pytest.mark.parametrize("p", CASES, ids=str)
    def test_against_confluent_oracle(self, p):
        f, dens = f_ax(p, self.TS), thorin_density(p, self.TS)
        a = mp.mpf(p.a)
        s, c = mp.sinpi(a), mp.cospi(a)
        for i, t in enumerate(map(mp.mpf, self.TS)):
            fv = _f_confluent(p, t)
            assert rel_err(f[i], fv) < 1e-13
            # the stencil's 1/h amplifies the quadrature error of log f
            df = mp.diff(lambda u: _f_confluent(p, u), t)
            want = s * df / (mp.pi * a * (fv * fv + 2 * c * fv + 1))
            assert rel_err(dens[i], want) < 3e-11

    @pytest.mark.parametrize("p, ts", [
        # at t = 1e134 the unscaled integral underflowed: cdf 0 and density nan
        (ThorinParams(0.5, 2.0), [1e100, 1e134, 1e200, 1e300]),
        # r^(a+x-1) and e^-r as two factors were inf * 0 far out at x = 100
        (ThorinParams(0.5, 100.0), np.geomspace(1e4, 1e300, 8)),
    ], ids=["x=2", "x=100"])
    def test_saturates_far_out(self, p, ts):
        assert np.all(f_ax(p, ts) == math.inf)
        assert np.all(thorin_cdf(p, ts) == 1.0)
        assert np.all(thorin_density(p, ts) == 0.0)

    @pytest.mark.parametrize("t", [4.3e5, 4.5e5, 2.0e6, 2.29e6, 1e8])
    def test_numerator_across_the_rescaling(self, t):
        # at (0.5, 60) the w integral falls to e^-600 near t = 4.4e5, where
        # the column is rescaled, and to e^-700 near 2.3e6: an unscaled column
        # there sits at the absolute tolerance of 1e-300, and at t = 2.29e6
        # it was 1.5 off in log. log f itself is t + O(log t), so only
        # relative accuracy of order t * eps is in reach
        a, x = 0.5, 60.0
        got = thorin._log_upper(a, x, np.array([t]))[0]
        want = mp.log(mp.beta(1 - a, a + x) * mp.hyp1f1(1 - a, 1 + x, t))
        assert abs(got - want) < 1e-14 * t

    def test_large_a_plus_x(self):
        # the rescaled numerator integral is about Gamma(a+x), which overflowed
        # past a + x = 171 (exit 2 at t in [700, 900]); Gamma(a+x) is now
        # divided out inside its exponential
        p = ThorinParams(0.5, 300.0)
        ts = np.array([700.0, 793.0, 900.0])
        for t, got in zip(ts, f_ax(p, ts)):
            assert rel_err(got, _f_confluent(p, t)) < 3e-13

    @pytest.mark.parametrize("a, x", [(0.5, 300.0), (0.3, 200.0), (0.9, 180.0)])
    def test_large_a_plus_x_numerator(self, a, x):
        # t past the rescaling switch, where f itself is beyond overflow
        ts = np.array([2e3, 1e4, 1e6])
        assert np.all((a + x) * np.log(ts) - math.lgamma(a + x) > 600.0)
        for t, got in zip(ts, thorin._log_upper(a, x, ts)):
            want = mp.log(mp.beta(1 - a, a + x) * mp.hyp1f1(1 - a, 1 + x, t))
            assert abs(got - want) < 1e-14 * t

    def test_out_of_reach_near_the_gamma_bulk(self):
        # at a + x = 700.5 the switch falls at t ~ 606, below the peak of
        # r^(a+x-1) e^-r: the clamped column would be silently wrong there
        p = ThorinParams(0.5, 700.0)
        with pytest.raises(DomainError, match="out of reach"):
            f_ax(p, np.array([300.0, 800.0]))
        assert rel_err(f_ax(p, 300.0), _f_confluent(p, 300.0)) < 1e-13


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
        hi = integrate(lambda t: thorin_density(P, t), 1.0, np.inf)
        assert lo + hi == pytest.approx(1.0, abs=1e-5)


class TestFrullani:
    def test_increasing_onto_r(self):
        lo, hi = thorin._gx(0.5, np.array([0.01, 100.0]))
        assert lo < 0.0 < hi
        ts = np.geomspace(0.05, 50.0, 12)
        assert np.all(np.diff(thorin._gx(0.5, ts)) > 0.0)

    def test_matches_generic_a_near_one(self):
        pa = ThorinParams(0.99, 0.5)
        for t in (0.5, 2.0):
            assert abs(thorin_cdf_a1(0.5, t) - thorin_cdf(pa, t)) < 2e-2

    def test_density_identity(self):
        # g'/(pi (1+g^2)) equals the t-derivative of the a = 1 cumulative
        x, t, h = 0.5, 1.0, 1e-5
        g = thorin._gx(x, t + np.arange(-2, 3) * h)
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
            g = thorin._gx(x, ts)
        assert np.all(np.isfinite(g)) and np.all(np.diff(g) > 0.0)

    @pytest.mark.parametrize("x, t", [(1.0, 1.147469521897249), (1.0, 1.3402), (1.0, 1.14),
                                      (0.5, 0.3), (2.0, 4.0)])
    def test_matches_mpmath(self, x, t):
        # t = 1.3402 sits next to the root of g_1
        def integrand(y):
            return ((1 - y) ** x * mp.exp(t * y) - (1 + y) ** x * mp.exp(-t * y)) / y

        want = (mp.quad(integrand, [0, 0.5, 1])
                + mp.quad(lambda y: -(1 + y) ** x * mp.exp(-t * y) / y, [1, 2, 10, mp.inf])) / mp.pi
        assert abs(thorin._gx(x, np.array([t]))[0] - float(want)) < 1e-14

    @pytest.mark.parametrize("x", [0.3, 2.5, 40.0])
    def test_density_equals_the_plain_form(self, x):
        # g'/(g + 1/g) where |g| > 1 against g'/(1 + g^2) on the same stencil
        ts = np.geomspace(0.01, 20.0, 12)
        pts, h = thorin._stencil(ts)
        g = thorin._gx(x, pts.ravel()).reshape(pts.shape)
        want = thorin._five_point(g, h) / (math.pi * (1.0 + g[2] ** 2))
        assert np.any(np.abs(g[2]) > 1.0)
        assert max_rel_err(thorin_density(ThorinParams(1.0, x), ts), want) <= 1e-15


class TestAwk:
    def test_gaussian_limit(self):
        assert abs(awk_density(0.02, 0.0) - 1.0 / math.sqrt(2 * math.pi)) < 2e-2
        assert abs(awk_density(0.02, 1.0) - math.exp(-0.5) / math.sqrt(2 * math.pi)) < 2e-2

    def test_symmetry(self):
        ts = np.array([0.4, 1.3])
        assert awk_density(1.0, ts) == pytest.approx(awk_density(1.0, -ts), rel=1e-12)

    def test_normalized(self):
        half = integrate(lambda t: awk_density(1.0, t), 1e-6, np.inf)
        assert 2.0 * half == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            awk_density(2.5, 0.3)
        with pytest.raises(DomainError):
            awk_density(1.0, np.array([0.3, np.inf]))


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
        got = thorin_cdf_a1(0.5, T_GRID)
        want = _scalar_calls(lambda t: thorin_cdf_a1(0.5, t), T_GRID)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("p", [p for p in SHAPES if p.a < 1.0], ids=str)
    def test_ratio_matches_confluent_form(self, p):
        ts = np.geomspace(1e-3, 200.0, 15)
        assert max_rel_err(f_ax(p, ts), [float(_f_confluent(p, t)) for t in ts]) < 1e-11

    def test_scalar_in_float_out_and_shape_kept(self):
        pa1 = ThorinParams(1.0, 0.5)
        for fn in (lambda t: f_ax(P, t), lambda t: thorin_cdf(P, t),
                   lambda t: thorin_density(P, t), lambda t: thorin_cdf(pa1, t),
                   lambda t: thorin_density(pa1, t), lambda t: awk_density(1.0, t)):
            assert type(fn(0.7)) is float
            assert type(fn(np.float64(0.7))) is float
            assert fn(T_GRID[:6].reshape(2, 3)).shape == (2, 3)

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan])
    def test_nonpositive_t_in_array(self, bad):
        ts = np.array([0.5, bad, 2.0])
        pa1 = ThorinParams(1.0, 0.5)
        for fn in (lambda t: f_ax(P, t), lambda t: thorin_cdf(P, t),
                   lambda t: thorin_density(P, t), lambda t: thorin_cdf_a1(0.5, t),
                   lambda t: thorin_cdf(pa1, t), lambda t: thorin_density(pa1, t)):
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


def test_thorin_does_not_import_probes():
    import subprocess
    import sys

    code = "import sys, bpl.thorin; print('bpl.probes' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
