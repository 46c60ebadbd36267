"""Convolution densities and Mellin transform: cross-implementation agreement,
normalization, Monte Carlo histograms, strip behavior."""

import math

import numpy as np
import pytest

from bpl.convolution import (
    SumSpec,
    mellin_sum,
    sum_density_2f1,
    sum_density_appell,
    sum_density_bhalf,
    sum_density_pfaff1,
    sum_density_pfaff2,
)
from bpl.distributions import BetaPrimeParams, RngState, sample_betaprime
from bpl.errors import DomainError, QuadratureError
from bpl.quadrature import integrate
from conftest import max_rel_err, rel_err


def _mass_on_halfline(density, left_exp: float, tail_exp: float) -> float:
    """integral_0^inf density(x) dx via x = t/(1-t), with the declared power
    behaviours x^left_exp at 0 and x^(-tail_exp-1) at infinity absorbed into
    the beta kernel weights so both endpoints are exact."""
    from bpl.quadrature import beta_kernel

    def smooth(t):
        # the transformed integrand is bounded; clamping t keeps the density
        # argument inside float range (error O(1e-10) in a continuous factor)
        t = np.clip(t, 1e-200, 1.0 - 1e-10)
        return density(t / (1.0 - t)) / (t ** left_exp * (1.0 - t) ** (1.0 + tail_exp))

    return beta_kernel(smooth, left_exp, tail_exp - 1.0)


def _mc_density_check(samples: np.ndarray, density, points, half_width=0.05, nsig=5.0):
    """Empirical bin frequencies against the closed density at chosen points."""
    n = samples.size
    for x in points:
        lo, hi = x - half_width, x + half_width
        p_emp = np.mean((samples > lo) & (samples < hi))
        p_true = integrate(density, lo, hi)
        se = math.sqrt(max(p_true * (1.0 - p_true), 1e-12) / n)
        assert abs(p_emp - p_true) < nsig * se, (x, p_emp, p_true, se)


class TestAppellForm:
    def test_normalization_pareto_pair(self):
        # finite-range quadrature plus the exact-order x^(-2) tail correction
        spec = SumSpec(1.0, BetaPrimeParams(1, 1), 1.0, BetaPrimeParams(1, 1))
        cut = 1e5
        mass = integrate(lambda x: sum_density_appell(spec, x), 1e-9, cut)
        tail_coeff = cut ** 2 * sum_density_appell(spec, cut)
        assert mass + tail_coeff / cut == pytest.approx(1.0, abs=1e-7)

    def test_agreement_with_gauss_form(self):
        p = BetaPrimeParams(0.7, 0.4)
        spec = SumSpec(1.0, p, 1.0, p)
        xs = np.array([0.5, 2.0, 10.0])
        assert max_rel_err(sum_density_appell(spec, xs), sum_density_2f1(p, xs)) < 1e-8

    def test_agreement_with_direct_convolution(self):
        # oracle: scipy's QUADPACK convolution integral, with the two endpoint
        # powers u^(a-1) and (x-u)^(c-1) in its algebraic weight
        from scipy.integrate import quad
        from scipy.special import beta

        spec = SumSpec(2.0, BetaPrimeParams(1.0, 2.0), 0.5, BetaPrimeParams(0.5, 1.5))
        (a, b), (c, d), lam, mu = (1.0, 2.0), (0.5, 1.5), spec.lam, spec.mu

        def convolution(x):
            val, _ = quad(lambda u: (1.0 + u / lam) ** (-a - b) * (1.0 + (x - u) / mu) ** (-c - d),
                          0.0, x, weight="alg", wvar=(a - 1.0, c - 1.0), epsabs=0.0, epsrel=1e-13)
            return val * lam ** (-a) * mu ** (-c) / (beta(a, b) * beta(c, d))

        xs = np.array([0.3, 1.0, 4.0])
        want = np.array([convolution(x) for x in xs])
        assert max_rel_err(sum_density_appell(spec, xs), want) < 1e-11

    def test_monte_carlo_histogram(self):
        spec = SumSpec(2.0, BetaPrimeParams(1.0, 2.0), 0.5, BetaPrimeParams(0.5, 1.5))
        rng = RngState(101)
        n = 10_000_000
        s = (2.0 * sample_betaprime(spec.p1, rng, n)
             + 0.5 * sample_betaprime(spec.p2, rng, n))
        _mc_density_check(s, lambda x: sum_density_appell(spec, x), (0.5, 1.5, 4.0))

    def test_swap_symmetry(self):
        s1 = SumSpec(2.0, BetaPrimeParams(1.0, 2.0), 0.5, BetaPrimeParams(0.5, 1.5))
        s2 = SumSpec(0.5, BetaPrimeParams(0.5, 1.5), 2.0, BetaPrimeParams(1.0, 2.0))
        xs = np.array([0.4, 1.3, 6.0])
        assert max_rel_err(sum_density_appell(s1, xs), sum_density_appell(s2, xs)) < 1e-9

    def test_quadrature_failure_is_raised(self, monkeypatch):
        # no silent switch to another route: a failing F1 quadrature fails
        # the density
        from bpl import convolution

        def refuse(*args, **kwargs):
            raise QuadratureError("appell_f1 refused")

        monkeypatch.setattr(convolution, "appell_f1", refuse)
        spec = SumSpec(1.0, BetaPrimeParams(1, 1), 1.0, BetaPrimeParams(1, 1))
        with pytest.raises(QuadratureError, match="appell_f1 refused"):
            sum_density_appell(spec, 1.0)


class TestGaussForm:
    def test_bhalf_pointwise(self):
        p = BetaPrimeParams(0.8, 0.5)
        xs = np.array([0.2, 1.0, 7.0])
        assert max_rel_err(sum_density_2f1(p, xs), sum_density_bhalf(0.8, xs)) < 1e-12

    def test_pfaff_variants_agree(self):
        p = BetaPrimeParams(0.6, 0.8)
        xs = np.array([0.3, 1.0, 5.0])
        d0 = sum_density_2f1(p, xs)
        assert max_rel_err(sum_density_pfaff1(p, xs), d0) < 1e-9
        assert max_rel_err(sum_density_pfaff2(p, xs), d0) < 1e-9

    @pytest.mark.parametrize("density", [sum_density_2f1, sum_density_pfaff1,
                                         sum_density_pfaff2])
    def test_array_equals_scalar_calls(self, density):
        p = BetaPrimeParams(0.6, 0.8)
        xs = np.geomspace(1e-3, 1e3, 25)
        got = density(p, xs)
        assert np.array_equal(got, [density(p, float(x)) for x in xs])
        assert density(p, xs.reshape(5, 5)).shape == (5, 5)
        assert type(density(p, 2.0)) is float
        with pytest.raises(DomainError):
            density(p, np.array([1.0, 0.0]))

    def test_four_way_agreement_random_cloud(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            a = float(rng.uniform(0.2, 2.0))
            b = float(rng.uniform(0.2, 2.0))
            x = float(rng.uniform(0.05, 20.0))
            p = BetaPrimeParams(a, b)
            spec = SumSpec(1.0, p, 1.0, p)
            vals = [sum_density_2f1(p, x), sum_density_pfaff1(p, x),
                    sum_density_pfaff2(p, x), sum_density_appell(spec, x)]
            ref = vals[0]
            for v in vals[1:]:
                assert rel_err(v, ref) < 1e-8

    def test_normalization(self):
        p = BetaPrimeParams(1.2, 0.7)
        mass = _mass_on_halfline(lambda x: sum_density_2f1(p, x), 2.0 * p.a - 1.0, p.b)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestBHalf:
    def test_frozen_value(self):
        # 2/(3 pi sqrt2), cross-checked below by Monte Carlo
        assert sum_density_bhalf(0.5, 1.0) == pytest.approx(
            2.0 / (3.0 * math.pi * math.sqrt(2.0)), rel=1e-12)

    def test_monte_carlo(self):
        p = BetaPrimeParams(0.5, 0.5)
        rng = RngState(103)
        n = 10_000_000
        s = sample_betaprime(p, rng, n) + sample_betaprime(p, rng, n)
        _mc_density_check(s, lambda x: sum_density_bhalf(0.5, x), (1.0,))

    def test_normalization_sweep(self):
        # exact substitution y = x/(x+2) maps the half-line mass to a finite
        # beta-kernel integral with a smooth payload
        from bpl.quadrature import beta_kernel
        from bpl.special import gamma_ln
        for a in (0.5, 1.0, 3.0):
            coeff = 2.0 * math.exp(gamma_ln(a + 0.5) - gamma_ln(a)
                                   - 0.5 * math.log(math.pi))
            mass = coeff * beta_kernel(lambda y: (1.0 + y) ** (-0.5),
                                       2.0 * a - 1.0, -0.5)
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_small_x_powerlaw(self):
        for a in (0.5, 1.3):
            x = 1e-6
            lo, hi = np.log(sum_density_bhalf(a, np.array([x, x * 1.1])))
            slope = (hi - lo) / (math.log(x * 1.1) - math.log(x))
            assert slope == pytest.approx(2.0 * a - 1.0, abs=1e-3)


class TestMellinSum:
    def test_total_mass(self):
        assert mellin_sum(BetaPrimeParams(0.9, 0.6), 0.0) == pytest.approx(1.0, rel=1e-11)

    def test_mean_linearity(self):
        # s = 1 needs b > 1: twice the beta prime mean 2a/(b-1)
        assert mellin_sum(BetaPrimeParams(1.0, 2.0), 1.0) == pytest.approx(2.0, rel=1e-10)

    def test_density_quadrature_agreement(self):
        # quadrature of x^s phi after the exact substitution y = x/(x+2),
        # through the second Pfaff variant (different series than the 3F2)
        from bpl.quadrature import beta_kernel
        from bpl.special import gamma_ln, gauss_2f1
        p = BetaPrimeParams(0.5, 0.3)
        a, b = p.a, p.b
        s = 0.1

        def smooth(y):
            return (1.0 + y) ** (-b) * gauss_2f1(0.5 - b, a, a + 0.5, y ** 2)

        from bpl.options import EvalOptions
        pref = math.exp((2.0 * a + s) * math.log(2.0) + 2.0 * gamma_ln(a + b)
                        - gamma_ln(2.0 * a) - 2.0 * gamma_ln(b))
        want = pref * beta_kernel(smooth, 2.0 * a + s - 1.0, b - s - 1.0,
                                  EvalOptions(rel_tol=1e-9, max_quad_refinements=80))
        assert rel_err(mellin_sum(p, s), want) < 1e-7

    def test_strip_violation(self):
        with pytest.raises(DomainError):
            mellin_sum(BetaPrimeParams(0.5, 0.3), 0.4)
        with pytest.raises(DomainError):
            mellin_sum(BetaPrimeParams(0.5, 0.3), -1.1)

    def test_strip_sharpness_by_partial_integrals(self):
        # quadrature of x^s phi grows monotonically past any bound as s
        # approaches the edges at distance 1e-3
        p = BetaPrimeParams(0.5, 0.3)
        inner = mellin_sum(p, 0.15)  # comfortable interior value

        s_hi = p.b - 1e-3
        cuts = [10.0 ** k for k in range(1, 7)]
        partials = []
        lo = 1e-10
        total = 0.0
        for hi in cuts:
            total += integrate(lambda x: x ** s_hi * sum_density_2f1(p, x), lo, hi)
            partials.append(total)
            lo = hi
        assert all(b > a for a, b in zip(partials, partials[1:]))
        assert partials[-1] > 2.0 * inner
        assert mellin_sum(p, s_hi) > 40.0 * inner  # the transform itself blows up

        s_lo = -2.0 * p.a + 1e-3
        cuts = [10.0 ** (-k) for k in range(6, 0, -1)]
        partials = []
        lo = 1e-12
        total = 0.0
        for hi in cuts:
            total += integrate(lambda x: x ** s_lo * sum_density_2f1(p, x), lo, hi)
            partials.append(total)
            lo = hi
        assert all(b > a for a, b in zip(partials, partials[1:]))
        assert partials[-1] > 1.5 * inner
        assert mellin_sum(p, s_lo) > 40.0 * inner
