"""Special-function tests: exact anchors, independent oracles, transformation
consistency properties."""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bpl import special
from bpl.errors import DomainError, NonConvergenceError
from bpl.special import (
    appell_f1,
    digamma,
    expint_e1,
    gamma_ln,
    gauss_2f1,
    hermite_h_neg,
    hyp_3f2,
    macdonald_k0,
    mills_ratio,
    mills_ratio_deriv,
    parabolic_d,
    tricomi_psi,
)
from conftest import max_rel_err, rel_err


class TestGammaLn:
    def test_exact_anchors(self):
        assert gamma_ln(1.0) == pytest.approx(0.0, abs=1e-14)
        assert gamma_ln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert gamma_ln(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_accuracy_sweep(self):
        # contract: relative error <= 1e-13 across [1e-6, 1e6]
        for x in np.geomspace(1e-6, 1e6, 61):
            want = float(mp.loggamma(x))
            assert abs(gamma_ln(float(x)) - want) <= 1e-13 * max(1.0, abs(want))

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ln(0.0)
        with pytest.raises(DomainError):
            gamma_ln(-1.5)
        for pole in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                special.gammaln_signed(pole)

    def test_signed_negative_sweep(self):
        # log|Gamma| and its sign at negative non-integers, near the poles
        # too, where a reflection through log(pi / |sin(pi x)|) loses the
        # digits that pi x lost in rounding (7.7e-7 at x = -13 - 1e-9)
        frac = np.array([1e-9, 1e-4, 0.1, 0.37, 0.5, 0.81, 0.9999, 1.0 - 1e-9])
        for x in (-np.arange(0.0, 40.0)[:, None] - frac).ravel().tolist():
            lg, sign = special.gammaln_signed(x)
            want = mp.gamma(x)
            assert sign == (1.0 if want > 0 else -1.0)
            assert abs(lg - float(mp.log(abs(want)))) <= 5e-15 * max(1.0, abs(lg))

    def test_ratio_with_negative_arguments(self):
        rng = random.Random(7)
        for _ in range(200):
            num = [rng.uniform(-6.0, 6.0) for _ in range(2)]
            den = [rng.uniform(-6.0, 6.0) for _ in range(2)]
            want = mp.gamma(num[0]) * mp.gamma(num[1]) / (mp.gamma(den[0]) * mp.gamma(den[1]))
            assert rel_err(special.gamma_ratio(num, den), float(want)) < 2e-14


class TestGauss2F1:
    def test_empty_sum(self):
        assert gauss_2f1(1.3, -0.4, 2.2, 0.0) == 1.0

    def test_log_value(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        assert gauss_2f1(1, 1, 2, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)

    def test_gauss_summation_at_one(self):
        want = float(mp.gamma(1) * mp.gamma(0.25) / (mp.gamma(0.75) * mp.gamma(0.5)))
        assert gauss_2f1(0.25, 0.5, 1.0, 1.0) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(1.6692537, rel=1e-7)

    def test_divergent_at_one(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 1.5, 1.0)

    def test_pole_in_c(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 0.0, 0.3)

    @pytest.mark.parametrize("params", [
        (0.25, 0.5, 1.0, 0.999),
        (2.5, 0.3, 1.7, -5.0),
        (1.3, 0.4, 1.9, 0.85),
        (2.0, 3.0, 0.5, -40.0),
        (2.0, 1.0, 3.0, 0.99989),   # integer margin, log case
        (1.0, 1.0, 3.0, 0.97),
        (0.7, 2.4, 2.1, 0.99),      # negative integer margin
        (0.5, 1.5, 1.0, 0.97),
    ])
    def test_against_oracle(self, params):
        a, b, c, z = params
        assert rel_err(gauss_2f1(a, b, c, z), mp.hyp2f1(a, b, c, z)) < 5e-11

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(0.1, 3.0),
        c=st.floats(0.6, 4.0),
        z=st.floats(-0.99, 0.9),
    )
    def test_pfaff_consistency(self, a, b, c, z):
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))
        assert rel_err(lhs, rhs) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(0.1, 3.0),
        c=st.floats(0.6, 4.0),
        z=st.floats(-0.99, 0.9),
    )
    def test_euler_consistency(self, a, b, c, z):
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
        assert rel_err(lhs, rhs) < 1e-9


def _ref_hyp_3f2(nums, dens):
    """3F2(1) summed term by term, as before the block summation: the
    reference that hyp_3f2 must equal bit for bit (no cancellation case)."""
    def ratio(n):
        return ((nums[0] + n) * (nums[1] + n) * (nums[2] + n)
                / ((dens[0] + n) * (dens[1] + n) * (n + 1.0)))

    term, total = 1.0, 1.0
    if any(v <= 0 and v == round(v) for v in nums):
        for n in range(int(-min(round(v) for v in nums if v <= 0 and v == round(v)))):
            term *= ratio(n)
            total += term
        return total
    margin = sum(dens) - sum(nums)
    n, samples, prev_diag = 0, [], None
    while True:
        while n < 16 * 2 ** len(samples):
            term *= ratio(n)
            total += term
            n += 1
        samples.append(total)
        if len(samples) < 3:
            continue
        col = list(samples)
        for k in range(len(samples) - 1):
            fac = 2.0 ** (margin + k)
            col = [(fac * col[i + 1] - col[i]) / (fac - 1.0) for i in range(len(col) - 1)]
        if (prev_diag is not None
                and abs(col[0] - prev_diag) <= 10.0 * _RTOL * max(abs(col[0]), 1e-300)):
            return col[0]
        prev_diag = col[0]


class TestHyp3F2:
    def test_zero_numerator_terminates(self):
        assert hyp_3f2((0.0, 1.3, 0.5), (1.1, 2.0)) == 1.0

    def test_cancellation_reduces_to_gauss(self):
        got = hyp_3f2((0.4, 0.7, 1.3), (1.8, 1.3))
        want = gauss_2f1(0.4, 0.7, 1.8, 1.0)
        assert rel_err(got, want) < 1e-12

    def test_unit_argument_oracle(self):
        # Thomae-stabilized mpmath reference for a slow margin
        nums, dens = (0.7, 1.0, 0.5), (1.2, 1.1)
        a1, a2, a3 = map(mp.mpf, map(str, nums))
        b1, b2 = map(mp.mpf, map(str, dens))
        s = b1 + b2 - a1 - a2 - a3
        pre = mp.gamma(b1) * mp.gamma(b2) * mp.gamma(s) / (
            mp.gamma(a1) * mp.gamma(s + a2) * mp.gamma(s + a3))
        want = float(pre * mp.hyper([b1 - a1, b2 - a1, s], [s + a2, s + a3], 1))
        assert rel_err(hyp_3f2(nums, dens), want) < 1e-10

    def test_divergent_margin_rejected(self):
        with pytest.raises(DomainError, match="margin"):
            hyp_3f2((1.0, 1.0, 1.0), (1.0, 1.0))

    def test_denominator_pole_rejected(self):
        with pytest.raises(DomainError, match="non-positive integer"):
            hyp_3f2((0.5, 0.5, -3.0), (-2.0, 1.5))

    def test_unit_argument_term_budget_exhaustion_raises(self, monkeypatch):
        # 64 terms leave this margin-1.5 sum 3e-7 short of its limit, where the
        # extrapolated diagonal used to be returned anyway
        args = ((0.5, 0.5, 0.5), (1.5, 1.5))
        # sum of C(2n,n) 4^-n (2n+1)^-2 = integral_0^1 arcsin(x)/x dx
        assert rel_err(hyp_3f2(*args), math.pi / 2.0 * math.log(2.0)) < 1e-12
        monkeypatch.setattr(special, "_MAX_TERMS", 64)
        with pytest.raises(NonConvergenceError, match="3F2\\(1\\) extrapolation stalled"):
            hyp_3f2(*args)

    def test_blocks_equal_the_term_loop_bit_for_bit(self):
        # np.multiply.accumulate and np.add.accumulate run in order, so every
        # partial sum rounds as the term-by-term loop did
        rng = np.random.default_rng(2024)
        sets = [((a + s / 2.0, a + (s + 1.0) / 2.0, 0.5), (a + 0.5, a + b + 0.5))
                for a, b in ((0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (0.5, 0.2), (0.25, 0.25))
                for s in np.linspace(-1.9 * a, 0.9 * b, 4)]
        sets += [((-s, 1.0 - s, 1.0 - s), (2.0 - s, 2.0 - s)) for s in (0.2, 0.5, 0.8)]
        sets += [((-3.0, 0.7, 1.2), (1.9, 0.4)), ((0.3, -7.0, 2.0), (1.5, 3.5))]
        for _ in range(40):
            nums = rng.uniform(-0.5, 2.5, 3)
            dens = rng.uniform(0.1, 3.0, 2)
            dens[1] += sum(nums) - sum(dens) + rng.uniform(0.15, 3.0)
            sets.append((tuple(nums), tuple(dens)))
        for nums, dens in sets:
            assert hyp_3f2(nums, dens) == _ref_hyp_3f2(nums, dens), (nums, dens)

    def test_total_mass_normalization(self):
        # the 3F2 value forced by M_{a,b}(0) = 1 through the closed prefactor
        from bpl.convolution import mellin_sum
        from bpl.distributions import BetaPrimeParams

        for (a, b) in [(0.6, 0.4), (1.3, 0.9)]:
            assert mellin_sum(BetaPrimeParams(a, b), 0.0) == pytest.approx(1.0, rel=1e-11)


class TestAppellF1:
    def test_trivial_at_origin(self):
        assert appell_f1(0.5, 0.7, 0.9, 1.2, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_one_variable_drops(self):
        got = appell_f1(0.5, 0.7, 0.9, 1.2, 0.0, -0.4)
        want = gauss_2f1(0.5, 0.9, 1.2, -0.4)
        assert rel_err(got, want) < 1e-11

    def test_against_mpmath(self):
        got = appell_f1(0.5, 0.7, 0.9, 1.2, 0.3, -0.4)
        assert rel_err(got, mp.appellf1(0.5, 0.7, 0.9, 1.2, 0.3, -0.4)) < 1e-11

    def test_double_series_agreement(self):
        # mpmath's appellf1 sums the double series (hyper2d) at these points
        x, y = np.array([0.3, 0.4, -0.25]), np.array([-0.4, 0.4, 0.35])
        want = [mp.appellf1(0.8, 0.5, 0.5, 1.3, u, v) for u, v in zip(x, y)]
        assert max_rel_err(appell_f1(0.8, 0.5, 0.5, 1.3, x, y), want) < 1e-11

    def test_pairs_of_one_shape(self):
        x = np.array([[0.3, -0.2], [0.0, -3.0]])
        y = np.array([[-0.4, 0.5], [0.9, 0.2]])
        got = appell_f1(0.5, 0.7, 0.9, 1.2, x, y)
        assert got.shape == (2, 2) and type(appell_f1(0.5, 0.7, 0.9, 1.2, 0.3, -0.4)) is float
        want = [appell_f1(0.5, 0.7, 0.9, 1.2, float(u), float(v))
                for u, v in zip(x.ravel(), y.ravel())]
        assert max_rel_err(got.ravel(), want) < 1e-13
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.7, 0.9, 1.2, x, y[0])
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.7, 0.9, 1.2, x, np.where(x == 0.0, 1.0, y))

    def test_reduction_formula_on_1_2(self):
        # F1(b+1/2, 1/2, 1/2, 1; x-1, 1-1/x) = x^(b+1/2) 2F1(1/2, b+1/2; 1; (x-1)^2)
        b = 0.3
        x = np.array([1.2, 1.5, 1.8])
        lhs = appell_f1(b + 0.5, 0.5, 0.5, 1.0, x - 1.0, 1.0 - 1.0 / x)
        rhs = x ** (b + 0.5) * gauss_2f1(0.5, b + 0.5, 1.0, (x - 1.0) ** 2)
        assert max_rel_err(lhs, rhs) < 1e-9

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            appell_f1(1.5, 0.5, 0.5, 1.0, 0.2, 0.2)  # gamma <= alpha


class TestConfluent:
    def test_tricomi_e1_anchor(self):
        # Psi(1,1,1) = e E1(1), oracle by direct quadrature of the defining integral
        want = float(mp.quad(lambda t: mp.e ** (-t) / (1 + t), [0, mp.inf]))
        assert rel_err(tricomi_psi(1.0, 1.0, 1.0), want) < 1e-12
        assert want == pytest.approx(0.5963474, rel=1e-6)

    def test_tricomi_small_z_limit(self):
        a, c = 0.7, 0.3
        want = math.exp(gamma_ln(1.0 - c) - gamma_ln(a + 1.0 - c))
        assert tricomi_psi(a, c, 1e-8) == pytest.approx(want, rel=1e-5)

    def test_tricomi_oracle_sweep(self):
        for (a, c, z) in [(0.5, -0.5, 2.0), (1.4, -0.8, 0.01), (1.4, -0.8, 50.0),
                          (2.9, 0.5, 3.0), (0.3, 0.9, 0.2)]:
            assert rel_err(tricomi_psi(a, c, z), mp.hyperu(a, c, z)) < 1e-11

    def test_wronskian(self):
        # Phi'_t Psi - Phi Psi'_t = Gamma(c) t^(-c) e^t / Gamma(a), derivatives
        # by central differences; Phi from mpmath
        for (a, c, t) in [(0.7, 1.5, 1.0), (0.5, 1.25, 0.6), (0.9, 1.8, 2.0)]:
            h = 1e-5 * max(1.0, t)
            lo, phi, hi = (float(mp.hyp1f1(a, c, u)) for u in (t - h, t, t + h))
            dphi = (hi - lo) / (2 * h)
            dpsi = (tricomi_psi(a, c, t + h) - tricomi_psi(a, c, t - h)) / (2 * h)
            got = dphi * tricomi_psi(a, c, t) - phi * dpsi
            want = math.exp(gamma_ln(c) - gamma_ln(a)) * t ** (-c) * math.e ** t
            assert rel_err(got, want) < 1e-7


class TestHermiteParabolic:
    def test_h_at_zero(self):
        # H_{-nu}(0) = Gamma(nu/2) / (2 Gamma(nu))
        assert hermite_h_neg(1.0, 0.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_h_vs_mills(self):
        # r(sqrt2 x) = sqrt2 H_{-1}(x), checked to 1e-10 on [-3, 5]
        for x in np.linspace(-3.0, 5.0, 33):
            lhs = mills_ratio(math.sqrt(2.0) * float(x))
            rhs = math.sqrt(2.0) * hermite_h_neg(1.0, float(x))
            assert rel_err(lhs, rhs) < 1e-10

    def test_h_doubling_vs_psi_factor(self):
        # H_{-2a}(sqrt z) = 2^(-2a) Psi(a, 1/2, z); both sides by quadrature
        for (a, z) in [(0.25, 0.5), (0.25, 2.0), (0.8, 1.0)]:
            lhs = hermite_h_neg(2.0 * a, math.sqrt(z))
            rhs = 2.0 ** (-2.0 * a) * tricomi_psi(a, 0.5, z)
            assert rel_err(lhs, rhs) < 1e-11

    def test_parabolic_anchor(self):
        assert parabolic_d(-1.0, 0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_parabolic_vs_mills(self):
        # D_{-1}(z) = e^(-z^2/4) r(z)
        for z in (-1.0, 0.0, 2.0):
            lhs = parabolic_d(-1.0, z)
            rhs = math.exp(-z * z / 4.0) * mills_ratio(z)
            assert rel_err(lhs, rhs) < 1e-11

    def test_parabolic_positive(self):
        for z in np.linspace(-4.0, 6.0, 21):
            assert parabolic_d(-1.7, float(z)) > 0.0

    def test_parabolic_domain(self):
        with pytest.raises(DomainError):
            parabolic_d(0.5, 1.0)


class TestMills:
    def test_anchor(self):
        assert mills_ratio(0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)

    def test_derivative_recursion_at_zero(self):
        assert mills_ratio_deriv(1, 0.0) == pytest.approx(-1.0, rel=1e-14)

    def test_xr_below_one(self):
        for x in np.geomspace(1e-3, 80.0, 60):
            assert float(x) * mills_ratio(float(x)) < 1.0

    def test_high_precision_sweep(self):
        for x in (-10.0, -3.0, 0.7, 7.9, 8.1, 31.0, 200.0):
            want = float(mp.exp(mp.mpf(x) ** 2 / 2) * mp.sqrt(mp.pi / 2)
                         * mp.erfc(mp.mpf(x) / mp.sqrt(2)))
            assert rel_err(mills_ratio(x), want) < 1e-13

    def test_derivative_vs_hermite(self):
        # r^(p)(sqrt2 x) = (-1)^p 2^((p+1)/2) p! H_{-p-1}(x)
        for p in (1, 2, 3):
            for x in (0.3, 1.1):
                lhs = mills_ratio_deriv(p, math.sqrt(2.0) * x)
                rhs = (-1.0) ** p * 2.0 ** ((p + 1) / 2.0) * math.factorial(p) \
                    * hermite_h_neg(p + 1.0, x)
                assert rel_err(lhs, rhs) < 1e-10


class TestIntegralFunctions:
    def test_e1_frozen(self):
        # oracle: quadrature of exp(-t)/t on (1, inf) -> 0.21938393439552062
        assert expint_e1(1.0) == pytest.approx(0.21938393439552062, rel=1e-11)

    def test_k0_frozen(self):
        # oracle: cosh-kernel quadrature -> 0.42102443824070834
        assert macdonald_k0(1.0) == pytest.approx(0.42102443824070834, rel=1e-11)

    def test_e1_small_z(self):
        # e^-u/(u+z) peaks within z of the lower limit u = 0 of E1's half-line
        zs = np.array([1e-6, 1e-10, 1e-14])
        want = np.array([float(mp.e1(z)) for z in zs])
        assert max_rel_err(expint_e1(zs), want) < 1e-11

    def test_e1_watson_leading_term(self):
        z = 50.0
        assert z * math.exp(z) * expint_e1(z) == pytest.approx(1.0, rel=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            expint_e1(0.0)
        with pytest.raises(DomainError):
            macdonald_k0(-1.0)


class TestThomaeConsistency:
    @pytest.mark.parametrize("b", [0.1, 0.3])
    @pytest.mark.parametrize("s", [0.0, 0.05])
    def test_two_mellin_forms_agree(self, b, s):
        # the a = 1/2 transform before and after the Thomae rearrangement
        pref1 = math.exp((1.0 + s) * math.log(2.0) + 2.0 * gamma_ln(b + 0.5)
                         + gamma_ln(2.0 * b - s) + gamma_ln(1.0 + s)
                         - 2.0 * gamma_ln(b) - gamma_ln(2.0 * b + 1.0))
        m1 = pref1 * hyp_3f2((0.5, 1.0 + s / 2.0, (1.0 + s) / 2.0), (b + 1.0, 1.0))
        pref2 = pref1 * math.exp(gamma_ln(b - s) - 0.5 * math.log(math.pi)
                                 - gamma_ln(b + 0.5 - s))
        m2 = pref2 * hyp_3f2((b - s / 2.0, b + (1.0 - s) / 2.0, 0.5), (b + 1.0, b + 0.5 - s))
        assert rel_err(m1, m2) < 1e-8


def test_digamma_sweep():
    for x in (0.25, 1.0, 3.7, 12.0, -0.4, -2.6):
        assert rel_err(digamma(x), mp.digamma(x)) < 1e-12


class TestArrayFirst:
    """Array z: one shared quadrature mesh, one column per value."""

    GRID = np.geomspace(1e-2, 50.0, 40)
    CASES = [
        ("psi", lambda z: tricomi_psi(0.7, -0.5, z), lambda z: mp.hyperu(0.7, -0.5, z)),
        ("psi2", lambda z: tricomi_psi(1.4, 0.3, z), lambda z: mp.hyperu(1.4, 0.3, z)),
        ("hermite", lambda z: hermite_h_neg(1.3, z), lambda z: mp.hermite(-1.3, z)),
        ("e1", lambda z: expint_e1(z), lambda z: mp.e1(z)),
        ("k0", lambda z: macdonald_k0(z), lambda z: mp.besselk(0, z)),
    ]

    @pytest.mark.parametrize("name,fn,oracle", CASES, ids=[c[0] for c in CASES])
    def test_array_equals_scalar_calls(self, name, fn, oracle):
        got = fn(self.GRID)
        assert isinstance(got, np.ndarray) and got.shape == self.GRID.shape
        want = np.array([fn(float(z)) for z in self.GRID])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("name,fn,oracle", CASES, ids=[c[0] for c in CASES])
    def test_array_against_mpmath(self, name, fn, oracle):
        got = fn(self.GRID)
        for g, z in zip(got, self.GRID):
            assert rel_err(g, oracle(float(z))) < 1e-11

    @pytest.mark.parametrize("name,fn,oracle", CASES, ids=[c[0] for c in CASES])
    def test_scalar_returns_float(self, name, fn, oracle):
        assert type(fn(0.7)) is float
        assert type(fn(np.float64(0.7))) is float

    def test_shape_is_kept(self):
        z = self.GRID[:6].reshape(2, 3)
        assert tricomi_psi(0.7, 0.3, z).shape == (2, 3)
        assert hermite_h_neg(1.0, z).shape == (2, 3)
        assert parabolic_d(-1.0, z).shape == (2, 3)

    def test_negative_hermite_arguments(self):
        z = np.linspace(-3.0, 4.0, 15)
        want = np.array([hermite_h_neg(0.6, float(v)) for v in z])
        assert np.all(np.abs(hermite_h_neg(0.6, z) - want) <= 1e-14 * np.abs(want))

    def test_domain_errors_on_arrays(self):
        bad = np.array([1.0, 0.0, 2.0])
        with pytest.raises(DomainError):
            tricomi_psi(0.7, 0.3, bad)
        with pytest.raises(DomainError):
            expint_e1(bad)
        with pytest.raises(DomainError):
            macdonald_k0(np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            tricomi_psi(-0.5, 0.3, np.array([1.0]))

    @pytest.mark.parametrize("fn, z", [
        (lambda z: tricomi_psi(0.7, 0.5, z), np.geomspace(1e-2, 50.0, 20000)),
        (lambda z: hermite_h_neg(1.3, z), np.linspace(-3.0, 6.0, 20000)),
    ], ids=["psi", "hermite"])
    def test_long_array_in_column_blocks(self, fn, z):
        # one shared mesh over 20,000 columns would exceed the per-round value
        # cap; the array runs in blocks of columns instead
        got = fn(z)
        idx = np.unique(np.concatenate((np.arange(0, z.size, 997), [272, 273, z.size - 1])))
        want = np.array([fn(float(z[i])) for i in idx])
        assert np.all(np.abs(got[idx] - want) <= 1e-14 * np.abs(want))

    def test_mills_ratio_elementwise(self):
        x = np.array([-40.0, -10.0, -3.0, 0.0, 0.7, 7.9, 8.1, 31.0, 200.0])
        got = mills_ratio(x)
        for g, xi in zip(got, x):
            want = mills_ratio(float(xi))
            assert g == want or abs(g - want) <= 1e-15 * abs(want)
        assert np.allclose(mills_ratio_deriv(2, x[1:]),
                           [mills_ratio_deriv(2, float(xi)) for xi in x[1:]], rtol=1e-13)
        assert type(mills_ratio(0.5)) is float


# ---------------------------------------------------------------------------
# Scalar reference: the one-z-at-a-time 2F1 that the array-first gauss_2f1
# replaced, kept unchanged but for its names.

_RTOL, _ATOL, _MAX_TERMS = special._RTOL, special._ATOL, special._MAX_TERMS
_is_nonpositive_int, gamma_ratio = special._is_nonpositive_int, special.gamma_ratio


def _ref_series_2f1(a, b, c, z):
    term = 1.0
    total = 1.0
    small = 0
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) < _RTOL * abs(total) + _ATOL:
            small += 1
            if small == 3:
                return total
        else:
            small = 0
    raise NonConvergenceError(f"2F1 series stalled for z={z}")


def _ref_coeff_or_zero(numerator, denominator):
    for v in denominator:
        if _is_nonpositive_int(v, 1e-12):
            return 0.0
    return gamma_ratio(numerator, denominator)


def _ref_connection_integer(a, b, c, z, m):
    w = 1.0 - z
    if m < 0:
        return w ** m * _ref_connection_integer(c - a, c - b, c, z, -m)
    lw = math.log(w)
    if m == 0:
        pref = gamma_ratio([c], [a, b])
        term = 1.0
        total = 0.0
        for n in range(_MAX_TERMS):
            bracket = (2.0 * digamma(n + 1.0) - digamma(a + n) - digamma(b + n) - lw)
            piece = term * bracket
            total += piece
            term *= (a + n) * (b + n) / ((n + 1.0) ** 2) * w
            if abs(piece) < _RTOL * abs(total) + _ATOL and n > 3:
                return pref * total
        raise NonConvergenceError("logarithmic 2F1 connection stalled")
    head = 0.0
    term = 1.0
    for n in range(m):
        head += term
        if n < m - 1:
            term *= (a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n)) * w
    head *= gamma_ratio([float(m), c], [a + m, b + m])
    pref = -((-w) ** m) * gamma_ratio([c], [a, b])
    tail = 0.0
    term = 1.0 / math.factorial(m)
    for n in range(_MAX_TERMS):
        bracket = (lw - digamma(n + 1.0) - digamma(n + m + 1.0)
                   + digamma(a + n + m) + digamma(b + n + m))
        piece = term * bracket
        tail += piece
        term *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        if abs(piece) < _RTOL * abs(tail) + _ATOL and n > 3:
            return head + pref * tail
    raise NonConvergenceError("logarithmic 2F1 connection stalled")


def _ref_unit_interval(a, b, c, z):
    """(2F1 on [0, 1), cancellation factor): the factor is
    (|left| + |right|) / |left + right| on the non-integer connection
    formula, whose two terms cancel, and 1 on every other route."""
    if a == c:
        return (1.0 - z) ** (-b), 1.0
    if b == c:
        return (1.0 - z) ** (-a), 1.0
    if z <= 0.5:
        return _ref_series_2f1(a, b, c, z), 1.0
    if z <= 0.9:
        return (1.0 - z) ** (c - a - b) * _ref_series_2f1(c - a, c - b, c, z), 1.0
    m = c - a - b
    if abs(m - round(m)) < 1e-9:
        return _ref_connection_integer(a, b, c, z, int(round(m))), 1.0
    g1 = _ref_coeff_or_zero([c, m], [c - a, c - b])
    g2 = _ref_coeff_or_zero([c, -m], [a, b])
    w = 1.0 - z
    left = g1 * _ref_series_2f1(a, b, 1.0 - m, w) if g1 != 0.0 else 0.0
    right = g2 * w ** m * _ref_series_2f1(c - a, c - b, 1.0 + m, w) if g2 != 0.0 else 0.0
    return left + right, (abs(left) + abs(right)) / max(abs(left + right), 1e-300)


def _ref_2f1_cancellation(a, b, c, z):
    """(2F1(a, b; c; z), cancellation factor of its route)."""
    if _is_nonpositive_int(c, 1e-12):
        raise DomainError(f"2F1 pole: c={c} is a non-positive integer")
    if z > 1.0:
        raise DomainError(f"2F1 argument {z} > 1 unsupported")
    if z == 1.0:
        if c - a - b <= 0.0:
            raise DomainError("2F1 diverges at z=1 when c-a-b <= 0")
        return gamma_ratio([c, c - a - b], [c - a, c - b]), 1.0
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        return _ref_series_2f1(a, b, c, z), 1.0  # terminating polynomial
    if abs(z) <= 0.5:
        return _ref_series_2f1(a, b, c, z), 1.0
    if z < 0.0:
        w = z / (z - 1.0)
        if a > 0.0 or b <= 0.0:
            val, factor = _ref_unit_interval(a, c - b, c, w)
            return (1.0 - z) ** (-a) * val, factor
        val, factor = _ref_unit_interval(b, c - a, c, w)
        return (1.0 - z) ** (-b) * val, factor
    return _ref_unit_interval(a, b, c, z)


def _ref_gauss_2f1(a, b, c, z):
    return _ref_2f1_cancellation(a, b, c, z)[0]


def _margin_gap(m):
    return abs(m - round(m))


def _assert_matches_reference(fn, ref, z, rtol=2e-15):
    """fn on the array z against ref at each element alone: the same values
    within rtol, or a DomainError from both. A ref that returns (value,
    factor) scales rtol by the factor at that element."""
    try:
        want = [ref(float(zi)) for zi in z]
    except DomainError:
        with pytest.raises(DomainError):
            fn(z)
        return
    for g, w in zip(fn(z), want):
        w, factor = w if isinstance(w, tuple) else (w, 1.0)
        assert rel_err(g, w) < rtol * factor


# (a, b, c) and the z range of each 2F1 route, built from draws a, b, c in the
# usual ranges, f, g in [0.3, 0.7] and an integer m. Where a route ends in the
# non-integer connection formula, its margins are kept f or g away from an
# integer: nearer one the formula's two terms cancel (ROADMAP item 4) and
# magnify last-bit differences between numpy's vectorized pow and libm's.
_ROUTES_2F1 = {
    "series": lambda a, b, c, f, g, m: ((a, b, c), (-0.5, 0.5)),
    "euler": lambda a, b, c, f, g, m: ((a, b, c), (0.5001, 0.9)),
    "connection": lambda a, b, c, f, g, m: ((a, b, a + b + abs(m) + f), (0.9001, 0.9999)),
    "log-case": lambda a, b, c, f, g, m: ((a, b, a + b + m), (0.9001, 0.9999)),
    "pfaff": lambda a, b, c, f, g, m: ((a, a + g, 2.0 * a + g + abs(m) + f), (-1000.0, -0.5001)),
    "pfaff-log-case": lambda a, b, c, f, g, m: ((a, a + m, c), (-1000.0, -9.0)),
    "pfaff-negative-a": lambda a, b, c, f, g, m: (
        (-a, math.ceil(a) + g - a, math.ceil(a) - 2.0 * a + g + 3.0 + abs(m) + f),
        (-1000.0, -0.5001)),
    "terminating": lambda a, b, c, f, g, m: ((-float(abs(m)), b, c), (-30.0, 0.999)),
    "a-equals-c": lambda a, b, c, f, g, m: ((c, b, c), (-30.0, 0.999)),
}


class TestArrayHypergeometric:
    """gauss_2f1 on arrays of z: every element takes the route the scalar
    code took and stops on the same term."""

    @pytest.mark.parametrize("route", list(_ROUTES_2F1))
    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0), c=st.floats(0.6, 4.0),
           f=st.floats(0.3, 0.7), g=st.floats(0.3, 0.7), m=st.integers(-2, 3),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    # the non-integer connection formula, which the connection and Pfaff
    # routes end in, lifts the last-bit differences between numpy's and
    # libm's pow by the cancellation between its two terms: 24-fold at the
    # connection route's z = 0.9001 here, 20-fold at the Pfaff route's
    # z = -14.17 (w = 0.934)
    @example(a=2.409550066231307, b=2.949600463150866, c=1.0, f=0.5302399217139343,
             g=0.5, m=0, u=[0.0])
    @example(a=2.0, b=1.0, c=1.0, f=0.5, g=0.375, m=2, u=[0.986328125])
    def test_2f1_routes_match_scalar_reference(self, route, a, b, c, f, g, m, u):
        (a, b, c), (lo, hi) = _ROUTES_2F1[route](a, b, c, f, g, m)
        assume(c > 0.05)
        _assert_matches_reference(lambda z: gauss_2f1(a, b, c, z),
                                  lambda z: _ref_2f1_cancellation(a, b, c, z),
                                  lo + (hi - lo) * np.array(u))

    def test_2f1_at_one(self):
        z = np.array([1.0, 0.3, 1.0])
        got = gauss_2f1(0.25, 0.5, 1.0, z)
        assert got[0] == got[2] == _ref_gauss_2f1(0.25, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 1.5, np.array([0.2, 1.0]))

    # one array crossing every route
    MIXED = np.array([1.0, 0.0, 0.3, -0.45, 0.5, 0.7, 0.9, 0.95, 0.9995, -0.6, -3.0, -8.5,
                      -9.5, -40.0, -41.0, -250.0, 12.0])

    @pytest.mark.parametrize("a, b, c", [
        (0.7, 1.9, 3.1), (0.4, 1.1, 1.5), (0.5, 1.5, 2.0), (0.5, 1.5, 1.0),
        (1.3, 2.3, 4.6), (-2.0, 1.3, 2.2), (0.8, 0.3, 0.8), (-0.6, 1.3, 2.2)])
    def test_2f1_element_alone_equals_element_in_shuffled_array(self, a, b, c):
        z = self.MIXED[self.MIXED < 1.0 if c - a - b <= 0.0 else self.MIXED <= 1.0]
        perm = np.random.default_rng(0).permutation(z.size)
        got = np.empty(z.size)
        got[perm] = gauss_2f1(a, b, c, z[perm])
        assert np.array_equal(got, [gauss_2f1(a, b, c, float(v)) for v in z])

    def test_long_array_in_one_call_equals_scalar_calls(self):
        # more values than a quadrature block of columns holds, every route,
        # in one evaluation
        z = np.linspace(-60.0, 0.999, 600)
        assert np.array_equal(gauss_2f1(0.25, 0.25, 0.75, z),
                              [gauss_2f1(0.25, 0.25, 0.75, float(v)) for v in z])

    def test_shape_and_type(self):
        z = np.array([[0.1, -2.0, 0.95], [0.3, 0.6, -50.0]])
        assert gauss_2f1(0.7, 1.9, 3.1, z).shape == (2, 3)
        assert type(gauss_2f1(0.7, 1.9, 3.1, np.float64(0.95))) is float

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_array(self, shape):
        z = np.empty(shape)
        for got in (gauss_2f1(0.7, 1.9, 3.1, z), gauss_2f1(0.5, 1.5, 2.0, z)):
            assert isinstance(got, np.ndarray) and got.shape == shape

    def test_domain_checks_cover_every_element(self):
        for bad in (1.5, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                gauss_2f1(0.7, 1.9, 3.1, np.array([0.2, bad, 0.4]))

    def test_2f1_mpmath_sweep(self):
        # z down to -50, margins c - a - b and b - a kept >= 1e-3 from an
        # integer; the bound is set by the near-integer margins (ROADMAP item 4)
        rng = random.Random(12)
        worst = 0.0
        for _ in range(40):
            a, b, c = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0.6, 4.0)
            if rng.random() < 0.3:
                c = a + b + rng.choice([-1, 0, 1, 2]) + rng.choice([1, -1]) * rng.uniform(1e-3, 2e-3)
            if min(_margin_gap(c - a - b), _margin_gap(b - a)) < 1e-3:
                continue
            z = np.array([rng.uniform(-50.0, -1.0), rng.uniform(-12.0, -7.0),
                          rng.uniform(-1.0, 0.0), rng.uniform(0.0, 0.999), rng.uniform(0.85, 0.999)])
            for g, zi in zip(gauss_2f1(a, b, c, z), z):
                worst = max(worst, rel_err(g, mp.hyp2f1(a, b, c, zi)))
        assert worst < 1e-10
