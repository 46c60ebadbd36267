"""Distribution toolkit: densities, transforms, seeded samplers."""

import math
import threading

import numpy as np
import pytest
import scipy.stats as st

from bpl import distributions
from bpl.distributions import (
    BetaParams,
    BetaPrimeParams,
    GammaParams,
    RngState,
    _SPLIT,
    _gamma,
    _on_two_threads,
    betaprime_laplace,
    betaprime_mellin,
    betaprime_pdf,
    sample_beta,
    sample_betaprime,
    sample_gamma,
)
from bpl.errors import DomainError
from bpl.identities import ks_two_sample
from bpl.quadrature import integrate
from conftest import mc_mean


class TestPdf:
    def test_unit_case(self):
        assert betaprime_pdf(BetaPrimeParams(1, 1), 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_normalization(self):
        p = BetaPrimeParams(1.7, 0.9)
        mass = integrate(lambda x: betaprime_pdf(p, x), 1e-12, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_closed_value(self):
        want = 12.0 * 0.5 / 1.5 ** 5
        assert betaprime_pdf(BetaPrimeParams(2, 3), 0.5) == pytest.approx(want, rel=1e-13)
        assert want == pytest.approx(0.7901235, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            betaprime_pdf(BetaPrimeParams(1, 1), -0.5)
        with pytest.raises(DomainError):
            BetaPrimeParams(0.0, 1.0)


class TestMellin:
    def test_unit_mass(self):
        assert betaprime_mellin(BetaPrimeParams(0.7, 1.3), 0.0) == 1.0

    def test_forced_arithmetic(self):
        assert betaprime_mellin(BetaPrimeParams(2, 3), 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_reflection_value(self):
        got = betaprime_mellin(BetaPrimeParams(0.5, 0.5), 0.25)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_strip_violation(self):
        with pytest.raises(DomainError):
            betaprime_mellin(BetaPrimeParams(2, 3), 3.0)


class TestLaplace:
    def test_at_zero(self):
        assert betaprime_laplace(BetaPrimeParams(0.5, 1.5), 0.0) == 1.0

    def test_pareto_case(self):
        # B'_{1,1} transform equals the quadrature of e^(-zt)(1+t)^(-2)
        want = integrate(lambda t: np.exp(-t) / (1.0 + t) ** 2, 0.0, np.inf)
        assert betaprime_laplace(BetaPrimeParams(1, 1), 1.0) == pytest.approx(want, rel=1e-11)

    def test_monte_carlo_three_sigma(self):
        p = BetaPrimeParams(0.5, 0.5)
        x = sample_betaprime(p, RngState(31), 1_000_000)
        mean, se = mc_mean(np.exp(-2.0 * x))
        assert abs(mean - betaprime_laplace(p, 2.0)) < 3.0 * se


class TestSamplers:
    def test_reproducible_streams(self):
        a = sample_gamma(GammaParams(0.7), RngState(5), 1000)
        b = sample_gamma(GammaParams(0.7), RngState(5), 1000)
        assert np.array_equal(a, b)

    def test_spawned_streams_differ(self):
        r1, r2 = RngState(5).spawn(2)
        assert not np.array_equal(r1.generator.random(8), r2.generator.random(8))

    def test_beta_mean(self):
        n = 1_000_000
        x = sample_beta(BetaParams(2.0, 3.0), RngState(11), n)
        se = math.sqrt(0.4 * 0.6 / (6.0)) / math.sqrt(n)  # var = pq/((p+q)^2(p+q+1))
        assert abs(x.mean() - 0.4) < 4.0 * se

    def test_betaprime_mean_vs_mellin(self):
        n = 1_000_000
        p = BetaPrimeParams(2.0, 3.0)
        x = sample_betaprime(p, RngState(12), n)
        want = betaprime_mellin(p, 1.0)
        se = x.std() / math.sqrt(n)
        assert abs(x.mean() - want) < 4.0 * se

    def test_sampled_vs_quadrature_cdf(self):
        # one-sample KS of sampled values against the cdf integrated from the pdf
        p = BetaPrimeParams(0.8, 1.4)
        n = 100_000
        x = np.sort(sample_betaprime(p, RngState(13), n))
        grid = np.geomspace(1e-5, x[-1], 4001)
        dens = betaprime_pdf(p, grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf_at = np.interp(x, grid, cdf)
        emp = np.arange(1, n + 1) / n
        stat = float(np.max(np.abs(emp - cdf_at)))
        crit = math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(n)
        assert stat < crit

    def test_identity_ratio_of_gammas(self):
        # 1/Beta(b,a) - 1 equals Gamma_a / Gamma_b in law (two-sample KS)
        for (a, b) in [(0.5, 0.5), (2.0, 3.0)]:
            n = 100_000
            r1, r2 = RngState(17).spawn(2)
            lhs = 1.0 / sample_beta(BetaParams(b, a), r1, n) - 1.0
            g1 = sample_gamma(GammaParams(a), r2, n)
            g2 = sample_gamma(GammaParams(b), r2, n)
            stat, thr = ks_two_sample(lhs, g1 / g2)
            assert stat < thr(0.01)

    def test_gamma_beta_factorization(self):
        # Gamma_b = Gamma_b' Beta(b, b'-b) in law for (b, b') = (0.5, 1.5)
        n = 100_000
        r1, r2 = RngState(19).spawn(2)
        lhs = sample_gamma(GammaParams(0.5), r1, n)
        rhs = sample_gamma(GammaParams(1.5), r2, n) * sample_beta(BetaParams(0.5, 1.0), r2, n)
        stat, thr = ks_two_sample(lhs, rhs)
        assert stat < thr(0.01)

    def test_mellin_sampler_agreement(self):
        p = BetaPrimeParams(1.2, 1.8)
        n = 400_000
        x = sample_betaprime(p, RngState(23), n)
        for s in (-0.6, -0.2, 0.3, 0.9, 1.4):
            w = x ** s
            se = w.std() / math.sqrt(n)
            assert abs(w.mean() - betaprime_mellin(p, s)) < 5.0 * se

    def test_scipy_distribution_agreement(self):
        # su sanity: our samplers against scipy's cdfs via one-sample KS
        n = 50_000
        g = sample_gamma(GammaParams(2.3), RngState(29), n)
        assert st.kstest(g, "gamma", args=(2.3,)).pvalue > 1e-4
        b = sample_beta(BetaParams(0.4, 1.1), RngState(30), n)
        assert st.kstest(b, "beta", args=(0.4, 1.1)).pvalue > 1e-4


class TestSamplerOracle:
    """One-sample KS against scipy's cdfs at n = 1e6 and alpha = 1e-6."""

    N = 1_000_000

    @pytest.mark.parametrize("t", [0.2, 0.5, 1.0, 1.5, 4.0])
    def test_gamma(self, t):
        g = sample_gamma(GammaParams(t), RngState(41), self.N)
        assert st.kstest(g, "gamma", args=(t,)).pvalue > 1e-6

    def test_beta(self):
        b = sample_beta(BetaParams(0.4, 1.1), RngState(42), self.N)
        assert st.kstest(b, "beta", args=(0.4, 1.1)).pvalue > 1e-6

    def test_betaprime(self):
        x = sample_betaprime(BetaPrimeParams(0.8, 1.4), RngState(43), self.N)
        assert st.kstest(x, "betaprime", args=(0.8, 1.4)).pvalue > 1e-6


def _gamma_expr(gen, shape, n):
    """The plain-expression form of the in-place _gamma, kept as a reference."""
    if shape < 1.0:
        return gen.standard_gamma(shape + 1.0, n) * gen.random(n) ** (1.0 / shape)
    return gen.standard_gamma(shape, n)


_SHAPES = [0.2, 0.5, 1.0, 4.0]


class TestInPlaceSamplers:
    """In-place arithmetic gives the bits of the plain expressions."""

    N = 20_000

    @pytest.mark.parametrize("t", _SHAPES)
    def test_gamma(self, t):
        got = _gamma(RngState(51).generator, t, self.N)
        want = _gamma_expr(RngState(51).generator, t, self.N)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", _SHAPES)
    @pytest.mark.parametrize("q", _SHAPES)
    def test_beta(self, p, q):
        got = sample_beta(BetaParams(p, q), RngState(52), self.N)
        gen = RngState(52).generator
        g1 = _gamma_expr(gen, p, self.N)
        g2 = _gamma_expr(gen, q, self.N)
        assert got.tobytes() == (g1 / (g1 + g2)).tobytes()

    @pytest.mark.parametrize("a", _SHAPES)
    @pytest.mark.parametrize("b", _SHAPES)
    def test_betaprime(self, a, b):
        got = sample_betaprime(BetaPrimeParams(a, b), RngState(53), self.N)
        gen = RngState(53).generator
        g1 = _gamma_expr(gen, a, self.N)
        g2 = _gamma_expr(gen, b, self.N)
        assert got.tobytes() == (g1 / g2).tobytes()

    def test_scalar_draw(self):
        got = sample_betaprime(BetaPrimeParams(0.5, 4.0), RngState(54))
        gen = RngState(54).generator
        g1 = _gamma_expr(gen, 0.5, 1)
        assert isinstance(got, float) and got == float((g1 / _gamma_expr(gen, 4.0, 1))[0])


def _half_expr(gen, shape, n):
    """The plain-expression form of a split draw's half: Z^2/2, Z^2/2 + E and
    E + E at t = 1/2, 3/2 and 2; _gamma_expr otherwise (at t = 1 numpy's
    standard_gamma is its standard_exponential)."""
    if shape == 0.5:
        return gen.standard_normal(n) ** 2 / 2
    if shape == 1.5:
        return gen.standard_normal(n) ** 2 / 2 + gen.standard_exponential(n)
    if shape == 2.0:
        return gen.standard_exponential(n) + gen.standard_exponential(n)
    return _gamma_expr(gen, shape, n)


def _split_plan(seed, shape, n):
    """_gamma's split draw done in sequence: the first n // 2 values from the
    generator, the rest from its first spawned child; then the generator's
    next values."""
    gen = RngState(seed).generator
    child = gen.spawn(1)[0]
    half = n // 2
    values = np.concatenate([_half_expr(gen, shape, half), _half_expr(child, shape, n - half)])
    return values, gen.random(4)


class TestSplitDraw:
    """From _SPLIT values on, _gamma fills its two halves on two threads."""

    N = 1 << 18

    @pytest.mark.parametrize("t", [0.5, 2.5])
    def test_same_seed_same_bytes(self, t):
        got = [_gamma(RngState(61).generator, t, self.N) for _ in range(2)]
        assert got[0].tobytes() == got[1].tobytes()

    @pytest.mark.parametrize("n", [N, _SPLIT + 1])
    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_equals_sequential_plan(self, t, n):
        gen = RngState(62).generator
        got = _gamma(gen, t, n)
        want, want_next = _split_plan(62, t, n)
        assert got.tobytes() == want.tobytes()
        assert gen.random(4).tobytes() == want_next.tobytes()

    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_below_split_is_one_stream(self, t):
        n = _SPLIT - 1
        got = _gamma(RngState(63).generator, t, n)
        assert got.tobytes() == _gamma_expr(RngState(63).generator, t, n).tobytes()

    def test_worker_error_raised_in_caller(self, monkeypatch, capfd):
        fill = distributions._fill_half

        def refuse_off_main(gen, shape, out):
            if threading.current_thread() is not threading.main_thread():
                raise DomainError("worker fill refused")
            fill(gen, shape, out)

        monkeypatch.setattr(distributions, "_fill_half", refuse_off_main)
        before = threading.active_count()
        with pytest.raises(DomainError, match="worker fill refused"):
            _gamma(RngState(64).generator, 0.5, self.N)
        assert threading.active_count() == before
        assert capfd.readouterr().err == ""

    def test_caller_error_joins_worker(self):
        done = []

        def refuse():
            raise DomainError("caller refused")

        before = threading.active_count()
        with pytest.raises(DomainError, match="caller refused"):
            _on_two_threads(lambda: done.append(1), refuse)
        assert done == [1] and threading.active_count() == before

    def test_no_thread_outlives_a_draw(self):
        before = threading.active_count()
        sample_betaprime(BetaPrimeParams(0.5, 2.5), RngState(65), self.N)
        assert threading.active_count() == before


class TestSplitDrawLaw:
    """Each half of a split draw follows the gamma law on its own, and the
    two halves agree: an unfilled half (np.empty) or a child stream that
    repeats its parent fails at alpha = 1e-6."""

    N = 1 << 20

    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_halves(self, t):
        g = _gamma(RngState(66).generator, t, self.N)
        first, second = g[:self.N // 2], g[self.N // 2:]
        for half in (first, second):
            assert st.kstest(half, "gamma", args=(t,)).pvalue > 1e-6
        # two-sided at 1e-6: a repeated stream gives a statistic of 0
        stat, _ = ks_two_sample(first, second)
        scaled = stat * math.sqrt(first.size * second.size / (first.size + second.size))
        assert st.kstwobign.ppf(5e-7) < scaled < st.kstwobign.isf(5e-7)
