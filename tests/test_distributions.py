"""Distribution toolkit: densities, transforms, seeded samplers."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st

from bpl import distributions
from bpl.distributions import (
    BetaParams,
    BetaPrimeParams,
    GammaParams,
    RngState,
    _SPLIT,
    _on_two_threads,
    betaprime_mellin,
    betaprime_pdf,
    sample_beta,
    sample_betaprime,
    sample_gamma,
)
from bpl.errors import DomainError
from bpl.identities import ks_two_sample
from bpl.quadrature import integrate


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


def _beta_ks_pvalue(x, p, q, prime):
    """p-value of the one-sample KS test of x against Beta(p, q), or against
    BetaPrime(p, q) if prime, whose cdf at x is Beta(p, q)'s at x/(1 + x):
    scipy's betaprime cdf takes about five times as long as betainc."""
    n = x.size
    cdf = sp.betainc(p, q, np.sort(x / (1.0 + x) if prime else x))
    stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    return st.kstwo.sf(stat, n)


class TestSamplerOracle:
    """One-sample KS against scipy's cdfs at n = 1e6 and alpha = 1e-6."""

    N = 1_000_000

    @pytest.mark.parametrize("t", [0.2, 0.5, 1.0, 1.5, 4.0])
    def test_gamma(self, t):
        g = sample_gamma(GammaParams(t), RngState(41), self.N)
        assert st.kstest(g, "gamma", args=(t,)).pvalue > 1e-6

    def test_beta(self):
        b = sample_beta(BetaParams(0.4, 1.1), RngState(42), self.N)
        assert _beta_ks_pvalue(b, 0.4, 1.1, False) > 1e-6

    def test_betaprime(self):
        x = sample_betaprime(BetaPrimeParams(0.8, 1.4), RngState(43), self.N)
        assert _beta_ks_pvalue(x, 0.8, 1.4, True) > 1e-6


def _half_expr(gen, shape, n):
    """The plain-expression form of _fill_gamma: Z^2/2, Z^2/2 + E and E + E at
    t = 1/2, 3/2 and 2, G(t+1) U^(1/t) for other t < 1, and numpy's
    standard_gamma otherwise (at t = 1 it is its standard_exponential)."""
    if shape == 0.5:
        return gen.standard_normal(n) ** 2 / 2
    if shape == 1.5:
        return gen.standard_normal(n) ** 2 / 2 + gen.standard_exponential(n)
    if shape == 2.0:
        return gen.standard_exponential(n) + gen.standard_exponential(n)
    if shape < 1.0:
        return gen.standard_gamma(shape + 1.0, n) * gen.random(n) ** (1.0 / shape)
    return gen.standard_gamma(shape, n)


def _ratio_expr(gen, p, q, prime, n):
    """The plain-expression form of _fill_ratio: G(p), then G(q), from one
    generator."""
    g1 = _half_expr(gen, p, n)
    g2 = _half_expr(gen, q, n)
    return g1 / g2 if prime else g1 / (g1 + g2)


def _one_variate_expr(gen, p, q, prime, n):
    """The plain-expression form of _fill_one_variate."""
    if p == 1.0:
        e = gen.standard_exponential(n)
        return np.expm1(e / q) if prime else -np.expm1(e / -q)
    if q == 1.0:
        y = gen.standard_exponential(n) / -p
        return -(np.exp(y) / np.expm1(y)) if prime else np.exp(y)
    u = gen.random(n)
    t = np.tan(u * (0.25 * math.pi))
    if prime:
        s = np.tan((1.0 - u) * (0.25 * math.pi))
        root = t / s * (s + 1.0) * (s + 1.0) * 0.5
    else:
        root = t / (t * t + 1.0) * 2.0
    return root * root


def _johnk_expr(gen, p, q, prime, n):
    """The plain-expression form of _fill_johnk: rounds of min(_BATCH, values
    still missing) candidate pairs, E1 then E2, each round's kept values
    appended in order."""
    parts, have = [], 0
    while have < n:
        m = min(distributions._BATCH, n - have)
        lx = gen.standard_exponential(m) / -p
        ly = gen.standard_exponential(m) / -q
        d = (lx - ly)[np.exp(lx) + np.exp(ly) <= 1.0]
        if prime:
            parts.append(np.exp(d))
        else:
            with np.errstate(over="ignore"):
                parts.append(np.where(d <= 0.0, np.exp(d) / (1.0 + np.exp(d)),
                                      1.0 / (1.0 + np.exp(-d))))
        have += d.size
    return np.concatenate(parts)


def _law_expr(gen, p, q, prime, n):
    """The plain-expression form of the one construction of Beta(p, q), or
    BetaPrime(p, q) if prime: one-variate where a shape is 1 or both are 1/2,
    Jöhnk's where both shapes are at most 1, else the gamma ratio."""
    if p == 1.0 or q == 1.0 or p == q == 0.5:
        return _one_variate_expr(gen, p, q, prime, n)
    if p <= 1.0 and q <= 1.0:
        return _johnk_expr(gen, p, q, prime, n)
    return _ratio_expr(gen, p, q, prime, n)


_SAMPLERS = {False: (BetaParams, sample_beta), True: (BetaPrimeParams, sample_betaprime)}


def _law_draw(p, q, prime, rng, n):
    params, sampler = _SAMPLERS[prime]
    return sampler(params(p, q), rng, n)


def _gamma_draw(t):
    return lambda rng, n: sample_gamma(GammaParams(t), rng, n)


def _split_plan(seed, expr, n):
    """A split draw done in sequence: expr(gen, m) for the first n // 2
    values from the generator and for the rest from its first spawned child;
    then the generator's next values."""
    gen = RngState(seed).generator
    child = gen.spawn(1)[0]
    half = n // 2
    return np.concatenate([expr(gen, half), expr(child, n - half)]), gen.random(4)


def _assert_equals_split_plan(draw, expr, seed, n):
    rng = RngState(seed)
    got = draw(rng, n)
    want, want_next = _split_plan(seed, expr, n)
    assert got.tobytes() == want.tobytes()
    assert rng.generator.random(4).tobytes() == want_next.tobytes()


def _assert_one_stream(monkeypatch, draw, expr):
    """Below _SPLIT, draw(rng, n) is expr on the caller's generator alone:
    no spawn and no thread, and the generator's next values continue the
    stream."""
    def no_thread(worker, here):
        raise AssertionError("a draw below _SPLIT started a worker thread")

    monkeypatch.setattr(distributions, "_on_two_threads", no_thread)
    n = _SPLIT - 1
    rng = RngState(63)
    got = draw(rng, n)
    gen = RngState(63).generator
    assert got.tobytes() == expr(gen, n).tobytes()
    assert rng.generator.random(4).tobytes() == gen.random(4).tobytes()
    assert rng.generator.bit_generator.seed_seq.n_children_spawned == 0


_SHAPES = [0.2, 0.5, 1.0, 4.0]


class TestSpawn:
    def test_children_unchanged_by_a_split_draw(self):
        # a split draw's gen.spawn(1) advances the generator's own sequence
        first = RngState(3).spawn(1)[0].generator.random()
        rng = RngState(3)
        sample_gamma(GammaParams(0.5), rng, 1 << 18)
        assert rng.spawn(1)[0].generator.random() == first

    def test_children_are_the_seed_sequence_children(self):
        # the streams verify and the CLI draw from are numpy's own children
        # of SeedSequence(seed)
        child = np.random.SeedSequence(3).spawn(2)[1]
        want = np.random.Generator(np.random.PCG64(child)).random(3)
        assert RngState(3).spawn(2)[1].generator.random(3).tobytes() == want.tobytes()

    def test_successive_spawns_continue_one_sequence(self):
        want = [r.generator.random() for r in RngState(4).spawn(3)]
        rng = RngState(4)
        first = rng.spawn(1)
        sample_gamma(GammaParams(2.5), rng, _SPLIT)
        assert [r.generator.random() for r in first + rng.spawn(2)] == want


class TestInPlaceSamplers:
    """In-place arithmetic gives the bits of the plain-expression form of
    each law's one construction."""

    N = 20_000

    @pytest.mark.parametrize("t", _SHAPES + [1.5, 2.0])
    def test_gamma(self, t):
        got = sample_gamma(GammaParams(t), RngState(51), self.N)
        want = _half_expr(RngState(51).generator, t, self.N)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", _SHAPES)
    @pytest.mark.parametrize("q", _SHAPES)
    def test_beta(self, p, q):
        got = sample_beta(BetaParams(p, q), RngState(52), self.N)
        want = _law_expr(RngState(52).generator, p, q, False, self.N)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", _SHAPES)
    @pytest.mark.parametrize("b", _SHAPES)
    def test_betaprime(self, a, b):
        got = sample_betaprime(BetaPrimeParams(a, b), RngState(53), self.N)
        want = _law_expr(RngState(53).generator, a, b, True, self.N)
        assert got.tobytes() == want.tobytes()


def _peak(draw):
    """tracemalloc's peak over one call of draw()."""
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFillMemory:
    """A fill's second operand goes through one buffer of _CHUNK values."""

    @pytest.mark.parametrize("t, n", [(0.3, _SPLIT - 1), (0.3, 1 << 18), (1.5, 1 << 18),
                                      (2.0, 1 << 18)])
    def test_temporaries_stay_one_chunk_per_fill(self, t, n):
        peak = _peak(lambda: sample_gamma(GammaParams(t), RngState(65), n))
        # the draw itself, one buffer per fill (two fills run at once on a
        # split draw) and a few kB of generator and thread objects
        assert peak <= 8 * (n + 2 * distributions._CHUNK) + 65536, peak / (8 * n)

    @pytest.mark.parametrize("n", [_SPLIT - 1, 1 << 18])
    def test_ratio_holds_one_second_array(self, n):
        peak = _peak(lambda: sample_beta(BetaParams(0.3, 2.5), RngState(65), n))
        # the draw, the G(q) array of n values (a slice of it per fill) and
        # the U^(1/t) buffer of each fill
        assert peak <= 8 * (2 * n + 2 * distributions._CHUNK) + 65536, peak / (8 * n)

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", [(0.3, 2.5), (2.0, 3.0)])
    def test_ratio_worker_allocates_no_half(self, p, q, prime, monkeypatch):
        # the G(q) array is made on the calling thread, each half filling its
        # slice: an array the worker made would stay in its malloc arena
        made = []
        empty = np.empty

        def recording(*args, **kwargs):
            x = empty(*args, **kwargs)
            made.append((threading.current_thread(), x.size))
            return x

        monkeypatch.setattr(np, "empty", recording)
        n = 1 << 18
        _law_draw(p, q, prime, RngState(66), n)
        here = [size for thread, size in made if thread is threading.main_thread()]
        there = [size for thread, size in made if thread is not threading.main_thread()]
        assert here.count(n) == 2  # the draw and its G(q) array
        assert max(there, default=0) <= distributions._CHUNK, there


# one law per construction: the gamma fills, the one-variate, Jöhnk and
# ratio draws, as (sampler, params)
_CONSTRUCTIONS = [
    *((sample_gamma, GammaParams(t)) for t in (0.3, 0.5, 1.0, 1.5, 2.0, 2.5)),
    *((sampler, params(p, q)) for sampler, params in
      ((sample_beta, BetaParams), (sample_betaprime, BetaPrimeParams))
      for p, q in ((1.0, 0.5), (0.3, 1.0), (0.5, 0.5), (0.25, 0.5), (2.0, 3.0), (0.5, 2.5))),
]


class TestOut:
    """out= (numpy's convention): the draw goes into the caller's array,
    which is returned, with the bits of the out=None draw."""

    @pytest.mark.parametrize("n", [1000, _SPLIT + 1])
    @pytest.mark.parametrize("sampler, params", _CONSTRUCTIONS)
    def test_into_out_equals_new_array(self, sampler, params, n):
        want = sampler(params, RngState(91), n)
        rng = RngState(91)
        out = np.full(n + 2, -1.0)
        view = out[1:-1]
        got = sampler(params, rng, n, out=view)
        assert got is view and got.tobytes() == want.tobytes()
        assert out[0] == out[-1] == -1.0
        # the stream continues as after the out=None draw
        after = RngState(91)
        sampler(params, after, n)
        assert rng.generator.random(4).tobytes() == after.generator.random(4).tobytes()

    @pytest.mark.parametrize("sampler, params", [_CONSTRUCTIONS[0], _CONSTRUCTIONS[6],
                                                 _CONSTRUCTIONS[-1]])
    @pytest.mark.parametrize("bad", [np.empty(9), np.empty(10, dtype=np.float32),
                                     np.empty((2, 5)), np.empty(20)[::2],
                                     [0.0] * 10], ids=["size", "dtype", "shape", "strided", "list"])
    def test_wrong_out_is_domain_error(self, sampler, params, bad):
        with pytest.raises(DomainError, match="out must be"):
            sampler(params, RngState(93), 10, out=bad)


class TestSplitDraw:
    """From _SPLIT values on, a draw fills its two halves on two threads;
    below it, one fill runs on the caller's generator."""

    N = 1 << 18

    @pytest.mark.parametrize("t", [0.5, 2.5])
    def test_same_seed_same_bytes(self, t):
        got = [sample_gamma(GammaParams(t), RngState(61), self.N) for _ in range(2)]
        assert got[0].tobytes() == got[1].tobytes()

    @pytest.mark.parametrize("n", [N, _SPLIT + 1])
    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_equals_sequential_plan(self, t, n):
        _assert_equals_split_plan(_gamma_draw(t), lambda g, m: _half_expr(g, t, m), 62, n)

    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_below_split_is_one_stream(self, t, monkeypatch):
        _assert_one_stream(monkeypatch, _gamma_draw(t), lambda g, m: _half_expr(g, t, m))

    def test_worker_error_raised_in_caller(self, monkeypatch, capfd):
        fill = distributions._fill_gamma

        def refuse_off_main(gen, shape, out):
            if threading.current_thread() is not threading.main_thread():
                raise DomainError("worker fill refused")
            fill(gen, shape, out)

        monkeypatch.setattr(distributions, "_fill_gamma", refuse_off_main)
        before = threading.active_count()
        with pytest.raises(DomainError, match="worker fill refused"):
            sample_gamma(GammaParams(0.5), RngState(64), self.N)
        assert threading.active_count() == before
        assert capfd.readouterr().err == ""

    def test_worker_keeps_the_callers_error_settings(self):
        seen = []

        def fill(gen, out):
            seen.append(np.geterr()["over"])

        with np.errstate(over="ignore"):
            distributions._sample(RngState(64).generator, fill, np.empty(self.N))
        assert seen == ["ignore", "ignore"]

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
        for prime in (False, True):
            for p, q in _ONE_VARIATE:
                _law_draw(p, q, prime, RngState(65), self.N)
        assert threading.active_count() == before


class TestSplitDrawLaw:
    """Each half of a split draw follows the gamma law on its own, and the
    two halves agree: an unfilled half (np.empty) or a child stream that
    repeats its parent fails at alpha = 1e-6."""

    N = 1 << 20

    @pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5])
    def test_halves(self, t):
        g = sample_gamma(GammaParams(t), RngState(66), self.N)
        first, second = g[:self.N // 2], g[self.N // 2:]
        for half in (first, second):
            assert st.kstest(half, "gamma", args=(t,)).pvalue > 1e-6
        # two-sided at 1e-6: a repeated stream gives a statistic of 0
        stat, _ = ks_two_sample(first, second)
        scaled = stat * math.sqrt(first.size * second.size / (first.size + second.size))
        assert st.kstwobign.ppf(5e-7) < scaled < st.kstwobign.isf(5e-7)


# gamma-ratio laws: no shape equal to 1, not both 1/2, one shape above 1
_RATIO = [(2.0, 3.0), (0.5, 2.5), (1.5, 0.3)]


class TestRatioDraw:
    """Every other beta or beta prime law is G(p) / (G(p) + G(q)) or
    G(p) / G(q); each half of a split draw takes both gammas from its own
    generator, so the draw starts one worker."""

    N = 1 << 18

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _RATIO)
    @pytest.mark.parametrize("n", [N, _SPLIT + 1])
    def test_equals_sequential_plan(self, p, q, prime, n):
        _assert_equals_split_plan(lambda rng, m: _law_draw(p, q, prime, rng, m),
                                  lambda g, m: _ratio_expr(g, p, q, prime, m), 67, n)

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _RATIO)
    def test_below_split_is_one_stream(self, p, q, prime, monkeypatch):
        _assert_one_stream(monkeypatch, lambda rng, m: _law_draw(p, q, prime, rng, m),
                           lambda g, m: _ratio_expr(g, p, q, prime, m))


# one law per construction of a one-variate draw: Beta(1, q), Beta(p, 1)
# and Beta(1/2, 1/2), and the same for BetaPrime; (1, 1) takes the first
_ONE_VARIATE = [(1.0, 0.5), (0.3, 1.0), (0.5, 0.5), (1.0, 1.0)]


class TestOneVariateDraw:
    """A beta or beta prime law with a shape equal to 1, or both shapes
    equal to 1/2, is drawn by its inverse cdf on one variate per value."""

    N = 1 << 18

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _ONE_VARIATE + [(1.0, 2.5)])
    @pytest.mark.parametrize("n", [N, _SPLIT + 1])
    def test_equals_sequential_plan(self, p, q, prime, n):
        _assert_equals_split_plan(lambda rng, m: _law_draw(p, q, prime, rng, m),
                                  lambda g, m: _one_variate_expr(g, p, q, prime, m), 71, n)

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _ONE_VARIATE)
    def test_below_split_is_one_stream(self, p, q, prime, monkeypatch):
        _assert_one_stream(monkeypatch, lambda rng, m: _law_draw(p, q, prime, rng, m),
                           lambda g, m: _one_variate_expr(g, p, q, prime, m))

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _ONE_VARIATE)
    def test_temporaries_stay_one_chunk(self, p, q, prime):
        peak = _peak(lambda: _law_draw(p, q, prime, RngState(73), self.N))
        assert peak <= 8 * (self.N + 2 * distributions._CHUNK) + 65536, peak / (8 * self.N)

    def test_worker_error_raised_in_caller(self, monkeypatch, capfd):
        fill = distributions._fill_one_variate

        def refuse_off_main(gen, p, q, prime, out):
            if threading.current_thread() is not threading.main_thread():
                raise DomainError("worker fill refused")
            fill(gen, p, q, prime, out)

        monkeypatch.setattr(distributions, "_fill_one_variate", refuse_off_main)
        before = threading.active_count()
        for prime in (False, True):
            with pytest.raises(DomainError, match="worker fill refused"):
                _law_draw(1.0, 0.5, prime, RngState(74), self.N)
        assert threading.active_count() == before
        assert capfd.readouterr().err == ""


class TestOneVariateLaw:
    """One-sample KS of each construction against scipy at alpha = 1e-6."""

    N = 1 << 20

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _ONE_VARIATE[:3])
    def test_scipy_cdf(self, p, q, prime):
        x = _law_draw(p, q, prime, RngState(76), self.N)
        assert _beta_ks_pvalue(x, p, q, prime) > 1e-6


class _FixedUniforms:
    """A generator stand-in whose random() fills the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[:] = self.u
        return out


@pytest.mark.parametrize("u", [2.0 ** -40, 1.0 - 2.0 ** -40])
def test_arcsine_tails_keep_relative_precision(u):
    # tan^2(pi U/2) is 9e-5 off at U = 1 - 2^-40, where pi U/2 is rounded
    # next to its pole
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        angle = mp.pi * mp.mpf(u) / 2
        want = {True: mp.tan(angle) ** 2, False: mp.sin(angle) ** 2}
    for prime in (False, True):
        out = np.empty(1)
        distributions._fill_one_variate(_FixedUniforms([u]), 0.5, 0.5, prime, out)
        assert abs(out[0] / float(want[prime]) - 1.0) < 8 * 2.0 ** -53, prime


# laws of the Jöhnk fill: both shapes at most 1, neither 1, not both 1/2
_JOHNK = [(0.25, 0.25), (0.5, 0.2), (0.2, 0.3), (0.25, 0.5), (0.05, 0.9), (0.999, 0.999)]


class TestJohnkDraw:
    """A beta or beta prime law with both shapes at most 1 and no one-variate
    construction is drawn by Jöhnk's rejection."""

    N = 1 << 18

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", [(0.25, 0.25), (0.2, 0.3), (0.999, 0.999)])
    @pytest.mark.parametrize("n", [N, _SPLIT + 1])
    def test_equals_sequential_plan(self, p, q, prime, n):
        _assert_equals_split_plan(lambda rng, m: _law_draw(p, q, prime, rng, m),
                                  lambda g, m: _johnk_expr(g, p, q, prime, m), 81, n)

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", [(0.25, 0.25), (0.5, 0.2)])
    def test_below_split_is_one_stream(self, p, q, prime, monkeypatch):
        _assert_one_stream(monkeypatch, lambda rng, m: _law_draw(p, q, prime, rng, m),
                           lambda g, m: _johnk_expr(g, p, q, prime, m))

    @pytest.mark.parametrize("prime", [False, True])
    def test_temporaries_stay_within_six_chunks(self, prime):
        peak = _peak(lambda: _law_draw(0.25, 0.25, prime, RngState(83), self.N))
        # the draw, and per fill (two run at once) two buffers of _BATCH
        # candidates and one round's kept values
        assert peak <= 8 * (self.N + 6 * distributions._CHUNK) + 65536, peak / (8 * self.N)

    def test_worker_error_raised_in_caller(self, monkeypatch, capfd):
        fill = distributions._fill_johnk

        def refuse_off_main(gen, p, q, prime, out):
            if threading.current_thread() is not threading.main_thread():
                raise DomainError("worker fill refused")
            fill(gen, p, q, prime, out)

        monkeypatch.setattr(distributions, "_fill_johnk", refuse_off_main)
        before = threading.active_count()
        for prime in (False, True):
            with pytest.raises(DomainError, match="worker fill refused"):
                _law_draw(0.25, 0.25, prime, RngState(84), self.N)
        assert threading.active_count() == before
        assert capfd.readouterr().err == ""


class TestJohnkLaw:
    """One-sample KS of the Jöhnk draws against scipy at alpha = 1e-6."""

    N = 1 << 20

    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("p, q", _JOHNK)
    def test_scipy_cdf(self, p, q, prime):
        x = _law_draw(p, q, prime, RngState(86 + prime), self.N)
        assert _beta_ks_pvalue(x, p, q, prime) > 1e-6


class _FixedExponentials:
    """A generator stand-in whose standard_exponential() fills one value."""

    def __init__(self, e):
        self.e = e

    def standard_exponential(self, out):
        out[:] = self.e
        return out


def test_johnk_pair_that_both_underflow():
    # E1/p = E2/q = 800: exp(lx) and exp(ly) are both 0, where a ratio of two
    # gamma draws that underflow is 0/0; d = 0 gives BetaPrime 1 and Beta 1/2
    out = np.empty(3)
    for prime, want in ((True, 1.0), (False, 0.5)):
        distributions._fill_johnk(_FixedExponentials(200.0), 0.25, 0.25, prime, out)
        assert out.tolist() == [want] * 3, prime
