"""Verification engine: KS calibration, every identity spec, negative controls,
lemma densities, conjecture scans."""

import inspect
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpl.convolution import mellin_sum
from bpl.distributions import BetaPrimeParams, RngState, betaprime_mellin
from bpl.errors import DomainError
from bpl import identities
from bpl.identities import (
    ab_half_spec,
    cjmain_spec,
    conjecture_cjmain_scan,
    conjhyp_integral_check,
    cor34_spec,
    free_spec,
    half_gaussian_spec,
    hypergeo_identity_check,
    IdentitySpec,
    identity_catalog,
    ks_two_sample,
    lemma_densities,
    prop_b0_spec,
    theorem_a_spec,
    theorem_b_spec,
    verify,
    _cjmain_representation_errors,
    _one_plus_sqrt_beta_factor,
    _sqrt_gamma_sum_mellin,
)
from bpl.options import EvalOptions
from bpl.quadrature import integrate
from bpl.special import gamma_ln
from conftest import max_rel_err, mc_mean, rel_err


def _ks_searchsorted(xs, ys):
    """Reference two-sample KS statistic: both empirical cdfs at every point."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def _ks_merge(xs, ys):
    """Reference: the merge formula ks_two_sample used before its per-side
    scan. One stable argsort merges the two sorted samples, and both counts
    are read at the end of each run of equal values."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    n, m = xs.size, ys.size
    merged = np.concatenate([xs, ys])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    count_x = np.cumsum(order < n)
    ends = np.append(np.flatnonzero(merged[1:] != merged[:-1]), n + m - 1)
    count_x = count_x[ends]
    count_y = ends + 1 - count_x
    return float(np.max(np.abs(count_x / n - count_y / m)))


# few distinct values so that ties within and across the samples are common
_KS_VALUES = st.one_of(st.sampled_from([-math.inf, math.inf, -1.0, 0.0, 0.5, 2.0]),
                       st.floats(-3.0, 3.0))
_KS_SAMPLE = st.lists(_KS_VALUES, min_size=1, max_size=60)


class TestKs:
    @settings(max_examples=300, deadline=None)
    @given(xs=_KS_SAMPLE, ys=_KS_SAMPLE)
    @example(xs=[0.5], ys=[0.5, 1.0, -math.inf])
    @example(xs=[math.inf, 0.0, math.inf], ys=[math.inf])
    @example(xs=[1.0], ys=[2.0])
    def test_merge_equals_searchsorted_formula(self, xs, ys):
        assert ks_two_sample(xs, ys)[0] == _ks_searchsorted(xs, ys)

    @settings(max_examples=300, deadline=None)
    @given(xs=_KS_SAMPLE, ys=_KS_SAMPLE, bound_block=st.integers(1, 7),
           block=st.integers(1, 20))
    def test_small_blocks_equal_searchsorted_formula(self, xs, ys, bound_block, block):
        # runs of ties that cross block boundaries, and skipped blocks; the
        # side scans are called directly, without the two threads of
        # ks_two_sample
        xs, ys = np.sort(xs), np.sort(ys)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(identities, "_ks_bound_block", lambda n: bound_block)
            mp.setattr(identities, "_KS_BLOCK", block)
            stat = max(identities._ks_side(xs, ys), identities._ks_side(ys, xs))
        assert stat == _ks_searchsorted(xs, ys)

    def test_ties_across_default_blocks(self):
        r1, r2 = RngState(8).spawn(2)
        xs = np.round(r1.generator.normal(size=300_000), 2)
        ys = np.round(r2.generator.normal(0.01, 1.0, size=200_000), 2)
        assert ks_two_sample(xs, ys)[0] == _ks_searchsorted(xs, ys)

    @pytest.mark.parametrize("shift", [0.0, 0.003, 0.05])
    def test_skipped_blocks_on_large_samples(self, shift):
        # continuous samples: all but a few bound blocks are skipped
        r1, r2 = RngState(9).spawn(2)
        xs = r1.generator.normal(size=250_000)
        ys = r2.generator.normal(shift, 1.0, size=180_000)
        assert ks_two_sample(xs, ys)[0] == _ks_searchsorted(xs, ys)

    def test_run_of_ties_longer_than_a_block(self):
        # underflowed draws of a tiny shape are a long run of zeros
        xs = np.concatenate([np.zeros(200_000), np.linspace(0.1, 1.0, 7)])
        ys = np.array([0.0, 0.5, 2.0])
        assert ks_two_sample(xs, ys)[0] == _ks_searchsorted(xs, ys)

    @pytest.mark.parametrize("xs, ys", [([1.0, math.nan], [1.0]), ([1.0], [math.nan])])
    def test_nan_rejected(self, xs, ys):
        with pytest.raises(DomainError, match="NaN"):
            ks_two_sample(xs, ys)

    def test_identical_vectors(self):
        x = np.linspace(0.0, 1.0, 100)
        stat, thr = ks_two_sample(x, x)
        assert stat == 0.0

    def test_null_calibration(self):
        r1, r2 = RngState(5).spawn(2)
        xs = r1.generator.random(100_000)
        ys = r2.generator.random(100_000)
        stat, thr = ks_two_sample(xs, ys)
        assert stat < thr(0.01)

    def test_power_against_shift(self):
        r1, r2 = RngState(5).spawn(2)
        xs = r1.generator.random(100_000)
        ys = r2.generator.random(100_000) + 0.05
        stat, thr = ks_two_sample(xs, ys)
        assert stat > thr(0.01)

    def test_threshold_constant(self):
        stat, thr = ks_two_sample(np.arange(10.0), np.arange(10.0))
        c = thr(0.01) / math.sqrt(20.0 / 100.0)
        assert c == pytest.approx(1.628, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_two_sample([], [1.0])


class TestEngine:
    def test_same_sampler_independent_streams_passes(self):
        from bpl.distributions import sample_betaprime
        from bpl.identities import IdentitySpec
        p = BetaPrimeParams(0.8, 1.2)
        sampler = lambda rng, n: sample_betaprime(p, rng, n)
        spec = IdentitySpec(name="self", lhs_sampler=sampler, rhs_sampler=sampler)
        rep = verify(spec, 50_000, RngState(60))
        assert rep.passed

    def test_same_law_passes(self):
        spec = theorem_a_spec(1.0)
        same = verify(spec, 50_000, RngState(61))
        assert same.passed and same.seed == 61

    def test_corrupted_rhs_fails(self):
        rep = verify(theorem_a_spec(1.0), 50_000, RngState(62), rhs_scale=1.1)
        assert not rep.passed

    def test_parameter_perturbation_fails(self):
        # engine power: right side built from a shape 5% off must fail
        base = theorem_a_spec(1.0)
        wrong = theorem_a_spec(1.05)
        from bpl.identities import IdentitySpec
        mixed = IdentitySpec(
            name="negative-control",
            lhs_sampler=base.lhs_sampler,
            rhs_sampler=wrong.rhs_sampler,
            lhs_mellin=base.lhs_mellin,
            rhs_mellin=wrong.rhs_mellin,
            mellin_strip=base.mellin_strip,
        )
        rep = verify(mixed, 100_000, RngState(65))
        assert not rep.passed
        assert rep.mellin_max_relerr > 1e-6

    def test_nan_samples_recorded_as_failure(self):
        from bpl.identities import IdentitySpec
        nan_sampler = lambda rng, n: np.full(n, math.nan)
        spec = IdentitySpec(name="nan", lhs_sampler=theorem_a_spec(1.0).lhs_sampler,
                            rhs_sampler=nan_sampler)
        rep = verify(spec, 1000, RngState(66))
        assert rep.verdict == "fail" and "NaN" in rep.failure

    @pytest.mark.parametrize("rtol, verdict", [(1e-3, "pass"), (1e-5, "fail")])
    def test_mellin_rtol_judges_the_density_channel(self, rtol, verdict):
        # densities 1e-4 apart: a density tolerance of its own (1e-6) failed
        # the report at rtol = 1e-3 while the CLI's density row, judged at
        # rtol, passed
        from bpl.distributions import betaprime_pdf, sample_betaprime
        p = BetaPrimeParams(0.8, 1.2)
        sampler = lambda rng, n: sample_betaprime(p, rng, n)
        spec = IdentitySpec(name="density-gap", lhs_sampler=sampler, rhs_sampler=sampler,
                            lhs_density=lambda x: betaprime_pdf(p, x),
                            rhs_density=lambda x: (1.0 + 1e-4) * betaprime_pdf(p, x))
        rep = verify(spec, 20_000, RngState(67), mellin_rtol=rtol)
        assert rep.ks_statistic < rep.ks_threshold
        assert rep.density_max_relerr == pytest.approx(1e-4, rel=1e-3)
        assert rep.verdict == verdict


# one parameter point per catalog identity
_CATALOG_POINTS = {
    "theorem-a": (0.5,),
    "theorem-b": (0.5, 0.2),
    "prop-b0": (1.0, 0.5, 1.5),
    "ab-half": (0.25,),
    "free": (1.0, 1.0, 1.0, 1.0),
    "half-gaussian": (0.5,),
    "cor34": (1.0,),
}


class TestTwoSidedVerify:
    """verify calls both samplers on the calling thread; ks_two_sample sorts
    and scans one side on a worker thread and one on the calling thread."""

    @pytest.mark.parametrize("name, args, scale", [
        *((name, None, 1.0) for name in sorted(identity_catalog())),
        ("theorem-a", (1.0,), 1.1),
    ])
    def test_statistic_equals_serial_reference(self, name, args, scale):
        spec = identity_catalog()[name](*(args or _CATALOG_POINTS[name]))
        ks_only = IdentitySpec(name=name, lhs_sampler=spec.lhs_sampler,
                               rhs_sampler=spec.rhs_sampler)
        n = 3000
        rep = verify(ks_only, n, RngState(17), rhs_scale=scale)
        lhs_rng, rhs_rng = RngState(17).spawn(2)
        xs = spec.lhs_sampler(lhs_rng, n)
        ys = scale * spec.rhs_sampler(rhs_rng, n)
        assert rep.ks_statistic == _ks_merge(xs, ys)

    def test_unsorted_inputs_left_unchanged(self):
        xs = np.array([3.0, 1.0, 2.0])
        ys = np.array([2.5, 0.5])
        ks_two_sample(xs, ys)
        assert xs.tolist() == [3.0, 1.0, 2.0] and ys.tolist() == [2.5, 0.5]

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_sampler_error_is_failure(self, side):
        def refuse(rng, n):
            raise DomainError("sampler refused")

        samplers = {"lhs_sampler": theorem_a_spec(1.0).lhs_sampler,
                    "rhs_sampler": theorem_a_spec(1.0).rhs_sampler,
                    f"{side}_sampler": refuse}
        rep = verify(IdentitySpec(name="refuse", **samplers), 1000, RngState(3))
        assert rep.verdict == "fail" and rep.failure == "DomainError: sampler refused"

    def test_error_in_worker_is_failure(self, monkeypatch):
        def refuse(own, other):
            if threading.current_thread() is threading.main_thread():
                return 0.0
            raise DomainError("side scan refused")

        monkeypatch.setattr(identities, "_ks_side", refuse)
        rep = verify(theorem_a_spec(1.0), 1000, RngState(3))
        assert rep.verdict == "fail" and rep.failure == "DomainError: side scan refused"

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_nan_on_either_side_is_domain_error(self, side):
        good = theorem_a_spec(1.0).lhs_sampler

        def with_nan(rng, n):
            x = good(rng, n)
            x[n // 2] = math.nan
            return x

        samplers = {"lhs_sampler": good, "rhs_sampler": good, f"{side}_sampler": with_nan}
        rep = verify(IdentitySpec(name="nan", **samplers), 1000, RngState(4))
        assert rep.failure == "DomainError: KS test samples contain NaN"

    def test_no_worker_outlives_verify(self):
        before = threading.active_count()
        verify(theorem_a_spec(1.0), 20_000, RngState(5))

        def refuse(rng, n):
            raise DomainError("sampler refused")

        verify(IdentitySpec(name="refuse", lhs_sampler=refuse, rhs_sampler=refuse),
               1000, RngState(6))
        assert threading.active_count() == before


def _record_threads(monkeypatch, module, seen):
    """Wrap every public function of module, in every bpl namespace that
    bound it, so that each call records its name and thread in seen."""
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "bpl" or name.startswith("bpl."))]
    for attr, fn in list(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        wrapped = _recording(fn, f"{module.__name__}.{attr}", seen)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    monkeypatch.setattr(ns, key, wrapped)


def _recording(fn, name, seen):
    def call(*args, **kwargs):
        seen.append((name, threading.current_thread()))
        return fn(*args, **kwargs)
    return call


class TestCallingThreadOnly:
    """The benchmark's span tracer keeps one span stack for all threads, so
    every function it wraps must run on the calling thread: the public
    functions of distributions and identities and a spec's callables."""

    def test_split_draw_verify(self, monkeypatch):
        from bpl import distributions

        seen = []
        _record_threads(monkeypatch, distributions, seen)
        _record_threads(monkeypatch, identities, seen)
        spec = identities.theorem_a_spec(0.5)
        for field in ("lhs_sampler", "rhs_sampler", "lhs_mellin", "rhs_mellin",
                      "lhs_density", "rhs_density"):
            fn = getattr(spec, field)
            if fn is not None:
                setattr(spec, field, _recording(fn, f"spec.{field}", seen))
        n = 2 ** 18
        assert n >= distributions._SPLIT
        rep = identities.verify(spec, n, RngState(81))
        assert rep.passed, rep
        names = {name for name, _ in seen}
        assert {"bpl.identities.ks_two_sample", "bpl.distributions.sample_betaprime",
                "spec.lhs_sampler", "spec.rhs_sampler", "spec.lhs_mellin"} <= names
        assert {thread for _, thread in seen} == {threading.main_thread()}


class TestTheoremA:
    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    def test_verify(self, a):
        rep = verify(theorem_a_spec(a), 100_000, RngState(71))
        assert rep.passed, rep
        assert rep.mellin_max_relerr < 1e-6
        assert rep.density_max_relerr < 1e-6

    def test_rhs_factor_closed_moment(self):
        # E[(1 + sqrt Beta(1/2,1/2))^1] = 1 + 2/pi
        got = _one_plus_sqrt_beta_factor(0.5, 1.0)
        assert got == pytest.approx(1.0 + 2.0 / math.pi, rel=1e-11)

    def test_mellin_sides_trivial_at_zero(self):
        spec = theorem_a_spec(0.8)
        assert spec.lhs_mellin(0.0) == pytest.approx(1.0, rel=1e-10)
        assert spec.rhs_mellin(0.0) == pytest.approx(1.0, rel=1e-10)


class TestTheoremB:
    @pytest.mark.parametrize("ab", [(0.5, 0.2), (0.5, 0.4), (0.7, 0.3), (0.9, 0.1)])
    def test_verify_both_branches(self, ab):
        a, b = ab
        rep = verify(theorem_b_spec(a, b), 100_000, RngState(73))
        assert rep.passed, rep
        assert rep.mellin_max_relerr < 1e-6

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            theorem_b_spec(0.5, 0.6)
        with pytest.raises(DomainError):
            theorem_b_spec(0.62, 0.3)  # off both proven branches

    def test_degenerates_to_theorem_a(self):
        # b -> 1/2 on the a = 1/2 branch: the extra beta factor tends to 1
        s = 0.2
        tb = theorem_b_spec(0.5, 0.4999)
        ta = theorem_a_spec(0.5)
        assert rel_err(tb.rhs_mellin(s), ta.rhs_mellin(s)) < 2e-3
        assert rel_err(tb.lhs_mellin(s), ta.lhs_mellin(s)) < 2e-3


class TestMellinFactorsAgainstMonteCarlo:
    # third, structurally independent witness for the tensor quadrature
    # factors feeding the transform channel

    def test_theorem_b_factor(self):
        from bpl.identities import _tb_factor
        from bpl.distributions import BetaParams, sample_beta
        rng = RngState(91)
        n = 1_000_000
        for (a, b, s) in ((0.5, 0.2, 0.1), (0.9, 0.1, 0.05), (0.7, 0.3, 0.2)):
            u = sample_beta(BetaParams(a, 0.5), rng, n)
            v = sample_beta(BetaParams(b, 0.5 - b), rng, n)
            mean, se = mc_mean((1.0 + np.sqrt(u / v)) ** s)
            assert abs(mean - _tb_factor(a, b, s)) < 5.0 * se

    def test_ab_half_factor(self):
        from bpl.identities import _ab_half_factor
        from bpl.distributions import BetaParams, sample_beta
        rng = RngState(92)
        n = 1_000_000
        for (a, s) in ((0.25, 0.1), (0.1, 0.2)):
            b = 0.5 - a
            x = sample_beta(BetaParams(a, 0.5), rng, n)
            y = sample_beta(BetaParams(b, 0.5), rng, n)
            mean, se = mc_mean((x + 1.0 / y) ** s)
            assert abs(mean - _ab_half_factor(a, b, s)) < 5.0 * se


class TestOtherIdentities:
    @pytest.mark.parametrize("abb", [(1.0, 0.5, 1.5), (0.6, 0.8, 2.0)])
    def test_prop_b0(self, abb):
        # the benchmark's verify setting: a 0.0038 KS threshold, more power
        # than 0.0073 at n = 1e5 and alpha = 0.01, and ~1e-6 false rejections
        rep = verify(prop_b0_spec(*abb), 1_000_000, RngState(75), alpha=1e-6)
        assert rep.passed, rep

    def test_prop_b0_closed_mellin_match(self):
        spec = prop_b0_spec(1.0, 0.5, 1.5)
        p = BetaPrimeParams(1.0, 0.5)
        for s in (-0.5, 0.2, 0.4):
            assert rel_err(spec.rhs_mellin(s), betaprime_mellin(p, s)) < 1e-12

    def test_prop_b0_guard(self):
        with pytest.raises(DomainError):
            prop_b0_spec(1.0, 1.5, 0.5)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(log_a=st.floats(-3.0, 3.0), log_b=st.floats(-3.0, 1.0), log_e=st.floats(-3.0, 3.0))
    @example(log_a=math.log10(0.162978), log_b=math.log10(0.0684348),
             log_e=math.log10(0.104587 - 0.0684348))
    def test_prop_b0_densities_agree_over_a_wide_domain(self, log_a, log_b, log_e):
        # the right side is a Beta(b'-b, b) expectation; its slowest shapes
        # (a + b near 0) put mass far out on the multiplier's half-line
        a, b, e = 10.0 ** log_a, 10.0 ** log_b, 10.0 ** log_e
        spec = prop_b0_spec(a, b, b + e)
        grid = np.geomspace(0.05, 20.0, 9)  # verify's density grid
        assert max_rel_err(spec.rhs_density(grid), spec.lhs_density(grid)) < 1e-11

    @pytest.mark.parametrize("a", [0.25, 0.1])
    def test_ab_half(self, a):
        rep = verify(ab_half_spec(a), 100_000, RngState(76))
        assert rep.passed, rep

    def test_ab_half_factor_at_zero(self):
        spec = ab_half_spec(0.25)
        assert spec.rhs_mellin(0.0) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("abcd", [(1.0, 1.0, 1.0, 1.0), (0.8, 0.6, 1.2, 0.9)])
    def test_free(self, abcd):
        rep = verify(free_spec(*abcd), 100_000, RngState(77))
        assert rep.passed, rep

    def test_free_guard_and_swap(self):
        with pytest.raises(DomainError):
            free_spec(1.0, 2.0, 0.7, 0.5)
        rep = verify(free_spec(1.0, 2.0, 0.7, 0.5, swap=True), 50_000, RngState(78))
        assert rep.passed, rep

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_half_gaussian(self, a):
        rep = verify(half_gaussian_spec(a), 100_000, RngState(79))
        assert rep.passed, rep

    def test_half_gaussian_second_moment(self):
        # E[(sqrt G_a + sqrt G_a)^2] = 2a + 2 (Gamma(a+1/2)/Gamma(a))^2; a = 1
        want = 2.0 + math.pi / 2.0
        got = _sqrt_gamma_sum_mellin(1.0, 2.0)
        assert got == pytest.approx(want, rel=1e-10)
        n = 2_000_000
        rng = RngState(80)
        g = rng.generator.standard_gamma(1.0, n) ** 0.5 + rng.generator.standard_gamma(1.0, n) ** 0.5
        se = (g ** 2).std() / math.sqrt(n)
        assert abs((g ** 2).mean() - want) < 4.0 * se

    @pytest.mark.parametrize("a", [1.0, 0.6])
    def test_cor34(self, a):
        rep = verify(cor34_spec(a), 100_000, RngState(81))
        assert rep.passed, rep

    def test_catalog_complete(self):
        assert set(identity_catalog()) == {
            "theorem-a", "theorem-b", "prop-b0", "ab-half", "free",
            "half-gaussian", "cor34",
        }


class TestLemmaDensities:
    def test_proportionality_first_family(self):
        a = 0.7
        coeff = 2.0 * math.exp(gamma_ln(2 * a) - math.log(a) - 2.0 * gamma_ln(a))
        pts = np.concatenate([np.linspace(1.05, 1.95, 10), np.linspace(2.05, 9.0, 10)])
        g = lemma_densities("betastr_g", a, pts)
        f = lemma_densities("betastr_f", a, pts)
        assert max_rel_err(g, coeff * pts ** (a - 1.0) * f) < 1e-8

    def test_proportionality_second_family(self):
        b = 0.3
        coeff = 2.0 * math.exp(gamma_ln(b + 0.5) - 0.5 * math.log(math.pi)
                               - gamma_ln(b + 1.0))
        pts = np.concatenate([np.linspace(1.05, 1.95, 10), np.linspace(2.05, 9.0, 10)])
        g = lemma_densities("betastrb_g", b, pts)
        f = lemma_densities("betastrb_f", b, pts)
        assert max_rel_err(g, coeff * pts ** (-b) * f) < 1e-8

    @pytest.mark.parametrize("kind,param,left_exp,tail_exp", [
        ("betastr_g", 0.7, 2 * 0.7 - 1.0, 2 * 0.7 - 1.0),
        ("betastrb_f", 0.3, 0.0, 2 * 0.3),
    ])
    def test_normalization(self, kind, param, left_exp, tail_exp):
        # substitutions absorb the (x-1)^left_exp endpoint and the
        # x^(-tail_exp-1) tail exactly; only the integrable log point at 2
        # is left to the adaptive pass
        from bpl.quadrature import beta_kernel
        loose = EvalOptions(rel_tol=1e-10, abs_tol=1e-13, max_quad_refinements=90)

        def inner(u):  # x = 1 + u on (1, 2); clamp off the log point at 2
            u = np.clip(u, 1e-250, 1.0 - 1e-10)
            return lemma_densities(kind, param, 1.0 + u) * u ** (-left_exp)

        def outer(v):  # x = 1 + 1/v on (2, inf); clamps keep x in float range
            v = np.clip(v, 1e-140, 1.0 - 1e-10)
            return lemma_densities(kind, param, 1.0 + 1.0 / v) * v ** (1.0 - tail_exp) / (v * v)

        mass = (beta_kernel(inner, left_exp, 0.0, loose)
                + beta_kernel(outer, tail_exp - 1.0, 0.0, loose))
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            lemma_densities("betastr_g", 0.7, 2.0)
        with pytest.raises(DomainError):
            lemma_densities("betastr_g", 0.3, 1.5)
        with pytest.raises(DomainError):
            lemma_densities("betastrb_g", 0.7, 1.5)
        with pytest.raises(DomainError):
            lemma_densities("nope", 0.7, 1.5)
        with pytest.raises(DomainError):
            lemma_densities("betastr_g", 0.7, np.array([1.5, 3.0, 2.0]))


class TestMultiplicativeIdentity:
    def test_pointwise_density_equality(self):
        assert hypergeo_identity_check(1.0, 1.0, 1.0, 1.0) < 1e-9
        assert hypergeo_identity_check(0.8, 0.6, 1.2, 0.9) < 1e-9

    def test_guard(self):
        with pytest.raises(DomainError):
            hypergeo_identity_check(1.0, 3.0, 0.5, 0.5)


class TestScans:
    def test_cjmain_proven_points_pass(self):
        rows = conjecture_cjmain_scan([(0.5, 0.2), (0.8, 0.2)], 30_000, RngState(83))
        for r in rows:
            assert r["proven"]
            assert r["verdict"] == "pass", r
            assert max(r["rep1_relerr"], r["rep2_relerr"]) < 1e-5

    def test_cjmain_verdict_judges_the_representations(self, monkeypatch):
        # a representation error past 1e-5 fails a proven point whose KS
        # and Mellin channels pass
        monkeypatch.setattr(identities, "_cjmain_representation_errors",
                            lambda a, b, s: (2e-5, 1e-14))
        (row,) = conjecture_cjmain_scan([(0.5, 0.2)], 3_000, RngState(83))
        assert row["ks_statistic"] < row["ks_threshold"]
        assert row["mellin_max_relerr"] < 1e-6
        assert row["verdict"] == "fail"

    def test_cjmain_verdict_uses_mellin_rtol(self):
        # theorem-b's 150-node Mellin factor is about 2.3e-8 off at (0.5, 0.2)
        (row,) = conjecture_cjmain_scan([(0.5, 0.2)], 3_000, RngState(83), mellin_rtol=1e-8)
        assert row["mellin_max_relerr"] > 1e-8 and row["verdict"] == "fail"

    def test_cjmain_exploratory_point_recorded(self):
        rows = conjecture_cjmain_scan([(2.0, 0.3)], 20_000, RngState(84))
        assert rows[0]["exploratory"] and rows[0]["verdict"] == ""
        assert np.isfinite(rows[0]["ks_statistic"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [0.01, 0.05, 0.075])
    def test_cjmain_representations_small_b(self, b):
        # the first display once divided by the outer variable v, which
        # reaches 0 at these b
        r1, r2 = _cjmain_representation_errors(0.5, b, min(0.1, 0.8 * b))
        assert r1 < 1e-12 and r2 < 1e-12

    def test_cjmain_domain(self):
        with pytest.raises(DomainError):
            conjecture_cjmain_scan([(0.5, 0.7)], 1000, RngState(85))

    @pytest.mark.parametrize("n, alpha", [(5, 0.01), (0, 0.01), (10, 1e-6)])
    def test_cjmain_n_without_ks_power(self, n, alpha):
        with pytest.raises(DomainError, match="sample size"):
            conjecture_cjmain_scan([(0.5, 0.2)], n, RngState(86), alpha=alpha)

    def test_conjhyp_limits_and_records(self):
        res = conjhyp_integral_check(0.25, [1e-7, 0.5, 0.9])
        # z -> 0: both sides agree after normalization (the deviation of the
        # recorded form is linear in z)
        assert res["by_z"][1e-7] < 1e-6
        # interior: the printed display deviates and the value is recorded
        assert res["by_z"][0.5] > 0.1
        # with the extra 1/(z+1) the two sides coincide
        assert res["max_relerr_with_zp1_factor"] < 1e-9

    def test_conjhyp_log_divergence_regime(self):
        res = conjhyp_integral_check(0.4, [0.9])
        assert math.isfinite(res["max_relerr"])
