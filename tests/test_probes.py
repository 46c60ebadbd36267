"""Probe engine: calibration on canonical functions, the paper-backed positive
and negative verdicts, monotonicity and Turan bounds, orderings, Mill's suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpl.errors import DomainError
from bpl.probes import (
    cm_probe,
    conjecture_cmcj_scan,
    expected_psi_doubling_verdict,
    geometric_grid,
    hermite_doubling,
    hermite_doubling_bounds,
    k0_e1,
    lcm_probe,
    ltmon_property_test,
    mills_suite,
    monotone_probe,
    psi_cc,
    psi_doubling,
    stoo_check,
    stoo_lambda,
    stoo_lambda_cap,
    turan_hermite,
    turan_hermite_bounds,
    turan_psi,
    turan_psi_bounds,
)
from conftest import rel_err

GRID = geometric_grid(1e-2, 50.0, 220)


class TestCalibration:
    # soundness on canonical CM / non-CM inputs across three grid densities
    @pytest.mark.parametrize("npts", [120, 220, 320])
    def test_canonical_verdicts(self, npts):
        grid = geometric_grid(1e-2, 50.0, npts)
        assert cm_probe(lambda z: np.exp(-z), grid, max_order=10).verdict == "holds"
        assert cm_probe(lambda z: 1.0 / (1.0 + z), grid, max_order=10).verdict == "holds"
        r = cm_probe(lambda z: np.sin(z) + 2.0, grid, max_order=6)
        assert r.verdict == "violated"
        assert r.first_violation is not None and r.first_violation[0] in (1, 2)

    @pytest.mark.parametrize("npts", [120, 220, 320])
    def test_lcm_verdicts(self, npts):
        grid = geometric_grid(1e-2, 50.0, npts)
        assert lcm_probe(lambda z: np.exp(-z), grid, max_order=6).verdict == "holds"
        r = lcm_probe(lambda z: (1.0 + z) * np.exp(-z), grid, max_order=6)
        assert r.verdict == "violated"

    def test_monotone_verdicts(self):
        assert monotone_probe(lambda z: 1.0 / (1.0 + z), GRID).verdict == "holds"
        assert monotone_probe(lambda z: np.sin(z) + 2.0, GRID).verdict == "violated"

    def test_max_order_guard(self):
        for probe in (cm_probe, lcm_probe):
            for order in (-1, 11):
                with pytest.raises(DomainError, match="0..10"):
                    probe(lambda z: np.exp(-z), GRID, max_order=order)

    def test_irregular_grid_rejected(self):
        # the sliding-window operators assume a self-similar node layout
        bad = np.sort(np.random.default_rng(0).uniform(0.1, 10.0, 60))
        with pytest.raises(DomainError):
            cm_probe(lambda z: np.exp(-z), bad, max_order=4)


class TestPsiRatios:
    def test_cc_ratio_cm(self):
        assert cm_probe(psi_cc(0.7, 0.3, -0.5), GRID, max_order=6).verdict == "holds"

    def test_cc_ratio_lcm_small_a(self):
        assert lcm_probe(psi_cc(0.5, 0.3, -0.5), GRID, max_order=6).verdict == "holds"

    def test_doubling_positive_points(self):
        assert cm_probe(psi_doubling(0.5, 0.5), GRID, max_order=6).verdict == "holds"
        assert cm_probe(psi_doubling(0.75, 0.75), GRID, max_order=6).verdict == "holds"

    def test_doubling_negative_detection(self):
        # the required counterexample detection for c < 0
        for (a, c) in [(0.7, -0.5), (1.0, -0.8)]:
            r = cm_probe(psi_doubling(a, c), GRID, max_order=8)
            assert r.verdict == "violated"
            assert r.first_violation is not None
            order, z = r.first_violation
            assert order >= 1 and z > 0.0

    def test_doubling_decreasing_on_c_window(self):
        r = monotone_probe(psi_doubling(0.7, 0.75), geometric_grid(1e-2, 20.0, 220))
        assert r.verdict == "holds"


class TestHermiteAndFriends:
    def test_hermite_doubling_cm_and_bounds(self):
        for nu in (0.5, 1.0, 3.0):
            assert cm_probe(hermite_doubling(nu), GRID, max_order=6).verdict == "holds"
        lo, hi = hermite_doubling_bounds(1.0)
        ratio = hermite_doubling(1.0)
        vals = np.array([ratio(z) for z in GRID])
        assert np.all(vals > lo) and np.all(vals < hi)
        # approached within 1% at dedicated extreme points, strict inside
        assert ratio(300.0) < lo * 1.01
        assert ratio(1e-5) > 0.99 * hi

    def test_hermite_doubling_lcm_small_order(self):
        for nu in (0.5, 1.5):
            assert lcm_probe(hermite_doubling(nu), GRID, max_order=6).verdict == "holds"

    def test_k0_e1_cm(self):
        grid = geometric_grid(1e-2, 30.0, 220)
        assert cm_probe(k0_e1(), grid, max_order=6).verdict == "holds"

    def test_turan_hermite_monotone_and_bounds(self):
        grid = np.linspace(-4.0, 6.0, 220)
        for (nu, c) in [(1.3, 0.6), (0.5, 1.0), (2.0, 0.35)]:
            ratio = turan_hermite(nu, c)
            assert monotone_probe(ratio, grid).verdict == "holds"
            lo, hi = turan_hermite_bounds(nu, c)
            vals = np.array([ratio(z) for z in grid])
            assert np.all(vals > lo) and np.all(vals < hi)
            assert ratio(25.0) < lo * 1.01 and ratio(-17.0) > 0.99 * hi

    def test_turan_psi_monotone_and_bounds(self):
        ratio = turan_psi(0.5, 0.3, 0.4)
        assert monotone_probe(ratio, GRID).verdict == "holds"
        lo, hi = turan_psi_bounds(0.3, 0.4)
        vals = np.array([ratio(z) for z in GRID])
        assert np.all(vals > lo) and np.all(vals < hi)
        assert ratio(1e-5) > 0.99 * hi and ratio(3000.0) < lo * 1.01

    def test_bound_constants_are_gamma_ratios(self):
        # closed forms of the sharp bounds, frozen against direct log-gamma sums
        lo, hi = turan_psi_bounds(0.3, 0.4)
        want = math.exp(math.lgamma(0.7) + math.lgamma(1.5) - 2.0 * math.lgamma(1.1))
        assert lo == 1.0 and abs(hi - want) < 1e-10 * want
        lo, hi = turan_hermite_bounds(1.3, 0.6)
        want = math.exp(math.lgamma(1.3) + math.lgamma(2.5) - 2.0 * math.lgamma(1.9))
        assert abs(hi - want) < 1e-10 * want
        lo, hi = hermite_doubling_bounds(1.0)
        want = math.exp(2.0 * math.lgamma(0.5) + math.lgamma(2.0)
                        - 3.0 * math.lgamma(1.0)) / 2.0
        assert abs(hi - want) < 1e-10 * want


class TestLtMon:
    def test_closed_form_pair(self):
        # f = 2x, g = 1 on (0,1): increasing ratio implies decreasing LT ratio
        r = ltmon_property_test(lambda x: 2.0 * np.asarray(x),
                                lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                (0.0, 1.0), 2.0, np.linspace(0.1, 10.0, 12))
        assert r.verdict == "holds"
        assert r.details["hypothesis"] is True

    def test_vacuous_pair_skipped(self):
        # non-monotone ratio: the implication is not asserted
        r = ltmon_property_test(lambda x: 1.5 - np.abs(np.asarray(x) - 0.5),
                                lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                (0.0, 1.0), 2.0, np.linspace(0.1, 5.0, 8))
        assert r.verdict == "inconclusive"
        assert r.details["hypothesis"] is False

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.3, 3.0), q=st.floats(0.0, 2.5))
    def test_power_density_family(self, p, q):
        # x^p / x^q on (0,1) has monotone ratio iff p >= q; normalize both
        if p < q:
            p, q = q, p
        f = lambda x: (p + 1.0) * np.asarray(x, dtype=float) ** p
        g = lambda x: (q + 1.0) * np.asarray(x, dtype=float) ** q
        r = ltmon_property_test(f, g, (0.0, 1.0), 1.5, np.linspace(0.2, 8.0, 8))
        assert r.verdict == "holds"


class TestStoo:
    def test_constants(self):
        assert abs(stoo_lambda_cap(0.5, 1.0) - 1.0) < 1e-12
        assert abs(stoo_lambda_cap(2.0, 1.0) - 1.0) < 1e-12
        rng = np.random.default_rng(3)
        for _ in range(12):
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.2, 3.0))
            assert stoo_lambda(a, b) < 1.0

    def test_dominance_holds_below_one(self):
        for (a, b) in [(1.0, 0.8), (0.5, 0.5)]:
            r = stoo_check(a, b)
            assert r.verdict == "holds"
            assert r.details["crossings"] == 1

    def test_dominance_fails_above_one(self):
        for (a, b) in [(1.0, 2.0), (0.5, 1.5)]:
            r = stoo_check(a, b)
            assert r.verdict == "holds"  # the expected failure was found
            assert r.details["witness"] is not None


@pytest.fixture(scope="module")
def suite():
    return mills_suite()


class TestMillsSuite:

    def test_barr_shapes(self, suite):
        for key in ("barr-a-0.0", "barr-a-0.5", "barr-a-1.0",
                    "barr-b-0.0", "barr-b-1.0", "barr-b-2.0"):
            assert suite[key].verdict == "holds", key

    def test_sampford(self, suite):
        assert suite["sampford"].verdict == "holds"
        assert suite["sampford"].details["margin"] > 0.0

    def test_sampford_at_zero(self):
        from bpl.special import mills_ratio
        assert mills_ratio(0.0) < 4.0 / math.sqrt(8.0)

    def test_inverse_convexity(self, suite):
        assert suite["inverse-convexity"].verdict == "holds"

    def test_turan_chain(self, suite):
        assert suite["turan-chain"].verdict == "holds"
        assert suite["turan-chain"].details["min"] > 1.0

    def test_cmmill_probes(self, suite):
        for n in (0, 1, 2):
            assert suite[f"cmmill-{n}"].verdict == "holds"
        for n in (0, 1):
            assert suite[f"cmmill-lcm-{n}"].verdict == "holds"

    def test_cmmi_scan_recorded(self, suite):
        for n in (0, 1, 2):
            assert suite[f"cmmi-scan-{n}"].verdict in ("holds", "inconclusive")


class TestCmcjScan:
    def test_expected_pattern(self):
        rows = conjecture_cmcj_scan([0.5, 0.7], [-0.5, 0.5],
                                    geometric_grid(1e-2, 50.0, 200))
        for r in rows:
            if r["expected"] is not None:
                assert r["verdict"] == r["expected"], r

    def test_catalog(self):
        assert expected_psi_doubling_verdict(0.7, -0.5) == "violated"
        assert expected_psi_doubling_verdict(0.5, 0.5) == "holds"
        assert expected_psi_doubling_verdict(0.9, 0.9) == "holds"
        assert expected_psi_doubling_verdict(1.3, 0.2) is None


class TestReadmeProbeRegression:
    """Per-order n_ok of the README probe commands, pinned: the whole-grid
    evaluation must reproduce the grid-point-by-point sign tables exactly."""

    def test_psi_doubling_not_cm(self):
        r = cm_probe(psi_doubling(0.7, -0.5), GRID, max_order=8)
        assert r.verdict == "violated"
        assert r.sign_table.shape == (9, 196)
        assert r.sign_table.sum(axis=1).tolist() == [196, 196, 158, 134, 121, 112, 106, 100, 96]

    def test_hermite_doubling_cm(self):
        r = cm_probe(hermite_doubling(1.0), GRID, max_order=8)
        assert r.verdict == "holds"
        assert r.sign_table.sum(axis=1).tolist() == [196] * 9
        lo, hi = hermite_doubling_bounds(1.0)
        assert np.all(r.details["values"] > lo) and np.all(r.details["values"] < hi)

    def test_turan_psi_monotone(self):
        r = monotone_probe(turan_psi(0.5, 0.3, 0.4), GRID)
        assert r.verdict == "holds"
        assert r.sign_table.sum(axis=1).tolist() == [196]

    def test_grid_values_match_pointwise(self):
        ratio = turan_psi(0.5, 0.3, 0.4)
        r = monotone_probe(ratio, GRID)
        want = np.array([ratio(float(z)) for z in GRID])
        assert np.all(np.abs(r.details["values"] - want) <= 1e-14 * np.abs(want))
