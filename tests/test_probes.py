"""Probe engine: calibration on canonical functions, the paper-backed positive
and negative verdicts, monotonicity and Turan bounds, orderings, Mill's suite."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as _cheb

from bpl import probes
from bpl.errors import DomainError
from bpl.probes import (
    cm_probe,
    conjecture_cmcj_scan,
    expected_psi_doubling_verdict,
    geometric_grid,
    hermite_doubling,
    hermite_doubling_bounds,
    k0_e1,
    kumma_ratio,
    lcm_probe,
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


def _log_taylor_table_loop(zs, fs, max_order):
    """Reference: the fit one window, one order and one Chebyshev basis vector
    at a time, as probes._log_taylor_table computed it before its whole-grid
    form."""
    hs = np.log(fs)
    width, degree = probes._WINDOW, probes._DEGREE
    t0 = zs[:width]
    xi = 2.0 * (t0 - t0[0]) / (t0[-1] - t0[0]) - 1.0
    vand = _cheb.chebvander(xi, degree)
    pinv = np.linalg.pinv(vand)
    center = width // 2
    eye = np.eye(degree + 1)
    rows = []
    for order in range(max_order + 1):
        der = np.stack([_cheb.chebval(xi[center], _cheb.chebder(eye[:, j], order))
                        for j in range(degree + 1)])
        rows.append(der @ pinv)
    rows = np.array(rows)
    row_norms = np.linalg.norm(rows, axis=1)
    m = zs.size - width + 1
    centers = np.empty(m)
    dh = np.empty((max_order + 1, m))
    floors = np.empty((max_order + 1, m))
    for i in range(m):
        z_win = zs[i:i + width]
        h_win = hs[i:i + width]
        half = 0.5 * (z_win[-1] - z_win[0])
        coef = pinv @ h_win
        resid = h_win - vand @ coef
        scale = max(float(np.sqrt(np.mean(resid ** 2))), 3e-14)
        centers[i] = z_win[center]
        for k in range(max_order + 1):
            fac = half ** (-k)
            dh[k, i] = float(rows[k] @ h_win) * fac
            floors[k, i] = scale * row_norms[k] * fac
    return centers, dh, floors


def _exp_series_loop(coeffs):
    """Reference: power-series coefficients of exp(sum_k c_k x^k), one term at
    a time."""
    m = coeffs.size
    out = np.zeros(m)
    out[0] = 1.0
    for n in range(1, m):
        acc = 0.0
        for k in range(1, n + 1):
            acc += k * coeffs[k] * out[n - k]
        out[n] = acc / n
    return out


def _f_taylor_with_floors_loop(dh, floors):
    """Reference: probes._f_taylor_with_floors one center at a time."""
    orders = dh.shape[0]
    hmat = dh / np.array([math.factorial(k) for k in range(orders)])[:, None]
    fmat = floors / np.array([math.factorial(k) for k in range(orders)])[:, None]
    m = dh.shape[1]
    fc = np.empty((orders, m))
    fl = np.empty((orders, m))
    for i in range(m):
        base = _exp_series_loop(np.abs(hmat[:, i]))
        bumped = _exp_series_loop(np.abs(hmat[:, i]) + fmat[:, i])
        fc[:, i] = _exp_series_loop(hmat[:, i])
        fl[:, i] = np.maximum(bumped - base, 1e-18 * base)
    return fc, fl


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


class TestWholeGridFit:
    """The whole-grid fit against its window-by-window reference: the matrix
    products round differently from the per-window dot products, so the
    derivatives may move by a fraction of a noise floor, and nothing else."""

    TARGETS = {
        "exp": (lambda z: np.exp(-z), False),
        "inverse": (lambda z: 1.0 / (1.0 + z), False),
        "sin": (lambda z: np.sin(z) + 2.0, False),
        "psi-doubling": (psi_doubling(0.7, -0.5), False),
        "turan-hermite": (turan_hermite(1.3, 0.6), True),
    }

    @pytest.mark.parametrize("npts", [120, 220, 320])
    @pytest.mark.parametrize("name", list(TARGETS))
    def test_matches_window_loop(self, name, npts):
        f, uniform = self.TARGETS[name]
        zs = np.linspace(-4.0, 6.0, npts) if uniform else geometric_grid(1e-2, 50.0, npts)
        fs = f(zs)
        want_c, want_dh, want_fl = _log_taylor_table_loop(zs, fs, 10)
        centers, dh, floors = probes._log_taylor_table(zs, fs, 10)
        assert np.array_equal(centers, want_c)
        assert np.all(np.abs(dh - want_dh) <= want_fl)
        assert np.all(np.abs(floors - want_fl) <= 1e-12 * want_fl)
        # the Taylor rebuild on equal inputs, and the signs the chain gives
        want_fc, want_ffl = _f_taylor_with_floors_loop(want_dh, want_fl)
        fc, ffl = probes._f_taylor_with_floors(want_dh, want_fl)
        assert np.all(np.abs(fc - want_fc) <= 1e-12 * np.abs(want_fc))
        assert np.all(np.abs(ffl - want_ffl) <= 1e-12 * want_ffl)
        alt = ((-1.0) ** np.arange(11))[:, None]
        fc, ffl = probes._f_taylor_with_floors(dh, floors)
        assert np.array_equal(alt * fc >= -probes._SAFETY * ffl,
                              alt * want_fc >= -probes._SAFETY * want_ffl)


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
        results = {nu: cm_probe(hermite_doubling(nu), GRID, max_order=6) for nu in (0.5, 1.0, 3.0)}
        assert all(r.verdict == "holds" for r in results.values())
        lo, hi = hermite_doubling_bounds(1.0)
        ratio = hermite_doubling(1.0)
        vals = results[1.0].details["values"]
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
            r = monotone_probe(ratio, grid)
            assert r.verdict == "holds"
            lo, hi = turan_hermite_bounds(nu, c)
            vals = r.details["values"]
            assert np.all(vals > lo) and np.all(vals < hi)
            assert ratio(25.0) < lo * 1.01 and ratio(-17.0) > 0.99 * hi

    def test_turan_psi_monotone_and_bounds(self):
        ratio = turan_psi(0.5, 0.3, 0.4)
        r = monotone_probe(ratio, GRID)
        assert r.verdict == "holds"
        lo, hi = turan_psi_bounds(0.3, 0.4)
        vals = r.details["values"]
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
            # a whole-grid shape check: one flag, reported on the full grid
            assert suite[key].grid.size == 400 and suite[key].sign_table.shape == (1, 1), key

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

    @pytest.mark.parametrize("c, n_ok", [
        (-0.5, [176, 176, 143, 121, 109, 101, 95]),
        (0.2, [176] * 7),
        (0.5, [176] * 7),
        (1.1, [176] * 7),
    ])
    def test_scan_cmcj(self, c, n_ok):
        # the probes of scan cmcj --a 0.7 --c=-0.5,0.2,0.5,1.1
        r = cm_probe(psi_doubling(0.7, c), geometric_grid(1e-2, 50.0, 200), max_order=6)
        assert r.verdict == ("violated" if c < 0.0 else "holds")
        assert r.sign_table.sum(axis=1).tolist() == n_ok

    def test_scan_kumma(self):
        # the probe of scan kumma --a 0.6 --c 0.5 --c-prime 0.1
        r = cm_probe(kumma_ratio(0.6, 0.5, 0.1), geometric_grid(1e-2, 50.0, 200), max_order=6)
        assert r.verdict == "holds"
        assert r.sign_table.sum(axis=1).tolist() == [176] * 7

    def test_mills_suite_probes(self, suite):
        for key in ("cmmill-0", "cmmill-1", "cmmill-2",
                    "cmmi-scan-0", "cmmi-scan-1", "cmmi-scan-2"):
            assert suite[key].sign_table.sum(axis=1).tolist() == [176] * 7, key
        for key in ("cmmill-lcm-0", "cmmill-lcm-1"):
            assert suite[key].sign_table.sum(axis=1).tolist() == [176] * 5, key

    def test_grid_values_match_pointwise(self):
        ratio = turan_psi(0.5, 0.3, 0.4)
        r = monotone_probe(ratio, GRID)
        want = np.array([ratio(float(z)) for z in GRID])
        assert np.all(np.abs(r.details["values"] - want) <= 1e-14 * np.abs(want))
