"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here exactly as stated in the criteria.
"""

import math
import time

import numpy as np
import pytest

from bpl.cli import main as cli_main
from bpl.convolution import (
    SumSpec,
    sum_density_2f1,
    sum_density_appell,
    sum_density_pfaff1,
    sum_density_pfaff2,
)
from bpl.distributions import BetaPrimeParams, RngState
from bpl.identities import (
    ab_half_spec,
    conjecture_cjmain_scan,
    cor34_spec,
    free_spec,
    half_gaussian_spec,
    lemma_densities,
    prop_b0_spec,
    theorem_a_spec,
    theorem_b_spec,
    verify,
)
from bpl.options import EvalOptions
from bpl.probes import (
    cm_probe,
    conjecture_cmcj_scan,
    geometric_grid,
    hermite_doubling,
    hermite_doubling_bounds,
    k0_e1,
    lcm_probe,
    mills_suite,
    monotone_probe,
    psi_cc,
    psi_doubling,
    stoo_check,
    stoo_lambda_cap,
    turan_hermite,
    turan_hermite_bounds,
    turan_psi,
    turan_psi_bounds,
)
from bpl.quadrature import beta_kernel
from bpl.special import gamma_ln, gamma_ratio, mills_ratio, mills_ratio_deriv
from bpl.thorin import ThorinParams, awk_density, thorin_cdf, thorin_cdf_a1

N_SAMPLES = 100_000
ALPHA = 0.01
MELLIN_RTOL = 1e-6
GRID = geometric_grid(1e-2, 50.0, 220)


def _report(num: int, desc: str, ok: bool):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_theorem_a():
    ok = True
    for i, a in enumerate((0.3, 1.0, 2.5)):
        t0 = time.monotonic()
        rep = verify(theorem_a_spec(a), N_SAMPLES, RngState(1001 + i),
                     alpha=ALPHA, mellin_rtol=MELLIN_RTOL)
        elapsed = time.monotonic() - t0
        ok &= rep.passed and rep.mellin_max_relerr < MELLIN_RTOL and elapsed < 60.0
    _report(1, "theorem-a verify (KS + 5-point Mellin grid) at a in {0.3, 1, 2.5}, "
               "< 60 s per point", ok)


def test_criterion_02_theorem_b():
    ok = True
    for i, (a, b) in enumerate(((0.5, 0.2), (0.5, 0.4), (0.7, 0.3), (0.9, 0.1))):
        rep = verify(theorem_b_spec(a, b), N_SAMPLES, RngState(1101 + i),
                     alpha=ALPHA, mellin_rtol=MELLIN_RTOL)
        ok &= rep.passed and rep.mellin_max_relerr < MELLIN_RTOL
    _report(2, "theorem-b verify on both proven branches (4 parameter points)", ok)


def test_criterion_03_remaining_identities():
    specs = [
        prop_b0_spec(1.0, 0.5, 1.5), prop_b0_spec(0.6, 0.8, 2.0),
        ab_half_spec(0.25), ab_half_spec(0.1),
        free_spec(1.0, 1.0, 1.0, 1.0), free_spec(0.8, 0.6, 1.2, 0.9),
        half_gaussian_spec(0.5), half_gaussian_spec(2.0),
        cor34_spec(1.0), cor34_spec(0.6),
    ]
    ok = True
    for i, spec in enumerate(specs):
        rep = verify(spec, N_SAMPLES, RngState(1301 + i),
                     alpha=ALPHA, mellin_rtol=MELLIN_RTOL)
        ok &= rep.passed
    _report(3, "prop-b0 / ab-half / free / half-gaussian / cor34 at two "
               "parameter points each", ok)


def test_criterion_04_lemma_density_ledgers():
    pts = np.concatenate([np.linspace(1.04, 1.96, 10), np.geomspace(2.05, 25.0, 10)])
    a = 0.7
    ca = 2.0 * math.exp(gamma_ln(2 * a) - math.log(a) - 2.0 * gamma_ln(a))
    g = lemma_densities("betastr_g", a, pts)
    ok = bool(np.all(np.abs(g - ca * pts ** (a - 1.0) * lemma_densities("betastr_f", a, pts))
                     <= 1e-8 * g))
    b = 0.3
    cb = 2.0 * math.exp(gamma_ln(b + 0.5) - 0.5 * math.log(math.pi) - gamma_ln(b + 1.0))
    g = lemma_densities("betastrb_g", b, pts)
    ok &= bool(np.all(np.abs(g - cb * pts ** (-b) * lemma_densities("betastrb_f", b, pts))
                      <= 1e-8 * g))
    _report(4, "auxiliary density proportionality constants at 20 points per "
               "branch within 1e-8", ok)


def test_criterion_05_convolution_forms():
    rng = np.random.default_rng(1234)
    ok = True
    for _ in range(50):
        a = float(rng.uniform(0.25, 2.2))
        b = float(rng.uniform(0.25, 2.2))
        x = float(rng.uniform(0.05, 25.0))
        p = BetaPrimeParams(a, b)
        spec = SumSpec(1.0, p, 1.0, p)
        vals = [sum_density_2f1(p, x), sum_density_pfaff1(p, x),
                sum_density_pfaff2(p, x), sum_density_appell(spec, x)]
        ref = vals[0]
        ok &= all(abs(v - ref) <= 1e-8 * abs(ref) for v in vals[1:])
    # normalization within 1e-8 through the exact substitution y = x/(x+2)
    from bpl.special import gauss_2f1
    for (a, b) in ((0.6, 0.8), (1.3, 0.45)):
        pref = math.exp(2.0 * a * math.log(2.0) + 2.0 * gamma_ln(a + b)
                        - gamma_ln(2.0 * a) - 2.0 * gamma_ln(b))

        def smooth(y, a=a, b=b):
            return (1.0 + y) ** (-b) * gauss_2f1(0.5 - b, a, a + 0.5, y ** 2)

        mass = pref * beta_kernel(smooth, 2.0 * a - 1.0, b - 1.0,
                                  EvalOptions(rel_tol=1e-10, max_quad_refinements=90))
        ok &= abs(mass - 1.0) <= 1e-8
    _report(5, "four density forms pairwise within 1e-8 on 50 random triples; "
               "normalization within 1e-8", ok)


def test_criterion_06_cm_positive_suite():
    ok = True
    # quotient with shifted second parameter: CM for c' < c < 1
    for (a, c, cp) in ((0.7, 0.3, -0.5), (1.5, 0.8, 0.1), (2.5, -0.2, -1.0)):
        ok &= cm_probe(psi_cc(a, c, cp), GRID, max_order=6).verdict == "holds"
    # same quotient is LCM for a <= 1
    for (a, c, cp) in ((0.5, 0.3, -0.5), (1.0, 0.6, 0.2)):
        ok &= lcm_probe(psi_cc(a, c, cp), GRID, max_order=6).verdict == "holds"
    # doubling ratio of Hermite functions: CM for every order
    for nu in (0.5, 1.0, 3.0):
        ok &= cm_probe(hermite_doubling(nu), GRID, max_order=6).verdict == "holds"
    # and LCM for orders up to 2
    for nu in (0.5, 1.5):
        ok &= lcm_probe(hermite_doubling(nu), GRID, max_order=6).verdict == "holds"
    # proven doubling-ratio points
    ok &= cm_probe(psi_doubling(0.5, 0.5), GRID, max_order=6).verdict == "holds"
    ok &= cm_probe(psi_doubling(0.75, 0.75), GRID, max_order=6).verdict == "holds"
    # Macdonald-over-exponential-integral ratio
    ok &= cm_probe(k0_e1(), geometric_grid(1e-2, 30.0, 220), max_order=6).verdict == "holds"
    _report(6, "CM/LCM positive probes hold to order >= 6 on z in [1e-2, 50]", ok)


def test_criterion_07_cm_negative_detection():
    ok = True
    for (a, c) in ((0.7, -0.5), (1.0, -0.8)):
        r = cm_probe(psi_doubling(a, c), GRID, max_order=8)
        ok &= r.verdict == "violated" and r.first_violation is not None
        if r.first_violation:
            order, z = r.first_violation
            ok &= order >= 1 and z > 0.0
    _report(7, "doubling ratio with negative second parameter detected as NOT CM, "
               "witness located", ok)


def test_criterion_08_monotonicity_turan():
    ok = True
    # doubling ratio decreases for c in [1/2, 1]
    ok &= monotone_probe(psi_doubling(0.7, 0.75),
                         geometric_grid(1e-2, 20.0, 220)).verdict == "holds"
    ok &= monotone_probe(psi_doubling(1.2, 0.5),
                         geometric_grid(1e-2, 20.0, 220)).verdict == "holds"
    # Turan-type Hermite ratios decrease on [-4, 6], with sharp bounds
    rgrid = np.linspace(-4.0, 6.0, 220)
    for (nu, c) in ((1.3, 0.6), (0.5, 1.0), (2.0, 0.35)):
        r = monotone_probe(turan_hermite(nu, c), rgrid)
        ok &= r.verdict == "holds"
        lo, hi = turan_hermite_bounds(nu, c)
        vals = r.details["values"]
        ok &= bool(np.all(vals > lo) and np.all(vals < hi))
    # Turan-type confluent ratio decreases with sharp bounds
    r = monotone_probe(turan_psi(0.5, 0.3, 0.4), GRID)
    ok &= r.verdict == "holds"
    lo, hi = turan_psi_bounds(0.3, 0.4)
    vals = r.details["values"]
    ok &= bool(np.all(vals > lo) and np.all(vals < hi))
    # doubling-ratio bounds
    lo, hi = hermite_doubling_bounds(1.0)
    vals = hermite_doubling(1.0)(GRID)
    ok &= bool(np.all(vals > lo) and np.all(vals < hi))
    # bound constants match their gamma-ratio closed forms to 1e-10
    ok &= abs(turan_psi_bounds(0.3, 0.4)[1]
              - gamma_ratio([0.7, 1.5], [1.1, 1.1])) <= 1e-10
    ok &= abs(turan_hermite_bounds(1.3, 0.6)[1]
              - gamma_ratio([1.3, 2.5], [1.9, 1.9])) <= 1e-10
    ok &= abs(hermite_doubling_bounds(1.0)[1]
              - gamma_ratio([0.5, 0.5, 2.0], [1.0, 1.0, 1.0]) / 2.0) <= 1e-10
    _report(8, "monotonicity and Turan bounds hold strictly; bound constants "
               "match Gamma formulas to 1e-10", ok)


def test_criterion_09_stochastic_ordering():
    ok = True
    for (a, b) in ((1.0, 0.8), (0.5, 0.5)):
        r = stoo_check(a, b)
        ok &= r.verdict == "holds" and r.details["crossings"] == 1
    for (a, b) in ((1.0, 2.0), (0.5, 1.5)):
        r = stoo_check(a, b)
        ok &= r.verdict == "holds" and r.details.get("witness") is not None
    ok &= abs(stoo_lambda_cap(0.5, 1.0) - 1.0) <= 1e-12
    ok &= abs(stoo_lambda_cap(2.0, 1.0) - 1.0) <= 1e-12
    _report(9, "single crossing + dominance for b <= 1, dominance failure "
               "witness for b > 1, unit limit constant to 1e-12", ok)


def test_criterion_10_thorin_suite():
    p = ThorinParams(0.5, 0.5)
    ts = np.geomspace(1e-3, 1e3, 25)
    cdf = [thorin_cdf(p, float(t)) for t in ts]
    ok = all(b >= a for a, b in zip(cdf, cdf[1:]))
    ok &= abs(cdf[-1] - 1.0) <= 1e-4  # total mass
    # ordering in the second parameter on a 3x3x3 grid (non-increasing: the
    # Levy-measure difference must stay positive)
    for a in (0.3, 0.6, 0.9):
        for t in (0.5, 2.0, 8.0):
            c = [thorin_cdf(ThorinParams(a, x), t) for x in (0.4, 1.0, 2.5)]
            ok &= c[0] >= c[1] - 1e-9 >= c[2] - 2e-9
    # small-a gamma limit
    import mpmath as mp
    pa = ThorinParams(0.01, 0.5)
    for t in (0.5, 2.0):
        ok &= abs(thorin_cdf(pa, t) - float(mp.gammainc(0.5, 0, t, regularized=True))) <= 2e-2
    # Frullani case consistent with a = 0.99
    for t in (0.5, 2.0):
        ok &= abs(thorin_cdf_a1(0.5, t) - thorin_cdf(ThorinParams(0.99, 0.5), t)) <= 2e-2
    # symmetrized density: normalized and Gaussian-limiting
    from bpl.quadrature import integrate
    half = integrate(lambda t: awk_density(1.0, t), 1e-6, np.inf,
                     EvalOptions(rel_tol=1e-6, abs_tol=1e-9, max_quad_refinements=60))
    ok &= abs(2.0 * half - 1.0) <= 1e-4
    ts = np.array([0.0, 1.0])
    want = np.exp(-ts * ts / 2.0) / math.sqrt(2.0 * math.pi)
    ok &= bool(np.all(np.abs(awk_density(0.02, ts) - want) <= 2e-2))
    _report(10, "Thorin suite: monotone unit-mass cdf, x-ordering grid, gamma "
                "limit, Frullani consistency, symmetrized density", ok)


def test_criterion_11_mills_ratio():
    suite = mills_suite()
    sx = np.linspace(-1.0 + 1e-9, 30.0, 200)
    ok = all(mills_ratio(float(x)) < 4.0 / (3.0 * float(x) + math.sqrt(float(x) ** 2 + 8.0))
             for x in sx)
    conv = [2.0 * mills_ratio_deriv(1, float(x)) ** 2
            - mills_ratio(float(x)) * mills_ratio_deriv(2, float(x))
            for x in np.linspace(-10.0, 10.0, 201)]
    ok &= all(v > 0.0 for v in conv)
    for key in ("barr-a-0.0", "barr-a-0.5", "barr-a-1.0",
                "barr-b-0.0", "barr-b-1.0", "barr-b-2.0",
                "cmmill-0", "cmmill-1", "cmmill-2",
                "cmmill-lcm-0", "cmmill-lcm-1", "turan-chain"):
        ok &= suite[key].verdict == "holds"
    _report(11, "Sampford bound on 200 points, 1/r convexity, power-weighted "
                "shape patterns, CM probes of the derivative ratios", ok)


def test_criterion_12_scans_and_exit_contract(tmp_path):
    ok = True
    # square-root construction scan: proven points pass, open point recorded
    rows = conjecture_cjmain_scan([(0.5, 0.2), (0.8, 0.2), (2.0, 0.3)],
                                  30_000, RngState(1401))
    for r in rows:
        if r["proven"]:
            ok &= r["verdict"] == "pass"
        else:
            ok &= r["verdict"] == "" and r["exploratory"]
    # doubling-ratio scan follows the proven pattern
    for r in conjecture_cmcj_scan([0.6], [-0.5, 0.5], GRID):
        if r["expected"] is not None:
            ok &= r["verdict"] == r["expected"]
    # the no-square-root derivative scan runs to completion, verdicts recorded
    suite = mills_suite()
    ok &= all(suite[f"cmmi-scan-{n}"].verdict in ("holds", "violated", "inconclusive")
              for n in (0, 1, 2))
    # ordering-in-a scan runs through the CLI
    code = cli_main(["scan", "thorin-order", "--a", "0.3,0.6", "--b", "0.5",
                     "--t", "0.5:4:3", "--out", str(tmp_path / "to.csv")])
    ok &= code == 0
    # CI negative control: a perturbed identity must exit 1
    code = cli_main(["verify", "theorem-a", "--a", "1.0", "--n", "50000",
                     "--seed", "42", "--negative-control", "1.1",
                     "--out", str(tmp_path / "nc.csv")])
    ok &= code == 1
    _report(12, "conjecture scans complete with PASS flags on proven subcases "
                "and exploratory rows; exit-code contract honored", ok)
