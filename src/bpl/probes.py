"""Numerical probes for complete monotonicity, log-complete monotonicity,
monotonicity, Turan-type bounds and stochastic orderings of special-function
ratios.

Derivatives are extracted from sliding Chebyshev fits (degree 12 over windows
of 25 grid points) rather than repeated finite differences; every verdict is
gated by a noise floor calibrated from the fit residuals, and a probe never
reports a violation whose magnitude is inside that floor.

Probe targets are vectorized: a target maps the whole z-grid (an array) to an
array of values in one call, and a scalar z to a float. The ratio builders
below return such targets, built on the array-first special functions.

The fit is whole-grid as well: every window is a row of a sliding-window view
of log f, so the fits, residual floors and derivative tables of all windows
are matrix products, and the Taylor rebuild of f runs on every center at
once. The only loops left run over the derivative orders (at most 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev as _cheb

from .convolution import sum_density_2f1
from .distributions import BetaPrimeParams, betaprime_pdf
from .errors import DomainError
from .quadrature import integrate
from .special import (
    expint_e1,
    gamma_ratio,
    hermite_h_neg,
    macdonald_k0,
    mills_ratio,
    mills_ratio_deriv,
    parabolic_d,
    tricomi_psi,
)

__all__ = [
    "ProbeResult",
    "geometric_grid",
    "cm_probe",
    "lcm_probe",
    "monotone_probe",
    "psi_cc",
    "psi_doubling",
    "kumma_ratio",
    "hermite_doubling",
    "k0_e1",
    "turan_hermite",
    "turan_psi",
    "stoo_check",
    "mills_suite",
    "conjecture_cmcj_scan",
    "expected_psi_doubling_verdict",
]


@dataclass
class ProbeResult:
    """The record a probe returns."""

    orders_checked: int
    grid: np.ndarray
    sign_table: np.ndarray  # (orders+1, npoints) booleans, True = consistent
    first_violation: tuple[int, float] | None
    verdict: str  # "holds" | "violated" | "inconclusive"
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "holds"


_WINDOW = 25
_DEGREE = 12
_SAFETY = 4.0       # sign slack in units of the noise floor
_VIOLATION = 12.0   # a real counterexample must clear this many floors


def geometric_grid(lo: float = 1e-2, hi: float = 50.0, n: int = 220) -> np.ndarray:
    if not 0.0 < lo < hi:
        raise DomainError("need 0 < lo < hi")
    return np.geomspace(lo, hi, n)


def _eval_grid(f, zs) -> np.ndarray:
    vals = np.broadcast_to(np.asarray(f(zs), dtype=float), zs.shape)
    if not np.all(np.isfinite(vals)):
        raise DomainError("probe target not finite on the grid")
    return vals


def _window_operators(zs: np.ndarray, max_order: int):
    """Linear maps from window values to the centered Taylor derivatives.

    Windows of a geometric (or uniform) grid share one normalized node layout,
    so the pseudo-inverse is built once; only the length scale varies. Returns
    the derivative rows (row k takes a window to its k-th derivative at the
    center, per half-width^k), the Chebyshev Vandermonde matrix and its
    pseudo-inverse.
    """
    n = zs.size
    if n < _WINDOW:
        raise DomainError(f"grid too short: need at least {_WINDOW} points")
    d = np.diff(zs)
    uniform = np.allclose(d, d[0], rtol=1e-9, atol=0.0)
    geometric = zs[0] > 0.0 and np.allclose(zs[1:] / zs[:-1], zs[1] / zs[0], rtol=1e-9)
    if not (uniform or geometric):
        raise DomainError("probe grids must be uniform or geometric")
    t0 = zs[:_WINDOW]
    xi = 2.0 * (t0 - t0[0]) / (t0[-1] - t0[0]) - 1.0
    vand = _cheb.chebvander(xi, _DEGREE)
    pinv = np.linalg.pinv(vand)
    # column j of der is the k-th derivative of T_j; chebder(eye, k) is k
    # single steps, so each order takes one more step from the last
    der, rows = np.eye(_DEGREE + 1), []
    for _ in range(max_order + 1):
        rows.append(_cheb.chebval(xi[_WINDOW // 2], der))
        der = _cheb.chebder(der)
    return np.array(rows) @ pinv, vand, pinv


def _log_taylor_table(zs: np.ndarray, fs: np.ndarray, max_order: int):
    """Centered derivatives of h = log f with residual-calibrated noise floors.

    Fitting the logarithm keeps the window dynamic range tame for both
    exponential and algebraic decay; returns (centers, dh[k, i], floors[k, i])
    for k = 0..max_order, every window i of the grid in one matrix product.
    """
    if np.any(fs <= 0.0):
        raise DomainError("probe target must be positive on the grid")
    rows, vand, pinv = _window_operators(zs, max_order)
    h_win = sliding_window_view(np.log(fs), _WINDOW)
    z_win = sliding_window_view(zs, _WINDOW)
    # stacked per-window fits, (m, 25, 1): each residual rounds as one
    # window's fit does, so the noise floors do not depend on the grid size
    coef = pinv @ h_win[:, :, None]
    resid = h_win - (vand @ coef)[:, :, 0]
    scale = np.maximum(np.sqrt(np.mean(resid ** 2, axis=1)), 3e-14)
    half = 0.5 * (z_win[:, -1] - z_win[:, 0])
    row_norms = np.linalg.norm(rows, axis=1)[:, None]
    with np.errstate(over="ignore"):
        fac = half ** -np.arange(max_order + 1.0)[:, None]
        table = (rows @ h_win.T) * fac, scale * row_norms * fac
    return (z_win[:, _WINDOW // 2], *_in_range(zs, max_order, *table))


def _in_range(zs: np.ndarray, order: int, values: np.ndarray, floors: np.ndarray):
    """(values, floors) if they and _VIOLATION floors are finite, else a
    DomainError: a window's k-th derivatives scale as its half-width^-k."""
    with np.errstate(over="ignore"):
        if np.all(np.isfinite(values)) and np.all(np.isfinite(_VIOLATION * floors)):
            return values, floors
    half = 0.5 * np.min(np.abs(zs[_WINDOW - 1:] - zs[:1 - _WINDOW]))
    raise DomainError(f"probe window of half-width {half:.3g} is too narrow for derivatives "
                      f"of order {order}: they overflow a double")


def _exp_series(coeffs: np.ndarray) -> np.ndarray:
    """Power-series coefficients of exp(sum_k c_k x^k), c_0 ignored, for
    every column of coeffs (one series per column)."""
    k = np.arange(coeffs.shape[0], dtype=float)[:, None]
    out = np.zeros(coeffs.shape)
    out[0] = 1.0
    for n in range(1, coeffs.shape[0]):
        out[n] = np.sum(k[1:n + 1] * coeffs[1:n + 1] * out[n - 1::-1], axis=0) / n
    return out


def _f_taylor_with_floors(dh: np.ndarray, floors: np.ndarray):
    """Taylor coefficients of f/f(z0) = exp(h - h0) and propagated floors."""
    fact = np.array([math.factorial(k) for k in range(dh.shape[0])], dtype=float)[:, None]
    hmat = dh / fact
    base = _exp_series(np.abs(hmat))
    bumped = _exp_series(np.abs(hmat) + floors / fact)
    return _exp_series(hmat), np.maximum(bumped - base, 1e-18 * base)


def _verdict_from_signs(signed: np.ndarray, floors: np.ndarray, centers: np.ndarray):
    ok = signed >= -_SAFETY * floors
    clear = signed < -_VIOLATION * floors
    first = None
    verdict = "holds"
    if not ok.all():
        hits = np.argwhere(clear)
        if hits.size:
            order, idx = hits[np.lexsort((hits[:, 1], hits[:, 0]))][0]
            first = (int(order), float(centers[idx]))
            verdict = "violated"
        else:
            verdict = "inconclusive"
    return ok, first, verdict


def cm_probe(f, z_grid, max_order: int = 8) -> ProbeResult:
    """Check (-1)^n f^(n) >= 0 for n = 0..max_order on a grid of z > 0.

    The sign of f^(n) is read off the local Taylor expansion of f rebuilt as
    exp of the fitted log; this keeps ten-decade decays within reach of a
    degree-12 window polynomial.
    """
    if not 0 <= max_order <= 10:
        raise DomainError(f"max_order must lie in 0..10, got {max_order}")
    zs = np.asarray(z_grid, dtype=float)
    fs = _eval_grid(f, zs)
    centers, dh, floors_h = _log_taylor_table(zs, fs, max_order)
    with np.errstate(over="ignore", invalid="ignore"):
        fc, fl = _in_range(zs, max_order, *_f_taylor_with_floors(dh, floors_h))
    signed = fc * ((-1.0) ** np.arange(max_order + 1))[:, None]
    ok, first, verdict = _verdict_from_signs(signed, fl, centers)
    return ProbeResult(max_order, centers, ok, first, verdict,
                       details={"taylor": fc, "floors": fl, "values": fs})


def lcm_probe(f, z_grid, max_order: int = 6) -> ProbeResult:
    """Check that -(log f)' is completely monotone to the given order.

    Equivalent to alternating signs of the log-derivatives one order up:
    (-1)^n (-h^(n+1)) >= 0 for h = log f.
    """
    if not 0 <= max_order <= 10:
        raise DomainError(f"max_order must lie in 0..10, got {max_order}")
    zs = np.asarray(z_grid, dtype=float)
    fs = _eval_grid(f, zs)
    centers, dh, floors_h = _log_taylor_table(zs, fs, max_order + 1)
    signed = -dh[1:] * ((-1.0) ** np.arange(max_order + 1))[:, None]
    ok, first, verdict = _verdict_from_signs(signed, floors_h[1:], centers)
    return ProbeResult(max_order, centers, ok, first, verdict,
                       details={"log_derivs": dh, "floors": floors_h, "values": fs})


def monotone_probe(f, z_grid) -> ProbeResult:
    """Strict-decrease check with a noise floor; f > 0."""
    zs = np.asarray(z_grid, dtype=float)
    fs = _eval_grid(f, zs)
    centers, dh, floors_h = _log_taylor_table(zs, fs, 1)
    d1 = dh[1]
    ok = d1 <= _SAFETY * floors_h[1]
    strict = fs[0] > fs[-1]
    first = None
    if np.all(ok) and strict:
        verdict = "holds"
    elif np.any(d1 > _VIOLATION * floors_h[1]):
        idx = int(np.argmax(d1 > _VIOLATION * floors_h[1]))
        first = (1, float(centers[idx]))
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return ProbeResult(1, centers, ok[None, :], first, verdict,
                       details={"log_derivs": d1, "floors": floors_h[1], "values": fs})


# ---------------------------------------------------------------------------
# Ratio builders


def psi_cc(a: float, c: float, c_prime: float):
    """z -> Psi(a,c,z)/Psi(a,c',z); completely monotone for c' < c < 1."""
    if not (a > 0.0 and c < 1.0 and c_prime < 1.0):
        raise DomainError("need a > 0 and both second parameters below 1")

    def ratio(z):
        return tricomi_psi(a, c, z) / tricomi_psi(a, c_prime, z)

    return ratio


def psi_doubling(a: float, c: float):
    """z -> Psi(a,c,z)^2 / Psi(2a,c,z); any real c (scans probe past c = 1)."""
    if not a > 0.0:
        raise DomainError("need a > 0")

    def ratio(z):
        return tricomi_psi(a, c, z) ** 2 / tricomi_psi(2.0 * a, c, z)

    return ratio


def kumma_ratio(a: float, c: float, c_prime: float):
    """z -> Psi(a+c-c', c, z) / Psi(a, c', z): the conjectured-CM quotient with
    equal parameter shifts; scan-only, no proven verdict."""
    if not (a > 0.0 and c_prime < c < 1.0 and a + c - c_prime > 0.0):
        raise DomainError("need a > 0 and c' < c < 1")

    def ratio(z):
        return tricomi_psi(a + c - c_prime, c, z) / tricomi_psi(a, c_prime, z)

    return ratio


def hermite_doubling(nu: float):
    """z -> H_{-nu}(sqrt z)^2 / H_{-2 nu}(sqrt z)."""
    if not nu > 0.0:
        raise DomainError("need nu > 0")

    def ratio(z):
        r = np.sqrt(z)
        return hermite_h_neg(nu, r) ** 2 / hermite_h_neg(2.0 * nu, r)

    return ratio


def k0_e1():
    """z -> K0(z)^2 / E1(2z)."""

    def ratio(z):
        return macdonald_k0(z) ** 2 / expint_e1(2.0 * z)

    return ratio


def turan_hermite(nu: float, c: float):
    """z -> H_{-nu-c}(z)^2 / (H_{-nu}(z) H_{-nu-2c}(z)) on the whole line."""
    if not (nu > 0.0 and c > 0.0):
        raise DomainError("need nu > 0 and c > 0")

    def ratio(z):
        return hermite_h_neg(nu + c, z) ** 2 / (
            hermite_h_neg(nu, z) * hermite_h_neg(nu + 2.0 * c, z)
        )

    return ratio


def turan_psi(a: float, c: float, lam: float):
    """z -> Psi(a,c-2l,z) Psi(a+2l,c,z) / Psi(a+l,c-l,z)^2."""
    if not (a > 0.0 and lam > 0.0 and c < 1.0):
        raise DomainError("need a, lambda > 0 and c < 1")

    def ratio(z):
        return (
            tricomi_psi(a, c - 2.0 * lam, z)
            * tricomi_psi(a + 2.0 * lam, c, z)
            / tricomi_psi(a + lam, c - lam, z) ** 2
        )

    return ratio


def turan_hermite_bounds(nu: float, c: float) -> tuple[float, float]:
    """Sharp bounds (1, Gamma(nu) Gamma(nu+2c) / Gamma(nu+c)^2)."""
    return 1.0, gamma_ratio([nu, nu + 2.0 * c], [nu + c, nu + c])


def turan_psi_bounds(c: float, lam: float) -> tuple[float, float]:
    """Sharp bounds (1, Gamma(1-c) Gamma(1-c+2l) / Gamma(1-c+l)^2)."""
    return 1.0, gamma_ratio([1.0 - c, 1.0 - c + 2.0 * lam], [1.0 - c + lam, 1.0 - c + lam])


def hermite_doubling_bounds(nu: float) -> tuple[float, float]:
    """Sharp bounds (1, Gamma(nu/2)^2 Gamma(2 nu) / (2 Gamma(nu)^3))."""
    return 1.0, gamma_ratio([nu / 2.0, nu / 2.0, 2.0 * nu], [nu, nu, nu]) / 2.0


# ---------------------------------------------------------------------------
# Stochastic ordering of the convolution against the doubled-parameter law


def stoo_lambda(a: float, b: float) -> float:
    """Density-ratio limit at zero: Gamma(a+b)^2 / (Gamma(2a+b) Gamma(b))."""
    return gamma_ratio([a + b, a + b], [2.0 * a + b, b])


def stoo_lambda_cap(a: float, b: float) -> float:
    """Density-ratio limit at infinity: 4^a Gamma(a+1/2) Gamma(a+b) / (sqrt(pi) Gamma(2a+b))."""
    return 4.0 ** a * gamma_ratio([a + 0.5, a + b], [0.5, 2.0 * a + b])


def stoo_check(a: float, b: float) -> ProbeResult:
    """Single-crossing and stochastic-dominance check of the iid sum against
    the doubled-first-parameter law, with the density difference signed on
    121 geometric points from 1e-3 to 1e3; dominance holds exactly when b <= 1.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError("need positive shapes")
    p = BetaPrimeParams(a, b)
    p2 = BetaPrimeParams(2.0 * a, b)
    xs = np.geomspace(1e-3, 1e3, 121)
    diff = betaprime_pdf(p2, xs) - sum_density_2f1(p, xs)
    signs = np.sign(diff)
    nz = signs[signs != 0.0]
    crossings = int(np.sum(nz[1:] != nz[:-1]))

    # both cdfs at every probe x in one pass: t = 1e-12 + (x - 1e-12) v maps
    # each [1e-12, x] onto v in [0, 1], two columns per x
    probe_xs = np.geomspace(0.05, 200.0, 13)
    span = probe_xs - 1e-12

    def densities(v):
        t = 1e-12 + np.multiply.outer(v, span)
        both = np.concatenate((betaprime_pdf(p2, t), sum_density_2f1(p, t)), axis=1)
        return both * np.tile(span, 2)

    cdf_two, cdf_sum = integrate(densities, 0.0, 1.0).reshape(2, -1)
    gaps = cdf_two - cdf_sum  # >= 0 iff dominance
    dominance = bool(np.all(gaps >= -1e-7))
    lam = stoo_lambda(a, b)
    cap = stoo_lambda_cap(a, b)
    details = {
        "lambda": lam,
        "lambda_cap": cap,
        "crossings": crossings,
        "cdf_gaps": gaps,
        "probe_xs": probe_xs,
        "diff": diff,
    }
    if b <= 1.0:
        okay = dominance and crossings == 1
        verdict = "holds" if okay else "violated"
        first = None if okay else (0, float(probe_xs[int(np.argmin(gaps))]))
    else:
        # dominance must FAIL; locate a witness where the cdf gap goes negative
        below = np.flatnonzero(gaps < -1e-7)
        witness = float(probe_xs[below[0]]) if below.size else None
        verdict = "holds" if witness is not None else "violated"
        first = (0, witness) if witness is not None else None
        details["witness"] = witness
    table = (gaps >= -1e-7)[None, :] if b <= 1.0 else (gaps < -1e-7)[None, :]
    return ProbeResult(0, probe_xs, table, first, verdict, details)


# ---------------------------------------------------------------------------
# Mill's ratio suite


def _shape_pattern(values: np.ndarray, pattern: str, tol: float) -> bool:
    d = np.diff(values)
    if pattern == "decreasing":
        return bool(np.all(d <= tol))
    if pattern == "increasing":
        return bool(np.all(d >= -tol))
    if pattern in ("updown", "downup"):
        s = d if pattern == "updown" else -d
        k = int(np.argmax(values)) if pattern == "updown" else int(np.argmin(values))
        return bool(np.all(s[: max(k, 1)] >= -tol) and np.all(s[max(k, 1):] <= tol)
                    and 0 < k < values.size - 1)
    raise DomainError(f"unknown pattern {pattern}")


def _pointwise(xs: np.ndarray, ok, details: dict) -> ProbeResult:
    """Order-0 result of a pointwise check: ok is one flag per point of xs, or
    a single flag for the whole grid (its first violation is then xs[0])."""
    ok = np.atleast_1d(ok)
    holds = bool(ok.all())
    first = None if holds else (0, float(xs[int(np.argmin(ok))]))
    return ProbeResult(0, xs, ok[None, :], first, "holds" if holds else "violated", details)


def mills_suite() -> dict[str, ProbeResult]:
    """Monotonicity, convexity, Sampford bound, Turan chain and CM probes for
    Mill's ratio; the keys ending in '-scan' are exploratory only.
    """
    out: dict[str, ProbeResult] = {}
    xs = np.linspace(1e-3, 40.0, 400)

    # power-weighted shapes of r and r'
    for alpha, pattern in ((0.0, "decreasing"), (0.5, "updown"), (1.0, "increasing")):
        ok = _shape_pattern(xs ** alpha * mills_ratio(xs), pattern, 1e-12)
        out[f"barr-a-{alpha}"] = _pointwise(xs, ok, {"pattern": pattern})
    for alpha, pattern in ((0.0, "increasing"), (1.0, "downup"), (2.0, "decreasing")):
        ok = _shape_pattern(xs ** alpha * mills_ratio_deriv(1, xs), pattern, 1e-12)
        out[f"barr-b-{alpha}"] = _pointwise(xs, ok, {"pattern": pattern})

    # Sampford bound r(x) < 4 / (3x + sqrt(x^2 + 8)) on (-1, 30]
    sx = np.linspace(-1.0 + 1e-6, 30.0, 200)
    bound = 4.0 / (3.0 * sx + np.sqrt(sx * sx + 8.0))
    rv = mills_ratio(sx)
    out["sampford"] = _pointwise(sx, rv < bound, {"margin": float(np.min(bound - rv))})

    # strict convexity of 1/r via the exact derivative recursion
    cx = np.linspace(-10.0, 10.0, 401)
    conv = 2.0 * mills_ratio_deriv(1, cx) ** 2 - mills_ratio(cx) * mills_ratio_deriv(2, cx)
    out["inverse-convexity"] = _pointwise(cx, conv > 0.0, {"min_margin": float(np.min(conv))})

    # Turan chain for the parabolic cylinder triple
    tx = np.linspace(-4.0, 6.0, 41)
    tvals = parabolic_d(-2.0, tx) ** 2 / (parabolic_d(-1.0, tx) * parabolic_d(-3.0, tx))
    out["turan-chain"] = _pointwise(tx, tvals > 1.0, {"min": float(np.min(tvals))})

    # CM of -(r^(n)(sqrt z))^2 / r^(2n+1)(sqrt z)
    grid = geometric_grid(1e-2, 50.0, 200)
    for n in (0, 1, 2):
        out[f"cmmill-{n}"] = cm_probe(_cmmill_sqrt_ratio(n), grid, max_order=6)
    for n in (0, 1):
        out[f"cmmill-lcm-{n}"] = lcm_probe(_cmmill_sqrt_ratio(n), grid, max_order=4)
    for n in (0, 1, 2):
        out[f"cmmi-scan-{n}"] = _cmmi_scan(n)
    return out


def _cmmi_scan(n: int) -> ProbeResult:
    """CM probe of -(r^(n)(z))^2 / r^(2n+1)(z), the conjectured variant
    without the square root, for n in (0, 1, 2): recorded, not asserted."""
    return cm_probe(_cmmill_plain_ratio(n), np.linspace(0.05, 8.0, 200), max_order=6)


def _cmmill_sqrt_ratio(n: int):
    def f(z):
        r = np.sqrt(z)
        return -mills_ratio_deriv(n, r) ** 2 / mills_ratio_deriv(2 * n + 1, r)
    return f


def _cmmill_plain_ratio(n: int):
    def f(z):
        return -mills_ratio_deriv(n, z) ** 2 / mills_ratio_deriv(2 * n + 1, z)
    return f


# ---------------------------------------------------------------------------
# Doubling-ratio CM conjecture scan


def expected_psi_doubling_verdict(a: float, c: float) -> str | None:
    """Catalog expectation for cm_probe(psi_doubling(a, c)).

    'holds' and 'violated' are backed by proofs; None marks open territory
    where the scan records evidence without a ground truth.
    """
    if c < 0.0:
        return "violated"
    if abs(c - 0.5) < 1e-12:
        return "holds"
    if abs(a - c) < 1e-12 and 0.5 <= c <= 1.0 - 1e-12:
        return "holds"
    return None


def conjecture_cmcj_scan(a_grid, c_grid, z_grid=None) -> list[dict]:
    """cm_probe of the doubling ratio over a parameter grid.

    Expected pattern: holds on c in [0,1], violated for c < 0; boundary strips
    are recorded without a verdict.
    """
    if z_grid is None:
        z_grid = geometric_grid(1e-2, 50.0, 200)
    rows = []
    for a in a_grid:
        for c in c_grid:
            res = cm_probe(psi_doubling(a, c), z_grid, max_order=6)
            rows.append({
                "a": a,
                "c": c,
                "verdict": res.verdict,
                "expected": expected_psi_doubling_verdict(a, c),
                "first_violation": res.first_violation,
            })
    return rows
