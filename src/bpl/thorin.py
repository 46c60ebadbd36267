"""Real-valued computation of the Thorin measure of the beta prime law.

The central object is the increasing ratio f of two singular exponential
integrals; the cumulative measure follows from it by an explicit arctangent
primitive, the density by differentiating the ratio, and the a = 1 case by a
separate Frullani-type integral. Everything is kept in log scale internally
so arguments far beyond exp-overflow remain usable.

Array-first: f_ax, thorin_cdf, thorin_density, gx_frullani and thorin_cdf_a1
take an array of t and return an array of its shape, computed as one
vector-valued quadrature pass with one column per t (a scalar t gives a
float, and every t must be > 0). Each t keeps its own branch: columns with
t > 50 use the rescaled integrands. The density's five-point stencil adds
four columns per t to the same pass. Long arrays are evaluated in blocks of
columns (quadrature.column_blocks), one shared mesh per block.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .options import NESTED
from .quadrature import beta_kernel, column_blocks, halfline_power, integrate
from .results import ProbeResult
from .special import gamma_ln, kummer_phi, tricomi_psi

__all__ = [
    "ThorinParams",
    "f_ax",
    "f_ax_hyp",
    "thorin_cdf",
    "thorin_density",
    "gx_frullani",
    "thorin_cdf_a1",
    "levy_density",
    "awk_density",
    "ordering_g1_g2",
]


@dataclass(frozen=True)
class ThorinParams:
    """Shape pair (a, x): a in (0, 1], x > 0; a = 1 runs through the Frullani case."""

    a: float
    x: float

    def __post_init__(self):
        if not (0.0 < self.a <= 1.0):
            raise DomainError(f"a must lie in (0, 1], got {self.a}")
        if not self.x > 0.0:
            raise DomainError(f"x must be positive, got {self.x}")


def _log_upper(a: float, x: float, ts: np.ndarray) -> np.ndarray:
    """log of integral_0^1 u^(-a) (1-u)^(a+x-1) e^(tu) du at every t of ts,
    computed as t + log integral_0^1 (1-w)^(-a) w^(a+x-1) e^(-tw) dw; one
    quadrature column per t."""
    out = np.empty(ts.shape)
    far = ts > 50.0
    near = ~far
    if near.any():
        tn = ts[near]
        val = beta_kernel(lambda w: np.exp(np.multiply.outer(w, -tn)), a + x - 1.0, -a)
        out[near] = tn + np.log(val)
    if far.any():
        # mass sits at w ~ 1/t: rescale w = r/t so no node underflows
        tf = ts[far]

        def smooth(r):
            frac = np.minimum(np.divide.outer(r, tf), 0.99)
            return (1.0 - frac) ** (-a) * np.exp(-r)[:, None]

        val = halfline_power(smooth, a + x - 1.0)
        out[far] = tf - (a + x) * np.log(tf) + np.log(val)
    return out


def _log_lower(a: float, x: float, ts: np.ndarray) -> np.ndarray:
    """log of integral_0^inf u^(-a) (1+u)^(a+x-1) e^(-tu) du at every t of ts.

    Column j integrates (1 + r/s_j)^(a+x-1) e^(-d_j r) against r^(-a): s = 1
    and d = t for t <= 50, while t > 50 is rescaled, u = r/t, to s = t and
    d = 1.
    """
    far = ts > 50.0
    s = np.where(far, ts, 1.0)
    d = np.where(far, 1.0, ts)

    def smooth(r):
        return (1.0 + np.divide.outer(r, s)) ** (a + x - 1.0) * np.exp(-np.multiply.outer(r, d))

    val = halfline_power(smooth, -a)
    return np.where(far, (a - 1.0) * np.log(ts), 0.0) + np.log(val)


def _log_f_ax(a: float, x: float, ts: np.ndarray) -> np.ndarray:
    """log f at every t of the 1-d array ts, all t > 0."""
    return _log_upper(a, x, ts) - _log_lower(a, x, ts)


_T_DOMAIN = "the ratio is defined for t > 0"


def _stencil(ts: np.ndarray):
    """Rows t + k h, k = -2..2, of the five-point derivative, and the step
    h = 1e-4 * max(1, t), clamped to 0.02 t so the stencil stays inside
    (0, inf) with (h/t)^4 truncation error below 1e-6 even for microscopic t."""
    h = np.minimum(1e-4 * np.maximum(1.0, ts), 0.02 * ts)
    return ts + np.arange(-2.0, 3.0)[:, None] * h, h


def _five_point(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d/dt from the rows v[k] at the stencil points t + (k - 2) h."""
    return (v[0] - 8.0 * v[1] + 8.0 * v[3] - v[4]) / (12.0 * h)


def f_ax(p: ThorinParams, t):
    """Increasing bijection of (0, inf) given by the ratio of the two singular
    integrals; overflows to inf for t beyond roughly 700."""
    if p.a >= 1.0:
        raise DomainError("the integral ratio needs a < 1; a = 1 has its own route")

    def block(ts):
        lf = _log_f_ax(p.a, p.x, ts)
        with np.errstate(over="ignore"):
            return np.where(lf < 709.0, np.exp(lf), math.inf)

    return column_blocks(block, t, _T_DOMAIN)


def f_ax_hyp(p: ThorinParams, t: float) -> float:
    """Alternative closed form via the confluent pair:
    Gamma(a+x) Phi(1-a, 1+x, t) / (Gamma(1+x) Psi(1-a, 1+x, t))."""
    if p.a >= 1.0:
        raise DomainError("needs a < 1")
    a, x = p.a, p.x
    lg = gamma_ln(a + x) - gamma_ln(1.0 + x)
    return math.exp(lg) * kummer_phi(1.0 - a, 1.0 + x, t) / tricomi_psi(1.0 - a, 1.0 + x, t)


def thorin_cdf(p: ThorinParams, t):
    """Cumulative Thorin measure: (sin pi a / pi a) times the integral of
    1/(u^2 + 2 cos(pi a) u + 1) from 0 to f(t), via the arctangent primitive."""
    if p.a >= 1.0:
        return thorin_cdf_a1(p.x, t)
    a = p.a
    s = math.sin(math.pi * a)
    c = math.cos(math.pi * a)
    base = math.atan2(c, s)  # atan(c/s) on the principal branch, s > 0

    def block(ts):
        lf = _log_f_ax(a, p.x, ts)
        out = np.empty(lf.shape)
        big = lf > 35.0
        # arctan((f+c)/s) = pi/2 - s e^(-log f) (1 + O(e^(-log f)))
        out[big] = np.minimum(
            1.0, (0.5 * math.pi - base - s * np.exp(-lf[big])) / (math.pi * a))
        f = np.exp(lf[~big])
        out[~big] = (np.arctan((f + c) / s) - base) / (math.pi * a)
        return out

    return column_blocks(block, t, _T_DOMAIN)


def thorin_density(p: ThorinParams, t):
    """Density sin(pi a) f' / (pi a (f^2 + 2 cos(pi a) f + 1)) of the Thorin law.

    d/dt log f comes from a five-point stencil whose four outer points are
    four more columns per t of the same pass.
    """
    if p.a >= 1.0:
        return _density_a1(p.x, t)
    a = p.a
    s = math.sin(math.pi * a)
    c = math.cos(math.pi * a)

    def block(ts):
        pts, h = _stencil(ts)
        lfs = _log_f_ax(a, p.x, pts.ravel()).reshape(pts.shape)
        dlf = _five_point(lfs, h)
        lf = lfs[2]
        out = np.empty(lf.shape)
        big = lf > 700.0
        # f'/(f^2+2cf+1) = (dlog f) / (f + 2c + 1/f), overflow-free in log scale
        out[big] = s * dlf[big] * np.exp(-lf[big]) / (math.pi * a)
        f = np.exp(lf[~big])
        out[~big] = s * dlf[~big] / (math.pi * a * (f + 2.0 * c + 1.0 / f))
        return out

    return column_blocks(block, t, _T_DOMAIN, width=5)


# ---------------------------------------------------------------------------
# The a = 1 (Frullani) case

_GX_DOMAIN = "need x > 0 and t > 0"


def _gx(x: float, ts: np.ndarray) -> np.ndarray:
    """g_x at every t of the 1-d array ts, one quadrature column per t."""
    if not x > 0.0:
        raise DomainError(_GX_DOMAIN)
    eps = 1e-3
    d = ts - x
    # y^-1 (...) = 2d + q y^2 + O(y^4)
    q = 2.0 * (d ** 3 / 6.0 - x * d / 2.0 - x / 3.0)
    head = 2.0 * d * eps + q * eps ** 3 / 3.0

    def mid(y):
        ty = np.multiply.outer(y, ts)
        with np.errstate(over="ignore"):  # an inf is reported by the quadrature
            return (((1.0 - y) ** x)[:, None] * np.exp(ty)
                    - ((1.0 + y) ** x)[:, None] * np.exp(-ty)) / y[:, None]

    def tail(y):
        return -((1.0 + y) ** x)[:, None] * np.exp(-np.multiply.outer(y, ts)) / y[:, None]

    return (head + integrate(mid, eps, 1.0) + integrate(tail, 1.0, math.inf)) / math.pi


def gx_frullani(x: float, t):
    """(1/pi) integral_0^inf y^-1 ((1-y)_+^x e^(ty) - (1+y)^x e^(-ty)) dy.

    The y -> 0 cancellation is handled by the quadratic series term below
    y = 1e-3; the integrand is integrated directly elsewhere.
    """
    return column_blocks(lambda ts: _gx(x, ts), t, _GX_DOMAIN)


def thorin_cdf_a1(x: float, t):
    """Cumulative Thorin measure of the Pareto-type case a = 1:
    1/2 + arctan(g_x(t)) / pi."""
    return column_blocks(lambda ts: 0.5 + np.arctan(_gx(x, ts)) / math.pi,
                         t, _GX_DOMAIN)


def _density_a1(x: float, t):
    def block(ts):
        pts, h = _stencil(ts)
        g = _gx(x, pts.ravel()).reshape(pts.shape)
        return _five_point(g, h) / (math.pi * (1.0 + g[2] ** 2))

    return column_blocks(block, t, _GX_DOMAIN, width=5)


# ---------------------------------------------------------------------------
# Levy density and the symmetrized (Askey-Wimp-Kerov) law


class _CdfTable:
    """Chebyshev interpolant of t -> P[G <= t] in log t, with the exact
    power-law behaviour below the table and the exponential tail above it.
    The table spans [lo, hi] with a degree-180 interpolant."""

    lo, hi = 1e-6, 45.0

    def __init__(self, p: ThorinParams):
        self.p = p
        self.tau_lo, self.tau_hi = math.log(self.lo), math.log(self.hi)

        def g(xi):
            taus = 0.5 * (self.tau_lo + self.tau_hi) + 0.5 * (self.tau_hi - self.tau_lo) * xi
            return thorin_cdf(p, np.exp(taus))

        self.coef = np.polynomial.chebyshev.chebinterpolate(g, 180)
        self.cdf_lo = thorin_cdf(p, self.lo)
        self.cdf_hi = thorin_cdf(p, self.hi)
        self.tail_power = 2.0 * p.a + p.x - 1.0

    def __call__(self, t):
        """P[G <= t] at every t of an array; a float for a scalar t."""
        ts = np.asarray(t, dtype=float)
        nonpos = ts <= 0.0
        low = (ts < self.lo) & ~nonpos
        high = ts > self.hi
        mid = ~(nonpos | low | high)
        out = np.zeros(ts.shape)
        out[low] = self.cdf_lo * (ts[low] / self.lo) ** self.p.x
        th = ts[high]
        out[high] = 1.0 - (1.0 - self.cdf_hi) * (th / self.hi) ** self.tail_power * np.exp(
            self.hi - th)
        xi = (2.0 * np.log(ts[mid]) - self.tau_lo - self.tau_hi) / (self.tau_hi - self.tau_lo)
        # T_k(cos theta) = cos(k theta): one (points, degree) product, where
        # chebval's Clenshaw loop takes a numpy step per degree
        theta = np.arccos(np.clip(xi, -1.0, 1.0))
        out[mid] = np.cos(np.multiply.outer(theta, np.arange(self.coef.size))) @ self.coef
        return float(out) if out.ndim == 0 else out


_CDF_TABLES: dict[ThorinParams, _CdfTable] = {}
_CDF_LOCK = threading.Lock()


def _cdf_table(p: ThorinParams) -> _CdfTable:
    with _CDF_LOCK:
        if p not in _CDF_TABLES:
            _CDF_TABLES[p] = _CdfTable(p)
        return _CDF_TABLES[p]


def levy_density(p: ThorinParams, y: float) -> float:
    """Levy measure density a * integral_0^inf e^(-yt) P[G <= t] dt at y > 0."""
    if not y > 0.0:
        raise DomainError("need y > 0")
    cdf = _cdf_table(p)
    return p.a / y * integrate(lambda u: np.exp(-u) * cdf(u / y), 0.0, math.inf, NESTED)


def awk_density(c: float, t: float) -> float:
    """Symmetric density w_c(t) = |t| rho(t^2/2) / 2 with rho the Thorin
    density at (c/2, 1/2); even in t, Gaussian in the c -> 0 limit."""
    if not (0.0 < c < 2.0):
        raise DomainError("the symmetrized law needs c in (0, 2)")
    a = c / 2.0
    s = t * t / 2.0
    if s < 1e-7:
        # small-argument limit: rho(s) ~ (sin pi a / pi a) C s^(-1/2) / 2 with
        # C = B(1-a, a+1/2) / Gamma(1/2)
        cc = math.exp(gamma_ln(1.0 - a) + gamma_ln(a + 0.5)
                      - gamma_ln(1.5) - gamma_ln(0.5))
        return math.sin(math.pi * a) / (math.pi * a) * cc * math.sqrt(2.0) / 4.0
    rho = thorin_density(ThorinParams(a, 0.5), s)
    return abs(t) * rho / 2.0


# ---------------------------------------------------------------------------
# Ordering of the doubled-parameter Thorin variables


def _phi_weight(a: float, z):
    """Vectorized Kummer Phi(a, a+1/2, z) for z <= 0 arrays."""
    z = np.atleast_1d(z)
    return np.array([kummer_phi(a, a + 0.5, zi) for zi in z])


def ordering_g1_g2(a: float, t_grid) -> ProbeResult:
    """Checks g1(t) >= g2(t) for the two Dirichlet-mean ratios, the chain of
    confluent-function bounds it rests on, and the implied CDF ordering of the
    doubled-parameter Thorin variables."""
    if not (0.0 < a < 1.0):
        raise DomainError("need a in (0, 1)")
    ts = np.asarray(t_grid, dtype=float)

    def g1(t):
        def num_smooth(y):
            return np.exp(-t * (1.0 - y)) * _phi_weight(a, t * (y - 1.0))

        def den_smooth(y):
            y = np.atleast_1d(y)
            out = np.zeros_like(y)
            live = t * y < 700.0  # the e^(-ty) factor kills everything beyond
            if np.any(live):
                yl = y[live]
                out[live] = ((1.0 + yl) ** (a - 0.5) * np.exp(-t * yl)
                             * _phi_weight(a, -t * (yl + 1.0)))
            return out

        num = beta_kernel(num_smooth, -a, a - 0.5)
        den = halfline_power(den_smooth, -a)
        return math.exp(t) * num / den

    g1v = np.array([g1(t) for t in ts])
    g2v = f_ax(ThorinParams(a, 0.5), ts)
    ok_ratio = g1v >= g2v * (1.0 - 1e-8)

    # bound chain Phi(a, a+1/2, t(y-1)) >= Phi(a, a+1/2, -t) >= Phi(a, a+1/2, -t(y+1))
    chain_ok = True
    for t in ts[:3]:
        for y in (0.2, 0.5, 0.9):
            top = kummer_phi(a, a + 0.5, t * (y - 1.0))
            mid = kummer_phi(a, a + 0.5, -t)
            bot = kummer_phi(a, a + 0.5, -t * (y + 1.0))
            chain_ok &= top >= mid >= bot > 0.0

    # implied stochastic ordering of the doubled-parameter Thorin laws
    cdf_ok = True
    if 2.0 * a < 1.0:
        lo = thorin_cdf(ThorinParams(2.0 * a, 0.5), ts)
        hi = thorin_cdf(ThorinParams(a, 0.5), ts)
        cdf_ok = bool(np.all(lo <= hi + 1e-7))
    verdict = "holds" if (ok_ratio.all() and chain_ok and cdf_ok) else "violated"
    first = None if verdict == "holds" else (0, float(ts[int(np.argmin(ok_ratio))]))
    return ProbeResult(0, ts, ok_ratio[None, :], first, verdict,
                       details={"g1": g1v, "g2": g2v, "chain_ok": chain_ok,
                                "cdf_ok": cdf_ok})
