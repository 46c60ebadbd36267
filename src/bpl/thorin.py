"""Real-valued computation of the Thorin measure of the beta prime law.

The central object is the increasing ratio f of two singular exponential
integrals; the cumulative measure follows from it by an explicit arctangent
primitive, the density by differentiating the ratio, and the a = 1 case by a
separate Frullani-type integral. Everything is kept in log scale internally
so arguments far beyond exp-overflow remain usable.

Array contract: every public function of t (f_ax, thorin_cdf,
thorin_density, thorin_cdf_a1) and awk_density take an array and return an
array of its shape (a float for a scalar). A point outside the domain (t > 0;
a finite t for awk_density) raises DomainError before anything is evaluated.
Each t keeps its own branch by mask: a column of the numerator integral that
would come near underflow is rescaled. f_ax, thorin_cdf, thorin_density and
the a = 1 functions are one vector-valued quadrature pass with one column per
t (two per t for g_x, whose middle integrand is split into its two one-signed
terms); the density's five-point stencil adds four points per t to the same
pass. Long arrays of these are evaluated in blocks of columns
(quadrature.column_blocks), one shared mesh per block. awk_density wraps
thorin_density, which blocks its own columns, and takes the whole flattened
array in one call (quadrature._flat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import _flat, beta_kernel, column_blocks, halfline_power, integrate
from .special import gamma_ln

__all__ = [
    "ThorinParams",
    "f_ax",
    "thorin_cdf",
    "thorin_density",
    "thorin_cdf_a1",
    "awk_density",
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
    quadrature column per t. That integral is about Gamma(a+x) t^-(a+x); where
    it falls below e^-600, near the absolute tolerance of 1e-300, the column
    is rescaled, w = r/t, and divided by Gamma(a+x) inside its exponential,
    to about 1 whatever a + x; r/t clamped at 0.99 keeps the e^-r mass
    beyond r = t. That mass is below rounding where r^(a+x-1) e^-r at
    r = 0.99 t is below e^-40 of its peak at r = a + x - 1; a t nearer the
    peak, which only a + x above about 420 reaches, is a DomainError.
    """
    out = np.empty(ts.shape)
    lg = math.lgamma(a + x)
    far = (a + x) * np.log(ts) - lg > 600.0
    near = ~far
    if near.any():
        tn = ts[near]
        val = beta_kernel(lambda w: np.exp(np.multiply.outer(w, -tn)), a + x - 1.0, -a)
        out[near] = tn + np.log(val)
    if far.any():
        tf = ts[far]
        m, r0 = a + x - 1.0, 0.99 * tf
        if m > 0.0:
            bad = tf[(r0 <= m) | (m * np.log(r0 / m) - (r0 - m) > -40.0)]
            if bad.size:
                raise DomainError(f"the Thorin ratio at a + x = {a + x:.6g} is out of reach "
                                  f"for t in [{bad.min():.6g}, {bad.max():.6g}]: the rescaled "
                                  f"numerator needs t beyond the bulk of its Gamma(a+x) weight")

        def smooth(r):
            # r^(a+x-1) e^-r / Gamma(a+x) as one exponential: r^(a+x-1) alone
            # overflows far out, and Gamma(a+x) past a + x = 171
            frac = np.minimum(np.divide.outer(r, tf), 0.99)
            return (1.0 - frac) ** (-a) * np.exp(m * np.log(r) - r - lg)[:, None]

        val = halfline_power(smooth, 0.0)
        out[far] = tf - (a + x) * np.log(tf) + np.log(val) + lg
    return out


def _log_lower(a: float, x: float, ts: np.ndarray) -> np.ndarray:
    """log of integral_0^inf u^(-a) (1+u)^(a+x-1) e^(-tu) du at every t of ts,
    one quadrature column per t. The integral is about Gamma(1-a) t^(a-1) at
    large t, a normal double for every t, so no column is rescaled."""
    def smooth(u):
        # one exponential, so a large power times a vanishing factor is no inf * 0
        return np.exp((a + x - 1.0) * np.log1p(u)[:, None] - np.multiply.outer(u, ts))

    return np.log(halfline_power(smooth, -a))


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


# log f is about 1 - a near a = 1, and the a < 1 route forms it as a
# difference of two log integrals: at 1 - a = 1e-8 the density was 1.2e-3
# relative off mpmath's confluent form at (x, t) = (0.3, 0.9), at 1e-7 at most
# 9e-5 over x in [0.05, 4] and t in [0.2, 6]
_A_BELOW_ONE = 1.0 - 1e-7


def _sin_one_plus_cos(a: float) -> tuple[float, float]:
    """sin(pi a) and 1 + cos(pi a) with full relative precision as a -> 1:
    sin(pi min(a, 1-a)) and 2 sin^2(pi (1-a)/2), where 1 - a is exact for
    a >= 1/2. A DomainError for a in (_A_BELOW_ONE, 1), out of the route's
    reach."""
    if a > _A_BELOW_ONE:
        raise DomainError(f"a = {a!r} is within 1e-7 of 1, where the a < 1 route cannot "
                          f"resolve log f (about 1 - a); use a = 1 or a <= {_A_BELOW_ONE!r}")
    return math.sin(math.pi * min(a, 1.0 - a)), 2.0 * math.sin(0.5 * math.pi * (1.0 - a)) ** 2


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


def thorin_cdf(p: ThorinParams, t):
    """Cumulative Thorin measure: (sin pi a / pi a) times the integral of
    1/(u^2 + 2 cos(pi a) u + 1) from 0 to f(t), via the arctangent primitive."""
    if p.a >= 1.0:
        return thorin_cdf_a1(p.x, t)
    a = p.a
    s, c1 = _sin_one_plus_cos(a)
    base = math.atan2(math.cos(math.pi * a), s)  # atan(c/s) on the principal branch, s > 0

    def block(ts):
        lf = _log_f_ax(a, p.x, ts)
        out = np.empty(lf.shape)
        big = lf > 35.0
        # arctan((f+c)/s) = pi/2 - s e^(-log f) (1 + O(e^(-log f)))
        out[big] = np.minimum(
            1.0, (0.5 * math.pi - base - s * np.exp(-lf[big])) / (math.pi * a))
        # arctan((f+c)/s) - arctan(c/s) without the cancellation at small f,
        # and 1 + c f as (1 - f) + (1 + c) f, without it as a -> 1 and f -> 1
        f, em = np.exp(lf[~big]), np.expm1(lf[~big])
        out[~big] = np.arctan2(f * s, c1 * f - em) / (math.pi * a)
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
    s, c1 = _sin_one_plus_cos(a)

    def block(ts):
        pts, h = _stencil(ts)
        lfs = _log_f_ax(a, p.x, pts.ravel()).reshape(pts.shape)
        dlf = _five_point(lfs, h)
        lf = lfs[2]
        out = np.empty(lf.shape)
        big = lf > 700.0
        # f'/(f^2+2cf+1) = (dlog f) / (f + 2c + 1/f), overflow-free in log scale
        out[big] = s * dlf[big] * np.exp(-lf[big]) / (math.pi * a)
        # f + 2c + 1/f as (f-1)^2/f + 2(1 + c), which keeps its digits as
        # a -> 1 and f -> 1, where the three terms cancel to about (1-a)^2;
        # (f-1)/f first, so (f-1)^2 never overflows
        f, em = np.exp(lf[~big]), np.expm1(lf[~big])
        out[~big] = s * dlf[~big] / (math.pi * a * (em / f * em + 2.0 * c1))
        return out

    return column_blocks(block, t, _T_DOMAIN, width=5)


# ---------------------------------------------------------------------------
# The a = 1 (Frullani) case

_GX_DOMAIN = "need x > 0 and t > 0"


def _gx(x: float, ts: np.ndarray) -> np.ndarray:
    """g_x(t) = (1/pi) integral_0^inf y^-1 ((1-y)_+^x e^(ty) - (1+y)^x e^(-ty)) dy
    at every t of the 1-d array ts. The y -> 0 cancellation is the quadratic
    series below y = 1e-3. On [1e-3, 1] the integrand's two one-signed terms
    are two columns per t, subtracted after the quadrature: their difference
    changes sign, and no relative tolerance on it can be met near its root."""
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
            return np.concatenate((((1.0 - y) ** x / y)[:, None] * np.exp(ty),
                                   ((1.0 + y) ** x / y)[:, None] * np.exp(-ty)), axis=1)

    def tail(y):
        return -np.exp((x * np.log1p(y))[:, None] - np.multiply.outer(y, ts)) / y[:, None]

    up, down = integrate(mid, eps, 1.0).reshape(2, -1)
    return (head + (up - down) + integrate(tail, 1.0, math.inf)) / math.pi


def thorin_cdf_a1(x: float, t):
    """Cumulative Thorin measure of the Pareto-type case a = 1:
    1/2 + arctan(g_x(t)) / pi, formed as arctan2(1, -g_x(t)) / pi, which
    keeps relative accuracy where g_x(t) -> -inf as t -> 0 and the measure
    is tiny."""
    return column_blocks(lambda ts: np.arctan2(1.0, -_gx(x, ts)) / math.pi,
                         t, _GX_DOMAIN, width=2)


def _density_a1(x: float, t):
    def block(ts):
        pts, h = _stencil(ts)
        g = _gx(x, pts.ravel()).reshape(pts.shape)
        dg, g = _five_point(g, h), g[2]
        out = np.empty(g.shape)
        # g'/(1 + g^2) = (g'/g) / (g + 1/g) where |g| > 1, so g^2 never overflows
        big = np.abs(g) > 1.0
        out[~big] = dg[~big] / (math.pi * (1.0 + g[~big] ** 2))
        out[big] = dg[big] / g[big] / (math.pi * (g[big] + 1.0 / g[big]))
        return out

    return column_blocks(block, t, _GX_DOMAIN, width=10)


# ---------------------------------------------------------------------------
# The symmetrized (Askey-Wimp-Kerov) law


def awk_density(c: float, t):
    """Symmetric density w_c(t) = |t| rho(t^2/2) / 2 with rho the Thorin
    density at (c/2, 1/2), at every finite t of an array (a float for a scalar
    t); even in t, Gaussian in the c -> 0 limit."""
    if not (0.0 < c < 2.0):
        raise DomainError("the symmetrized law needs c in (0, 2)")
    if not np.all(np.isfinite(np.asarray(t, dtype=float))):
        raise DomainError("the symmetrized law needs a finite t")
    a = c / 2.0
    # small-argument limit: rho(s) ~ (sin pi a / pi a) C s^(-1/2) / 2 with
    # C = B(1-a, a+1/2) / Gamma(1/2)
    cc = math.exp(gamma_ln(1.0 - a) + gamma_ln(a + 0.5) - gamma_ln(1.5) - gamma_ln(0.5))
    at_zero = math.sin(math.pi * a) / (math.pi * a) * cc * math.sqrt(2.0) / 4.0

    def block(ts):
        s = ts * ts / 2.0
        out = np.full(ts.shape, at_zero)
        far = s >= 1e-7
        out[far] = np.abs(ts[far]) * thorin_density(ThorinParams(a, 0.5), s[far]) / 2.0
        return out

    return _flat(block, t)
