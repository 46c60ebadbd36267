"""Real-valued computation of the Thorin measure of the beta prime law.

The central object is the increasing ratio f of two singular exponential
integrals; the cumulative measure follows from it by an explicit arctangent
primitive, the density by differentiating the ratio, and the a = 1 case by a
separate Frullani-type integral. The two integrals are computed as logs,
each quadrature column divided inside its exponential by the closed-form
peak of its integrand, so every column is of order 1 whatever t and a + x;
the cumulative measure and the density come from log f through
g = exp(-|log f|), which never overflows, so t far beyond exp-overflow of f
remains usable.

Array contract: every public function of t (f_ax, thorin_cdf,
thorin_density, thorin_cdf_a1) and awk_density take an array and return an
array of its shape (a float for a scalar). A point outside the domain (t > 0;
a finite t for awk_density) raises DomainError before anything is evaluated.
Each t keeps its own branch by mask: a column of the numerator integral
far past the bulk of its integrand is taken in r = tw. f_ax, thorin_cdf,
thorin_density and the a = 1 functions are one vector-valued quadrature pass
with one column per t (two per t for g_x, whose middle integrand is split
into its two one-signed terms); the density's five-point stencil adds four
points per t to the same pass. Long arrays of these are evaluated in blocks
of columns (quadrature.column_blocks), one shared mesh per block.
awk_density wraps thorin_density, which blocks its own columns, and takes
the whole flattened array in one call (quadrature._flat).
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
    quadrature column per t, divided inside its exponential by the peak of
    w^(a+x) e^(-tw), at w = min(1, (a+x)/t). Far past the bulk, the column
    is taken in r = tw, whose bump stays at r = a + x - 1, with r/t clamped
    at 0.99: that keeps the e^-r mass beyond r = 0.99 t, below rounding where
    0.99 t lies past a + x - 1 and r^(a+x-1) e^-r there is below
    e^-40 Gamma(a+x), the only t that take this route. The singular part
    w^min(a+x-1, 0), or r^min(a+x-1, 0), is the quadrature's weight."""
    m = a + x - 1.0
    k = min(m, 0.0)
    r0 = 0.99 * ts
    far = (r0 > m) & (m * np.log(r0) - r0 < math.lgamma(a + x) - 40.0)
    out = np.empty(ts.shape)
    if not far.all():
        tn = ts[~far]
        lpeak = (a + x) * np.log(np.minimum(1.0, (a + x) / tn)) - np.minimum(tn, a + x)

        def column(w):
            e = np.multiply.outer(w, -tn)
            e += ((m - k) * np.log(w))[:, None]
            e -= lpeak
            return np.exp(e, out=e)

        out[~far] = tn + lpeak + np.log(beta_kernel(column, k, -a))
    if far.any():
        tf = ts[far]
        lpeak = (a + x) * (math.log(a + x) - 1.0)  # r^(a+x) e^-r at r = a + x

        def column(r):
            # (1 - r/t)^(-a) r^(a+x-1-k) e^-r as one exponential: its factors
            # overflow and underflow apart far out
            e = np.divide.outer(r, -tf)
            np.log1p(np.maximum(e, -0.99, out=e), out=e)
            e *= -a
            e += ((m - k) * np.log(r) - r - lpeak)[:, None]
            return np.exp(e, out=e)

        out[far] = tf - (a + x) * np.log(tf) + lpeak + np.log(halfline_power(column, k))
    return out


def _log_lower(a: float, x: float, ts: np.ndarray) -> np.ndarray:
    """log of integral_0^inf u^(-a) (1+u)^(a+x-1) e^(-tu) du at every t of ts,
    as t^(a-1) integral_0^inf r^(-a) (1+r/t)^(a+x-1) e^-r dr in r = tu, one
    column per t divided by the peak of (1+r/t)^(a+x-1) e^-r, at
    r = max(0, a+x-1-t)."""
    m = a + x - 1.0
    lpeak = m * np.log(np.maximum(1.0, m / ts)) - np.maximum(0.0, m - ts)

    def column(r):
        # one exponential, so a large power times a vanishing factor is no inf * 0
        e = np.divide.outer(r, ts)
        np.log1p(e, out=e)
        e *= m
        e -= r[:, None]
        e -= lpeak
        return np.exp(e, out=e)

    return (a - 1.0) * np.log(ts) + lpeak + np.log(halfline_power(column, -a))


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
        with np.errstate(over="ignore"):
            return np.exp(_log_f_ax(p.a, p.x, ts))

    return column_blocks(block, t, _T_DOMAIN)


def thorin_cdf(p: ThorinParams, t):
    """Cumulative Thorin measure: (sin pi a / pi a) times the integral of
    1/(u^2 + 2 cos(pi a) u + 1) from 0 to f(t), via the arctangent primitive."""
    if p.a >= 1.0:
        return thorin_cdf_a1(p.x, t)
    a = p.a
    s, c1 = _sin_one_plus_cos(a)

    def block(ts):
        lf = _log_f_ax(a, p.x, ts)
        # g = exp(-|log f|) and e = expm1(-|log f|), which never overflow:
        # f and f - 1 where f <= 1, 1/f and 1/f - 1 where f > 1
        g, e = np.exp(-np.abs(lf)), np.expm1(-np.abs(lf))
        # arctan((f+c)/s) - arctan(c/s) = arctan2(s f, (1 + c) f - (f - 1)),
        # without the cancellation at small f or as a -> 1 and f -> 1; where
        # f > 1 both arguments are divided by f, to s and (1 + c) - (1 - 1/f)
        f, em = np.where(lf > 0.0, (np.ones_like(g), -e), (g, e))
        return np.minimum(1.0, np.arctan2(s * f, c1 * f - em) / (math.pi * a))

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
        g, e = np.exp(-np.abs(lfs[2])), np.expm1(-np.abs(lfs[2]))  # as in thorin_cdf
        # f'/(f^2+2cf+1) = (dlog f) f / ((f-1)^2 + 2(1 + c) f), which keeps its
        # digits as a -> 1 and f -> 1, where the three terms of f^2 + 2cf + 1
        # cancel to about (1-a)^2; divided by f^2 where f > 1
        return s * _five_point(lfs, h) * g / (math.pi * a * (e * e + 2.0 * c1 * g))

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
        # g'/(1 + g^2) divided through by max(1, |g|), so g^2 never overflows
        q = np.maximum(1.0, np.abs(g))
        return dg / q / (math.pi * (1.0 / q + g * (g / q)))

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
