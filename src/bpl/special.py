"""Special functions underlying the beta prime laboratory.

Everything is evaluated in float64: log-gamma by the C library's lgamma
(math.lgamma), the Gauss hypergeometric function by series plus
Pfaff/Euler/connection transformations, 3F2 at unit argument by accelerated
summation, Appell F1 by its one-dimensional Euler-type integral, Tricomi's
confluent function, Hermite functions of negative order, parabolic cylinder
functions, Mill's ratio, the exponential integral and the order-zero
Macdonald function.

Array-first functions: tricomi_psi, hermite_h_neg, expint_e1, macdonald_k0
and appell_f1 accept an array and return an array of the same shape,
computed by one quadrature over a mesh shared by every value (one column per
value); a scalar returns a float. Long arrays of these quadratures are
evaluated in blocks of columns (quadrature.column_blocks), one shared mesh
per block. gauss_2f1, parabolic_d, mills_ratio and mills_ratio_deriv accept
arrays in the same way, but take the whole flattened array in one call
(parabolic_d wraps hermite_h_neg, which blocks its own columns): in gauss_2f1
every z takes its own route by mask, and each route is one numpy recurrence
in which every element stops on its own term, so a value does not depend on
the other elements.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .quadrature import _ATOL, _RTOL, _flat, beta_kernel, column_blocks, halfline_power, integrate

__all__ = [
    "gamma_ln",
    "gammaln_signed",
    "gamma_ratio",
    "gauss_2f1",
    "hyp_3f2",
    "appell_f1",
    "tricomi_psi",
    "hermite_h_neg",
    "parabolic_d",
    "mills_ratio",
    "mills_ratio_deriv",
    "expint_e1",
    "macdonald_k0",
]

# Series stop once |term| < _RTOL*|sum| + _ATOL, the quadrature's stopping
# rule, and give up after _MAX_TERMS terms.
_MAX_TERMS = 100_000


def gamma_ln(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"gamma_ln requires x > 0, got {x}")
    return math.lgamma(x)


def gammaln_signed(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign) for any non-pole real x; the sign is that of
    sin(pi x) below 0 (reflection, with Gamma(1 - x) > 0)."""
    if x > 0.0:
        return gamma_ln(x), 1.0
    if x == math.floor(x):
        raise DomainError(f"Gamma pole at {x}")
    return math.lgamma(x), math.copysign(1.0, math.sin(math.pi * x))


def gamma_ratio(numerator, denominator=()) -> float:
    """prod Gamma(n_i) / prod Gamma(d_j), evaluated in log space."""
    log_val = 0.0
    sign = 1.0
    for v in numerator:
        lg, s = gammaln_signed(v)
        log_val += lg
        sign *= s
    for v in denominator:
        lg, s = gammaln_signed(v)
        log_val -= lg
        sign *= s
    return sign * math.exp(log_val)


def _is_nonpositive_int(x: float, tol: float = 0.0) -> bool:
    return x <= tol and abs(x - round(x)) <= tol


_DIGAMMA_TAIL = (-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0,
                 -1.0 / 132.0, 691.0 / 32760.0)


def digamma(x: float) -> float:
    """psi(x) by upward recurrence into the asymptotic region."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"digamma pole at {x}")
    if x < 0.0:
        # reflection psi(1-x) - psi(x) = pi cot(pi x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * inv2
    return acc + math.log(x) - 0.5 / x + tail


# ---------------------------------------------------------------------------
# Gauss hypergeometric function


def _masked_series(coef, x: np.ndarray, bracket=None, first: float = 1.0) -> np.ndarray:
    """sum_n t_n at every element of the 1-d array x, with t_0 = first and
    t_(n+1) = t_n coef(n) x; with bracket, sum_n t_n bracket(n, log x).

    Each element stops on its own term, as a lone scalar sum would: a plain
    series once three terms in a row fall below the tolerance, a bracketed
    one at its first small piece past n = 3. Finished elements leave the
    recurrence, so an element's value does not depend on the others.
    """
    out = np.empty(x.shape)
    live = np.arange(x.size)
    term, total = np.full(x.size, first), np.zeros(x.size)
    small = np.zeros(x.size, dtype=int)
    lx = np.log(x) if bracket is not None else None
    for n in range(_MAX_TERMS):
        if not live.size:
            return out
        piece = term if lx is None else term * bracket(n, lx)
        total += piece
        hit = np.abs(piece) < _RTOL * np.abs(total) + _ATOL
        small = np.where(hit, small + 1, 0)
        done = small == 3 if lx is None else hit & (n > 3)
        if done.any():
            out[live[done]] = total[done]
            keep = ~done
            live, term, total, small, x = live[keep], term[keep], total[keep], small[keep], x[keep]
            if lx is not None:
                lx = lx[keep]
        term *= coef(n) * x
    raise NonConvergenceError(f"hypergeometric series stalled at {x[0]}")


def _by_route(z: np.ndarray, routes) -> np.ndarray:
    """Values at every element of the 1-d array z, where routes is a list of
    (mask, fn) pairs partitioning z; fn only ever sees a non-empty subset."""
    out = np.empty(z.shape)
    for mask, fn in routes:
        if mask.any():
            out[mask] = fn(z[mask])
    return out


def _series_2f1(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    return _masked_series(lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0)), z)


def _coeff_or_zero(numerator, denominator) -> float:
    """Gamma ratio that is zero when a denominator argument sits on a pole."""
    for v in denominator:
        if _is_nonpositive_int(v, 1e-12):
            return 0.0
    return gamma_ratio(numerator, denominator)


def _connection_integer(a, b, c, z: np.ndarray, m: int) -> np.ndarray:
    """z -> 1 connection formula when m = c - a - b is an integer (log case).
    The digamma terms depend only on n and are computed once per term."""
    w = 1.0 - z
    if m < 0:
        return w ** m * _connection_integer(c - a, c - b, c, z, -m)
    if m == 0:
        return gamma_ratio([c], [a, b]) * _masked_series(
            lambda n: (a + n) * (b + n) / ((n + 1.0) ** 2), w,
            lambda n, lw: 2.0 * digamma(n + 1.0) - digamma(a + n) - digamma(b + n) - lw)
    head = np.zeros(w.shape)
    term = np.ones(w.shape)
    for n in range(m):
        head += term
        if n < m - 1:
            term *= (a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n)) * w
    head *= gamma_ratio([float(m), c], [a + m, b + m])
    pref = -((-w) ** m) * gamma_ratio([c], [a, b])
    tail = _masked_series(
        lambda n: (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)), w,
        lambda n, lw: (lw - digamma(n + 1.0) - digamma(n + m + 1.0)
                       + digamma(a + n + m) + digamma(b + n + m)),
        1.0 / math.factorial(m))
    return head + pref * tail


def _connection(a, b, c, z: np.ndarray) -> np.ndarray:
    """2F1 near z = 1 through the two series in w = 1 - z."""
    m = c - a - b
    if abs(m - round(m)) < 1e-9:
        return _connection_integer(a, b, c, z, int(round(m)))
    g1 = _coeff_or_zero([c, m], [c - a, c - b])
    g2 = _coeff_or_zero([c, -m], [a, b])
    w = 1.0 - z
    left = g1 * _series_2f1(a, b, 1.0 - m, w) if g1 != 0.0 else np.zeros(w.shape)
    right = g2 * w ** m * _series_2f1(c - a, c - b, 1.0 + m, w) if g2 != 0.0 else 0.0
    return left + right


def _eval_2f1_unit_interval(a, b, c, z: np.ndarray) -> np.ndarray:
    """2F1 on z in [0, 1): series, Euler transform, connection formula."""
    if a == c:
        return (1.0 - z) ** (-b)
    if b == c:
        return (1.0 - z) ** (-a)
    return _by_route(z, [
        (z <= 0.5, lambda x: _series_2f1(a, b, c, x)),
        ((z > 0.5) & (z <= 0.9),
         lambda x: (1.0 - x) ** (c - a - b) * _series_2f1(c - a, c - b, c, x)),
        (z > 0.9, lambda x: _connection(a, b, c, x)),
    ])


def _pfaff(a, b, c, z: np.ndarray) -> np.ndarray:
    """2F1 for z < -1/2 through w = z / (z - 1) in (1/3, 1)."""
    w = z / (z - 1.0)
    if a > 0.0 or b <= 0.0:
        return (1.0 - z) ** (-a) * _eval_2f1_unit_interval(a, c - b, c, w)
    return (1.0 - z) ** (-b) * _eval_2f1_unit_interval(b, c - a, c, w)


def gauss_2f1(a: float, b: float, c: float, z):
    """2F1(a, b; c; z) for real z < 1, or z = 1 when c - a - b > 0, at every z
    of an array (a float for a scalar z).

    Each z takes its own route: the series for |z| <= 1/2, a Pfaff transform
    for z < -1/2, then the series, Euler transform or connection formula on
    [0, 1); a terminating a or b always sums the polynomial.
    """
    if _is_nonpositive_int(c, 1e-12):
        raise DomainError(f"2F1 pole: c={c} is a non-positive integer")
    zs = np.asarray(z, dtype=float).ravel()
    bad = ~(zs <= 1.0) | np.isinf(zs)
    if bad.any():
        raise DomainError(f"2F1 argument {zs[bad][0]} unsupported: need finite z <= 1")
    if np.any(zs == 1.0) and c - a - b <= 0.0:
        raise DomainError("2F1 diverges at z=1 when c-a-b <= 0")

    def block(x):
        if _is_nonpositive_int(a) or _is_nonpositive_int(b):
            routes = [(x < 1.0, lambda v: _series_2f1(a, b, c, v))]  # terminating polynomial
        else:
            routes = [(np.abs(x) <= 0.5, lambda v: _series_2f1(a, b, c, v)),
                      (x < -0.5, lambda v: _pfaff(a, b, c, v)),
                      ((x > 0.5) & (x < 1.0), lambda v: _eval_2f1_unit_interval(a, b, c, v))]
        at_one = (x == 1.0, lambda v: np.full(v.shape, gamma_ratio([c, c - a - b], [c - a, c - b])))
        return _by_route(x, [at_one, *routes])

    return _flat(block, z)


# ---------------------------------------------------------------------------
# 3F2 at unit argument


def hyp_3f2(numerator, denominator) -> float:
    """3F2(a1,a2,a3; b1,b2; 1) for three numerator and two denominator
    parameters, no denominator a non-positive integer, and a positive margin
    b1 + b2 - a1 - a2 - a3 unless a numerator terminates the series.

    Partial sums at geometrically spaced lengths are combined by Richardson
    extrapolation with the exact tail exponents (the partial sum lags the
    limit by n^(-margin) times a power series in 1/n).
    """
    nums = [float(v) for v in numerator]
    dens = [float(v) for v in denominator]
    if len(nums) != 3 or len(dens) != 2:
        raise DomainError("expected 3 numerator and 2 denominator parameters")
    for b in dens:
        if b <= 0 and b == round(b):
            raise DomainError(f"denominator parameter {b} is a non-positive integer")
    margin = sum(dens) - sum(nums)
    if margin <= 0:
        raise DomainError(f"series at unit argument diverges: parameter margin {margin} <= 0")

    # upper/lower cancellation reduces to a Gauss function
    for i, anum in enumerate(nums):
        for j, bden in enumerate(dens):
            if anum == bden:
                rest_n = [v for k, v in enumerate(nums) if k != i]
                rest_d = [v for k, v in enumerate(dens) if k != j]
                return gauss_2f1(rest_n[0], rest_n[1], rest_d[0], 1.0)

    if any(_is_nonpositive_int(v) for v in nums):
        n_stop = int(-min(round(v) for v in nums if _is_nonpositive_int(v)))
        return _3f2_block(nums, dens, 0, n_stop, 1.0, 1.0)[1]
    return _sum_3f2_unit(nums, dens, margin)


def _3f2_block(nums, dens, n0: int, n1: int, term: float, total: float):
    """(term, partial sum) after adding terms n0 + 1 .. n1 of the 3F2(1)
    series to total, where term is term n0. The term ratios are one array;
    np.multiply.accumulate and np.add.accumulate run strictly in order, so
    they round as a term-by-term loop does."""
    n = np.arange(n0, n1, dtype=float)
    ratio = ((nums[0] + n) * (nums[1] + n) * (nums[2] + n)
             / ((dens[0] + n) * (dens[1] + n) * (n + 1.0)))
    terms = np.multiply.accumulate(np.concatenate(([term], ratio)))
    sums = np.add.accumulate(np.concatenate(([total], terms[1:])))
    return float(terms[-1]), float(sums[-1])


def _sum_3f2_unit(nums, dens, margin: float) -> float:
    """Richardson-extrapolated summation of a 3F2 at z = 1; NonConvergenceError
    when _MAX_TERMS terms do not settle the extrapolated diagonal."""
    n0 = 16
    term, total = 1.0, 1.0
    n = 0
    samples = []  # S_{n0 * 2^i}
    prev_diag = None
    while n < _MAX_TERMS:
        goal = n0 * 2 ** len(samples)
        term, total = _3f2_block(nums, dens, n, goal, term, total)
        n = goal
        samples.append(total)
        if len(samples) < 3:
            continue
        col = list(samples)
        for k in range(len(samples) - 1):
            fac = 2.0 ** (margin + k)
            col = [(fac * col[i + 1] - col[i]) / (fac - 1.0) for i in range(len(col) - 1)]
        diag = col[0]
        if prev_diag is not None:
            err = abs(diag - prev_diag)
            if err <= 10.0 * _RTOL * max(abs(diag), 1e-300):
                return diag
        prev_diag = diag
    raise NonConvergenceError(f"3F2(1) extrapolation stalled after {n} terms "
                              f"(margin {margin:.3g})")


# ---------------------------------------------------------------------------
# Appell F1


def appell_f1(alpha: float, beta: float, beta_p: float, gamma: float, x, y):
    """First Appell series F1 via its one-dimensional Euler-type integral, at
    every pair (x, y) of two arrays of one shape (a float for scalars).

    Requires gamma > alpha > 0 and x, y < 1, which covers every use in this
    package (convolution densities and the multiplicative identities). Each
    pair is one column of a quadrature shared by the whole array.
    """
    if not (gamma > alpha > 0.0):
        raise DomainError("integral representation needs gamma > alpha > 0")
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise DomainError(f"F1 arguments of shapes {xs.shape} and {ys.shape}")
    if not (np.all(xs < 1.0) and np.all(ys < 1.0)):
        raise DomainError("F1 arguments must satisfy x < 1 and y < 1")
    xf, yf = xs.ravel(), ys.ravel()
    norm = gamma_ratio([gamma], [alpha, gamma - alpha])

    def block(idx):
        # column_blocks hands out positions into the flattened pairs
        pos = idx.astype(int)
        xb, yb = xf[pos], yf[pos]

        def smooth(u):
            return ((1.0 - np.multiply.outer(u, xb)) ** (-beta)
                    * (1.0 - np.multiply.outer(u, yb)) ** (-beta_p))

        return norm * beta_kernel(smooth, alpha - 1.0, gamma - alpha - 1.0)

    return column_blocks(block, np.arange(xf.size, dtype=float).reshape(xs.shape))


# ---------------------------------------------------------------------------
# Confluent hypergeometric functions


def tricomi_psi(a: float, c: float, z):
    """Tricomi's function Psi(a, c, z) for a > 0, z > 0, by quadrature."""
    if not a > 0.0:
        raise DomainError("Psi integral representation needs a > 0")
    e = c - a - 1.0

    def block(zs):
        def smooth(t):
            return np.exp(np.multiply.outer(t, -zs)) * ((1.0 + t) ** e)[:, None]

        return math.exp(-gamma_ln(a)) * halfline_power(smooth, a - 1.0)

    return column_blocks(block, z, "Psi evaluated on (0, infinity) only")


def hermite_h_neg(nu: float, z):
    """Hermite function H_{-nu}(z) for nu > 0, all real z."""
    if not nu > 0.0:
        raise DomainError("negative-order Hermite function needs nu > 0")

    def block(zs):
        def smooth(t):
            return np.exp((-t * t)[:, None] - np.multiply.outer(2.0 * t, zs))

        return math.exp(-gamma_ln(nu)) * halfline_power(smooth, nu - 1.0)

    return column_blocks(block, z)


def parabolic_d(nu: float, z):
    """Parabolic cylinder D_nu(z) for nu < 0, through the Hermite function."""
    if not nu < 0.0:
        raise DomainError("only negative orders are evaluated here")

    def block(zs):
        return (2.0 ** (-nu / 2.0) * np.exp(-zs * zs / 4.0)
                * hermite_h_neg(-nu, zs / math.sqrt(2.0)))

    return _flat(block, z)


# ---------------------------------------------------------------------------
# Mill's ratio and friends

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


# numpy has no erfc; math.erfc is applied element by element
_erfc = np.frompyfunc(math.erfc, 1, 1)


def mills_ratio(x):
    """r(x) = exp(x^2/2) * integral_x^inf exp(-t^2/2) dt, loss-free for all x.

    Moderate arguments go through the scaled complementary error integral;
    x >= 8 switches to the continued fraction 1/(x + 1/(x + 2/(x + ...)))
    which stays accurate where exp(x^2/2) would overflow. Below -37.5,
    exp(x^2/2) exceeds float range and r(x) ~ sqrt(2 pi) e^{x^2/2} is inf.
    """
    return _flat(_mills_block, x)


def _mills_block(xs: np.ndarray) -> np.ndarray:
    out = np.full(xs.shape, math.inf)
    far = xs >= 8.0
    xf = xs[far]
    f = xf
    for k in range(80, 0, -1):
        f = xf + k / f
    out[far] = 1.0 / f
    mid = (xs > -37.5) & ~far
    xm = xs[mid]
    out[mid] = _SQRT_HALF_PI * _erfc(xm / math.sqrt(2.0)).astype(float) * np.exp(0.5 * xm * xm)
    return out


def mills_ratio_deriv(n: int, x):
    """n-th derivative of Mill's ratio via the recursion seeded by r' = x r - 1."""
    if n < 0:
        raise DomainError("derivative order must be >= 0")
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    r0 = mills_ratio(x)
    if n == 0:
        return r0
    prev, cur = r0, x * r0 - 1.0
    for k in range(1, n):
        prev, cur = cur, x * cur + k * prev
    return cur


def expint_e1(z):
    """Exponential integral E1(z) = integral_z^inf exp(-t)/t dt for z > 0."""

    def block(zs):
        def f(u):
            return np.exp(-u)[:, None] / np.add.outer(u, zs)

        return np.exp(-zs) * integrate(f, 0.0, math.inf)

    return column_blocks(block, z, "E1 needs z > 0")


def macdonald_k0(z):
    """Macdonald (modified Bessel second kind) K0(z) for z > 0."""

    def block(zs):
        def f(u):
            # exponent clipped far past the point where exp underflows to 0
            s = np.sinh(np.minimum(u, 60.0) / 2.0)
            return np.exp(np.multiply.outer(s, -2.0 * zs) * s[:, None])

        return np.exp(-zs) * integrate(f, 0.0, math.inf)

    return column_blocks(block, z, "K0 needs z > 0")
