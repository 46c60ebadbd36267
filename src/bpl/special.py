"""Special functions underlying the beta prime laboratory.

Everything is evaluated from scratch in float64: log-gamma by a Lanczos sum,
the Gauss hypergeometric function by series plus Pfaff/Euler/connection
transformations, 3F2 at unit modulus by accelerated summation, Appell F1 by
its one-dimensional Euler-type integral, the Kummer and Tricomi confluent
functions, Hermite functions of negative order, parabolic cylinder functions,
Mill's ratio, the exponential integral and the order-zero Macdonald function.

Array-first functions: tricomi_psi, hermite_h_neg, expint_e1 and
macdonald_k0 accept an array of z and return an array of the same shape,
computed by one quadrature over a mesh shared by every z (one column per z);
a scalar z returns a float. parabolic_d, mills_ratio and mills_ratio_deriv
accept arrays in the same way. Long arrays are evaluated in blocks of columns
(quadrature.column_blocks), one shared mesh per block.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError
from .options import DEFAULT_OPTIONS, EvalOptions, HypArgs
from .quadrature import beta_kernel, column_blocks, halfline_power, integrate

__all__ = [
    "EvalOptions",
    "HypArgs",
    "gamma_ln",
    "gammaln_signed",
    "gamma_ratio",
    "gauss_2f1",
    "hyp_3f2",
    "appell_f1",
    "appell_f1_series",
    "kummer_phi",
    "tricomi_psi",
    "hermite_h_neg",
    "parabolic_d",
    "mills_ratio",
    "mills_ratio_deriv",
    "expint_e1",
    "macdonald_k0",
]

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727418


def gamma_ln(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"gamma_ln requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos argument away from 0
        return math.log(math.pi / math.sin(math.pi * x)) - gamma_ln(1.0 - x)
    xm = x - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc += c / (xm + i)
    t = xm + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (xm + 0.5) * math.log(t) - t + math.log(acc)


def gammaln_signed(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign) for any non-pole real x."""
    if x > 0.0:
        return gamma_ln(x), 1.0
    if x == math.floor(x):
        raise DomainError(f"Gamma pole at {x}")
    s = math.sin(math.pi * x)
    return math.log(math.pi / abs(s)) - gamma_ln(1.0 - x), math.copysign(1.0, s)


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


def _series_2f1(a: float, b: float, c: float, z: float, opts: EvalOptions) -> float:
    term = 1.0
    total = 1.0
    small = 0
    for n in range(opts.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) < opts.rel_tol * abs(total) + opts.abs_tol:
            small += 1
            if small == 3:
                return total
        else:
            small = 0
    raise NonConvergenceError(f"2F1 series stalled for z={z}")


def _coeff_or_zero(numerator, denominator) -> float:
    """Gamma ratio that is zero when a denominator argument sits on a pole."""
    for v in denominator:
        if _is_nonpositive_int(v, 1e-12):
            return 0.0
    return gamma_ratio(numerator, denominator)


def _connection_integer(a, b, c, z, m: int, opts) -> float:
    """z -> 1 connection formula when m = c - a - b is an integer (log case)."""
    w = 1.0 - z
    if m < 0:
        return w ** m * _connection_integer(c - a, c - b, c, z, -m, opts)
    lw = math.log(w)
    if m == 0:
        pref = gamma_ratio([c], [a, b])
        term = 1.0
        total = 0.0
        for n in range(opts.max_terms):
            bracket = (2.0 * digamma(n + 1.0) - digamma(a + n) - digamma(b + n) - lw)
            piece = term * bracket
            total += piece
            term *= (a + n) * (b + n) / ((n + 1.0) ** 2) * w
            if abs(piece) < opts.rel_tol * abs(total) + opts.abs_tol and n > 3:
                return pref * total
        raise NonConvergenceError("logarithmic 2F1 connection stalled")
    head = 0.0
    term = 1.0
    for n in range(m):
        head += term
        if n < m - 1:
            term *= (a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n)) * w
    head *= gamma_ratio([float(m), c], [a + m, b + m])
    pref = -((-w) ** m) * gamma_ratio([c], [a, b])
    tail = 0.0
    term = 1.0 / math.factorial(m)
    for n in range(opts.max_terms):
        bracket = (lw - digamma(n + 1.0) - digamma(n + m + 1.0)
                   + digamma(a + n + m) + digamma(b + n + m))
        piece = term * bracket
        tail += piece
        term *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        if abs(piece) < opts.rel_tol * abs(tail) + opts.abs_tol and n > 3:
            return head + pref * tail
    raise NonConvergenceError("logarithmic 2F1 connection stalled")


def _eval_2f1_unit_interval(a, b, c, z, opts) -> float:
    """2F1 on z in [0, 1): series, Euler transform, connection formula."""
    if a == c:
        return (1.0 - z) ** (-b)
    if b == c:
        return (1.0 - z) ** (-a)
    if z <= 0.5:
        return _series_2f1(a, b, c, z, opts)
    if z <= 0.9:
        return (1.0 - z) ** (c - a - b) * _series_2f1(c - a, c - b, c, z, opts)
    m = c - a - b
    if abs(m - round(m)) < 1e-9:
        return _connection_integer(a, b, c, z, int(round(m)), opts)
    g1 = _coeff_or_zero([c, m], [c - a, c - b])
    g2 = _coeff_or_zero([c, -m], [a, b])
    w = 1.0 - z
    left = g1 * _series_2f1(a, b, 1.0 - m, w, opts) if g1 != 0.0 else 0.0
    right = g2 * w ** m * _series_2f1(c - a, c - b, 1.0 + m, w, opts) if g2 != 0.0 else 0.0
    return left + right


def gauss_2f1(a: float, b: float, c: float, z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """2F1(a, b; c; z) for real z < 1, or z = 1 when c - a - b > 0."""
    if _is_nonpositive_int(c, 1e-12):
        raise DomainError(f"2F1 pole: c={c} is a non-positive integer")
    if z > 1.0:
        raise DomainError(f"2F1 argument {z} > 1 unsupported")
    if z == 1.0:
        if c - a - b <= 0.0:
            raise DomainError("2F1 diverges at z=1 when c-a-b <= 0")
        return gamma_ratio([c, c - a - b], [c - a, c - b])
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        return _series_2f1(a, b, c, z, opts)  # terminating polynomial
    if abs(z) <= 0.5:
        return _series_2f1(a, b, c, z, opts)
    if z < 0.0:
        w = z / (z - 1.0)
        if a > 0.0 or b <= 0.0:
            return (1.0 - z) ** (-a) * _eval_2f1_unit_interval(a, c - b, c, w, opts)
        return (1.0 - z) ** (-b) * _eval_2f1_unit_interval(b, c - a, c, w, opts)
    return _eval_2f1_unit_interval(a, b, c, z, opts)


# ---------------------------------------------------------------------------
# 3F2 at unit modulus


def _aitken(partial: np.ndarray, rtol: float):
    """Iterated Aitken extrapolation; returns (value, error estimate)."""
    tab = np.asarray(partial, dtype=float)
    best = tab[-1]
    err = abs(tab[-1] - tab[-2]) if tab.size > 1 else math.inf
    for _ in range(14):
        if tab.size < 5:
            break
        d1 = np.diff(tab)
        d2 = np.diff(d1)
        # a relatively tiny second difference means the correction d1^2/d2 is
        # pure noise; keep the raw entry there
        safe = np.abs(d2) > 1e-14 * (np.abs(d1[1:]) + np.abs(d1[:-1])) + 1e-300
        corr = np.divide(d1[1:] ** 2, d2, where=safe, out=np.zeros_like(d2))
        tab = np.where(safe, tab[2:] - corr, tab[2:])
        change = abs(tab[-1] - best)
        if change < err:
            err = change
            best = tab[-1]
        if err <= rtol * max(abs(best), 1e-300):
            break
    return best, err


def hyp_3f2(args: HypArgs, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """3F2(a1,a2,a3; b1,b2; z) for z in {1, -1}.

    Unit argument uses partial sums at geometrically spaced lengths combined
    by Richardson extrapolation with the exact tail exponents (the partial
    sum lags the limit by n^(-margin) times a power series in 1/n); z = -1
    uses iterated Aitken acceleration of the alternating partial sums.
    """
    if args.z not in (1.0, -1.0):
        raise DomainError("3F2 evaluation supported only at z = 1 or z = -1")
    if len(args.numerator) != 3 or len(args.denominator) != 2:
        raise DomainError("expected 3 numerator and 2 denominator parameters")
    nums = list(args.numerator)
    dens = list(args.denominator)
    z = args.z

    # upper/lower cancellation reduces to a Gauss function
    for i, anum in enumerate(nums):
        for j, bden in enumerate(dens):
            if anum == bden:
                rest_n = [v for k, v in enumerate(nums) if k != i]
                rest_d = [v for k, v in enumerate(dens) if k != j]
                return gauss_2f1(rest_n[0], rest_n[1], rest_d[0], z, opts)

    def ratio(n):
        return (
            (nums[0] + n) * (nums[1] + n) * (nums[2] + n)
            / ((dens[0] + n) * (dens[1] + n) * (n + 1.0))
            * z
        )

    if any(_is_nonpositive_int(v) for v in nums):
        n_stop = int(-min(round(v) for v in nums if _is_nonpositive_int(v)))
        term, total = 1.0, 1.0
        for n in range(n_stop):
            term *= ratio(n)
            total += term
        return total

    target = max(opts.rel_tol, 1e-13)
    if z == 1.0:
        return _sum_3f2_unit(ratio, args.unit_margin, target, opts)

    term, total = 1.0, 1.0
    partial = [total]
    n = 0
    best_prev = None
    while n < opts.max_terms:
        chunk = max(32, n)
        for _ in range(chunk):
            term *= ratio(n)
            total += term
            partial.append(total)
            n += 1
        val, err = _aitken(np.array(partial[-128:]), target)
        if err <= 20.0 * target * max(abs(val), 1e-300):
            return val
        if best_prev is not None and abs(val - best_prev) <= 2.0 * target * abs(val):
            return val
        best_prev = val
    raise NonConvergenceError(f"3F2(-1) acceleration stalled after {n} terms")


def _sum_3f2_unit(ratio, margin: float, target: float, opts: EvalOptions) -> float:
    """Richardson-extrapolated summation of a 3F2 at z = 1."""
    n0 = 16
    term, total = 1.0, 1.0
    n = 0
    samples = []  # S_{n0 * 2^i}
    prev_diag = None
    while n < opts.max_terms:
        goal = n0 * 2 ** len(samples)
        while n < goal:
            term *= ratio(n)
            total += term
            n += 1
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
            if err <= 10.0 * target * max(abs(diag), 1e-300):
                return diag
        prev_diag = diag
    if prev_diag is not None and abs(term) < 1e-3 * abs(prev_diag):
        return prev_diag  # budget hit after substantial extrapolation
    raise NonConvergenceError(f"3F2(1) extrapolation stalled (margin {margin:.3g})")


# ---------------------------------------------------------------------------
# Appell F1


def appell_f1(
    alpha: float,
    beta: float,
    beta_p: float,
    gamma: float,
    x: float,
    y: float,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> float:
    """First Appell series F1 via its one-dimensional Euler-type integral.

    Requires gamma > alpha > 0 and x, y < 1, which covers every use in this
    package (convolution densities and the multiplicative identities).
    """
    if not (gamma > alpha > 0.0):
        raise DomainError("integral representation needs gamma > alpha > 0")
    if x >= 1.0 or y >= 1.0:
        raise DomainError("F1 arguments must satisfy x < 1 and y < 1")

    def smooth(u):
        return (1.0 - u * x) ** (-beta) * (1.0 - u * y) ** (-beta_p)

    val = beta_kernel(smooth, alpha - 1.0, gamma - alpha - 1.0, opts.with_budget(60))
    return gamma_ratio([gamma], [alpha, gamma - alpha]) * val


def appell_f1_series(alpha, beta, beta_p, gamma, x, y, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Truncated double series for F1; only sensible for |x|, |y| <= ~0.5."""
    if max(abs(x), abs(y)) > 0.75:
        raise DomainError("double series restricted to small arguments")
    total = 0.0
    outer = 1.0  # (alpha)_m (beta)_m x^m / ((gamma)_m m!)
    small = 0
    for m in range(2000):
        inner_sum = 0.0
        inner = outer  # m-th row seed: n = 0 term
        for n in range(2000):
            inner_sum += inner
            inner *= (alpha + m + n) * (beta_p + n) / ((gamma + m + n) * (n + 1.0)) * y
            if abs(inner) < opts.rel_tol * (abs(total) + abs(inner_sum)) + opts.abs_tol and n > 3:
                break
        total += inner_sum
        outer *= (alpha + m) * (beta + m) / ((gamma + m) * (m + 1.0)) * x
        if abs(inner_sum) < opts.rel_tol * abs(total) + opts.abs_tol and m > 3:
            small += 1
            if small == 2:
                return total
        else:
            small = 0
    raise NonConvergenceError("F1 double series did not settle")


# ---------------------------------------------------------------------------
# Confluent hypergeometric functions


def kummer_phi(a: float, c: float, z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """Kummer's confluent function Phi(a, c, z) = 1F1(a; c; z)."""
    if _is_nonpositive_int(c, 1e-12):
        raise DomainError(f"Phi pole: c={c} is a non-positive integer")
    if z < -40.0:
        # algebraic large-argument expansion; optimally truncated error ~ e^z
        w = -z
        pref = gamma_ratio([c], [c - a]) * w ** (-a)
        term, total = 1.0, 1.0
        for k in range(200):
            nxt = term * (a + k) * (1.0 + a - c + k) / ((k + 1.0) * w)
            if abs(nxt) >= abs(term):
                break
            total += nxt
            term = nxt
            if abs(term) < opts.rel_tol * abs(total):
                break
        return pref * total
    if z < 0.0:
        # Kummer transform avoids the catastrophic cancellation of the raw
        # alternating series
        return math.exp(z) * kummer_phi(c - a, c, -z, opts)
    term, total = 1.0, 1.0
    small = 0
    for n in range(opts.max_terms):
        term *= (a + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) < opts.rel_tol * abs(total) + opts.abs_tol:
            small += 1
            if small == 3:
                return total
        else:
            small = 0
    raise NonConvergenceError(f"Kummer series stalled for z={z}")


def tricomi_psi(a: float, c: float, z, opts: EvalOptions = DEFAULT_OPTIONS):
    """Tricomi's function Psi(a, c, z) for a > 0, z > 0, by quadrature."""
    if not a > 0.0:
        raise DomainError("Psi integral representation needs a > 0")
    e = c - a - 1.0
    o = opts.with_budget(80)

    def block(zs):
        def smooth(t):
            return np.exp(np.multiply.outer(t, -zs)) * ((1.0 + t) ** e)[:, None]

        return math.exp(-gamma_ln(a)) * halfline_power(smooth, a - 1.0, o)

    return column_blocks(block, z, "Psi evaluated on (0, infinity) only")


def hermite_h_neg(nu: float, z, opts: EvalOptions = DEFAULT_OPTIONS):
    """Hermite function H_{-nu}(z) for nu > 0, all real z."""
    if not nu > 0.0:
        raise DomainError("negative-order Hermite function needs nu > 0")
    o = opts.with_budget(60)

    def block(zs):
        def smooth(t):
            return np.exp((-t * t)[:, None] - np.multiply.outer(2.0 * t, zs))

        return math.exp(-gamma_ln(nu)) * halfline_power(smooth, nu - 1.0, o)

    return column_blocks(block, z)


def parabolic_d(nu: float, z, opts: EvalOptions = DEFAULT_OPTIONS):
    """Parabolic cylinder D_nu(z) for nu < 0, through the Hermite function."""
    if not nu < 0.0:
        raise DomainError("only negative orders are evaluated here")

    def block(zs):
        return (2.0 ** (-nu / 2.0) * np.exp(-zs * zs / 4.0)
                * hermite_h_neg(-nu, zs / math.sqrt(2.0), opts))

    return column_blocks(block, z)


# ---------------------------------------------------------------------------
# Mill's ratio and friends

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# numpy has no erfc; math.erfc is applied element by element
_erfc = np.frompyfunc(math.erfc, 1, 1)


def mills_ratio(x):
    """r(x) = exp(x^2/2) * integral_x^inf exp(-t^2/2) dt, loss-free for all x.

    Moderate arguments go through the scaled complementary error integral;
    x >= 8 switches to the continued fraction 1/(x + 1/(x + 2/(x + ...)))
    which stays accurate where exp(x^2/2) would overflow. Below -37.5,
    exp(x^2/2) exceeds float range and r(x) ~ sqrt(2 pi) e^{x^2/2} is inf.
    """
    return column_blocks(_mills_block, x)


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


def expint_e1(z, opts: EvalOptions = DEFAULT_OPTIONS):
    """Exponential integral E1(z) = integral_z^inf exp(-t)/t dt for z > 0."""
    o = opts.with_budget(60)

    def block(zs):
        def f(u):
            return np.exp(-u)[:, None] / np.add.outer(u, zs)

        return np.exp(-zs) * integrate(f, 0.0, math.inf, o)

    return column_blocks(block, z, "E1 needs z > 0")


def macdonald_k0(z, opts: EvalOptions = DEFAULT_OPTIONS):
    """Macdonald (modified Bessel second kind) K0(z) for z > 0."""
    o = opts.with_budget(60)

    def block(zs):
        def f(u):
            # exponent clipped far past the point where exp underflows to 0
            s = np.sinh(np.minimum(u, 60.0) / 2.0)
            return np.exp(np.multiply.outer(s, -2.0 * zs) * s[:, None])

        return np.exp(-zs) * integrate(f, 0.0, math.inf, o)

    return column_blocks(block, z, "K0 needs z > 0")
