"""Identity-in-law verification engine.

Each identity is packaged as an IdentitySpec carrying samplers for both sides
plus, where available, deterministic Mellin-transform evaluators and closed
densities. verify() runs up to three channels: a two-sample
Kolmogorov-Smirnov test on fresh sample streams, a relative comparison of
the transforms over a grid inside the common Mellin strip, and one of the
densities over a fixed x grid; all that are present must pass.

Array contract: the densities of a spec and lemma_densities take an array of
x and return an array of its shape (a float for a scalar x), with every x
checked against the support before anything is evaluated; a density given by
an integral spends one quadrature column per x. The Mellin transforms stay
scalar in s (see IdentitySpec).

verify() calls the two samplers of the KS test on the calling thread, each
with its own spawned stream; a gamma draw of 2^17 values or more fills half
its array on one worker thread (see bpl.distributions). ks_two_sample then
sorts each side and scans it against the other (_ks_side), one side on a
worker thread and one on the calling thread. numpy's fills, sorts and
searchsorted release the GIL, so the halves and sides run at once, and no
value depends on thread timing. The thread count is two by construction,
not a setting, and every public function of the package runs on the
calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convolution import mellin_sum, sum_density_bhalf
from .distributions import (
    BetaParams,
    BetaPrimeParams,
    GammaParams,
    RngState,
    _on_two_threads,
    betaprime_mellin,
    betaprime_pdf,
    sample_beta,
    sample_betaprime,
    sample_gamma,
)
from .errors import BplError, DomainError, describe
from .options import NESTED
from .quadrature import _flat, beta_kernel, column_blocks, jacobi_rule, power_weighted
from .special import gamma_ln, gamma_ratio, gauss_2f1, hyp_3f2

__all__ = [
    "IdentitySpec",
    "VerificationReport",
    "KS_ALPHA",
    "ks_threshold",
    "ks_two_sample",
    "require_ks_power",
    "verify",
    "theorem_a_spec",
    "theorem_b_spec",
    "cjmain_spec",
    "prop_b0_spec",
    "ab_half_spec",
    "free_spec",
    "hypergeo_identity_check",
    "half_gaussian_spec",
    "cor34_spec",
    "lemma_densities",
    "conjecture_cjmain_scan",
    "conjhyp_integral_check",
    "identity_catalog",
]


@dataclass
class IdentitySpec:
    """One identity in law, with everything the engine needs to test it.

    The densities follow the package's array contract: an array of x in, an
    array of its shape out, one call per side for verify's whole grid. The
    Mellin transforms stay scalar in s, because each s moves the parameters
    of what they evaluate (the 3F2 of mellin_sum and free, the Jacobi rules
    of _tb_factor and _ab_half_factor, free's nested 2F1), while the
    array-first special functions take arrays of z at fixed parameters; an
    s-grid callable would only move the loop over s into every builder.
    """

    name: str
    lhs_sampler: Callable[[RngState, int], np.ndarray]
    rhs_sampler: Callable[[RngState, int], np.ndarray]
    lhs_mellin: Callable[[float], float] | None = None
    rhs_mellin: Callable[[float], float] | None = None
    mellin_strip: tuple[float, float] | None = None
    lhs_density: Callable[[np.ndarray], np.ndarray] | None = None
    rhs_density: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass
class VerificationReport:
    ks_statistic: float
    ks_threshold: float
    mellin_max_relerr: float | None
    density_max_relerr: float | None
    n_samples: int
    verdict: str  # "pass" | "fail"
    seed: int
    failure: str | None = None
    name: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def ks_threshold(alpha: float, n: int, m: int) -> float:
    """Asymptotic two-sample KS critical value c(alpha) sqrt((n+m)/(n m)),
    with c(alpha) = sqrt(-log(alpha/2)/2); c(0.01) = 1.628."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt((n + m) / (n * m))


def require_ks_power(n: int, alpha: float, what: str = "sample size") -> None:
    """Reject a sample size at which no pair of samples could fail the KS test:
    its threshold c(alpha) sqrt(2/n) is 1 or more (n = 5 at alpha = 0.01)."""
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {n}")
    threshold = ks_threshold(alpha, n, n)
    if threshold >= 1.0:
        raise DomainError(f"{what} {n} is too small for a KS test at alpha="
                          f"{alpha}: its threshold {threshold:.3g} is not below 1")


# default level of the KS tests of verify and conjecture_cjmain_scan
KS_ALPHA = 0.01

# positions of own per step of _ks_side's exact evaluation: bounds its
# temporaries (a few 0.5 MB arrays) whatever the sample size
_KS_BLOCK = 1 << 16


def _ks_bound_block(n: int) -> int:
    """Positions per bound block of _ks_side for a side of n values. A
    block's bound exceeds its terms by up to about block/n, while a KS
    statistic is of the order 1/sqrt(n); at sqrt(n)/8 few blocks stay open
    (the scan was fastest between sqrt(n)/16 and sqrt(n)/5 for n from 3e4
    to 1e6)."""
    return max(1, math.isqrt(n) // 8)


def _ks_side(own: np.ndarray, other: np.ndarray) -> float:
    """max of F_own(g) - F_other(g) over the points g of own; both sorted.

    This one-sided maximum is reached at a point of own, and the larger of
    the two sides' maxima is the two-sided statistic. The term at position i
    is (i + 1)/n - j/m with j = searchsorted(other, own[i], "right"). In a
    run of equal values it is largest at the run's last position, where
    i + 1 = #{own <= g}, so the maximum over all positions equals that of the
    searchsorted formula, bit for bit.

    Positions come in blocks of _ks_bound_block(n). Within a block, i + 1
    is at most its value at the last position and j at least its value at
    the first, and the rounded divisions and difference are monotone, so
    those two bound every term of the block. A block whose bound does not
    exceed the largest term at the block ends cannot change the maximum and
    is skipped; the rest are evaluated exactly, _KS_BLOCK positions per step,
    so no count array of the sample's length is ever live.
    """
    n, m = own.size, other.size
    k = _ks_bound_block(n)
    first = np.arange(0, n, k)
    last = np.minimum(first + (k - 1), n - 1)
    gap = (last + 1) / n
    bound = gap.copy()
    gap -= np.searchsorted(other, own[last], side="right") / m
    best = float(np.max(gap))
    bound -= np.searchsorted(other, own[first], side="right") / m
    open_blocks = np.flatnonzero(bound > best)
    offsets = np.arange(k)
    step = max(1, _KS_BLOCK // k)
    for lo in range(0, open_blocks.size, step):
        pos = (open_blocks[lo:lo + step, None] * k + offsets).ravel()
        pos = pos[pos < n]
        gap = (pos + 1) / n
        gap -= np.searchsorted(other, own[pos], side="right") / m
        best = max(best, float(np.max(gap)))
    return best


def ks_two_sample(xs, ys):
    """Two-sample Kolmogorov-Smirnov statistic and threshold callable.

    The statistic is max |F_x(g) - F_y(g)| over every sample point g, with
    F_x(g) = #{x <= g} / n. Each sample is sorted (a copy) and scanned
    against the other by _ks_side, one side on a worker thread and one on
    the calling thread; the larger of the two one-sided maxima equals the
    searchsorted formula bit for bit.
    threshold_at(alpha) is ks_threshold(alpha, n, m). A NaN in either sample
    raises DomainError.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    xs, ys = _on_two_threads(lambda: np.sort(xs), lambda: np.sort(ys))
    n, m = xs.size, ys.size
    if n == 0 or m == 0:
        raise DomainError("KS test needs non-empty samples")
    if np.isnan(xs[-1]) or np.isnan(ys[-1]):  # NaN sorts last
        raise DomainError("KS test samples contain NaN")
    stat = max(_on_two_threads(lambda: _ks_side(xs, ys), lambda: _ks_side(ys, xs)))

    def threshold_at(alpha: float) -> float:
        return ks_threshold(alpha, n, m)

    return stat, threshold_at


def verify(
    spec: IdentitySpec,
    n: int,
    rng: RngState | None = None,
    *,
    alpha: float = KS_ALPHA,
    mellin_rtol: float = 1e-6,
    rhs_scale: float = 1.0,
) -> VerificationReport:
    """Run the KS channel and, when transforms or densities are present, the
    Mellin and density channels; mellin_rtol judges both deterministic ones.
    The transforms are compared at five points across the middle of the
    Mellin strip (0.2 to 0.85 of its width), the densities on a geometric
    grid of nine points from 0.05 to 20.

    rhs_scale exists for negative controls: scaling one side must flip the
    verdict to fail when the engine has power.
    """
    if rng is None:
        rng = RngState(0)
    seed = rng.seed
    try:
        # the samplers run on this thread, one after the other: the
        # benchmark's span tracer keeps one span stack for all threads. Only
        # the private fills of a large gamma draw and the sorts and scans of
        # ks_two_sample use a worker thread.
        lhs_rng, rhs_rng = rng.spawn(2)
        xs = spec.lhs_sampler(lhs_rng, n)
        ys = rhs_scale * np.asarray(spec.rhs_sampler(rhs_rng, n), dtype=float)
        stat, thr_at = ks_two_sample(xs, ys)
        threshold = thr_at(alpha)
        ok = stat < threshold

        mellin_err = None
        if spec.lhs_mellin is not None and spec.rhs_mellin is not None:
            if spec.mellin_strip is None:
                raise DomainError(f"{spec.name}: no Mellin strip declared")
            lo, hi = spec.mellin_strip
            pairs = np.array([(spec.lhs_mellin(s), spec.rhs_mellin(s))
                              for s in (lo + (hi - lo) * np.linspace(0.2, 0.85, 5)).tolist()])
            mellin_err = _max_relerr(pairs[:, 0], pairs[:, 1])
            ok = ok and mellin_err < mellin_rtol

        density_err = None
        if spec.lhs_density is not None and spec.rhs_density is not None:
            grid = np.geomspace(0.05, 20.0, 9)
            density_err = _max_relerr(spec.lhs_density(grid), spec.rhs_density(grid))
            ok = ok and density_err < mellin_rtol

        return VerificationReport(
            ks_statistic=stat,
            ks_threshold=threshold,
            mellin_max_relerr=mellin_err,
            density_max_relerr=density_err,
            n_samples=n,
            verdict="pass" if ok else "fail",
            seed=seed,
            name=spec.name,
        )
    except BplError as exc:
        return VerificationReport(
            ks_statistic=math.nan,
            ks_threshold=math.nan,
            mellin_max_relerr=None,
            density_max_relerr=None,
            n_samples=n,
            verdict="fail",
            seed=seed,
            failure=describe(exc),
            name=spec.name,
        )


def _max_relerr(lhs: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))


# ---------------------------------------------------------------------------
# Quadrature helpers for the Mellin factors of the right-hand sides


def _one_plus_sqrt_beta_factor(a: float, s: float) -> float:
    """E[(1 + sqrt(B_{a,1/2}))^s] by 80-node Gauss-Jacobi quadrature.

    After w = sqrt(u) the expectation is
    int_0^1 w^(2a-1) (1-w)^(-1/2) (1+w)^(s-1/2) dw / B(a, 1/2) up to the
    doubling of the density.
    """
    xw, ww = jacobi_rule(80, -0.5, 2.0 * a - 1.0)
    val = float(np.sum(ww * (1.0 + xw) ** (s - 0.5)))
    lognorm = gamma_ln(a) + gamma_ln(0.5) - gamma_ln(a + 0.5)
    return 2.0 * val / math.exp(lognorm)


def _tb_factor(a: float, b: float, s: float) -> float:
    """E[(1 + sqrt(B_{a,1/2} / B_{b,1/2-b}))^s] by 150 x 150 tensor Gauss-Jacobi.

    With u, v the square roots of the two beta factors this is 4 x the double
    integral of u^(2a-1) (1-u^2)^(-1/2) v^(2b-s-1) (1-v^2)^(-b-1/2) (u+v)^s
    over the unit square, normalized by the two beta functions.
    """
    if not s < 2.0 * b:
        raise DomainError("factor finite only for s < 2b")
    xu, wu = jacobi_rule(150, -0.5, 2.0 * a - 1.0)
    xv, wv = jacobi_rule(150, -b - 0.5, 2.0 * b - s - 1.0)
    gu = wu * (1.0 + xu) ** (-0.5)
    gv = wv * (1.0 + xv) ** (-b - 0.5)
    grid = (xu[:, None] + xv[None, :]) ** s
    val = 4.0 * float(gu @ grid @ gv)
    lognorm = (
        gamma_ln(a) + gamma_ln(0.5) - gamma_ln(a + 0.5)
        + gamma_ln(b) + gamma_ln(0.5 - b) - gamma_ln(0.5)
    )
    return val / math.exp(lognorm)


def _ab_half_factor(a: float, b: float, s: float) -> float:
    """E[(B_{a,1/2} + 1/B_{b,1/2})^s] by 80 x 80 tensor Gauss-Jacobi; the
    y^(-s) weight is absorbed into the Jacobi exponent so the remaining
    integrand (1+xy)^s is polynomial-smooth."""
    if not s < b:
        raise DomainError("factor finite only for s < b")
    xx, wx = jacobi_rule(80, -0.5, a - 1.0)
    xy, wy = jacobi_rule(80, -0.5, b - s - 1.0)
    grid = (1.0 + xx[:, None] * xy[None, :]) ** s
    val = float(wx @ grid @ wy)
    lognorm = (
        gamma_ln(a) + gamma_ln(0.5) - gamma_ln(a + 0.5)
        + gamma_ln(b) + gamma_ln(0.5) - gamma_ln(b + 0.5)
    )
    return val / math.exp(lognorm)


# ---------------------------------------------------------------------------
# Identity builders

_DENSITY_SUPPORT = "the densities live on (0, infinity)"


# The samplers below work in place on the arrays they draw, in the order of
# the plain expression they stand for (x + y is x += y, u * (1 + sqrt(w)) is
# sqrt(w) in place, += 1, u *= w), so the values keep their bits and verify's
# two sides in flight hold few draw-sized arrays.


def _bp_sampler(p: BetaPrimeParams):
    return lambda rng, n: sample_betaprime(p, rng, n)


def _bp_sum_sampler(p: BetaPrimeParams):
    """Sum of two iid BetaPrime(p) draws."""

    def draw(rng, n):
        x = sample_betaprime(p, rng, n)
        x += sample_betaprime(p, rng, n)
        return x

    return draw


def _one_plus_sqrt(w: np.ndarray) -> np.ndarray:
    """1 + sqrt(w), in w."""
    np.sqrt(w, out=w)
    w += 1.0
    return w


def theorem_a_spec(a: float) -> IdentitySpec:
    """Sum of two iid BetaPrime(a, 1/2) against BetaPrime(2a, 1/2) times
    (1 + sqrt Beta(a, 1/2))."""
    if not a > 0.0:
        raise DomainError("need a > 0")
    p = BetaPrimeParams(a, 0.5)
    p2 = BetaPrimeParams(2.0 * a, 0.5)
    pb = BetaParams(a, 0.5)

    def rhs(rng, n):
        x = sample_betaprime(p2, rng, n)
        x *= _one_plus_sqrt(sample_beta(pb, rng, n))
        return x

    # multiplier 1 + sqrt(Beta(a,1/2)) has density C u^(2a-1)(1-u^2)^(-1/2)
    # in u = w - 1; the u^(2a-1) factor rides in the kernel weight
    lognorm = (math.log(2.0) + gamma_ln(a + 0.5) - gamma_ln(a)
               - 0.5 * math.log(math.pi))

    def rhs_block(xs):
        def smooth(u):
            w = 1.0 + u
            return ((np.exp(lognorm) * (1.0 + u) ** (-0.5))[:, None]
                    * betaprime_pdf(p2, xs / w[:, None]) / w[:, None])

        return beta_kernel(smooth, 2.0 * a - 1.0, -0.5)

    return IdentitySpec(
        name="theorem-a",
        lhs_sampler=_bp_sum_sampler(p),
        rhs_sampler=rhs,
        lhs_mellin=lambda s: mellin_sum(p, s),
        rhs_mellin=lambda s: betaprime_mellin(p2, s) * _one_plus_sqrt_beta_factor(a, s),
        mellin_strip=(-2.0 * a, 0.5),
        lhs_density=lambda x: sum_density_bhalf(a, x),
        rhs_density=lambda x: column_blocks(rhs_block, x, _DENSITY_SUPPORT),
    )


def cjmain_spec(a: float, b: float) -> IdentitySpec:
    """General (a, b) version of the square-root product construction; proven
    for a = 1/2 or a = 1 - b, conjectured for the rest of b in (0, 1/2)."""
    if not (a > 0.0 and 0.0 < b < 0.5):
        raise DomainError("need a > 0 and b in (0, 1/2)")
    p = BetaPrimeParams(a, b)
    p2 = BetaPrimeParams(2.0 * a, b)
    pb1 = BetaParams(a, 0.5)
    pb2 = BetaParams(b, 0.5 - b)

    def rhs(rng, n):
        x = sample_betaprime(p2, rng, n)
        w = sample_beta(pb1, rng, n)
        w /= sample_beta(pb2, rng, n)
        x *= _one_plus_sqrt(w)
        return x

    return IdentitySpec(
        name="cjmain",
        lhs_sampler=_bp_sum_sampler(p),
        rhs_sampler=rhs,
        lhs_mellin=lambda s: mellin_sum(p, s),
        rhs_mellin=lambda s: betaprime_mellin(p2, s) * _tb_factor(a, b, s),
        mellin_strip=(0.0, b),  # the 2-D factor is evaluated for s >= 0
    )


def theorem_b_spec(a: float, b: float) -> IdentitySpec:
    """The two proven branches: b in (0, 1/2) with a = 1 - b or a = 1/2."""
    if not 0.0 < b < 0.5:
        raise DomainError(f"need b in (0, 1/2), got {b}")
    if not (abs(a - 0.5) < 1e-9 or abs(a - (1.0 - b)) < 1e-9):
        raise DomainError(f"(a, b)=({a}, {b}) is outside the proven branches "
                          "a = 1/2 or a = 1 - b")
    spec = cjmain_spec(a, b)
    spec.name = "theorem-b"
    return spec


def prop_b0_spec(a: float, b: float, b_prime: float) -> IdentitySpec:
    """BetaPrime(a,b) against BetaPrime(a,b') (1 + BetaPrime(b'-b, b))."""
    if not (b_prime > b > 0.0 and a > 0.0):
        raise DomainError("need b' > b > 0 and a > 0")
    p = BetaPrimeParams(a, b)
    pr = BetaPrimeParams(a, b_prime)
    pm = BetaPrimeParams(b_prime - b, b)

    def rhs_mellin(s):
        factor = gamma_ratio([b - s, b_prime], [b, b_prime - s])
        return betaprime_mellin(pr, s) * factor

    # X = V / (1 - Y), V ~ BetaPrime(a, b'), Y = U/(1+U) ~ Beta(e, b): the
    # density at x is E[(1-Y) f_V(x(1-Y))]. y^(e-1) and (1-y)^(b+min(a,1)-1)
    # ride in the kernel weight; (1-y)^(a-1) for a > 1 stays with x^(a-1),
    # which alone can overflow, in one exp of a sum of logs
    e = b_prime - b
    log_norm = gamma_ln(a + b_prime) - gamma_ln(a) - gamma_ln(e) - gamma_ln(b)
    rest = max(a - 1.0, 0.0)

    def rhs_block(xs):
        log_x = np.log(xs)

        def smooth(y):
            # a node rounded to 1 reads as 1 - 2^-53, where log1p(-1) is -inf
            log_w = np.log1p(-np.minimum(y, np.nextafter(1.0, 0.0)))
            return np.exp(log_norm + (a - 1.0) * log_x + (rest * log_w)[:, None]
                          - (a + b_prime) * np.log1p(np.multiply.outer(1.0 - y, xs)))

        return beta_kernel(smooth, e - 1.0, b + min(a, 1.0) - 1.0)

    def rhs(rng, n):
        x = sample_betaprime(pr, rng, n)
        w = sample_betaprime(pm, rng, n)
        w += 1.0
        x *= w
        return x

    return IdentitySpec(
        name="prop-b0",
        lhs_sampler=_bp_sampler(p),
        rhs_sampler=rhs,
        lhs_mellin=lambda s: betaprime_mellin(p, s),
        rhs_mellin=rhs_mellin,
        mellin_strip=(-a, b),
        lhs_density=lambda x: betaprime_pdf(p, x),
        rhs_density=lambda x: column_blocks(rhs_block, x, _DENSITY_SUPPORT),
    )


def ab_half_spec(a: float) -> IdentitySpec:
    """a + b = 1/2 case: the sum against BetaPrime(2a,2b) (Beta + 1/Beta)."""
    if not 0.0 < a < 0.5:
        raise DomainError("need a in (0, 1/2)")
    b = 0.5 - a
    p = BetaPrimeParams(a, b)
    p2 = BetaPrimeParams(2.0 * a, 2.0 * b)
    pb1 = BetaParams(a, 0.5)
    pb2 = BetaParams(b, 0.5)

    def rhs(rng, n):
        x = sample_betaprime(p2, rng, n)
        w = sample_beta(pb1, rng, n)
        v = sample_beta(pb2, rng, n)
        w += np.divide(1.0, v, out=v)
        x *= w
        return x

    return IdentitySpec(
        name="ab-half",
        lhs_sampler=_bp_sum_sampler(p),
        rhs_sampler=rhs,
        lhs_mellin=lambda s: mellin_sum(p, s),
        rhs_mellin=lambda s: betaprime_mellin(p2, s) * _ab_half_factor(a, b, s),
        mellin_strip=(-2.0 * a, b),
    )


def free_spec(a: float, b: float, c: float, d: float, *, swap: bool = False) -> IdentitySpec:
    """(1+BetaPrime(a,b))(1+BetaPrime(c,d)) - 1 against
    BetaPrime(a+c,d) (1 + Beta(a,c) BetaPrime(c+d-b,b)); needs b < c+d.

    swap=True re-labels the two factors (valid when d < a+b) instead of
    raising when b >= c+d.
    """
    if min(a, b, c, d) <= 0.0:
        raise DomainError("all four shapes must be positive")
    if not b < c + d:
        if swap and d < a + b:
            return free_spec(c, d, a, b)
        raise DomainError(f"need b < c + d (b={b}, c+d={c + d}); "
                          "swap the factor roles for the complementary case")
    p1 = BetaPrimeParams(a, b)
    p2 = BetaPrimeParams(c, d)
    pr = BetaPrimeParams(a + c, d)
    pb = BetaParams(a, c)
    pm = BetaPrimeParams(c + d - b, b)
    e = c + d - b

    def lhs(rng, n):
        x = sample_betaprime(p1, rng, n)
        x += 1.0
        y = sample_betaprime(p2, rng, n)
        y += 1.0
        x *= y
        x -= 1.0
        return x

    def rhs(rng, n):
        x = sample_betaprime(pr, rng, n)
        w = sample_beta(pb, rng, n)
        w *= sample_betaprime(pm, rng, n)
        w += 1.0
        x *= w
        return x

    def lhs_mellin(s):
        if not -(a + c) < s < min(b, d):
            raise DomainError("s outside the product strip")
        pref = gamma_ratio([b - s, d - s, a + b, c + d], [b, d, a + b - s, c + d - s])
        return pref * hyp_3f2((-s, b - s, d - s), (a + b - s, c + d - s))

    def factor_mellin(s):
        # E[(1 + Beta(a,c) W)^s], W ~ BetaPrime(c+d-b, b). Conditionally on
        # Beta(a,c) = x the expectation is an Euler-type integral and folds to
        # E[(1+xW)^s] = B(e,b-s)/B(e,b) 2F1(-s, e; e+b-s; 1-x), which the
        # outer quadrature then averages over the beta weight.
        inner_pref = gamma_ratio([b - s, e + b], [b, e + b - s])

        def x_smooth(x):
            return inner_pref * gauss_2f1(-s, e, e + b - s, 1.0 - x)

        val = beta_kernel(x_smooth, a - 1.0, c - 1.0, NESTED)
        return val / math.exp(gamma_ln(a) + gamma_ln(c) - gamma_ln(a + c))

    def rhs_mellin(s):
        return betaprime_mellin(pr, s) * factor_mellin(s)

    return IdentitySpec(
        name="free",
        lhs_sampler=lhs,
        rhs_sampler=rhs,
        lhs_mellin=lhs_mellin,
        rhs_mellin=rhs_mellin,
        mellin_strip=(0.0, min(b, d)),  # nested quadrature kept on s >= 0
    )


def hypergeo_identity_check(a: float, b: float, c: float, d: float) -> float:
    """Pointwise comparison of the two density expressions behind the
    multiplicative identity; returns the maximal relative discrepancy.

    Both sides are proportional to x^(b-1) (1-x)^(a-1)
    2F1(a+b, a+b-d; a+b+c; x) on (0,1); the first comes from the size-biased
    product of betas with its normalization computed by quadrature, the second
    from the reciprocal construction with its closed Gamma prefactor,
    compared on nine points from 0.08 to 0.92.
    """
    if min(a, b, c, d) <= 0.0 or not b < c + d:
        raise DomainError("need positive parameters with b < c + d")
    x = np.linspace(0.08, 0.92, 9)

    # term-by-term Euler integration of the kernel against the beta weight
    norm = math.exp(gamma_ln(b) + gamma_ln(a) - gamma_ln(a + b)) * hyp_3f2(
        (a + b, a + b - d, b), (a + b + c, a + b))
    lhs = (x ** (b - 1.0) * (1.0 - x) ** (a - 1.0)
           * gauss_2f1(a + b, a + b - d, a + b + c, x) / norm)

    log_pref = (
        gamma_ln(a + b) + gamma_ln(a + c) + gamma_ln(c + d)
        - gamma_ln(a) - gamma_ln(b) - gamma_ln(c + d - b) - gamma_ln(a + b + c)
    )
    rhs = (math.exp(log_pref) * x ** (b - 1.0) * (1.0 - x) ** (-b - 1.0)
           * gauss_2f1(a + b, c + d, a + b + c, x / (x - 1.0)))
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def _sqrt_gamma_sum_mellin(a: float, s: float) -> float:
    """E[(sqrt G_a + sqrt G_a)^s] = Gamma(2a + s/2)/Gamma(a)^2 * J(s) with
    J(s) = int_0^1 (sqrt w + sqrt(1-w))^s (w(1-w))^(a-1) dw."""
    if not s > -4.0 * a:
        raise DomainError("moment finite only for s > -4a")

    def smooth(w):
        return (1.0 - w) ** (a - 1.0) * (np.sqrt(w) + np.sqrt(1.0 - w)) ** s

    # the integrand is symmetric about 1/2 and singular only at w = 0 there
    j = 2.0 * power_weighted(smooth, a - 1.0, 0.5)
    return math.exp(gamma_ln(2.0 * a + s / 2.0) - 2.0 * gamma_ln(a)) * j


def _sqrt_gamma_sum_sampler(pg: GammaParams):
    """sqrt G + sqrt G for two iid Gamma(pg) draws."""

    def draw(rng, n):
        x = sample_gamma(pg, rng, n)
        np.sqrt(x, out=x)
        y = sample_gamma(pg, rng, n)
        x += np.sqrt(y, out=y)
        return x

    return draw


def half_gaussian_spec(a: float) -> IdentitySpec:
    """sqrt G_a + sqrt G_a against sqrt(G_2a (1 + sqrt Beta(a, 1/2)))."""
    if not a > 0.0:
        raise DomainError("need a > 0")
    pg = GammaParams(a)
    pg2 = GammaParams(2.0 * a)
    pb = BetaParams(a, 0.5)

    def rhs(rng, n):
        x = sample_gamma(pg2, rng, n)
        x *= _one_plus_sqrt(sample_beta(pb, rng, n))
        return np.sqrt(x, out=x)

    def rhs_mellin(s):
        return (math.exp(gamma_ln(2.0 * a + s / 2.0) - gamma_ln(2.0 * a))
                * _one_plus_sqrt_beta_factor(a, s / 2.0))

    return IdentitySpec(
        name="half-gaussian",
        lhs_sampler=_sqrt_gamma_sum_sampler(pg),
        rhs_sampler=rhs,
        lhs_mellin=lambda s: _sqrt_gamma_sum_mellin(a, s),
        rhs_mellin=rhs_mellin,
        mellin_strip=(-min(4.0 * a, 3.0), 4.0),
    )


def cor34_spec(a: float) -> IdentitySpec:
    """The iid beta prime sum at b = 1/2 against (sqrt G_a + sqrt G_a)^2 / G_{1/2}."""
    if not a > 0.0:
        raise DomainError("need a > 0")
    p = BetaPrimeParams(a, 0.5)
    pg = GammaParams(a)
    ph = GammaParams(0.5)

    sqrt_sum = _sqrt_gamma_sum_sampler(pg)

    def rhs(rng, n):
        x = sqrt_sum(rng, n)
        x *= x
        x /= sample_gamma(ph, rng, n)
        return x

    def rhs_mellin(s):
        return (_sqrt_gamma_sum_mellin(a, 2.0 * s)
                * math.exp(gamma_ln(0.5 - s) - gamma_ln(0.5)))

    return IdentitySpec(
        name="cor34",
        lhs_sampler=_bp_sum_sampler(p),
        rhs_sampler=rhs,
        lhs_mellin=lambda s: mellin_sum(p, s),
        rhs_mellin=rhs_mellin,
        mellin_strip=(-2.0 * a, 0.5),
    )


# ---------------------------------------------------------------------------
# Auxiliary size-bias densities behind the a = 1 - b branch


def lemma_densities(kind: str, param: float, x):
    """Closed 2F1 forms of the four auxiliary densities on (1,2) u (2,inf), at
    every x of an array (a float for a scalar x).

    kinds: betastr_f / betastr_g need a in (1/2, 1); betastrb_f / betastrb_g
    need b in (0, 1/2). x = 2 is a logarithmic singularity of every branch;
    the two branches are masks x < 2 and x > 2 over the array.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs > 1.0) & (xs != 2.0)):
        raise DomainError("the densities live on (1,2) u (2,inf)")
    if kind in ("betastr_f", "betastr_g"):
        a = param
        if not 0.5 < a < 1.0:
            raise DomainError(f"need a in (1/2, 1), got {a}")
        norm_g = math.exp(gamma_ln(a) + gamma_ln(1.0 - a))
        norm_f = math.exp(gamma_ln(1.0 + a) - gamma_ln(1.0 - a) - gamma_ln(2.0 * a))

        def near(v):
            hyp = gauss_2f1(0.5, 1.0, a + 0.5, (v - 1.0) ** 2)
            if kind == "betastr_g":
                return 2.0 * (v - 1.0) ** (2.0 * a - 1.0) * hyp / norm_g
            return norm_f * v ** (1.0 - a) * (v - 1.0) ** (2.0 * a - 1.0) * hyp

        def far(v):
            hyp = gauss_2f1(0.5, a, 1.5, (v - 1.0) ** (-2.0))
            core = (v * v - 2.0 * v) ** (a - 1.0) * hyp / (v - 1.0)
            if kind == "betastr_g":
                return 2.0 * (2.0 * a - 1.0) * core / norm_g
            return (2.0 * a - 1.0) * norm_f * v ** (1.0 - a) * core
    elif kind in ("betastrb_f", "betastrb_g"):
        b = param
        if not 0.0 < b < 0.5:
            raise DomainError(f"need b in (0, 1/2), got {b}")

        def near(v):
            hyp = gauss_2f1(0.5, b + 0.5, 1.0, (v - 1.0) ** 2)
            if kind == "betastrb_g":
                return 2.0 * math.exp(gamma_ln(b + 0.5) - gamma_ln(b)
                                      - 0.5 * math.log(math.pi)) * hyp
            return b * v ** b * hyp

        def far(v):
            hyp = gauss_2f1(b + 0.5, b + 0.5, b + 1.0, (v - 1.0) ** (-2.0))
            core = (v - 1.0) ** (-2.0 * b - 1.0) * hyp
            if kind == "betastrb_g":
                return 2.0 * math.exp(gamma_ln(b + 0.5) - gamma_ln(b) - gamma_ln(1.0 + b)
                                      - gamma_ln(0.5 - b)) * core
            return (math.exp(0.5 * math.log(math.pi) - gamma_ln(b) - gamma_ln(0.5 - b))
                    * v ** b * core)
    else:
        raise DomainError(f"unknown density kind {kind!r}")

    def block(v):
        out = np.empty(v.shape)
        low = v < 2.0
        out[low] = near(v[low])
        out[~low] = far(v[~low])
        return out

    return _flat(block, x)


# ---------------------------------------------------------------------------
# Conjecture scans


def _cjmain_representation_errors(a: float, b: float, s: float) -> tuple[float, float]:
    """Relative errors of the two double-integral representations of the
    3F2(1) behind the general square-root identity, for 0 < s < 2b."""
    hyp = hyp_3f2((a + s / 2.0, a + (s + 1.0) / 2.0, 0.5), (a + 0.5, a + b + 0.5))
    log_pref = (
        gamma_ln(b - s) + gamma_ln(a + 0.5) + gamma_ln(a + b + 0.5)
        - gamma_ln(a) - gamma_ln(0.5 - b) - gamma_ln(a + b)
        - gamma_ln(b - s / 2.0) - gamma_ln(b + (1.0 - s) / 2.0)
    )
    pref = math.exp(log_pref)

    # first display: weights in the original beta variables. The factor
    # (1 + sqrt(u/v))^s = v^(-s/2) (sqrt u + sqrt v)^s leaves its v^(-s/2) to
    # the outer weight (exponent b - 1 - s/2 > -1), so no node divides by v.
    # The inner integral is vector-valued, one column per outer node v.
    def inner_u(v):
        def u_smooth(u):
            return np.add.outer(np.sqrt(u), np.sqrt(v)) ** s

        return beta_kernel(u_smooth, a - 1.0, -0.5)

    rep1 = pref * beta_kernel(inner_u, b - 1.0 - s / 2.0, -b - 0.5)

    # second display: square-root substitution u -> u^2, v -> v^2
    def inner_u2(v):
        def u_smooth(u):
            return ((1.0 + u) ** (-0.5))[:, None] * np.add.outer(u, v) ** s

        return (1.0 + v) ** (-b - 0.5) * beta_kernel(u_smooth, 2.0 * a - 1.0, -0.5)

    rep2 = 4.0 * pref * beta_kernel(inner_u2, 2.0 * b - s - 1.0, -b - 0.5)
    return abs(rep1 - hyp) / abs(hyp), abs(rep2 - hyp) / abs(hyp)


# a representation check passes below this relative error
_CJMAIN_REP_RTOL = 1e-5


def conjecture_cjmain_scan(grid, n: int, rng: RngState, alpha: float = KS_ALPHA,
                           mellin_rtol: float = 1e-6) -> list[dict]:
    """verify() on the general square-root spec over a parameter grid plus the
    two integral-representation checks at s = min(0.1, 0.8 b). Proven
    branches carry a verdict: "pass" when verify() passes at alpha and
    mellin_rtol and both representation errors are below _CJMAIN_REP_RTOL.
    The rest is exploratory evidence. An n without KS power at alpha raises
    DomainError."""
    require_ks_power(n, alpha)
    rows = []
    streams = rng.spawn(len(list(grid)))
    for (a, b), sub in zip(grid, streams):
        if not 0.0 < b < 0.5:
            raise DomainError(f"b={b} outside (0, 1/2)")
        proven = abs(a - 0.5) < 1e-9 or abs(a - (1.0 - b)) < 1e-9
        try:
            spec = cjmain_spec(a, b)
            rep = verify(spec, n, sub, alpha=alpha, mellin_rtol=mellin_rtol)
            r1, r2 = _cjmain_representation_errors(a, b, min(0.1, 0.8 * b))
            ok = rep.verdict == "pass" and max(r1, r2) < _CJMAIN_REP_RTOL
            rows.append({
                "a": a, "b": b, "proven": proven,
                "ks_statistic": rep.ks_statistic,
                "ks_threshold": rep.ks_threshold,
                "mellin_max_relerr": rep.mellin_max_relerr,
                "rep1_relerr": r1, "rep2_relerr": r2,
                "verdict": ("pass" if ok else "fail") if proven else "",
                "exploratory": not proven,
                "failure": rep.failure,
            })
        except BplError as exc:
            rows.append({
                "a": a, "b": b, "proven": proven,
                "ks_statistic": math.nan, "ks_threshold": math.nan,
                "mellin_max_relerr": None, "rep1_relerr": math.nan,
                "rep2_relerr": math.nan,
                "verdict": "fail" if proven else "",
                "exploratory": not proven,
                "failure": describe(exc),
            })
    return rows


def conjhyp_integral_check(a: float, z_grid=None) -> dict:
    """Candidate fractional-integral identity at a + b = 1/2: quadrature LHS
    against the quadratic-transform RHS over z in (0, 1); reported, never
    asserted."""
    if not 0.0 < a < 0.5:
        raise DomainError("need a in (0, 1/2)")
    b = 0.5 - a
    if z_grid is None:
        z_grid = np.linspace(0.1, 0.9, 5)
    pref = math.exp(0.5 * math.log(math.pi) - gamma_ln(a) - gamma_ln(b))
    zg = np.asarray(z_grid, dtype=float)

    def smooth(y):
        zy = np.multiply.outer(y, zg)
        return (1.0 - zy) ** (-b) * gauss_2f1(a, a, a + 0.5, zy ** 2)

    lv = pref * beta_kernel(smooth, 2.0 * a - 1.0, b - 1.0)
    rv = ((zg + 1.0) / 2.0) ** (2.0 * b) * gauss_2f1(0.5, a, a + 0.5, 4.0 * zg / (zg + 1.0) ** 2)
    err = np.abs(lv - rv) / np.abs(rv)
    # the two underlying densities agree numerically once the candidate
    # right side carries an extra 1/(z+1); report that variant too
    rc = rv / (zg + 1.0)
    err_c = np.abs(lv - rc) / np.abs(rc)
    return {"a": a, "b": b, "max_relerr": float(err.max(initial=0.0)),
            "by_z": dict(zip(zg.tolist(), err.tolist())),
            "max_relerr_with_zp1_factor": float(err_c.max(initial=0.0)),
            "by_z_with_zp1_factor": dict(zip(zg.tolist(), err_c.tolist()))}


def identity_catalog() -> dict[str, Callable]:
    """Names accepted by the verification front end mapped to their builders."""
    return {
        "theorem-a": theorem_a_spec,
        "theorem-b": theorem_b_spec,
        "prop-b0": prop_b0_spec,
        "ab-half": ab_half_spec,
        "free": free_spec,
        "half-gaussian": half_gaussian_spec,
        "cor34": cor34_spec,
    }
