"""Closed-form densities and Mellin transforms of beta prime convolutions.

Several independently derived expressions for the same objects live side by
side (Appell-integral form, Gauss-hypergeometric form, two Pfaff-transformed
variants) and are used as mutually cross-checking implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import BetaParams, BetaPrimeParams
from .errors import DomainError
from .options import HypArgs
from .quadrature import beta_kernel
from .special import appell_f1, gamma_ln, gamma_ratio, gauss_2f1, hyp_3f2

__all__ = [
    "SumSpec",
    "sum_density_appell",
    "sum_density_direct",
    "sum_density_2f1",
    "sum_density_pfaff1",
    "sum_density_pfaff2",
    "sum_density_bhalf",
    "beta_sum_density",
    "mellin_sum",
]


@dataclass(frozen=True)
class SumSpec:
    """Parameters of lam * BetaPrime(a,b) + mu * BetaPrime(c,d)."""

    lam: float
    p1: BetaPrimeParams
    mu: float
    p2: BetaPrimeParams

    def __post_init__(self):
        if not (self.lam > 0.0 and self.mu > 0.0):
            raise DomainError("scales must be positive")


def sum_density_appell(spec: SumSpec, x: float) -> float:
    """Density of lam*X1 + mu*X2 at x > 0, through the Appell F1 closed form."""
    if not x > 0.0:
        raise DomainError("the sum lives on (0, infinity)")
    a, b = spec.p1.a, spec.p1.b
    c, d = spec.p2.a, spec.p2.b
    lam, mu = spec.lam, spec.mu
    f1 = appell_f1(a, a + b, c + d, a + c, -x / lam, x / (x + mu))
    # prefactor from folding the convolution integral through the Picard
    # representation: Gamma(a+b) Gamma(c+d) / (Gamma(b) Gamma(d) Gamma(a+c))
    log_pref = (
        gamma_ln(a + b) + gamma_ln(c + d) - gamma_ln(b) - gamma_ln(d) - gamma_ln(a + c)
        - a * math.log(lam) + d * math.log(mu)
        + (a + c - 1.0) * math.log(x) - (c + d) * math.log(x + mu)
    )
    return math.exp(log_pref) * f1


def sum_density_direct(spec: SumSpec, x: float) -> float:
    """Same density by direct numerical convolution of the two factors."""
    if not x > 0.0:
        raise DomainError("the sum lives on (0, infinity)")
    a, b = spec.p1.a, spec.p1.b
    c, d = spec.p2.a, spec.p2.b
    lam, mu = spec.lam, spec.mu

    def smooth(y):
        return (lam + x * y) ** (-a - b) * (x + mu - x * y) ** (-c - d)

    val = beta_kernel(smooth, a - 1.0, c - 1.0)
    log_pref = (
        gamma_ln(a + b) + gamma_ln(c + d)
        - gamma_ln(a) - gamma_ln(b) - gamma_ln(c) - gamma_ln(d)
        + b * math.log(lam) + d * math.log(mu) + (a + c - 1.0) * math.log(x)
    )
    return math.exp(log_pref) * val


def _phi_prefactor(p: BetaPrimeParams, x: float) -> float:
    return math.exp(
        2.0 * gamma_ln(p.a + p.b) - gamma_ln(2.0 * p.a) - 2.0 * gamma_ln(p.b)
        + (2.0 * p.a - 1.0) * math.log(x)
    )


def sum_density_2f1(p: BetaPrimeParams, x: float) -> float:
    """Density of BetaPrime(a,b) + BetaPrime(a,b) at x > 0 (Gauss form)."""
    if not x > 0.0:
        raise DomainError("the sum lives on (0, infinity)")
    a, b = p.a, p.b
    z = -x * x / (4.0 * (x + 1.0))
    hyp = gauss_2f1(a + b, a, a + 0.5, z)
    return _phi_prefactor(p, x) * (x + 1.0) ** (-a - b) * hyp


def sum_density_pfaff1(p: BetaPrimeParams, x: float) -> float:
    """Pfaff-transformed variant with argument (x/(x+2))^2; stable for large x."""
    if not x > 0.0:
        raise DomainError("the sum lives on (0, infinity)")
    a, b = p.a, p.b
    z = (x / (x + 2.0)) ** 2
    hyp = gauss_2f1(a + b, 0.5, a + 0.5, z)
    return _phi_prefactor(p, x) * 4.0 ** (a + b) * (x + 2.0) ** (-2.0 * (a + b)) * hyp


def sum_density_pfaff2(p: BetaPrimeParams, x: float) -> float:
    """Second Pfaff variant, the starting point of the Mellin evaluation."""
    if not x > 0.0:
        raise DomainError("the sum lives on (0, infinity)")
    a, b = p.a, p.b
    z = (x / (x + 2.0)) ** 2
    hyp = gauss_2f1(0.5 - b, a, a + 0.5, z)
    return (
        _phi_prefactor(p, x)
        * 4.0 ** a * (x + 1.0) ** (-b) * (x + 2.0) ** (-2.0 * a)
        * hyp
    )


def sum_density_bhalf(a: float, x: float) -> float:
    """b = 1/2 case: the hypergeometric factor collapses by the binomial theorem."""
    if not (a > 0.0 and x > 0.0):
        raise DomainError("need a > 0 and x > 0")
    return math.exp(
        math.log(2.0) + gamma_ln(a + 0.5) - gamma_ln(a) - 0.5 * math.log(math.pi)
        + (2.0 * a - 1.0) * math.log(x)
        - 0.5 * math.log(x + 1.0) - 2.0 * a * math.log(x + 2.0)
    )


def beta_sum_density(p: BetaParams, x: float) -> float:
    """Density of Beta(a,b) + Beta(a,b) on (0,2).

    The closed form holds on (0,1); on (1,2) the same expression applies after
    swapping the two shape parameters and reflecting x to 2-x.
    """
    a, b = p.p, p.q
    if not (0.0 < x < 2.0):
        raise DomainError("the beta sum lives on (0, 2)")
    if x > 1.0:
        a, b = b, a
        x = 2.0 - x
    if x == 1.0:
        if a + b <= 1.0:
            return math.inf
        return (
            gamma_ratio([a + b, a + b, a + 0.5, a + b - 1.0],
                        [2.0 * a, b, b, a + b - 0.5, a])
            * 4.0 ** (1.0 - b)
        )
    z = -x * x / (4.0 * (1.0 - x))
    hyp = gauss_2f1(1.0 - b, a, a + 0.5, z)
    pref = math.exp(
        2.0 * gamma_ln(a + b) - gamma_ln(2.0 * a) - 2.0 * gamma_ln(b)
        + (2.0 * a - 1.0) * math.log(x) + (b - 1.0) * math.log(1.0 - x)
    )
    return pref * hyp


def mellin_sum(p: BetaPrimeParams, s: float) -> float:
    """Mellin transform E[(X + X')^s] of the iid beta prime sum.

    Finite exactly on the strip s in (-2a, b); evaluated through the single
    3F2(1) closed form.
    """
    a, b = p.a, p.b
    if not (-2.0 * a < s < b):
        raise DomainError(f"Mellin argument {s} outside the strip ({-2 * a}, {b})")
    hyp = hyp_3f2(
        HypArgs((a + s / 2.0, a + (s + 1.0) / 2.0, 0.5), (a + 0.5, a + b + 0.5), 1.0))
    log_pref = (
        (2.0 * a + s) * math.log(2.0)
        + 2.0 * gamma_ln(a + b) + gamma_ln(2.0 * b - s) + gamma_ln(2.0 * a + s)
        - gamma_ln(2.0 * a) - 2.0 * gamma_ln(b) - gamma_ln(2.0 * a + 2.0 * b)
    )
    return math.exp(log_pref) * hyp
