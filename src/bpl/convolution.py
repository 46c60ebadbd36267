"""Closed-form densities and Mellin transforms of beta prime convolutions.

Several independently derived expressions for the same objects live side by
side (Appell-integral form, Gauss-hypergeometric form, two Pfaff-transformed
variants) and are used as mutually cross-checking implementations.

Array contract: every density takes an array of x and returns an array of
its shape (a float for a scalar x). Every x must lie in the support, or
DomainError is raised before anything is evaluated; each closed-form branch
is a mask over the array, and the whole flattened array is one call
(quadrature._flat). The Appell form spends one quadrature column per x
inside appell_f1, which blocks its own columns. mellin_sum stays scalar in
s: each s moves the parameters of its 3F2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import BetaPrimeParams
from .errors import DomainError
from .quadrature import _flat
from .special import appell_f1, gamma_ln, gauss_2f1, hyp_3f2

__all__ = [
    "SumSpec",
    "sum_density_appell",
    "sum_density_2f1",
    "sum_density_pfaff1",
    "sum_density_pfaff2",
    "sum_density_bhalf",
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


_SUM_SUPPORT = "the sum lives on (0, infinity)"


def sum_density_appell(spec: SumSpec, x):
    """Density of lam*X1 + mu*X2 at every x > 0, through the Appell F1 closed
    form (one quadrature column per x, in appell_f1)."""
    a, b = spec.p1.a, spec.p1.b
    c, d = spec.p2.a, spec.p2.b
    lam, mu = spec.lam, spec.mu
    # prefactor from folding the convolution integral through the Picard
    # representation: Gamma(a+b) Gamma(c+d) / (Gamma(b) Gamma(d) Gamma(a+c))
    log_const = (
        gamma_ln(a + b) + gamma_ln(c + d) - gamma_ln(b) - gamma_ln(d) - gamma_ln(a + c)
        - a * math.log(lam) + d * math.log(mu)
    )

    def block(xs):
        f1 = appell_f1(a, a + b, c + d, a + c, -xs / lam, xs / (xs + mu))
        return np.exp(log_const + (a + c - 1.0) * np.log(xs) - (c + d) * np.log(xs + mu)) * f1

    return _flat(block, x, _SUM_SUPPORT)


def _phi_prefactor(p: BetaPrimeParams, x: np.ndarray) -> np.ndarray:
    return np.exp(
        2.0 * gamma_ln(p.a + p.b) - gamma_ln(2.0 * p.a) - 2.0 * gamma_ln(p.b)
        + (2.0 * p.a - 1.0) * np.log(x)
    )


def sum_density_2f1(p: BetaPrimeParams, x):
    """Density of BetaPrime(a,b) + BetaPrime(a,b) at every x > 0 of an array
    (Gauss form; a float for a scalar x)."""
    a, b = p.a, p.b

    def block(xs):
        z = -xs * xs / (4.0 * (xs + 1.0))
        hyp = gauss_2f1(a + b, a, a + 0.5, z)
        return _phi_prefactor(p, xs) * (xs + 1.0) ** (-a - b) * hyp

    return _flat(block, x, _SUM_SUPPORT)


def sum_density_pfaff1(p: BetaPrimeParams, x):
    """Pfaff-transformed variant with argument (x/(x+2))^2; stable for large x."""
    a, b = p.a, p.b

    def block(xs):
        hyp = gauss_2f1(a + b, 0.5, a + 0.5, (xs / (xs + 2.0)) ** 2)
        return _phi_prefactor(p, xs) * 4.0 ** (a + b) * (xs + 2.0) ** (-2.0 * (a + b)) * hyp

    return _flat(block, x, _SUM_SUPPORT)


def sum_density_pfaff2(p: BetaPrimeParams, x):
    """Second Pfaff variant, the starting point of the Mellin evaluation."""
    a, b = p.a, p.b

    def block(xs):
        hyp = gauss_2f1(0.5 - b, a, a + 0.5, (xs / (xs + 2.0)) ** 2)
        return (_phi_prefactor(p, xs)
                * 4.0 ** a * (xs + 1.0) ** (-b) * (xs + 2.0) ** (-2.0 * a) * hyp)

    return _flat(block, x, _SUM_SUPPORT)


def sum_density_bhalf(a: float, x):
    """b = 1/2 case: the hypergeometric factor collapses by the binomial theorem."""
    if not a > 0.0:
        raise DomainError("need a > 0")
    log_const = math.log(2.0) + gamma_ln(a + 0.5) - gamma_ln(a) - 0.5 * math.log(math.pi)
    return _flat(
        lambda xs: np.exp(log_const + (2.0 * a - 1.0) * np.log(xs)
                          - 0.5 * np.log(xs + 1.0) - 2.0 * a * np.log(xs + 2.0)),
        x, _SUM_SUPPORT)


def mellin_sum(p: BetaPrimeParams, s: float) -> float:
    """Mellin transform E[(X + X')^s] of the iid beta prime sum.

    Finite exactly on the strip s in (-2a, b); evaluated through the single
    3F2(1) closed form.
    """
    a, b = p.a, p.b
    if not (-2.0 * a < s < b):
        raise DomainError(f"Mellin argument {s} outside the strip ({-2 * a}, {b})")
    hyp = hyp_3f2((a + s / 2.0, a + (s + 1.0) / 2.0, 0.5), (a + 0.5, a + b + 0.5))
    log_pref = (
        (2.0 * a + s) * math.log(2.0)
        + 2.0 * gamma_ln(a + b) + gamma_ln(2.0 * b - s) + gamma_ln(2.0 * a + s)
        - gamma_ln(2.0 * a) - 2.0 * gamma_ln(b) - gamma_ln(2.0 * a + 2.0 * b)
    )
    return math.exp(log_pref) * hyp
