"""Beta, gamma and beta prime laws: densities, transforms, seeded samplers.

Sampling is vectorized and fully reproducible: an RngState built from a seed
always yields the same stream, and spawned substreams are independent and
deterministic as well. Every draw is one fill on the caller's generator, on
the calling thread, at every size.

Each law has one construction, chosen from its shapes alone, with E
standard exponential, Z standard normal and U uniform on (0, 1) (Devroye,
Non-Uniform Random Variate Generation, 1986, ch. IX):

    law                                 construction
    G(1/2), G(1), G(3/2), G(2)          Z^2/2, E, E + Z^2/2, E1 + E2
    other G(t), t < 1                   G(t+1) U^(1/t)
    other G(t), t > 1                   numpy's standard_gamma (Marsaglia-Tsang,
                                        ACM TOMS 26, 2000)
    Beta(1, q), BetaPrime(1, q)         -expm1(-E/q), expm1(E/q)
    Beta(p, 1), BetaPrime(p, 1)         exp(-E/p), 1/expm1(E/p)
    Beta(1/2, 1/2), BetaPrime(1/2, 1/2) sin^2(pi U/2), tan^2(pi U/2)
    other laws with p <= 1 and q <= 1   Jöhnk's rejection (Metrika 8, 1964)
    every other Beta, BetaPrime         G(p)/(G(p) + G(q)), G(p)/G(q)

The samplers do their arithmetic in place on the arrays they draw, in the
order the plain expressions would (``g * u`` becomes ``g *= u``), so every
value keeps its bits. The second operand of a gamma fill (the U^(1/t)
boost, the exponential addend of G(3/2) and G(2)) is drawn through one
reused buffer of _CHUNK = 2^15 values, in order along the same stream, so
it holds no temporary of its draw's size and its values are the bits of one
whole-size draw; the BetaPrime(p, 1) and shape-1/2 fills form their second
factor in that buffer too, and the Jöhnk fill draws its candidates into two
buffers of _CHUNK/2 values. A gamma ratio holds one second array, G(q), of
its draw's size. Each sampler fills a new array, or out= (numpy's
convention: a contiguous float64 array of shape (n,), returned). ``verify``
fills each KS side in place, one block of 2^18 values per call (see
bpl.identities), with no copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import gamma_ln

__all__ = [
    "BetaPrimeParams",
    "BetaParams",
    "GammaParams",
    "RngState",
    "betaprime_pdf",
    "betaprime_mellin",
    "sample_gamma",
    "sample_beta",
    "sample_betaprime",
]


@dataclass(frozen=True)
class BetaPrimeParams:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"beta prime shapes must be positive, got {self}")


@dataclass(frozen=True)
class BetaParams:
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0 and self.q > 0.0):
            raise DomainError(f"beta shapes must be positive, got {self}")


@dataclass(frozen=True)
class GammaParams:
    t: float

    def __post_init__(self):
        if not self.t > 0.0:
            raise DomainError(f"gamma shape must be positive, got {self}")


class RngState:
    """Explicit, seedable generator state threaded through all sampling."""

    def __init__(self, seed: int, _sequence: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._sequence = _sequence if _sequence is not None else np.random.SeedSequence(self.seed)
        self.generator = np.random.Generator(np.random.PCG64(self._sequence))

    def spawn(self, n: int) -> list["RngState"]:
        """n independent substreams, deterministic in the parent seed and the
        number of earlier spawns, whatever this state has drawn."""
        return [RngState(self.seed, child) for child in self._sequence.spawn(n)]

    def __repr__(self):
        return f"RngState(seed={self.seed})"


# ---------------------------------------------------------------------------
# Densities and exact transforms


def betaprime_pdf(p: BetaPrimeParams, x):
    """Density x^(a-1) (1+x)^(-a-b) Gamma(a+b) / (Gamma(a) Gamma(b)) on (0, inf)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise DomainError("beta prime density lives on (0, infinity)")
    lognorm = gamma_ln(p.a + p.b) - gamma_ln(p.a) - gamma_ln(p.b)
    out = np.exp(lognorm + (p.a - 1.0) * np.log(x) - (p.a + p.b) * np.log1p(x))
    return float(out) if out.ndim == 0 else out


def betaprime_mellin(p: BetaPrimeParams, s: float) -> float:
    """E[X^s] = Gamma(a+s) Gamma(b-s) / (Gamma(a) Gamma(b)) on the strip (-a, b)."""
    if not (-p.a < s < p.b):
        raise DomainError(f"Mellin argument {s} outside the strip ({-p.a}, {p.b})")
    return math.exp(gamma_ln(p.a + s) + gamma_ln(p.b - s) - gamma_ln(p.a) - gamma_ln(p.b))


# ---------------------------------------------------------------------------
# Samplers


# values per step of a fill's second operand: one reused buffer of 256 KB
_CHUNK = 1 << 15


def _chunks(out: np.ndarray):
    """(part, buf) over consecutive parts of out of at most _CHUNK values,
    with buf a view of one reused buffer of the part's size."""
    buf = np.empty(min(out.size, _CHUNK))
    for lo in range(0, out.size, _CHUNK):
        part = out[lo:lo + _CHUNK]
        yield part, buf[:part.size]


def _add_exponentials(gen: np.random.Generator, out: np.ndarray) -> None:
    for part, e in _chunks(out):
        part += gen.standard_exponential(out=e)


def _fill_gamma(gen: np.random.Generator, shape: float, out: np.ndarray) -> None:
    """G(shape) by the cheapest exact construction of its shape:
    G(1/2) = Z^2/2, G(1) = E, G(3/2) = E + Z^2/2 and G(2) = E + E, with Z
    standard normal and E standard exponential; other shapes below 1
    G(t+1) U^(1/t), and the rest numpy's Marsaglia-Tsang ``standard_gamma``.
    Against Marsaglia-Tsang, 10^6 values took about 21 -> 10.5 ms at t = 1/2
    and 17.5 -> 10 ms at t = 2 (numpy 2.4, 2-vCPU Xeon VM)."""
    if shape in (0.5, 1.5):
        gen.standard_normal(out=out)
        out *= out
        out *= 0.5
        if shape == 1.5:
            _add_exponentials(gen, out)
    elif shape in (1.0, 2.0):
        gen.standard_exponential(out=out)
        if shape == 2.0:
            _add_exponentials(gen, out)
    elif shape < 1.0:
        gen.standard_gamma(shape + 1.0, out=out)
        for part, u in _chunks(out):
            gen.random(out=u)
            u **= 1.0 / shape
            part *= u
    else:
        gen.standard_gamma(shape, out=out)


def _fill_one_variate(gen: np.random.Generator, p: float, q: float, prime: bool,
                      out: np.ndarray) -> None:
    """Beta(p, q), or BetaPrime(p, q) if prime, by its inverse cdf on one
    standard exponential E or uniform U per value, where a shape is 1 or both
    are 1/2:
    Beta(1, q) = -expm1(-E/q), BetaPrime(1, q) = expm1(E/q),
    Beta(p, 1) = exp(-E/p), BetaPrime(p, 1) = 1/expm1(E/p),
    Beta(1/2, 1/2) = sin^2(pi U/2) and BetaPrime(1/2, 1/2) = tan^2(pi U/2).

    BetaPrime(p, 1) is formed as exp(-E/p) / -expm1(-E/p), which keeps its
    values down to the subnormal range: 1/expm1(E/p) would overflow to
    1/inf = 0 past E/p = 709.8. The shape-1/2 laws are formed from
    t = tan(pi U/4) and s = tan(pi (1 - U)/4), both of an argument in
    [0, pi/4]: sin(pi U/2) = 2t/(1 + t^2) and tan(pi U/2) = t (1 + s)^2/(2s),
    which keeps full relative precision as U -> 1, where tan(pi U/2) itself
    does not. numpy's tan is vectorised; its sin took about six times as
    long (numpy 2.4, 2-vCPU Xeon VM)."""
    if p == 1.0:
        gen.standard_exponential(out=out)
        out /= q if prime else -q
        np.expm1(out, out=out)
        if not prime:
            np.negative(out, out=out)
    elif q == 1.0:
        gen.standard_exponential(out=out)
        out /= -p
        if prime:
            for part, v in _chunks(out):
                np.expm1(part, out=v)
                np.exp(part, out=part)
                part /= v
                np.negative(part, out=part)
        else:
            np.exp(out, out=out)
    elif prime:
        gen.random(out=out)
        for t, s in _chunks(out):
            np.subtract(1.0, t, out=s)
            s *= 0.25 * math.pi
            np.tan(s, out=s)
            t *= 0.25 * math.pi
            np.tan(t, out=t)
            t /= s
            s += 1.0
            t *= s
            t *= s
            t *= 0.5
        out *= out
    else:
        gen.random(out=out)
        out *= 0.25 * math.pi
        np.tan(out, out=out)
        for t, v in _chunks(out):
            np.multiply(t, t, out=v)
            v += 1.0
            t /= v
        out *= 2.0
        out *= out


# candidates per round of a Jöhnk fill: its two candidate buffers and the
# temporary of a round's kept values stay within 1.5 _CHUNK values
_BATCH = _CHUNK >> 1


def _fill_johnk(gen: np.random.Generator, p: float, q: float, prime: bool,
                out: np.ndarray) -> None:
    """Beta(p, q), or BetaPrime(p, q) if prime, for p <= 1 and q <= 1, by
    Jöhnk's rejection (Metrika 8, 1964; Devroye 1986, ch. IX.3) on log
    scale: with lx = -E1/p and ly = -E2/q, E standard exponential, a
    candidate is kept when exp(lx) + exp(ly) <= 1, which happens with
    probability Gamma(p+1) Gamma(q+1) / Gamma(p+q+1) >= 1/2, and gives
    BetaPrime = exp(d) and Beta = 1/(1 + exp(-d)), d = lx - ly. The logistic
    is exp(d)/(1 + exp(d)) for d <= 0 and 1/(1 + exp(-d)) otherwise, both from
    exp(-|d|) <= 1, so it never overflows; and a pair whose exp(lx) and
    exp(ly) both underflow still has a finite d, where a ratio of two gamma
    draws that both underflow is 0/0.

    Rounds of m = min(_BATCH, values still missing) candidates, E1 then E2
    each drawn whole, append their kept values to out in order, so no round
    keeps more than it needs and the values are a function of the stream
    alone. The buffers are made once per fill; a round's kept values are
    copied out through one temporary of at most m values."""
    size = min(out.size, _BATCH)
    lx, ly = np.empty(size), np.empty(size)
    keep = np.empty(size, dtype=bool)
    filled = 0
    while filled < out.size:
        m = min(size, out.size - filled)
        x, y, k = lx[:m], ly[:m], keep[:m]
        gen.standard_exponential(out=x)
        x /= -p
        gen.standard_exponential(out=y)
        y /= -q
        # the free tail of out holds exp(lx) + exp(ly)
        s = out[filled:filled + m]
        np.exp(x, out=s)
        x -= y
        s += np.exp(y, out=y)
        np.less_equal(s, 1.0, out=k)
        kept = np.count_nonzero(k)
        d = out[filled:filled + kept]
        d[...] = x[k]
        if prime:
            np.exp(d, out=d)
        else:
            # t = exp(-|d|), then max(t, [d > 0]) / (1 + t); ufuncs with a
            # where= mask took about 15 times as long
            pos = np.greater(d, 0.0, out=k[:kept])
            np.abs(d, out=d)
            np.negative(d, out=d)
            np.exp(d, out=d)
            v = np.add(d, 1.0, out=y[:kept])
            np.maximum(d, pos, out=d)
            d /= v
        filled += kept


def _fill_ratio(gen: np.random.Generator, p: float, q: float, prime: bool,
                out: np.ndarray) -> None:
    """Beta(p, q) = G(p) / (G(p) + G(q)), or BetaPrime(p, q) = G(p) / G(q) if
    prime: G(p) into out, then G(q) into a new array, from one generator."""
    _fill_gamma(gen, p, out)
    g2 = np.empty(out.size)
    _fill_gamma(gen, q, g2)
    if not prime:
        g2 += out
    out /= g2


def _out(n: int, out: np.ndarray | None) -> np.ndarray:
    """A new array of n values, or out if it is one a fill can take."""
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == (n,) and out.flags.c_contiguous
                                and out.flags.writeable):
        raise DomainError(f"out must be a writable contiguous float64 array of shape ({n},)")
    return np.empty(n) if out is None else out


def sample_gamma(p: GammaParams, rng: RngState, n: int, *, out=None) -> np.ndarray:
    out = _out(int(n), out)
    _fill_gamma(rng.generator, p.t, out)
    return out


def _beta_family(p: float, q: float, prime: bool, rng: RngState, n: int,
                 out: np.ndarray | None) -> np.ndarray:
    """n draws of Beta(p, q), or BetaPrime(p, q) if prime, by the one fill its
    shapes pick: the one-variate fill where a shape is 1 or both are 1/2,
    else Jöhnk's where both shapes are at most 1, else the gamma ratio."""
    out = _out(int(n), out)
    if p == 1.0 or q == 1.0 or p == q == 0.5:
        fill = _fill_one_variate
    elif p <= 1.0 and q <= 1.0:
        fill = _fill_johnk
    else:
        fill = _fill_ratio
    fill(rng.generator, p, q, prime, out)
    return out


def sample_beta(p: BetaParams, rng: RngState, n: int, *, out=None) -> np.ndarray:
    return _beta_family(p.p, p.q, False, rng, n, out)


def sample_betaprime(p: BetaPrimeParams, rng: RngState, n: int, *, out=None) -> np.ndarray:
    return _beta_family(p.a, p.b, True, rng, n, out)
