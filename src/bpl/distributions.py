"""Beta, gamma and beta prime laws: densities, transforms, seeded samplers.

Sampling is vectorized and fully reproducible: an RngState built from a seed
always yields the same stream, and spawned substreams are independent and
deterministic as well. Gamma variates come from numpy's compiled
``Generator.standard_gamma`` (the Marsaglia-Tsang squeeze method, ACM TOMS 26,
2000); shapes t < 1 draw a shape t + 1 variate times U^(1/t). Beta and beta
prime variates are ratios of two such gamma draws, left shape first. Streams
are deterministic per seed, but they differ from those of the earlier
pure-Python Marsaglia-Tsang loop, so sampled statistics (KS values) changed
when that loop was replaced.

A gamma draw of 2^17 values or more is split in two halves: the caller's
generator fills the first on the calling thread, and a child generator
(``gen.spawn(1)[0]``, made before the worker starts) fills the second on one
short-lived worker thread. numpy's fills release the GIL, so the halves run
at once. The values are a function of the seed and the size alone, whatever
the thread timing or the machine's core count; smaller draws come from the
caller's generator as before. Each half takes the cheapest exact
construction of its shape: G(1/2) = Z^2/2 with Z standard normal,
G(3/2) = E + Z^2/2 and G(2) = E + E with E standard exponential, and
G(1) = E, numpy's own shape-1 path; other shapes keep Marsaglia-Tsang. The
split and these constructions moved the KS statistics of sampling runs at
2^17 values per side or more, and nothing below that size: draws there keep
their Marsaglia-Tsang streams, so every default-size CLI output keeps its
bits.

The samplers do their arithmetic in place on the arrays they draw, in the
order the plain expressions would (``g * u`` becomes ``g *= u``), so every
value keeps its bits while at most three draw-sized arrays are live per
sampler: ``verify`` holds one side of its KS test while it draws the other,
and this keeps its peak memory down. Each returned array is fresh and owned by the caller.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .options import DIVERGENCE_CHECK
from .quadrature import _flat, halfline_power
from .special import gamma_ln, tricomi_psi

__all__ = [
    "BetaPrimeParams",
    "BetaParams",
    "GammaParams",
    "RngState",
    "betaprime_pdf",
    "betaprime_mellin",
    "betaprime_laplace",
    "beta_pdf",
    "sample_gamma",
    "sample_beta",
    "sample_betaprime",
    "size_bias_pdf",
    "size_bias_norm",
    "size_bias_sample",
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
        """n independent substreams, deterministic in the parent seed."""
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


def betaprime_laplace(p: BetaPrimeParams, z):
    """E[exp(-z X)] = Gamma(a+b)/Gamma(b) * Psi(a, 1-b, z) at every z >= 0 of
    an array (a float for a scalar z); 1 at z = 0."""
    if not np.all(np.asarray(z, dtype=float) >= 0.0):
        raise DomainError("Laplace transform evaluated on z >= 0")
    scale = math.exp(gamma_ln(p.a + p.b) - gamma_ln(p.b))

    def block(zs):
        out = np.ones(zs.shape)
        pos = zs > 0.0
        out[pos] = scale * tricomi_psi(p.a, 1.0 - p.b, zs[pos])
        return out

    return _flat(block, z)


def beta_pdf(p: BetaParams, x):
    x = np.asarray(x, dtype=float)
    lognorm = gamma_ln(p.p + p.q) - gamma_ln(p.p) - gamma_ln(p.q)
    with np.errstate(divide="ignore"):
        out = np.where(
            (x > 0.0) & (x < 1.0),
            np.exp(lognorm + (p.p - 1.0) * np.log(np.clip(x, 1e-308, None))
                   + (p.q - 1.0) * np.log1p(-np.clip(x, None, 1.0 - 1e-16))),
            0.0,
        )
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Samplers


def _on_two_threads(worker, here):
    """(worker(), here()), with worker run on one short-lived thread and here
    on the calling one. The worker is joined before this returns or raises,
    and an exception it raised is raised again here, so nothing reaches the
    thread's excepthook."""
    result = []

    def run():
        try:
            result.append((True, worker()))
        except BaseException as exc:
            result.append((False, exc))

    thread = threading.Thread(target=run)
    thread.start()
    try:
        mine = here()
    finally:
        thread.join()
    ok, theirs = result[0]
    if not ok:
        raise theirs
    return theirs, mine


# draws of this many values or more are split over two threads: half a draw
# then costs about 1.3 ms against about 0.1 ms to start a thread, and the CLI
# default --n 100000 and scan cjmain's 30,000 stay below it
_SPLIT = 1 << 17


def _fill_gamma(gen: np.random.Generator, shape: float, out: np.ndarray) -> None:
    if shape < 1.0:
        gen.standard_gamma(shape + 1.0, out=out)
        u = gen.random(out.size)
        u **= 1.0 / shape
        out *= u
    else:
        gen.standard_gamma(shape, out=out)


def _fill_half(gen: np.random.Generator, shape: float, out: np.ndarray) -> None:
    """One half of a split draw, by the cheapest exact construction of its
    shape: G(1/2) = Z^2/2, G(1) = E, G(3/2) = E + Z^2/2 and G(2) = E + E, with
    Z standard normal and E standard exponential; other shapes _fill_gamma."""
    if shape in (0.5, 1.5):
        gen.standard_normal(out=out)
        out *= out
        out *= 0.5
        if shape == 1.5:
            out += gen.standard_exponential(out.size)
    elif shape in (1.0, 2.0):
        gen.standard_exponential(out=out)
        if shape == 2.0:
            out += gen.standard_exponential(out.size)
    else:
        _fill_gamma(gen, shape, out)


def _gamma(gen: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """n draws of G(shape). Below _SPLIT values, numpy's compiled
    Marsaglia-Tsang ``standard_gamma``, with the U^(1/t) boost for shapes
    below 1; those streams are kept, so the CLI's default-size runs keep
    their outputs.

    From _SPLIT values on, gen fills out[:n // 2] on this thread while the
    child gen.spawn(1)[0] fills out[n // 2:] on a worker thread, each half
    by _fill_half, so the result depends on the seed and n only. Against
    Marsaglia-Tsang halves, 10^6 values took about 21 -> 10.5 ms at t = 1/2
    and 17.5 -> 10 ms at t = 2 (numpy 2.4, 2-vCPU Xeon VM)."""
    out = np.empty(n)
    if n < _SPLIT:
        _fill_gamma(gen, shape, out)
        return out
    child = gen.spawn(1)[0]
    half = n // 2
    _on_two_threads(lambda: _fill_half(child, shape, out[half:]),
                    lambda: _fill_half(gen, shape, out[:half]))
    return out


def sample_gamma(p: GammaParams, rng: RngState, size: int | None = None):
    vals = _gamma(rng.generator, p.t, 1 if size is None else int(size))
    return float(vals[0]) if size is None else vals


def sample_beta(p: BetaParams, rng: RngState, size: int | None = None):
    n = 1 if size is None else int(size)
    g1 = _gamma(rng.generator, p.p, n)
    g2 = _gamma(rng.generator, p.q, n)
    g2 += g1
    g1 /= g2
    return float(g1[0]) if size is None else g1


def sample_betaprime(p: BetaPrimeParams, rng: RngState, size: int | None = None):
    n = 1 if size is None else int(size)
    g1 = _gamma(rng.generator, p.a, n)
    g1 /= _gamma(rng.generator, p.b, n)
    return float(g1[0]) if size is None else g1


# ---------------------------------------------------------------------------
# Size-biasing


def size_bias_norm(base_pdf, t: float) -> float:
    """E[X^t] for a density on (0, inf); DomainError if the integral diverges,
    which DIVERGENCE_CHECK's small refinement budget detects."""
    if t == 0.0:
        return 1.0
    try:
        norm = halfline_power(lambda x: np.asarray(base_pdf(x), dtype=float), t,
                              DIVERGENCE_CHECK)
    except QuadratureError as exc:
        raise DomainError(f"size-bias normalization of order {t} diverges") from exc
    if not math.isfinite(norm) or norm <= 0.0:
        raise DomainError(f"size-bias normalization of order {t} diverges")
    return norm


def size_bias_pdf(base_pdf, t: float, x, norm: float | None = None):
    """Density of the order-t size bias: x^t f(x) / E[X^t]."""
    if norm is None:
        norm = size_bias_norm(base_pdf, t)
    x = np.asarray(x, dtype=float)
    out = x ** t * np.asarray(base_pdf(x), dtype=float) / norm
    return float(out) if out.ndim == 0 else out


def size_bias_sample(base_sampler, t: float, rng: RngState, size: int | None = None):
    """Weighted rejection against the base sampler, with weight bound 1: x^t
    must not exceed 1 on the support of the base law (t <= 0 with support in
    [1, inf), or t >= 0 with support in (0, 1]), or DomainError is raised.
    """
    n = 1 if size is None else int(size)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(64, 2 * (n - filled))
        draws = np.asarray(base_sampler(rng, m), dtype=float)
        w = draws ** t
        if np.any(w > 1.0 + 1e-12):
            raise DomainError("x^t exceeds the weight bound 1 on the support")
        keep = draws[rng.generator.random(m) < w]
        take = min(keep.size, n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return float(out[0]) if size is None else out
