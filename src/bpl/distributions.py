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
value keeps its bits. The second operand of a fill, the U^(1/t) boost of
``_fill_gamma`` and the exponential addend of ``_fill_half``, is drawn
through one reused buffer of _CHUNK = 2^15 values, in order along the same
stream, so a fill holds no temporary of its draw's size and its values are
the bits of one whole-size draw. Each returned array is fresh and owned by
the caller. ``verify`` draws each KS side in blocks of 2 _SPLIT values (see
bpl.identities), so the samplers' temporaries stay those of one block
whatever the sample size.

``RngState.spawn`` derives its children from a SeedSequence of its own, set
aside when the state is made: the ``gen.spawn(1)`` of a split draw advances
the generator's sequence, and would otherwise shift every child spawned
after a large draw.
"""

from __future__ import annotations

import math
import threading
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
        seq = _sequence if _sequence is not None else np.random.SeedSequence(self.seed)
        self.generator = np.random.Generator(np.random.PCG64(seq))
        # a copy for spawn() alone: the generator's own sequence is advanced
        # by the gen.spawn(1) of every split draw (_gamma)
        self._sequence = np.random.SeedSequence(
            seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size,
            n_children_spawned=seq.n_children_spawned)

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

# values per step of a fill's second operand: one reused buffer of 256 KB
_CHUNK = _SPLIT >> 2


def _chunks(out: np.ndarray):
    """(part, buf) over consecutive parts of out of at most _CHUNK values,
    with buf a view of one reused buffer of the part's size."""
    buf = np.empty(min(out.size, _CHUNK))
    for lo in range(0, out.size, _CHUNK):
        part = out[lo:lo + _CHUNK]
        yield part, buf[:part.size]


def _fill_gamma(gen: np.random.Generator, shape: float, out: np.ndarray) -> None:
    if shape < 1.0:
        gen.standard_gamma(shape + 1.0, out=out)
        for part, u in _chunks(out):
            gen.random(out=u)
            u **= 1.0 / shape
            part *= u
    else:
        gen.standard_gamma(shape, out=out)


def _add_exponentials(gen: np.random.Generator, out: np.ndarray) -> None:
    for part, e in _chunks(out):
        part += gen.standard_exponential(out=e)


def _fill_half(gen: np.random.Generator, shape: float, out: np.ndarray) -> None:
    """One half of a split draw, by the cheapest exact construction of its
    shape: G(1/2) = Z^2/2, G(1) = E, G(3/2) = E + Z^2/2 and G(2) = E + E, with
    Z standard normal and E standard exponential; other shapes _fill_gamma."""
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
