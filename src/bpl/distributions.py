"""Beta, gamma and beta prime laws: densities, transforms, seeded samplers.

Sampling is vectorized and fully reproducible: an RngState built from a seed
always yields the same stream, and spawned substreams are independent and
deterministic as well. Gamma variates come from numpy's compiled
``Generator.standard_gamma`` (the Marsaglia-Tsang squeeze method, ACM TOMS 26,
2000); shapes t < 1 draw a shape t + 1 variate times U^(1/t). Beta and beta
prime variates are ratios of two such gamma draws, left shape first, but
for the one-variate and Jöhnk laws of large draws below. Streams are
deterministic per seed, but they differ from those of the earlier
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

A beta or beta prime draw of 2^17 values or more whose law has a shape equal
to 1, or both shapes equal to 1/2, takes the same split plan, each half
filled by the law's inverse cdf on one standard exponential E or uniform U
per value (Devroye, Non-Uniform Random Variate Generation, 1986, ch. IX):
Beta(1, q) = -expm1(-E/q), BetaPrime(1, q) = expm1(E/q), Beta(p, 1) =
exp(-E/p), BetaPrime(p, 1) = 1/expm1(E/p), Beta(1/2, 1/2) = sin^2(pi U/2)
and BetaPrime(1/2, 1/2) = tan^2(pi U/2), in place of two gamma draws and a
division (a block of 2^18 values: about 5-9 -> 1.5-2 ms on a 2-vCPU Xeon
VM).

A beta or beta prime draw of 2^17 values or more whose shapes are both at
most 1, and that has no one-variate fill, takes the split plan with each
half filled by Jöhnk's rejection (Metrika 8, 1964; Devroye 1986, ch. IX.3)
on log scale: lx = -E1/p and ly = -E2/q are kept when exp(lx) + exp(ly) <= 1,
with probability Gamma(p+1) Gamma(q+1) / Gamma(p+q+1), at least 1/2 on this
square (0.93 at (1/4, 1/4)), and give BetaPrime = exp(lx - ly) and Beta =
1/(1 + exp(ly - lx)) (a block of 2^18 values: about 15-20 -> 6-8 ms). Every
other law, and every draw below 2^17 values, keeps the ratio of gammas and
its streams.

The samplers do their arithmetic in place on the arrays they draw, in the
order the plain expressions would (``g * u`` becomes ``g *= u``), so every
value keeps its bits. The second operand of a fill, the U^(1/t) boost of
``_fill_gamma`` and the exponential addend of ``_fill_half``, is drawn
through one reused buffer of _CHUNK = 2^15 values, in order along the same
stream, so a fill holds no temporary of its draw's size and its values are
the bits of one whole-size draw; the BetaPrime(p, 1) and shape-1/2 fills
of ``_fill_one_variate`` form their second factor in that buffer too, and
``_fill_johnk`` draws its candidates into two buffers of _CHUNK/2 values.
Each returned array is fresh and owned by the caller. ``verify`` draws each KS
side in blocks of 2 _SPLIT values (see bpl.identities), so the samplers'
temporaries stay those of one block whatever the sample size.

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
    on the calling one. The worker runs under the caller's numpy
    floating-point error settings (np.errstate is per thread). The worker is
    joined before this returns or raises, and an exception it raised is
    raised again here, so nothing reaches the thread's excepthook."""
    result = []
    errors = np.geterr()

    def run():
        try:
            with np.errstate(**errors):
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


def _split(gen: np.random.Generator, n: int, fill) -> np.ndarray:
    """n values from fill(gen, out[:n // 2]) on this thread while
    fill(gen.spawn(1)[0], out[n // 2:]) runs on a worker thread, the child
    made before the worker starts, so the result depends on the seed and n
    only."""
    out = np.empty(n)
    child = gen.spawn(1)[0]
    half = n // 2
    _on_two_threads(lambda: fill(child, out[half:]), lambda: fill(gen, out[:half]))
    return out


def _gamma(gen: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """n draws of G(shape). Below _SPLIT values, numpy's compiled
    Marsaglia-Tsang ``standard_gamma``, with the U^(1/t) boost for shapes
    below 1; those streams are kept, so the CLI's default-size runs keep
    their outputs.

    From _SPLIT values on, a _split draw with each half by _fill_half.
    Against Marsaglia-Tsang halves, 10^6 values took about 21 -> 10.5 ms at
    t = 1/2 and 17.5 -> 10 ms at t = 2 (numpy 2.4, 2-vCPU Xeon VM)."""
    if n >= _SPLIT:
        return _split(gen, n, lambda g, out: _fill_half(g, shape, out))
    out = np.empty(n)
    _fill_gamma(gen, shape, out)
    return out


def _fill_one_variate(gen: np.random.Generator, p: float, q: float, prime: bool,
                      out: np.ndarray) -> None:
    """Beta(p, q), or BetaPrime(p, q) if prime, by its inverse cdf on one
    standard exponential E or uniform U per value, where _one_variate(p, q):
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
# temporary that copies a round's kept values out stay within 1.5 _CHUNK
# values (_CHUNK candidates would make the two fills of a split draw hold
# about 6 _CHUNK at once)
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


def _split_fill(p: float, q: float, n: int):
    """The fill(gen, p, q, prime, out) of a split draw of n values of Beta(p, q)
    or BetaPrime(p, q): the one-variate fill where a shape is 1 or both are
    1/2, else Jöhnk's where both shapes are at most 1; None below _SPLIT
    values and for every other law, which take the ratio of two gamma
    draws."""
    if n < _SPLIT:
        return None
    if p == 1.0 or q == 1.0 or p == q == 0.5:
        return _fill_one_variate
    if p <= 1.0 and q <= 1.0:
        return _fill_johnk
    return None


def _beta_family(p: float, q: float, prime: bool, rng: RngState, n: int) -> np.ndarray:
    """n draws of Beta(p, q), or BetaPrime(p, q) if prime: a _split draw of
    the law's _split_fill, else G(p) / (G(p) + G(q)) or G(p) / G(q)."""
    fill = _split_fill(p, q, n)
    if fill is not None:
        return _split(rng.generator, n, lambda gen, out: fill(gen, p, q, prime, out))
    g1 = _gamma(rng.generator, p, n)
    g2 = _gamma(rng.generator, q, n)
    if not prime:
        g2 += g1
    g1 /= g2
    return g1


def sample_gamma(p: GammaParams, rng: RngState, size: int | None = None):
    vals = _gamma(rng.generator, p.t, 1 if size is None else int(size))
    return float(vals[0]) if size is None else vals


def sample_beta(p: BetaParams, rng: RngState, size: int | None = None):
    vals = _beta_family(p.p, p.q, False, rng, 1 if size is None else int(size))
    return float(vals[0]) if size is None else vals


def sample_betaprime(p: BetaPrimeParams, rng: RngState, size: int | None = None):
    vals = _beta_family(p.a, p.b, True, rng, 1 if size is None else int(size))
    return float(vals[0]) if size is None else vals
