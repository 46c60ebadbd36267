"""Adaptive Gauss-Kronrod quadrature, one mesh per call, and fixed Jacobi rules.

Every public entry point (integrate, power_weighted, beta_kernel,
halfline_power) is one adaptive refinement of QUADPACK's 15-point
Gauss-Kronrod rule over one mesh, and none calls another. A half-line is one
mesh over v in [-1, 1] with both of its ends at v = 0, one on each side, so
each keeps full relative resolution. Algebraic endpoint factors are never
formed as x^k for rounded x: power_weighted integrates x^kappa R(x) over
y = log(top/x), where the endpoint power is the exact decay
exp((kappa+1)(log top - y)), and beta_kernel and halfline_power evaluate
their two ends at the same y nodes. R must be finite at every positive
double in (0, top]; below the smallest normal double it is taken there.

Integrand contract: an integrand maps the nodes, an array of shape (N,), to
values of shape (N,) or (N, m); a constant is broadcast over the nodes. An
(N, m) integrand is m integrals on one mesh, called once per refinement
round, and each column j stops at its own tolerance rel_tol*|total_j| +
abs_tol. A (N,) integrand returns a float, an (N, m) one an array (m,).

Column blocks: a round may ask for at most _MAX_ROUND_VALUES values, so a
function with a column per value of a long array evaluates it through
column_blocks, one mesh per block. Closed forms and wrappers of a function
that blocks its own columns call the underlying _flat with the whole array.

Fixed rules: the Mellin factors of bpl.identities have algebraic endpoint
factors and an analytic rest, which Gauss-Jacobi rules integrate to rounding
with few nodes. _jacobi_pair (one axis) and _corner_split (the unit square)
return their 24-node value only where the 12-node one agrees to the
tolerance of DEFAULT_OPTIONS, and raise QuadratureError otherwise.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError
from .options import DEFAULT_OPTIONS, EvalOptions

# QUADPACK's dqk15 (Piessens et al., 1983): Kronrod nodes from -1 to the
# centre and their weights, then the weights of the embedded 7-point Gauss
# rule, whose nodes are the Kronrod nodes at indices 1, 3, ..., 13.
_XGK_LEFT = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
])
_WGK_LEFT = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG_LEFT = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_XGK = np.concatenate((_XGK_LEFT, -_XGK_LEFT[-2::-1]))
_WGK = np.concatenate((_WGK_LEFT, _WGK_LEFT[-2::-1]))
_WG = np.concatenate((_WG_LEFT, _WG_LEFT[-2::-1]))
_GAUSS_IDX = np.arange(1, 15, 2)

# Most integrand values (nodes times columns) one refinement round may ask
# for. A tolerance below the rounding floor makes every round split nearly
# every panel; this bound turns that doubling into a QuadratureError while the
# arrays are still a few MB.
_MAX_ROUND_VALUES = 1 << 19

# Widest column block of column_blocks: a round over a full block may still
# split 64 panels (2 * 15 * 64 * 273 values) within _MAX_ROUND_VALUES.
_BLOCK_COLUMNS = _MAX_ROUND_VALUES // (2 * _XGK.size * 64)

# power_weighted evaluates R no closer to 0 than the smallest normal double.
_TINY = np.finfo(float).tiny


class _RoundTooWide(QuadratureError):
    """A refinement round would ask for more than _MAX_ROUND_VALUES values."""


def _panels(f, a: np.ndarray, b: np.ndarray, where):
    """Kronrod estimates and error estimates over the intervals [a_i, b_i].

    One integrand call covers every panel. Returns values and errors of shape
    (panels, m) and whether the integrand returned columns. A non-finite
    value raises QuadratureError naming where(a, b) of the panels holding one.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = (mid[:, None] + half[:, None] * _XGK).ravel()
    fx = np.asarray(f(x), dtype=float)
    columns = fx.ndim > 1
    # (panel, node, column): every rule below is a product along the node axis
    fx = np.broadcast_to(fx, x.shape + fx.shape[1:]).reshape(a.size, _XGK.size, -1)
    bad = ~np.isfinite(fx).all(axis=(1, 2))
    if bad.any():
        raise QuadratureError(f"integrand not finite for {where(a[bad], b[bad])}")
    h = half[:, None]
    resk = h * (_WGK @ fx)
    resg = h * (_WG @ fx[:, _GAUSS_IDX])
    resabs = h * (_WGK @ np.abs(fx))
    reskh = resk / (b - a)[:, None]
    resasc = h * (_WGK @ np.abs(fx - reskh[:, None, :]))
    err = np.abs(resk - resg)
    scaled = (resasc > 0.0) & (err > 0.0)
    ratio = 200.0 * err / np.where(scaled, resasc, 1.0)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return resk, err, columns


def _adaptive(f, breakpoints, opts: EvalOptions, where, sides: int = 1):
    """Globally adaptive refinement of one shared mesh over an initial partition.

    Every round sums the values and error estimates of the live panels into
    each column's total and error err_j, and stops once every column meets its
    tolerance tol_j. Otherwise it splits, in one integrand call, every panel
    whose error exceeds the cut max(tol_j / 2n, err_j / 4n) of some column j
    still above its tolerance (n panels). The refinement budget counts rounds.
    A panel that must be split but sits at float resolution is kept whole,
    its error still in the totals, and raises once no other panel can be
    split or its own error exceeds a tolerance. where(lo, hi) names panels in
    the public variable. A round asks for at most _MAX_ROUND_VALUES payload
    values, sides per node and column.
    """
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)
    vals, errs, columns = _panels(f, lo, hi, where)
    m = vals.shape[1]
    for rounds in range(opts.max_quad_refinements + 1):
        total, total_err = vals.sum(axis=0), errs.sum(axis=0)
        tol = opts.rel_tol * np.abs(total) + opts.abs_tol
        open_cols = total_err > tol
        if not open_cols.any():
            return total if columns else float(total[0])
        if rounds == opts.max_quad_refinements:
            j = int(np.argmax(total_err - tol))
            raise QuadratureError(
                f"refinement budget exhausted: error {total_err[j]:.3e} > tolerance {tol[j]:.3e}"
            )
        n = lo.size
        cut = np.maximum(tol / (2.0 * n), total_err / (4.0 * n))[open_cols]
        split = np.flatnonzero((errs[:, open_cols] > cut).any(axis=1))
        mid = 0.5 * (lo[split] + hi[split])
        stuck = (mid <= lo[split]) | (mid >= hi[split])
        over = stuck & (errs[split] > tol).any(axis=1)
        if stuck.all() or over.any():
            i = split[np.argmax(over if over.any() else stuck)]
            raise QuadratureError(
                f"panel {where(lo[i], hi[i])} must be split but is at float resolution"
            )
        split, mid = split[~stuck], mid[~stuck]
        k = split.size
        if 2 * k * _XGK.size * m * sides > _MAX_ROUND_VALUES:
            raise _RoundTooWide(
                f"refinement round would split {k} of {n} panels over {m} columns"
            )
        c_lo = np.concatenate((lo[split], mid))
        c_hi = np.concatenate((mid, hi[split]))
        c_vals, c_errs, _ = _panels(f, c_lo, c_hi, where)
        lo = np.concatenate((np.delete(lo, split), c_lo))
        hi = np.concatenate((np.delete(hi, split), c_hi))
        vals = np.concatenate((np.delete(vals, split, axis=0), c_vals))
        errs = np.concatenate((np.delete(errs, split, axis=0), c_errs))


def _flat(fn, z, positive: str | None = None):
    """fn over the flattened values of z in one call, reshaped to the shape
    of z; a scalar z gives a float. With a message, every value must be > 0
    (NaN included) or DomainError is raised before fn is called."""
    zs = np.asarray(z, dtype=float).ravel()
    if positive is not None and not np.all(zs > 0.0):
        raise DomainError(positive)
    vals = fn(zs)
    return float(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def column_blocks(fn, z, positive: str | None = None, width: int = 1):
    """fn over the values of z, evaluated in blocks of columns.

    fn maps a 1-d array of values to an array of the same length and spends
    width quadrature columns of one shared mesh on each value. z and the
    positive message are those of _flat. Blocks hold at most
    _BLOCK_COLUMNS // width values. A block whose mesh grows so fine that a
    round over all its columns would exceed _MAX_ROUND_VALUES (a t or z near
    a singular end can need thousands of panels) is evaluated as two halves
    instead, down to single values.
    """
    step = max(_BLOCK_COLUMNS // width, 1)

    def blocks(zs):
        parts = [zs[i:i + step] for i in range(0, zs.size, step)] or [zs]
        return np.concatenate([_in_halves(fn, part) for part in parts])

    return _flat(blocks, z, positive)


def _in_halves(fn, zs: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(fn(zs), dtype=float)
    except _RoundTooWide:
        if zs.size < 2:
            raise
        half = zs.size // 2
        return np.concatenate((_in_halves(fn, zs[:half]), _in_halves(fn, zs[half:])))


def _halfline(R, sides, name: str, opts: EvalOptions):
    """integral_0^inf sum_k w_k(y, x_k) R(x_k) dy, x_k = x_k(y), over the pairs
    (x_k, w_k) of sides: one _adaptive call over v in [-1, 1], y = -v for
    v <= 0 and y = 1/v (Jacobian 1/v^2) for v > 0. The nodes reach y far
    beyond 1e15, so a tail too slow to converge raises QuadratureError
    instead of being cut off. Each integrand call evaluates R once, on all
    x_k, with numpy's overflow, invalid and divide warnings off. An error
    names its range in the variable name, through the x_k.
    """
    def pullback(v):
        far = v > 0.0
        y = np.where(far, 1.0 / v, -v)
        xs = [x_of(y) for x_of, _ in sides]
        r = np.asarray(R(np.concatenate(xs)), dtype=float)
        # (side, node, column), whether R returned columns or not
        rs = np.broadcast_to(r, (len(xs) * y.size,) + r.shape[1:]).reshape(len(xs), y.size, -1)
        total = sum(w(y, x)[:, None] * rx for (_, w), x, rx in zip(sides, xs, rs))
        total = total * np.where(far, 1.0 / (v * v), 1.0)[:, None]
        return total if r.ndim > 1 else total[:, 0]

    def where(lo, hi):
        # a panel lies on one side of v = 0; 1/0 is the end y = inf
        near = hi <= 0.0
        ys = np.array([np.min(np.where(near, np.abs(hi), 1.0 / hi)),
                       np.max(np.where(near, np.abs(lo), 1.0 / lo))])
        return f"{name} in " + " or ".join(
            f"[{np.min(x_of(ys))}, {np.max(x_of(ys))}]" for x_of, _ in sides)

    # graded toward v = 0+ so slowly decaying or far-out mass is still found
    breaks = np.concatenate(([-1.0, 0.0], np.logspace(-6.0, -0.75, 8), [1.0]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _adaptive(pullback, breaks, opts, where, len(sides))


def _exponents(*kappas: float) -> None:
    if min(kappas) <= -1.0:
        raise DomainError(f"non-integrable endpoint exponent {min(kappas)}")


def integrate(f, a: float, b: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """Adaptive integral of a vectorized, everywhere-finite integrand; b may
    be infinite, and the half-line is then _halfline's mesh in y = t - a."""
    if not a < b:
        raise DomainError(f"empty integration range [{a}, {b}]")
    if not math.isinf(b):
        return _adaptive(f, np.array([a, a + 0.5 * (b - a), b]), opts,
                         lambda lo, hi: f"t in [{np.min(lo)}, {np.max(hi)}]")
    return _halfline(f, [(lambda y: a + y, lambda y, t: np.ones_like(y))], "t", opts)


def power_weighted(R, kappa: float, top: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """integral_0^top x^kappa R(x) dx with the x^kappa factor kept exact.

    One half-line integral in y = log(top/x),
    integral_0^inf exp((kappa+1)(log top - y)) R(top e^-y) dy. The endpoint
    power, and any power x^b inside R, becomes an exact exponential decay in
    y. Contract: R is finite at every positive double in (0, top]. Below the
    smallest normal double t, R is taken at t while the weight keeps the
    exact power; that moves the integral by the integral of
    x^kappa (R(x) - R(t)) over [0, t], which matters only when kappa + 1 and
    the power b hidden in R are both below about 0.04.
    """
    if not top > 0.0:
        raise DomainError("need top > 0")
    _exponents(kappa)
    log_top = math.log(top)
    return _halfline(R, [(lambda y: np.maximum(top * np.exp(-y), _TINY),
                          lambda y, x: np.exp((kappa + 1.0) * (log_top - y)))], "x", opts)


def beta_kernel(R, kappa: float, lam: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """integral_0^1 x^kappa (1-x)^lam R(x) dx for kappa, lam > -1, R smooth-ish.

    Each half is power_weighted's integral in the distance d = e^-y / 2 to
    its end, x = d and 1 - x = d, and the halves are the two sides of one
    _halfline mesh, so exponents near -1 stay loss-free at either end.
    """
    _exponents(kappa, lam)
    log_half = math.log(0.5)

    def d(y):
        return np.maximum(0.5 * np.exp(-y), _TINY)

    return _halfline(R, [
        (d, lambda y, x: np.exp((kappa + 1.0) * (log_half - y)) * (1.0 - x) ** lam),
        (lambda y: 1.0 - d(y), lambda y, x: np.exp((lam + 1.0) * (log_half - y)) * x ** kappa),
    ], "x", opts)


def halfline_power(R, kappa: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """integral_0^inf t^kappa R(t) dt for kappa > -1 and decaying R: the two
    sides of one _halfline mesh, power_weighted's t = e^-y on (0, 1] and
    integrate's t = 1 + y on [1, inf)."""
    _exponents(kappa)
    return _halfline(R, [(lambda y: np.maximum(np.exp(-y), _TINY),
                          lambda y, t: np.exp(-(kappa + 1.0) * y)),
                         (lambda y: 1.0 + y, lambda y, t: t ** kappa)], "t", opts)


@lru_cache(maxsize=512)
def jacobi_rule(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes/weights for integral_0^1 x^beta (1-x)^alpha g(x) dx.

    alpha, beta > -1; Golub-Welsch on the Jacobi three-term recurrence. The
    weights are B(beta+1, alpha+1) v_0^2 with the beta function formed from
    its logarithm, so large exponents neither overflow nor lose the scale.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("Jacobi exponents must exceed -1")
    s = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (s + 2.0)
    k = np.arange(1, n, dtype=float)
    if n > 1:
        diag[1:] = (beta * beta - alpha * alpha) / ((2 * k + s) * (2 * k + s + 2.0))
        num = 4.0 * k * (k + alpha) * (k + beta) * (k + s)
        den = (2 * k + s) ** 2 * (2 * k + s + 1.0) * (2 * k + s - 1.0)
        with np.errstate(invalid="ignore"):
            off = np.sqrt(num / den)
        # k = 1 after cancelling the common (1+s) factor (0/0 when s = -1)
        off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + s) ** 2 * (3.0 + s)))
    jm = np.diag(diag)
    if n > 1:
        jm += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jm)
    # the [-1, 1] measure's 2^(alpha+beta+1) cancels against the map to [0, 1]
    lg = math.lgamma
    log_mass = lg(alpha + 1.0) + lg(beta + 1.0) - lg(s + 2.0)
    return 0.5 * (1.0 + nodes), math.exp(log_mass) * vecs[0] ** 2


# Nodes per axis of the coarse and the fine Gauss-Jacobi rule of _jacobi_pair
# and _corner_split; the fine value is returned once the two agree.
_RULE_NODES = (12, 24)

# A far panel of _edge_rules spans at most a factor exp(_PANEL_LOG_SPAN) of
# its axis's power x^e, which the coarse rule still integrates to rounding.
_PANEL_LOG_SPAN = 8.0


def _checked_pair(rule, what: str) -> float:
    """rule(n) at both node counts of _RULE_NODES: the fine value, or
    QuadratureError when the two differ by more than
    rel_tol*|fine| + abs_tol of DEFAULT_OPTIONS (or either is not finite)."""
    coarse, fine = (rule(n) for n in _RULE_NODES)
    tol = DEFAULT_OPTIONS.rel_tol * abs(fine) + DEFAULT_OPTIONS.abs_tol
    if not abs(fine - coarse) <= tol:
        raise QuadratureError(
            f"{what}: {_RULE_NODES[0]}- and {_RULE_NODES[1]}-node rules differ by "
            f"{abs(fine - coarse):.3e} > tolerance {tol:.3e}"
        )
    return fine


def _jacobi_pair(f, kappa: float, lam: float) -> float:
    """integral_0^1 x^kappa (1-x)^lam f(x) dx for f analytic on a
    neighbourhood of [0, 1], by Gauss-Jacobi rules with exact endpoint
    weights at both node counts of _RULE_NODES."""
    def rule(n):
        x, w = jacobi_rule(n, lam, kappa)
        return float(w @ f(x))

    return _checked_pair(rule, "Gauss-Jacobi rule")


@lru_cache(maxsize=512)
def _edge_rules(n: int, e: float, f: float, c: float):
    """Nodes and weights of x^e (1-x)^f dx on [0, c] and on [c, 1], n per
    panel, as ((x_near, w_near), (x_far, w_far)).

    The near rule carries x^e in its Jacobi weight and (1-x)^f in its
    weights. x^e has no such weight on [c, 1], where one panel would have to
    integrate it like a polynomial of degree e, so [c, 1] is cut at equal
    ratios into panels over each of which x^e varies by at most
    exp(_PANEL_LOG_SPAN). The last panel carries (1-x)^f in its Jacobi
    weight; the others, and x^e on every panel, go into the weights. One
    panel suffices for e <= 11 at c = 1/2.
    """
    x, w = jacobi_rule(n, 0.0, e)
    near = c * x, c ** (e + 1.0) * w * (1.0 - c * x) ** f
    panels = max(1, math.ceil(e * -math.log(c) / _PANEL_LOG_SPAN))
    cuts = c ** (1.0 - np.arange(panels + 1) / panels)
    x, w = jacobi_rule(n, 0.0, 0.0)
    lo, hi = cuts[:-2, None], cuts[1:-1, None]
    inner = lo + (hi - lo) * x
    inner_w = (hi - lo) * w * (1.0 - inner) ** f
    x, w = jacobi_rule(n, f, 0.0)
    last = cuts[-2] + (1.0 - cuts[-2]) * x
    last_w = (1.0 - cuts[-2]) ** (f + 1.0) * w
    far = np.concatenate([inner.ravel(), last])
    return near, (far, np.concatenate([inner_w.ravel(), last_w]) * far ** e)


def _corner_split(f, A: float, B: float, C: float, D: float, s: float,
                  c: float = 0.5) -> float:
    """integral over [0,1]^2 of u^A (1-u)^B v^C (1-v)^D (u+v)^s f(u, v),
    for f analytic on a neighbourhood of the square (it takes two
    broadcasting arrays), A, B, C, D, A+C+s+1 > -1, and B, D of order one
    (they enter the near rules of _edge_rules as weight factors).

    Both axes are split at c. The three blocks away from the corner are
    tensor products of the near and far rules of _edge_rules, so u^A and
    v^C stay exact for any size of A and C. On the corner block [0, c]^2
    the Duffy transform (M. G. Duffy, SIAM J. Numer. Anal. 19 (1982)
    1260-1262), v = r w on v < u and u = r w on u < v, turns the corner
    singularity of (u+v)^s into the weight r^(A+C+s+1) times w^C or w^A,
    leaving the analytic (1+w)^s. Every block then converges geometrically,
    and the rule runs at both node counts of _RULE_NODES per axis under
    _checked_pair's agreement test.
    """
    def block(u, wu, v, wv):
        u, v = u[:, None], v[None, :]
        return float(wu @ ((u + v) ** s * f(u, v)) @ wv)

    def rule(n):
        xa, wa = jacobi_rule(n, 0.0, A)  # w^A above the diagonal
        xc, wc = jacobi_rule(n, 0.0, C)  # w^C below it
        xr, wr = jacobi_rule(n, 0.0, A + C + s + 1.0)  # corner radius
        r, wr = c * xr[:, None], c ** (A + C + s + 2.0) * wr
        total = float(wr @ ((1.0 + xc) ** s * (1.0 - r) ** B * (1.0 - r * xc) ** D
                            * f(r, r * xc)) @ wc)
        total += float(wr @ ((1.0 + xa) ** s * (1.0 - r * xa) ** B * (1.0 - r) ** D
                             * f(r * xa, r)) @ wa)
        u_near, u_far = _edge_rules(n, A, B, c)
        v_near, v_far = _edge_rules(n, C, D, c)
        return total + block(*u_near, *v_far) + block(*u_far, *v_near) + block(*u_far, *v_far)

    return _checked_pair(rule, "corner-split Gauss-Jacobi rule")
