"""Adaptive Gauss-Kronrod quadrature with endpoint-singularity substitutions.

One mechanism serves every integral representation in the package:
QUADPACK's 15-point Gauss-Kronrod rule refined adaptively. Algebraic endpoint
factors are never formed as x^k for rounded x; the weighted helpers keep the
distance to the endpoint as the integration variable and substitute x = v^m
to restore a bounded integrand, while an infinite upper limit is split at
a + 1: [a, a + 1] in t itself and [a + 1, inf) over the reciprocal distance
s = 1/(t - a) in (0, 1], so the nodes keep relative resolution at both ends.

Integrand contract: an integrand maps the nodes, an array of shape (N,), to
values of shape (N,) or (N, m); a constant is broadcast over the nodes. An
(N, m) integrand is m integrals sharing one mesh: every refinement round
evaluates all new panels in one integrand call. Each round's total_j and its
error are sums over the live mesh, and the loop stops once every column j
meets its own tolerance rel_tol*|total_j| + abs_tol. A panel that must be
split but sits at float resolution stays unsplit with its error in the
totals; QuadratureError is raised once no other panel can be split or that
panel's own error exceeds a tolerance, and when the refinement budget is
exhausted. A (N,) integrand returns a float, an (N, m) one
an array of shape (m,). Every entry point (integrate, power_weighted,
beta_kernel, halfline_power) passes the columns through unchanged.

Column blocks: a round over m columns may ask for at most _MAX_ROUND_VALUES
integrand values, so a function that builds one shared-mesh quadrature with
a column per value hands its values to column_blocks, which evaluates a long
array in blocks of at most _BLOCK_COLUMNS columns (273), one shared mesh per
block, and splits a block in halves if its mesh still grows past that cap.
Arrays up to that width (the probe grids, the thorin tables) stay one block.
column_blocks is built on the private _flat (flatten, check the domain
before evaluating, reshape), which closed forms and wrappers of a function
that blocks its own columns call directly with the whole array, so
column_blocks' own time is quadrature time.
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


class _RoundTooWide(QuadratureError):
    """A refinement round would ask for more than _MAX_ROUND_VALUES values."""


def _along_nodes(w: np.ndarray, fx) -> np.ndarray:
    """w, one value per node, shaped to scale integrand values fx of shape
    (N,) or (N, m) node by node."""
    return w[:, None] if np.ndim(fx) > 1 else w


def _panels(f, a: np.ndarray, b: np.ndarray):
    """Kronrod estimates and error estimates over the intervals [a_i, b_i].

    One integrand call covers every panel. Returns values and errors of shape
    (panels, m) and whether the integrand returned columns.
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
        i = int(np.argmax(bad))
        raise QuadratureError(f"integrand not finite on [{a[i]}, {b[i]}]")
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


def _adaptive(f, breakpoints, opts: EvalOptions):
    """Globally adaptive refinement of one shared mesh over an initial partition.

    Every round sums the values and error estimates of the live panels into
    each column's total and error err_j, and stops once every column meets its
    tolerance tol_j. Otherwise it splits, in one integrand call, every panel
    whose error exceeds the cut max(tol_j / 2n, err_j / 4n) of some column j
    still above its tolerance (n panels). The refinement budget counts rounds.
    A panel that must be split but sits at float resolution is kept whole,
    its error still in the totals, and raises once no other panel can be
    split or its own error exceeds a tolerance.
    """
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)
    vals, errs, columns = _panels(f, lo, hi)
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
                f"panel [{lo[i]}, {hi[i]}] must be split but is at float resolution"
            )
        split, mid = split[~stuck], mid[~stuck]
        k = split.size
        if 2 * k * _XGK.size * m > _MAX_ROUND_VALUES:
            raise _RoundTooWide(
                f"refinement round would split {k} of {n} panels over {m} columns"
            )
        c_lo = np.concatenate((lo[split], mid))
        c_hi = np.concatenate((mid, hi[split]))
        c_vals, c_errs, _ = _panels(f, c_lo, c_hi)
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


def _reciprocal_tail(f, c: float, opts: EvalOptions):
    """integral_{c+1}^inf f(t) dt over s = 1/(t - c) in (0, 1], through the
    pullback f(c + 1/s)/s^2, with an initial partition graded toward s = 0 so
    slowly decaying or far-out mass is still found. s itself is the variable,
    so the nodes reach t far beyond 1e15 and a tail that decays too slowly to
    converge raises QuadratureError instead of being cut off; t - c >= 1
    keeps full relative resolution at both ends of the map."""
    def pullback(s):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fx = np.asarray(f(c + 1.0 / s), dtype=float)
            return fx / _along_nodes(s * s, fx)

    breaks = np.concatenate(([0.0], np.logspace(-6.0, -0.75, 8), [1.0]))
    return _adaptive(pullback, breaks, opts)


def integrate(f, a: float, b: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """Adaptive integral of a vectorized, everywhere-finite integrand.

    b may be infinite; the half-line is then [a, a + 1] in t itself, so
    integrand structure just above a is resolved as on a finite range, plus
    [a + 1, inf) over the reciprocal distance s = 1/(t - a) in (0, 1]. Over
    the whole half-line f is evaluated with numpy's overflow, invalid and
    divide warnings off.
    """
    if not a < b:
        raise DomainError(f"empty integration range [{a}, {b}]")
    if math.isinf(b):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            near = _adaptive(f, np.array([a, a + 1.0]), opts)
        return near + _reciprocal_tail(f, a, opts)
    span = b - a
    return _adaptive(f, np.array([a, a + 0.5 * span, b]), opts)


def _sub_power(kappa: float) -> int:
    """Substitution order m for an x^kappa endpoint factor, kappa > -1.

    m(kappa+1) >= 2 keeps the transformed integrand bounded with a vanishing
    first derivative even for exponents within 1e-2 of the integrability edge.
    """
    if kappa >= 0.0:
        return 1
    m = int(math.ceil(2.0 / (1.0 + kappa)))
    return min(max(m, 2), 256)


def power_weighted(R, kappa: float, top: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """integral_0^top x^kappa R(x) dx with the x^kappa factor kept exact.

    Substitutes x = v^m so the transformed integrand m v^{m(kappa+1)-1} R(v^m)
    is bounded (or nearly so) at v = 0.
    """
    if not top > 0.0:
        raise DomainError("need top > 0")
    if kappa <= -1.0:
        raise DomainError(f"non-integrable endpoint exponent {kappa}")
    m = _sub_power(kappa)
    e = m * (kappa + 1.0) - 1.0
    top_v = top ** (1.0 / m)

    def g(v):
        rx = R(v ** m)
        return _along_nodes(m * v ** e, rx) * rx

    # graded toward 0 so boundary layers deep inside the interval are found
    breaks = top_v * np.array([0.0, 1e-8, 1e-5, 1e-3, 0.03, 0.2, 0.55, 1.0])
    return _adaptive(g, breaks, opts)


def beta_kernel(R, kappa: float, lam: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """integral_0^1 x^kappa (1-x)^lam R(x) dx for kappa, lam > -1, R smooth-ish.

    Both endpoint factors are evaluated from the exact distance to their
    endpoint, so exponents very close to -1 stay loss-free.
    """
    def near_zero(x):
        rx = R(x)
        return _along_nodes((1.0 - x) ** lam, rx) * rx

    def near_one(s):
        rx = R(1.0 - s)
        return _along_nodes((1.0 - s) ** kappa, rx) * rx

    left = power_weighted(near_zero, kappa, 0.5, opts)
    right = power_weighted(near_one, lam, 0.5, opts)
    return left + right


def halfline_power(R, kappa: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """integral_0^inf t^kappa R(t) dt for kappa > -1 and decaying R: the
    endpoint-power piece on [0, 1] plus the reciprocal tail, in s = 1/t, on
    [1, inf)."""
    def tail(t):
        rt = np.asarray(R(t), dtype=float)
        return _along_nodes(t ** kappa, rt) * rt

    return power_weighted(R, kappa, 1.0, opts) + _reciprocal_tail(tail, 0.0, opts)


@lru_cache(maxsize=512)
def jacobi_rule(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes/weights for integral_0^1 x^beta (1-x)^alpha g(x) dx.

    alpha, beta > -1; Golub-Welsch on the Jacobi three-term recurrence.
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
    lg = math.lgamma
    log_mu0 = (s + 1.0) * math.log(2.0) + lg(alpha + 1.0) + lg(beta + 1.0) - lg(s + 2.0)
    w = np.exp(log_mu0) * vecs[0] ** 2
    # map [-1,1] -> [0,1]; the 2^(alpha+beta+1) factor cancels mu0's
    return 0.5 * (1.0 + nodes), w / 2.0 ** (s + 1.0)
