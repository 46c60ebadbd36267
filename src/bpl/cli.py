"""Batch command line front end writing reproducible CSV reports.

Four subcommands: verify (identity-in-law checks), probe (monotonicity /
complete-monotonicity probes), thorin (tables of the Thorin ratio, cumulative
measure and density) and scan (conjecture scans with exploratory rows).

Each target of verify, probe and scan is declared once: an identity by its
builder in identity_catalog(), a ratio by its entry in _ratios(), a
conjecture by its row function in _SCANS. The parameters of those callables,
up to the first keyword-only one, are the flags the target reads, and their
defaults stand in for absent flags. A flag of the subcommand that the chosen
target does not read, or one it reads that is absent and has no default,
exits 2.

Exit codes: 0 = everything matched expectations, 1 = a proven statement was
numerically violated (or an expected violation failed to appear), 2 = bad
parameters or a numeric failure, also when the parameters leave nothing to
check; every failure escaping a command, a library error or any other
exception, is reported on one stderr line naming its nearest public class
(errors.describe), without a traceback, and exits 2. CSV is RFC-4180 with a
header row; every row carries the seed, the governing tolerance and the
library version, and output is byte-identical for identical configuration
and seed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import itertools
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .distributions import RngState
from .errors import DomainError, describe
from .identities import (
    KS_ALPHA,
    conjecture_cjmain_scan,
    conjhyp_integral_check,
    identity_catalog,
    require_ks_power,
    verify,
)
from .probes import (
    cm_probe,
    conjecture_cmcj_scan,
    expected_psi_doubling_verdict,
    geometric_grid,
    hermite_doubling,
    hermite_doubling_bounds,
    k0_e1,
    kumma_ratio,
    lcm_probe,
    monotone_probe,
    psi_cc,
    psi_doubling,
    turan_hermite,
    turan_hermite_bounds,
    turan_psi,
    turan_psi_bounds,
    _cmmi_scan,
)
from .quadrature import _RTOL
from .thorin import ThorinParams, f_ax, thorin_cdf, thorin_density

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_NUMERIC = 2


def _seed(args) -> int:
    """--seed, else the BPL_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("BPL_SEED") or 0)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return format(v, ".12g")
    return str(v)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(data)


def _exit_code(rows: list[list], failed) -> int:
    """2 when a row reports an error (channel "error"), else 1 when failed(row)
    holds for a row, else 0."""
    if any(row[2] == "error" for row in rows):
        return EXIT_NUMERIC
    return EXIT_VIOLATION if any(failed(row) for row in rows) else EXIT_OK


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise DomainError(f"expected at least one number, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"parameters must be finite, got {text!r}")
    return values


def _parse_float(text: str) -> float:
    values = _parse_floats(text)
    if len(values) != 1:
        raise DomainError(f"expected one number, got {text!r}")
    return values[0]


def _finite_float(text: str) -> float:
    """argparse type for float flags: non-numbers, nan and inf exit 2 with a message."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> np.ndarray:
    """'lo:hi:n' -> n geometric points when lo > 0, else uniform."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"grid spec must be lo:hi:n with numbers, got {text!r}") from None
    if n < 1:
        raise DomainError(f"grid needs n >= 1 points, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid ends must be finite, got {text!r}")
    if not lo < hi:
        raise DomainError(f"grid needs lo < hi, got {text!r}")
    if lo > 0.0:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# target flags


def _reads(fn) -> dict:
    """The flags a target callable reads, by argparse destination: its
    parameters up to the first keyword-only one, each with its default (None
    when it has none)."""
    reads = {}
    for p in inspect.signature(fn).parameters.values():
        if p.kind is not p.POSITIONAL_OR_KEYWORD:
            break
        reads[p.name] = None if p.default is p.empty else p.default
    return reads


def _target_values(args, what: str, *fns) -> list[dict]:
    """Per callable in fns, the values of the flags it reads, in the parser's
    order of declaration; a default stands in for an absent flag.

    A target flag of the subcommand (args.flags) that none of fns reads, or a
    flag one of them reads that is absent and has no default, is a
    DomainError naming the flag.
    """
    reads = [_reads(fn) for fn in fns]
    for dest, flag in args.flags.items():
        if getattr(args, dest) is not None and not any(dest in r for r in reads):
            raise DomainError(f"{what} does not take {flag}")
    out = []
    for r in reads:
        values = {}
        for dest, flag in args.flags.items():
            if dest in r:
                values[dest] = r[dest] if getattr(args, dest) is None else getattr(args, dest)
                if values[dest] is None:
                    raise DomainError(f"{what} needs {flag}")
        out.append(values)
    return out


def _declare(parser, *actions) -> None:
    """Record a subcommand's target flags: argparse destination -> option string."""
    parser.set_defaults(flags={a.dest: a.option_strings[0] for a in actions})


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    builder = identity_catalog()[args.identity]
    require_ks_power(args.n, args.alpha, "--n")
    (values,) = _target_values(args, f"identity {args.identity}", builder)
    points = list(itertools.product(*(_parse_floats(v) for v in values.values())))
    specs = [builder(**dict(zip(values, point))) for point in points]
    seed = _seed(args)
    header = ["identity", "params", "channel", "statistic", "threshold",
              "verdict", "seed", "tolerance", "version"]
    rows = []
    # points run in order; verify itself sorts and scans its two sides on two threads
    for point, spec, stream in zip(points, specs, RngState(seed).spawn(len(specs))):
        rep = verify(spec, args.n, stream, alpha=args.alpha,
                     mellin_rtol=args.mellin_rtol, rhs_scale=args.negative_control)
        params = ";".join(f"{k}={_fmt(v)}" for k, v in zip(values, point))
        if rep.failure is not None:
            rows.append([args.identity, params, "error", rep.failure, "",
                         "fail", seed, "", __version__])
            continue
        for channel, stat, threshold, tol in (
                ("ks", rep.ks_statistic, rep.ks_threshold, args.alpha),
                ("mellin", rep.mellin_max_relerr, args.mellin_rtol, args.mellin_rtol),
                ("density", rep.density_max_relerr, args.mellin_rtol, args.mellin_rtol)):
            if stat is not None:
                rows.append([args.identity, params, channel, stat, threshold,
                             "pass" if stat < threshold else "fail", seed, tol, __version__])
    _write_csv(args.out, header, rows)
    return _exit_code(rows, lambda row: row[5] == "fail")


# ---------------------------------------------------------------------------
# probe


class _Ratio(NamedTuple):
    """One probe target. The parameters of builder and grid are the ratio's
    flags; expected is the verdict the probe should reach, or a function of
    (kind, flag values) giving it; bounds, given flag values, returns the
    sharp bounds of the ratio's values."""

    builder: Callable
    grid: Callable
    kinds: tuple[str, ...]  # probes the ratio takes; the first is the default
    expected: str | Callable
    bounds: Callable | None = None


def _z_grid(z_lo=1e-2, z_hi=50.0, z_n=220):
    return geometric_grid(z_lo, z_hi, z_n)


def _k0_grid(z_lo=1e-2, z_hi=50.0, z_n=220):
    return geometric_grid(z_lo, min(z_hi, 30.0), z_n)


def _line_grid(z_n=220):
    return np.linspace(-4.0, 6.0, z_n)


def _psi_doubling_expected(kind, values):
    if kind == "monotone":
        return "holds" if 0.5 <= values["c"] <= 1.0 else None
    return expected_psi_doubling_verdict(values["a"], values["c"]) if kind == "cm" else None


def _ratios() -> dict[str, _Ratio]:
    """The probe targets; built on each call, so the builders are the ones
    bound in this module at that time."""
    return {
        "psi-cc": _Ratio(psi_cc, _z_grid, ("cm", "lcm"), "holds"),
        "psi-doubling": _Ratio(psi_doubling, _z_grid, ("cm", "lcm", "monotone"),
                               _psi_doubling_expected),
        "hermite-doubling": _Ratio(hermite_doubling, _z_grid, ("cm", "lcm"), "holds",
                                   lambda v: hermite_doubling_bounds(v["nu"])),
        "k0-e1": _Ratio(k0_e1, _k0_grid, ("cm",), "holds"),
        "turan-hermite": _Ratio(turan_hermite, _line_grid, ("monotone",), "holds",
                                lambda v: turan_hermite_bounds(v["nu"], v["c"])),
        "turan-psi": _Ratio(turan_psi, _z_grid, ("monotone",), "holds",
                            lambda v: turan_psi_bounds(v["c"], v["lam"])),
    }


# Relative allowance within which a ratio's value at a sharp bound is inside
# it: the bounds are limits of the ratio, which its computed values, built
# from quadratures at _RTOL, reach only to a few _RTOL (hermite-doubling at
# nu = 0.5 reads one ulp above its z -> 0 limit near z = 1e-30)
_BOUND_SLACK = 4.0 * _RTOL


def cmd_probe(args) -> int:
    ratio = _ratios()[args.ratio]
    what = f"ratio {args.ratio}"
    kind = "monotone" if args.monotone else "lcm" if args.lcm else ratio.kinds[0]
    if kind not in ratio.kinds:
        raise DomainError(f"{what} does not take --{kind}")
    if not 0 <= args.order <= 10:
        raise DomainError(f"--order must lie in 0..10, got {args.order}")
    values, grid_values = _target_values(args, what, ratio.builder, ratio.grid)
    target = ratio.builder(**values)
    grid = ratio.grid(**grid_values)
    if kind == "cm":
        result = cm_probe(target, grid, max_order=args.order)
    elif kind == "lcm":
        result = lcm_probe(target, grid, max_order=min(args.order, 6))
    else:
        result = monotone_probe(target, grid)
    expected = ratio.expected if isinstance(ratio.expected, str) else ratio.expected(kind, values)

    seed = _seed(args)
    header = ["ratio", "params", "kind", "order", "n_ok", "n_total", "verdict",
              "expected", "first_violation_order", "first_violation_z",
              "seed", "tolerance", "version"]
    params = ";".join(f"{k}={_fmt(v)}" for k, v in values.items())
    fv_order = result.first_violation[0] if result.first_violation else None
    fv_z = result.first_violation[1] if result.first_violation else None
    rows = []
    for order in range(result.sign_table.shape[0]):
        ok_row = result.sign_table[order]
        rows.append([args.ratio, params, kind, order, int(ok_row.sum()),
                     int(ok_row.size), result.verdict, expected or "",
                     fv_order, fv_z, seed, args.order, __version__])
    if ratio.bounds is not None:
        lo_b, hi_b = np.multiply(ratio.bounds(values), (1.0 - _BOUND_SLACK, 1.0 + _BOUND_SLACK))
        vals = result.details["values"]
        inside = bool(np.all(vals > lo_b) and np.all(vals < hi_b))
        rows.append([args.ratio, params, "bounds", "", int(inside), 1,
                     "holds" if inside else "violated", "holds",
                     None, None, seed, args.order, __version__])
    _write_csv(args.out, header, rows)
    return _exit_code(rows, lambda row: row[7] != "" and row[6] != row[7])


# ---------------------------------------------------------------------------
# thorin


def cmd_thorin(args) -> int:
    p = ThorinParams(args.a, args.x)
    ts = _parse_grid(args.t)
    fvs = f_ax(p, ts) if p.a < 1.0 else np.full(ts.shape, math.nan)
    cdfs = thorin_cdf(p, ts)
    densities = thorin_density(p, ts)
    seed = _seed(args)
    header = ["a", "x", "t", "f_ax", "cdf", "density", "seed", "tolerance", "version"]
    rows = [[args.a, args.x, t, fv, cdf, dens, seed, _RTOL, __version__]
            for t, fv, cdf, dens in zip(ts.tolist(), fvs.tolist(), cdfs.tolist(),
                                        densities.tolist())]
    _write_csv(args.out, header, rows)
    return EXIT_OK if np.all(cdfs[1:] >= cdfs[:-1] - 1e-9) else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# scan: each row function yields (params, channel, value, status); cmd_scan
# passes seed and tol by keyword, and a function needing neither takes **_


def _scan_cjmain(a="0.5", b=None, n_samples=30_000, *, seed, tol):
    grid = [(x, y) for x in _parse_floats(a) for y in _parse_floats(b)]
    for r in conjecture_cjmain_scan(grid, n_samples, RngState(seed), mellin_rtol=tol):
        params = f"a={_fmt(r['a'])};b={_fmt(r['b'])}"
        if r["failure"] is not None:
            yield params, "error", r["failure"], "FAIL" if r["proven"] else "EXPLORATORY"
            continue
        rep_err = max(r["rep1_relerr"], r["rep2_relerr"])
        status = ("PASS" if r["verdict"] == "pass" else "FAIL") if r["proven"] else "EXPLORATORY"
        yield params, "ks", r["ks_statistic"], status
        yield params, "mellin", r["mellin_max_relerr"], status
        yield params, "representation", rep_err, status


def _scan_cmcj(a="0.5", c="-0.5,0.2,0.5,0.8,1.1", **_):
    for r in conjecture_cmcj_scan(_parse_floats(a), _parse_floats(c)):
        expected = r["expected"]
        status = ("EXPLORATORY" if expected is None
                  else "PASS" if r["verdict"] == expected else "FAIL")
        yield f"a={_fmt(r['a'])};c={_fmt(r['c'])}", "cm-verdict", r["verdict"], status


def _scan_cmmi(n="0,1,2", **_):
    orders = _parse_floats(n)
    if not all(v.is_integer() for v in orders):
        raise DomainError(f"cmmi scan orders must be integers, got {n!r}")
    for order in map(int, orders):
        if order not in (0, 1, 2):
            raise DomainError(f"cmmi scan order {order} not available (0, 1, 2)")
        yield f"n={order}", "cm-verdict", _cmmi_scan(order).verdict, "EXPLORATORY"


def _scan_thorin_order(a=None, b="0.5", t="0.2:8:5", **_):
    a_grid, b, ts = _parse_floats(a), _parse_float(b), _parse_grid(t)
    if len(a_grid) < 2:
        raise DomainError(f"thorin-order compares neighbouring values of --a and "
                          f"needs two or more, got {a!r}")
    # a * cdf over the grid, once per a
    masses = [x * thorin_cdf(ThorinParams(x, b), ts) for x in a_grid]
    for i, (a1, a2) in enumerate(zip(a_grid, a_grid[1:])):
        for tv, gap in zip(ts.tolist(), (masses[i + 1] - masses[i]).tolist()):
            yield (f"a={_fmt(a1)};a'={_fmt(a2)};b={_fmt(b)};t={_fmt(tv)}",
                   "mass-gap", gap, "EXPLORATORY")


def _scan_conjhyp(a="0.5", **_):
    for x in _parse_floats(a):
        res = conjhyp_integral_check(x)
        yield f"a={_fmt(x)}", "printed-form", res["max_relerr"], "EXPLORATORY"
        yield (f"a={_fmt(x)}", "with-zp1-factor", res["max_relerr_with_zp1_factor"],
               "EXPLORATORY")


def _scan_kumma(a="0.5", c="0.5", c_prime="0", **_):
    # conjectured CM of the equal-shift quotient: recorded only
    c, cp = _parse_float(c), _parse_float(c_prime)
    for x in _parse_floats(a):
        res = cm_probe(kumma_ratio(x, c, cp), geometric_grid(1e-2, 50.0, 200), max_order=6)
        yield f"a={_fmt(x)};c={_fmt(c)};c'={_fmt(cp)}", "cm-verdict", res.verdict, "EXPLORATORY"


_SCANS = {
    "cjmain": _scan_cjmain,
    "cmcj": _scan_cmcj,
    "cmmi": _scan_cmmi,
    "thorin-order": _scan_thorin_order,
    "conjhyp": _scan_conjhyp,
    "kumma": _scan_kumma,
}


def cmd_scan(args) -> int:
    scan = _SCANS[args.conjecture]
    (values,) = _target_values(args, f"conjecture {args.conjecture}", scan)
    seed = _seed(args)
    tol = args.mellin_rtol
    header = ["conjecture", "params", "channel", "value", "status",
              "seed", "tolerance", "version"]
    rows = [[args.conjecture, params, channel, value, status, seed, tol, __version__]
            for params, channel, value, status in scan(**values, seed=seed, tol=tol)]
    _write_csv(args.out, header, rows)
    return _exit_code(rows, lambda row: row[4] == "FAIL")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpl",
        description="Beta prime convolution laboratory: identity verification, "
                    "CM probes, Thorin tables and conjecture scans (CSV output).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify an identity in law",
                        description="CSV columns: identity,params,channel,"
                                    "statistic,threshold,verdict,seed,tolerance,version")
    catalog = identity_catalog()
    pv.add_argument("identity", choices=sorted(catalog))
    keys = dict.fromkeys(key for builder in catalog.values() for key in _reads(builder))
    _declare(pv, *(pv.add_argument("--" + key.replace("_", "-"),
                                   help="parameter value(s), comma separated")
                   for key in keys))
    pv.add_argument("--n", type=int, default=100_000, help="samples per side")
    pv.add_argument("--alpha", type=_finite_float, default=KS_ALPHA, help="KS level")
    pv.add_argument("--mellin-rtol", type=_finite_float, default=1e-6)
    pv.add_argument("--negative-control", type=_finite_float, default=1.0,
                    help="scale factor applied to the right side (CI control)")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("probe", help="run a CM/LCM/monotonicity probe",
                        description="CSV columns: ratio,params,kind,order,n_ok,"
                                    "n_total,verdict,expected,first_violation_order,"
                                    "first_violation_z,seed,tolerance,version")
    pp.add_argument("ratio", choices=list(_ratios()))
    _declare(pp, *(pp.add_argument(flag, type=_finite_float)
                   for flag in ("--a", "--c", "--c-prime", "--nu")),
             pp.add_argument("--lambda", dest="lam", type=_finite_float),
             pp.add_argument("--z-lo", type=_finite_float),
             pp.add_argument("--z-hi", type=_finite_float),
             pp.add_argument("--z-n", type=int))
    pp.add_argument("--order", type=int, default=8)
    kinds = pp.add_mutually_exclusive_group()
    kinds.add_argument("--lcm", action="store_true", help="probe the log-derivative instead")
    kinds.add_argument("--monotone", action="store_true", help="decrease check instead of CM")
    pp.add_argument("--seed", type=int, default=None)
    pp.add_argument("--out", type=str, default=None)
    pp.set_defaults(func=cmd_probe)

    pt = sub.add_parser("thorin", help="tabulate the Thorin ratio, cdf and density",
                        description="CSV columns: a,x,t,f_ax,cdf,density,seed,"
                                    "tolerance,version")
    pt.add_argument("--a", type=_finite_float, required=True)
    pt.add_argument("--x", type=_finite_float, required=True)
    pt.add_argument("--t", type=str, required=True, help="grid spec lo:hi:n")
    pt.add_argument("--seed", type=int, default=None)
    pt.add_argument("--out", type=str, default=None)
    pt.set_defaults(func=cmd_thorin)

    ps = sub.add_parser("scan", help="run a conjecture scan",
                        description="CSV columns: conjecture,params,channel,value,"
                                    "status,seed,tolerance,version; proven points "
                                    "carry PASS/FAIL, open ones EXPLORATORY")
    ps.add_argument("conjecture", choices=list(_SCANS))
    _declare(ps, *(ps.add_argument(flag) for flag in ("--a", "--b", "--c", "--c-prime", "--t")),
             ps.add_argument("--n", help="derivative orders for the cmmi scan"),
             ps.add_argument("--n-samples", type=int, help="KS samples per side (cjmain)"))
    ps.add_argument("--mellin-rtol", type=_finite_float, default=1e-6)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", type=str, default=None)
    ps.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - bad input or any escaping failure exits 2
        sys.stderr.write(f"bpl {args.command} failed: {describe(exc)}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
