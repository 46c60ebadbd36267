"""Batch command line front end writing reproducible CSV reports.

Four subcommands: verify (identity-in-law checks), probe (monotonicity /
complete-monotonicity probes), thorin (tables of the Thorin ratio, cumulative
measure and density) and scan (conjecture scans with exploratory rows).

Exit codes: 0 = everything matched expectations, 1 = a proven statement was
numerically violated (or an expected violation failed to appear), 2 = bad
parameters or a numeric failure. CSV is RFC-4180 with a header row; every row
carries the seed, the governing tolerance and the library version, and output
is byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .distributions import RngState
from .errors import BplError, DomainError
from .identities import (
    KS_ALPHA,
    conjecture_cjmain_scan,
    conjhyp_integral_check,
    identity_catalog,
    require_ks_power,
    verify,
)
from .options import EvalOptions
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
    mills_suite,
)
from .thorin import ThorinParams, f_ax, thorin_cdf, thorin_density

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_NUMERIC = 2


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, raw parameters, seed, budgets, output."""

    command: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    samples: int | None = None
    out_path: str | None = None
    alpha: float | None = None
    mellin_rtol: float | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        skip = {"func", "command", "seed", "n", "out", "alpha", "mellin_rtol"}
        params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
        if args.seed is not None:
            seed = int(args.seed)
        else:
            env = os.environ.get("BPL_SEED")
            seed = int(env) if env else 0
        return cls(
            command=args.command,
            parameters=params,
            seed=seed,
            samples=getattr(args, "n", None),
            out_path=args.out,
            alpha=getattr(args, "alpha", None),
            mellin_rtol=getattr(args, "mellin_rtol", None),
        )


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


def _parse_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None
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
# verify


def _identity_args(name: str, args) -> tuple:
    need = {
        "theorem-a": ("a",),
        "theorem-b": ("a", "b"),
        "prop-b0": ("a", "b", "b_prime"),
        "ab-half": ("a",),
        "free": ("a", "b", "c", "d"),
        "half-gaussian": ("a",),
        "cor34": ("a",),
    }[name]
    lists = []
    for key in need:
        raw = getattr(args, key)
        if raw is None:
            raise DomainError(f"identity {name} needs --{key.replace('_', '-')}")
        lists.append(_parse_floats(raw))
    points = [()]
    for values in lists:
        points = [p + (v,) for p in points for v in values]
    return need, points


def cmd_verify(args) -> int:
    catalog = identity_catalog()
    if args.identity not in catalog:
        sys.stderr.write(f"unknown identity {args.identity!r}; "
                         f"choose from {sorted(catalog)}\n")
        return EXIT_NUMERIC
    cfg = RunConfig.from_args(args)
    seed = cfg.seed
    try:
        require_ks_power(args.n, args.alpha, "--n")
        keys, points = _identity_args(args.identity, args)
        builder = catalog[args.identity]
        specs = [builder(*point) for point in points]
    except BplError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return EXIT_NUMERIC
    streams = RngState(seed).spawn(len(specs))
    # points run in order; verify itself sorts and scans its two sides on two threads
    reports = [verify(spec, args.n, None, stream, alpha=args.alpha,
                      mellin_rtol=args.mellin_rtol, rhs_scale=args.negative_control)
               for spec, stream in zip(specs, streams)]

    header = ["identity", "params", "channel", "statistic", "threshold",
              "verdict", "seed", "tolerance", "version"]
    rows = []
    worst = EXIT_OK
    for point, rep in zip(points, reports):
        params = ";".join(f"{k}={_fmt(v)}" for k, v in zip(keys, point))
        if rep.failure is not None:
            rows.append([args.identity, params, "error", rep.failure, "",
                         "fail", seed, "", __version__])
            worst = max(worst, EXIT_NUMERIC)
            continue
        ks_ok = rep.ks_statistic < rep.ks_threshold
        rows.append([args.identity, params, "ks", rep.ks_statistic,
                     rep.ks_threshold, "pass" if ks_ok else "fail",
                     seed, args.alpha, __version__])
        if rep.mellin_max_relerr is not None:
            ok = rep.mellin_max_relerr < args.mellin_rtol
            rows.append([args.identity, params, "mellin", rep.mellin_max_relerr,
                         args.mellin_rtol, "pass" if ok else "fail",
                         seed, args.mellin_rtol, __version__])
        if rep.density_max_relerr is not None:
            ok = rep.density_max_relerr < args.mellin_rtol
            rows.append([args.identity, params, "density", rep.density_max_relerr,
                         args.mellin_rtol, "pass" if ok else "fail",
                         seed, args.mellin_rtol, __version__])
        if rep.verdict != "pass":
            worst = max(worst, EXIT_VIOLATION)
    _write_csv(cfg.out_path, header, rows)
    return worst


# ---------------------------------------------------------------------------
# probe


# flags each probe ratio needs, by argparse destination
_PROBE_FLAGS = {
    "psi-cc": ("a", "c", "c_prime"),
    "psi-doubling": ("a", "c"),
    "hermite-doubling": ("nu",),
    "k0-e1": (),
    "turan-hermite": ("nu", "c"),
    "turan-psi": ("a", "c", "lam"),
}
_FLAG_NAMES = {"c_prime": "--c-prime", "lam": "--lambda"}


def _probe_target(args):
    """Build (callable, grid, probe kind, expected verdict, bounds) from flags."""
    name = args.ratio
    for key in _PROBE_FLAGS.get(name, ()):
        if getattr(args, key) is None:
            flag = _FLAG_NAMES.get(key, f"--{key}")
            raise DomainError(f"ratio {name} needs {flag}")
    opts = EvalOptions()
    if name == "psi-cc":
        return (psi_cc(args.a, args.c, args.c_prime, opts),
                geometric_grid(args.z_lo, args.z_hi, args.z_n),
                "lcm" if args.lcm else "cm", "holds", None)
    if name == "psi-doubling":
        kind = "monotone" if args.monotone else ("lcm" if args.lcm else "cm")
        expected = "holds" if kind == "monotone" and 0.5 <= args.c <= 1.0 else (
            expected_psi_doubling_verdict(args.a, args.c) if kind == "cm" else None)
        return (psi_doubling(args.a, args.c, opts),
                geometric_grid(args.z_lo, args.z_hi, args.z_n),
                kind, expected, None)
    if name == "hermite-doubling":
        expected = "holds"
        return (hermite_doubling(args.nu, opts),
                geometric_grid(args.z_lo, args.z_hi, args.z_n),
                "lcm" if args.lcm else "cm", expected,
                hermite_doubling_bounds(args.nu))
    if name == "k0-e1":
        return (k0_e1(opts), geometric_grid(args.z_lo, min(args.z_hi, 30.0), args.z_n),
                "cm", "holds", None)
    if name == "turan-hermite":
        grid = np.linspace(-4.0, 6.0, args.z_n)
        return (turan_hermite(args.nu, args.c, opts), grid, "monotone", "holds",
                turan_hermite_bounds(args.nu, args.c))
    if name == "turan-psi":
        return (turan_psi(args.a, args.c, args.lam, opts),
                geometric_grid(args.z_lo, args.z_hi, args.z_n),
                "monotone", "holds", turan_psi_bounds(args.c, args.lam))
    raise DomainError(f"unknown ratio {name!r}")


def cmd_probe(args) -> int:
    cfg = RunConfig.from_args(args)
    seed = cfg.seed
    try:
        target, grid, kind, expected, bounds = _probe_target(args)
        if kind == "cm":
            result = cm_probe(target, grid, max_order=args.order)
        elif kind == "lcm":
            result = lcm_probe(target, grid, max_order=min(args.order, 6))
        else:
            result = monotone_probe(target, grid)
    except BplError as exc:
        sys.stderr.write(f"probe failed: {exc}\n")
        return EXIT_NUMERIC

    header = ["ratio", "params", "kind", "order", "n_ok", "n_total", "verdict",
              "expected", "first_violation_order", "first_violation_z",
              "seed", "tolerance", "version"]
    params = ";".join(
        f"{k}={_fmt(getattr(args, k))}"
        for k in ("a", "b", "c", "c_prime", "nu", "lam")
        if getattr(args, k, None) is not None
    )
    fv_order = result.first_violation[0] if result.first_violation else None
    fv_z = result.first_violation[1] if result.first_violation else None
    rows = []
    for order in range(result.sign_table.shape[0]):
        ok_row = result.sign_table[order]
        rows.append([args.ratio, params, kind, order, int(ok_row.sum()),
                     int(ok_row.size), result.verdict, expected or "",
                     fv_order, fv_z, seed, args.order, __version__])
    exit_code = EXIT_OK
    if expected is not None and result.verdict != expected:
        exit_code = EXIT_VIOLATION
    if bounds is not None:
        lo_b, hi_b = bounds
        vals = result.details["values"]
        inside = bool(np.all(vals > lo_b) and np.all(vals < hi_b))
        rows.append([args.ratio, params, "bounds", "", int(inside), 1,
                     "holds" if inside else "violated", "holds",
                     None, None, seed, args.order, __version__])
        if not inside:
            exit_code = EXIT_VIOLATION
    _write_csv(cfg.out_path, header, rows)
    return exit_code


# ---------------------------------------------------------------------------
# thorin


def cmd_thorin(args) -> int:
    cfg = RunConfig.from_args(args)
    seed = cfg.seed
    try:
        p = ThorinParams(args.a, args.x)
        ts = _parse_grid(args.t)
        rows = []
        for t in ts:
            fv = f_ax(p, float(t)) if p.a < 1.0 else math.nan
            rows.append([args.a, args.x, float(t), fv,
                         thorin_cdf(p, float(t)), thorin_density(p, float(t)),
                         seed, EvalOptions().rel_tol, __version__])
    except BplError as exc:
        sys.stderr.write(f"thorin evaluation failed: {exc}\n")
        return EXIT_NUMERIC
    header = ["a", "x", "t", "f_ax", "cdf", "density", "seed", "tolerance", "version"]
    _write_csv(cfg.out_path, header, rows)
    cdfs = [row[4] for row in rows]
    return EXIT_OK if all(c2 >= c1 - 1e-9 for c1, c2 in zip(cdfs, cdfs[1:])) else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    cfg = RunConfig.from_args(args)
    seed = cfg.seed
    header = ["conjecture", "params", "channel", "value", "status",
              "seed", "tolerance", "version"]
    rows: list[list] = []
    code = EXIT_OK
    tol = args.mellin_rtol
    try:
        if args.conjecture == "cjmain":
            grid = [(a, b) for a in _parse_floats(args.a) for b in _parse_floats(args.b)]
            results = conjecture_cjmain_scan(grid, args.n, RngState(seed))
            for r in results:
                params = f"a={_fmt(r['a'])};b={_fmt(r['b'])}"
                if r["failure"] is not None:
                    rows.append(["cjmain", params, "error", r["failure"],
                                 "FAIL" if r["proven"] else "EXPLORATORY",
                                 seed, tol, __version__])
                    code = max(code, EXIT_NUMERIC)
                    continue
                ks_ok = r["ks_statistic"] < r["ks_threshold"]
                mell_ok = (r["mellin_max_relerr"] or 0.0) < tol
                rep_ok = max(r["rep1_relerr"], r["rep2_relerr"]) < 1e-5
                point_ok = ks_ok and mell_ok and rep_ok
                status = ("PASS" if point_ok else "FAIL") if r["proven"] else "EXPLORATORY"
                rows.append(["cjmain", params, "ks", r["ks_statistic"], status,
                             seed, tol, __version__])
                rows.append(["cjmain", params, "mellin", r["mellin_max_relerr"],
                             status, seed, tol, __version__])
                rows.append(["cjmain", params, "representation",
                             max(r["rep1_relerr"], r["rep2_relerr"]), status,
                             seed, tol, __version__])
                if r["proven"] and not point_ok:
                    code = max(code, EXIT_VIOLATION)
        elif args.conjecture == "cmcj":
            a_grid = _parse_floats(args.a)
            c_grid = _parse_floats(args.c) if args.c else [-0.5, 0.2, 0.5, 0.8, 1.1]
            results = conjecture_cmcj_scan(a_grid, c_grid)
            for r in results:
                params = f"a={_fmt(r['a'])};c={_fmt(r['c'])}"
                expected = r["expected"]
                if expected is None:
                    status = "EXPLORATORY"
                else:
                    status = "PASS" if r["verdict"] == expected else "FAIL"
                    if status == "FAIL":
                        code = max(code, EXIT_VIOLATION)
                rows.append(["cmcj", params, "cm-verdict", r["verdict"], status,
                             seed, tol, __version__])
        elif args.conjecture == "cmmi":
            orders = _parse_floats(args.n_orders)
            if not all(v.is_integer() for v in orders):
                raise DomainError(f"cmmi scan orders must be integers, got {args.n_orders!r}")
            orders = [int(v) for v in orders]
            res = mills_suite()
            for n in orders:
                key = f"cmmi-scan-{n}"
                if key not in res:
                    raise DomainError(f"cmmi scan order {n} not available (0, 1, 2)")
                rows.append(["cmmi", f"n={n}", "cm-verdict", res[key].verdict,
                             "EXPLORATORY", seed, tol, __version__])
        elif args.conjecture == "thorin-order":
            a_grid = _parse_floats(args.a)
            b = _parse_float(args.b) if args.b else 0.5
            ts = _parse_grid(args.t) if args.t else np.geomspace(0.2, 8.0, 5)
            for i, a in enumerate(a_grid[:-1]):
                a2 = a_grid[i + 1]
                for t in ts:
                    lo = a * thorin_cdf(ThorinParams(a, b), float(t))
                    hi = a2 * thorin_cdf(ThorinParams(a2, b), float(t))
                    rows.append(["thorin-order", f"a={_fmt(a)};a'={_fmt(a2)};b={_fmt(b)};t={_fmt(float(t))}",
                                 "mass-gap", hi - lo, "EXPLORATORY",
                                 seed, tol, __version__])
        elif args.conjecture == "kumma":
            # conjectured CM of the equal-shift quotient: recorded only
            c = _parse_float(args.c) if args.c else 0.5
            cp = _parse_float(args.c_prime) if args.c_prime else 0.0
            for a in _parse_floats(args.a):
                res = cm_probe(kumma_ratio(a, c, cp), geometric_grid(1e-2, 50.0, 200),
                               max_order=6)
                rows.append(["kumma", f"a={_fmt(a)};c={_fmt(c)};c'={_fmt(cp)}",
                             "cm-verdict", res.verdict, "EXPLORATORY",
                             seed, tol, __version__])
        elif args.conjecture == "conjhyp":
            for a in _parse_floats(args.a):
                res = conjhyp_integral_check(a)
                rows.append(["conjhyp", f"a={_fmt(a)}", "printed-form",
                             res["max_relerr"], "EXPLORATORY", seed, tol, __version__])
                rows.append(["conjhyp", f"a={_fmt(a)}", "with-zp1-factor",
                             res["max_relerr_with_zp1_factor"], "EXPLORATORY",
                             seed, tol, __version__])
        else:
            sys.stderr.write(f"unknown conjecture {args.conjecture!r}\n")
            return EXIT_NUMERIC
    except BplError as exc:
        sys.stderr.write(f"scan failed: {exc}\n")
        return EXIT_NUMERIC
    _write_csv(cfg.out_path, header, rows)
    return code


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
    pv.add_argument("identity", choices=sorted(identity_catalog()))
    for flag in ("--a", "--b", "--c", "--d", "--b-prime"):
        pv.add_argument(flag, type=str, default=None,
                        help="parameter value(s), comma separated")
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
    pp.add_argument("ratio", choices=["psi-cc", "psi-doubling", "hermite-doubling",
                                      "k0-e1", "turan-hermite", "turan-psi"])
    pp.add_argument("--a", type=_finite_float, default=None)
    pp.add_argument("--b", type=_finite_float, default=None)
    pp.add_argument("--c", type=_finite_float, default=None)
    pp.add_argument("--c-prime", type=_finite_float, default=None)
    pp.add_argument("--nu", type=_finite_float, default=None)
    pp.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    pp.add_argument("--order", type=int, default=8)
    pp.add_argument("--lcm", action="store_true", help="probe the log-derivative instead")
    pp.add_argument("--monotone", action="store_true", help="decrease check instead of CM")
    pp.add_argument("--z-lo", type=_finite_float, default=1e-2)
    pp.add_argument("--z-hi", type=_finite_float, default=50.0)
    pp.add_argument("--z-n", type=int, default=220)
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
    ps.add_argument("conjecture", choices=["cjmain", "cmcj", "cmmi",
                                           "thorin-order", "conjhyp", "kumma"])
    ps.add_argument("--a", type=str, default="0.5")
    ps.add_argument("--b", type=str, default=None)
    ps.add_argument("--c", type=str, default=None)
    ps.add_argument("--c-prime", type=str, default=None)
    ps.add_argument("--t", type=str, default=None)
    ps.add_argument("--n", dest="n_orders", type=str, default="0,1,2",
                    help="derivative orders for the cmmi scan")
    ps.add_argument("--n-samples", dest="n", type=int, default=30_000)
    ps.add_argument("--mellin-rtol", type=_finite_float, default=1e-6)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", type=str, default=None)
    ps.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
