"""bpl benchmark: run one workload through the ``bpl`` CLI and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 55 --trace 0

Closed loop, one client: one command at a time, each in a fresh interpreter
(perfbench/child.py) that times ``bpl.cli.main`` in-process. ``--trace 0``
cycles through the workload's commands for about ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs untraced, traced, traced, untraced
passes with the same command seeds and prints the per-layer metrics. The last
line of stdout is the JSON result. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from check import check, load_refs
from spans import LAYERS
from workloads import WORKLOADS, all_commands, command_argv, pass_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench", "spans")

COMMAND_TIMEOUT_S = 60.0
RUN_CAP_S = 165.0

SPECIAL_FNS = ("tricomi_psi", "hermite_h_neg", "gauss_2f1", "hyp_3f2", "kummer_phi", "appell_f1")
THORIN_FNS = {"f_ax": "f_ax", "cdf": "thorin_cdf", "density": "thorin_density"}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [("quadrature.calls", "count", "lower"), ("quadrature.panels", "count", "lower"),
         ("quadrature.nodes", "count", "lower"),
         ("quadrature.panels_per_call", "panels/call", "lower"),
         ("quadrature.self_s", "s", "lower"), ("quadrature.us_per_panel", "us", "lower"),
         ("quadrature.integrand_s", "s", "lower"), ("quadrature.failures", "count", "lower"),
         ("quadrature.jacobi_hit_ratio", "fraction", "higher")]
    for fn in SPECIAL_FNS:
        m += [(f"special.{fn}.calls", "count", "lower"),
              (f"special.{fn}.us_per_call", "us", "lower"),
              (f"special.{fn}.self_s", "s", "lower")]
    m += [("special.failures", "count", "lower"), ("special.self_s", "s", "lower"),
          ("distributions.draws", "count", "lower"), ("distributions.sample_s", "s", "lower"),
          ("distributions.draws_per_s", "1/s", "higher"),
          ("distributions.self_s", "s", "lower"),
          ("identities.verify.calls", "count", "lower"), ("identities.ks_s", "s", "lower"),
          ("identities.mellin_channel_s", "s", "lower"),
          ("identities.density_channel_s", "s", "lower"), ("identities.self_s", "s", "lower"),
          ("convolution.mellin_sum.calls", "count", "lower"),
          ("convolution.mellin_sum.s", "s", "lower"),
          ("convolution.density.calls", "count", "lower"),
          ("convolution.density.s", "s", "lower"), ("convolution.self_s", "s", "lower")]
    for key in THORIN_FNS:
        m += [(f"thorin.{key}.calls", "count", "lower"), (f"thorin.{key}.s", "s", "lower")]
    m += [("thorin.self_s", "s", "lower"),
          ("probes.grid_points", "count", "lower"), ("probes.target_evals", "count", "lower"),
          ("probes.evals_per_point", "evals/point", "lower"),
          ("probes.target_s", "s", "lower"), ("probes.fit_s", "s", "lower"),
          ("probes.self_s", "s", "lower"), ("cli.self_s", "s", "lower")]
    m += [(f"cli.cmd_s.{cmd.cid}", "s", "lower") for cmd in all_commands()]
    m += [("cli.csv_identical", "count", "higher"), ("trace.overhead_frac", "fraction", "lower"),
          ("trace.spans", "count", "lower")]
    return m


# ---------------------------------------------------------------------------
# environment record (reported, never used to rescale results)


def _openblas_threads() -> int | None:
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def reference_loop_s() -> float:
    """Median of three timings of a fixed pure-Python loop: a slow host shows."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
        "loadavg_start": os.getloadavg(),
        "reference_loop_s": reference_loop_s(),
    }


# ---------------------------------------------------------------------------
# running commands


def invoke(cmd, cmd_seed: int, trace: bool, timeout: float,
           spans_path: str | None = None) -> dict:
    """One command in a fresh interpreter: the child's reply plus setup_s, or
    a reply whose ``problems`` say why there is none."""
    request = {"argv": command_argv(cmd, cmd_seed), "cmd_id": cmd.cid,
               "trace": trace, "spans": spans_path}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(request)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"cid": cmd.cid, "main_s": timeout,
                "problems": [f"exceeded the {timeout:.0f} s command time limit"]}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"cid": cmd.cid, "main_s": time.monotonic() - spawned,
                "problems": [f"runner exited {proc.returncode}: {tail[0]}"]}
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    reply["cid"] = cmd.cid
    reply["setup_s"] = reply["ready"] - spawned
    reply["problems"] = (["raised: " + reply["raised"].strip().splitlines()[-1]]
                         if reply["raised"] else [])
    return reply


def run_command(cmd, cmd_seed: int, ref: dict, trace: bool, deadline: float,
                spans_path: str | None = None) -> dict:
    """invoke() under the per-command time limit, checked against ref."""
    timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic()))
    reply = invoke(cmd, cmd_seed, trace, timeout, spans_path)
    if "csv" in reply:
        if not reply["problems"]:
            reply["problems"] = check(reply["exit"], reply["csv"], cmd_seed, ref)
        reply["identical"] = reply["csv"] == ref["csv"]
    return reply


def run_pass(workload: str, seeds: list[int], refs: dict, trace: bool, deadline: float,
             spans_dir: str | None = None) -> list[dict]:
    results = []
    for cmd, cmd_seed in zip(WORKLOADS[workload], seeds):
        if time.monotonic() >= deadline:
            results.append({"cid": cmd.cid, "main_s": 0.0,
                            "problems": ["not started: run time cap reached"]})
            continue
        spans_path = os.path.join(spans_dir, f"{cmd.cid}.tsv") if spans_dir else None
        results.append(run_command(cmd, cmd_seed, refs[cmd.cid][str(cmd_seed)], trace,
                                   deadline, spans_path))
    return results


# ---------------------------------------------------------------------------
# per-layer metrics from the span summaries of one traced pass


def _sum_summaries(results: list[dict]) -> tuple[dict, dict, dict, int]:
    by_name: dict[str, dict] = {}
    failures: dict[str, int] = {}
    jacobi = {"hits": 0, "misses": 0}
    spans = 0
    for r in results:
        tr = r.get("trace")
        if tr is None:
            continue
        spans += tr["spans"]
        for name, row in tr["by_name"].items():
            acc = by_name.setdefault(name, dict.fromkeys(row, 0))
            for key, val in row.items():
                acc[key] += val
        for layer, n in tr["failures"].items():
            failures[layer] = failures.get(layer, 0) + n
        for key in jacobi:
            jacobi[key] += r["jacobi"][key]
    return by_name, failures, jacobi, spans


def layer_counts(results: list[dict]) -> dict:
    """Machine-independent counters of a traced pass (must repeat exactly)."""
    by_name, failures, jacobi, spans = _sum_summaries(results)
    counts = {f"{name}.{key}": row[key] for name, row in by_name.items()
              for key in ("calls", "outer_calls", "extra", "outer_extra")}
    counts.update({f"failures.{k}": v for k, v in failures.items()})
    counts.update({f"jacobi.{k}": v for k, v in jacobi.items()})
    counts["spans"] = spans
    return counts


def layer_metrics(results: list[dict]) -> dict:
    by_name, failures, jacobi, spans = _sum_summaries(results)
    zero = {"calls": 0, "outer_calls": 0, "outer_ns": 0, "self_ns": 0, "extra": 0, "outer_extra": 0}

    def row(name):
        return by_name.get(name, zero)

    def names(prefix):
        return [n for n in by_name if n.startswith(prefix)]

    def total(name_list, key):
        return sum(row(n)[key] for n in name_list)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    quad_entries = [f"quadrature.{fn}" for fn in ("integrate", "beta_kernel",
                                                  "halfline_power", "power_weighted")]
    calls = total(quad_entries, "calls")
    panels = row("quadrature.integrand")["calls"]
    quad_self = total(names("quadrature."), "self_ns") / 1e9
    out["quadrature.calls"] = calls
    out["quadrature.panels"] = panels
    out["quadrature.nodes"] = row("quadrature.integrand")["extra"]
    out["quadrature.panels_per_call"] = ratio(panels, calls)
    out["quadrature.self_s"] = quad_self
    out["quadrature.us_per_panel"] = ratio(quad_self * 1e6, panels)
    out["quadrature.integrand_s"] = row("quadrature.integrand")["self_ns"] / 1e9
    out["quadrature.failures"] = failures.get("quadrature", 0)
    out["quadrature.jacobi_hit_ratio"] = ratio(jacobi["hits"], jacobi["hits"] + jacobi["misses"])
    for fn in SPECIAL_FNS:
        r = row(f"special.{fn}")
        out[f"special.{fn}.calls"] = r["calls"]
        out[f"special.{fn}.us_per_call"] = ratio(r["outer_ns"] / 1e3, r["outer_calls"])
        out[f"special.{fn}.self_s"] = r["self_ns"] / 1e9
    out["special.failures"] = failures.get("special", 0)
    samplers = names("distributions.sample")
    draws = total(samplers, "outer_extra")
    sample_s = total(samplers, "outer_ns") / 1e9
    out["distributions.draws"] = draws
    out["distributions.sample_s"] = sample_s
    out["distributions.draws_per_s"] = ratio(draws, sample_s)
    out["identities.verify.calls"] = row("identities.verify")["calls"]
    out["identities.ks_s"] = row("identities.ks_two_sample")["outer_ns"] / 1e9
    out["identities.mellin_channel_s"] = row("identities.mellin_channel")["outer_ns"] / 1e9
    out["identities.density_channel_s"] = row("identities.density_channel")["outer_ns"] / 1e9
    out["convolution.mellin_sum.calls"] = row("convolution.mellin_sum")["calls"]
    out["convolution.mellin_sum.s"] = row("convolution.mellin_sum")["outer_ns"] / 1e9
    dens = [n for n in names("convolution.") if "density" in n]
    out["convolution.density.calls"] = total(dens, "calls")
    out["convolution.density.s"] = total(dens, "outer_ns") / 1e9
    for key, fn in THORIN_FNS.items():
        out[f"thorin.{key}.calls"] = row(f"thorin.{fn}")["calls"]
        out[f"thorin.{key}.s"] = row(f"thorin.{fn}")["outer_ns"] / 1e9
    probes = [f"probes.{fn}" for fn in ("cm_probe", "lcm_probe", "monotone_probe")]
    points = total(probes, "extra")
    out["probes.grid_points"] = points
    out["probes.target_evals"] = row("probes.target")["calls"]
    out["probes.evals_per_point"] = ratio(row("probes.target")["calls"], points)
    out["probes.target_s"] = row("probes.target")["outer_ns"] / 1e9
    out["probes.fit_s"] = total(probes, "self_ns") / 1e9
    for layer in LAYERS:
        if layer != "quadrature":
            out[f"{layer}.self_s"] = total(names(layer + "."), "self_ns") / 1e9
    out["trace.spans"] = spans
    return out


# ---------------------------------------------------------------------------


def by_command(results: list[dict]) -> dict[str, list[dict]]:
    """Results grouped by command id, in the order the commands first ran."""
    groups: dict[str, list[dict]] = {}
    for r in results:
        groups.setdefault(r["cid"], []).append(r)
    return groups


def summarise(results: list[dict]) -> dict:
    """End-to-end metrics of the command results of a run.

    ``wall_s`` is the sum over the workload's commands of each command's mean
    ``main()`` time: the expected time of one pass. On a shared host the speed
    of interpreter-bound code jumps between levels up to twice apart, in
    spells of a fraction of a second to minutes, so a command's few times in a
    run are spread over those levels; their median jumps from one level to
    another, while their mean moves smoothly with the share of slow time.
    """
    groups = by_command(results)
    failed = sum(1 for r in results if r["problems"])
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    return {
        "attempted": len(results),
        "failed": failed,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(statistics.mean(r["main_s"] for r in rs) for rs in groups.values()),
        "peak_rss_mb": max(statistics.median(r.get("maxrss_kb", 0) for r in rs)
                           for rs in groups.values()) / 1024.0,
        "ok_frac": (len(results) - failed) / len(results),
        "failed_frac": failed / len(results),
        "runs": {cid: len(rs) for cid, rs in groups.items()},
        "csv_identical": sum(1 for rs in groups.values() if rs[0].get("identical")),
    }


def report_failures(results: list[dict]) -> None:
    for r in results:
        for problem in r["problems"]:
            sys.stderr.write(f"FAILED {r['cid']}: {problem}\n")


def traced_run(workload: str, seed: int, refs: dict, deadline: float):
    """Untraced, traced, traced, untraced passes with the same command seeds.

    Returns (results, metrics), or (results, None) when the two traced passes
    disagree on a counter, which is a benchmark error.
    """
    seeds = pass_seeds(workload, seed, 0)
    spans_dir = os.path.join(SPANS_DIR, workload)
    os.makedirs(spans_dir, exist_ok=True)
    untraced = [run_pass(workload, seeds, refs, False, deadline)]
    traced = [run_pass(workload, seeds, refs, True, deadline, spans_dir),
              run_pass(workload, seeds, refs, True, deadline)]
    untraced.append(run_pass(workload, seeds, refs, False, deadline))
    results = [r for p in untraced + traced for r in p]
    counts = [layer_counts(p) for p in traced]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        sys.stderr.write("benchmark error: counters differ between two traced passes "
                         f"with the same seeds: {diff[:20]}\n")
        return results, None
    layers = [layer_metrics(p) for p in traced]
    metrics = {k: statistics.mean(m[k] for m in layers) for k in layers[0]}
    for cmd in all_commands():
        times = [r["main_s"] for p in untraced for r in p if r["cid"] == cmd.cid]
        metrics[f"cli.cmd_s.{cmd.cid}"] = statistics.mean(times) if times else 0.0
    summary = summarise(untraced[0] + untraced[1])
    metrics["cli.csv_identical"] = summary["csv_identical"]
    metrics["trace.overhead_frac"] = (
        summarise(traced[0] + traced[1])["wall_s"] / summary["wall_s"] - 1.0)

    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total_self = sum(selfs.values()) or 1.0
    print("# self time by layer: " + ", ".join(
        f"{layer} {100 * s / total_self:.1f}%"
        for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1])))
    print(f"# largest self-time layer: {max(selfs, key=selfs.get)}; "
          "distributions.self_s + identities.ks_s "
          f"{100 * (selfs['distributions'] + metrics['identities.ks_s']) / total_self:.1f}%")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    return results, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def schedule(workload: str, seed: int):
    """(command, command seed) in workload order, one pass after another."""
    for index in itertools.count():
        yield from zip(WORKLOADS[workload], pass_seeds(workload, seed, index))


def timed_run(workload: str, seed: int, refs: dict, seconds: float, started: float,
              deadline: float):
    """Runs the workload's commands in order, over and over, for about
    ``seconds``; returns (results, end-to-end metrics).

    The first pass always runs whole. After it, a command starts only if its
    previous ``main()`` time still fits in ``seconds``.
    """
    results, last = [], {}
    for cmd, cmd_seed in schedule(workload, seed):
        now = time.monotonic()
        if cmd.cid in last and now - started + last[cmd.cid] > seconds:
            break
        if now >= deadline:
            results.append({"cid": cmd.cid, "main_s": 0.0,
                            "problems": ["not started: run time cap reached"]})
            last[cmd.cid] = math.inf
            continue
        r = run_command(cmd, cmd_seed, refs[cmd.cid][str(cmd_seed)], False, deadline)
        results.append(r)
        last[cmd.cid] = r["main_s"]
    summary = summarise(results)
    groups = by_command(results)
    print(f"# {workload}: {summary['attempted']} commands in "
          f"{min(summary['runs'].values())}-{max(summary['runs'].values())} runs each")
    for cid, rs in groups.items():
        print(f"# {cid}: main_s " + ", ".join(f"{r['main_s']:.3f}" for r in rs))
    for name, unit in END_TO_END:
        print(f"# {name} = {summary[name]:.6g} {unit}")
    print(f"# failed_frac = {summary['failed_frac']:.6g} fraction")
    print(f"# csv_identical = {summary['csv_identical']} of {len(groups)} commands")
    return results, {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bpl", "cli.py")):
        sys.stderr.write(f"bpl sources not found under {ROOT}/src; "
                         "run from a checkout of the repository\n")
        return 2
    refs = load_refs(args.workload)
    env = environment()
    started = time.monotonic()
    deadline = started + RUN_CAP_S
    # compile the package's bytecode once, as an installed package would have it
    subprocess.run([sys.executable, CHILD, json.dumps(
        {"argv": ["--version"], "cmd_id": "warmup", "trace": False, "spans": None})],
        cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S, check=False)

    if args.trace:
        results, metrics = traced_run(args.workload, args.seed, refs, deadline)
        if metrics is None:
            return 3
    else:
        results, metrics = timed_run(args.workload, args.seed, refs, args.seconds,
                                     started, deadline)
    report_failures(results)
    failed = sum(1 for r in results if r["problems"])
    env["loadavg_end"] = os.getloadavg()
    print("# environment: " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
