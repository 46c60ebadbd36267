"""Per-command correctness check against the reference CSVs in refs/.

A command passes only if its exit code is the expected one, its label cells
(verdict, status, kind, probe n_ok/n_total, parameters, seed, ...) match the
reference exactly, and its numbers pass these tests:

- KS rows: pass exactly when statistic < threshold (verify rows), proven
  cjmain points below the alpha = 0.01 threshold of the scan;
- Mellin and density rows: below their threshold column when they pass;
- Thorin f_ax, cdf and density: within THORIN_TOL_MULTIPLE times the row's
  tolerance of the reference, relative;
- every other number: a number (or nan) where the reference has one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Cells compared as text. Everything not listed is compared as a number.
LABELS = {"identity", "params", "channel", "verdict", "ratio", "kind", "order",
          "n_ok", "n_total", "expected", "first_violation_order", "conjecture",
          "status", "a", "x", "t", "seed", "tolerance", "version"}
THORIN_TOL_MULTIPLE = 1000.0
# `bpl scan cjmain` runs verify() at its default alpha = 0.01 with
# --n-samples 30000 per side.
CJMAIN_KS_THRESHOLD = math.sqrt(-math.log(0.01 / 2.0) / 2.0) * math.sqrt(2.0 / 30_000)
# the CLI's own acceptance limit for the cjmain representation channel
CJMAIN_REP_LIMIT = 1e-5


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _num(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _numeric_rules(row: dict, ref: dict) -> list[str]:
    problems = []
    if "identity" in row:  # verify
        stat, thr = _num(row["statistic"]), _num(row["threshold"])
        if row["channel"] == "ks":
            if stat is None or thr is None or (stat < thr) != (row["verdict"] == "pass"):
                problems.append(f"ks statistic {row['statistic']} vs threshold "
                                f"{row['threshold']} disagrees with verdict {row['verdict']}")
        elif row["channel"] in ("mellin", "density") and row["verdict"] == "pass":
            if stat is None or thr is None or not stat < thr:
                problems.append(f"{row['channel']} error {row['statistic']} not below "
                                f"{row['threshold']}")
    elif row.get("conjecture") == "cjmain" and row["status"] == "PASS":
        value = _num(row["value"])
        limit = {"ks": CJMAIN_KS_THRESHOLD, "mellin": _num(row["tolerance"]),
                 "representation": CJMAIN_REP_LIMIT}.get(row["channel"])
        if limit is not None and (value is None or not value < limit):
            problems.append(f"cjmain {row['channel']} {row['value']} not below {limit}")
    elif "f_ax" in row:  # thorin
        tol = THORIN_TOL_MULTIPLE * float(ref["tolerance"])
        for col in ("f_ax", "cdf", "density"):
            got, want = _num(row[col]), _num(ref[col])
            if want is None or math.isnan(want):
                continue
            if got is None or not abs(got - want) <= tol * abs(want):
                problems.append(f"thorin {col} at t={row['t']}: {row[col]} vs reference {ref[col]}")
    return problems


def check(exit_code: int, csv_text: str, cmd_seed: int, ref: dict) -> list[str]:
    """Problems found in one command's result; empty means it passed."""
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit']}")
    rows, ref_rows = _rows(csv_text), _rows(ref["csv"])
    if len(rows) != len(ref_rows) or (rows and list(rows[0]) != list(ref_rows[0])):
        return problems + [f"{len(rows)} rows / columns differ from the reference's {len(ref_rows)}"]
    for row, ref_row in zip(rows, ref_rows):
        if row.get("seed") != str(cmd_seed):
            problems.append(f"seed cell {row.get('seed')!r}, expected {cmd_seed}")
        for col, want in ref_row.items():
            got = row[col]
            if col in LABELS or _num(want) is None:
                if got != want:
                    problems.append(f"{col} {got!r}, reference {want!r}")
            elif _num(got) is None or math.isnan(_num(got)) != math.isnan(_num(want)):
                problems.append(f"{col} {got!r} is not a number like the reference's {want!r}")
        problems += _numeric_rules(row, ref_row)
    return problems
