"""Capture the reference CSVs that check.py compares against.

Usage (from the repository root): python3 perfbench/capture.py [workload ...]

Runs every command of the named workloads (default: all) once per seed in
REF_SEEDS and writes refs/<workload>.json as {command id: {seed: {"exit",
"csv"}}}. Refuses to write a reference whose exit code differs from the
command's expected one. Re-run only on purpose: the references define
correct output for every later run.
"""

import json
import os
import sys

from check import REFS_DIR
from run import COMMAND_TIMEOUT_S, invoke
from workloads import REF_SEEDS, WORKLOADS


def main(names: list[str]) -> int:
    os.makedirs(REFS_DIR, exist_ok=True)
    for workload in names or sorted(WORKLOADS):
        refs = {}
        for cmd in WORKLOADS[workload]:
            refs[cmd.cid] = {}
            for seed in REF_SEEDS:
                reply = invoke(cmd, seed, False, COMMAND_TIMEOUT_S)
                if reply["problems"] or reply["exit"] != cmd.expected_exit:
                    sys.stderr.write(f"{cmd.cid} seed {seed}: exit {reply.get('exit')}, "
                                     f"expected {cmd.expected_exit}; {reply['problems']}\n"
                                     f"{reply.get('csv', '')}")
                    return 1
                refs[cmd.cid][str(seed)] = {"exit": reply["exit"], "csv": reply["csv"]}
                print(f"{workload} {cmd.cid} seed {seed}: {reply['main_s']:.2f} s", flush=True)
        with open(os.path.join(REFS_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
