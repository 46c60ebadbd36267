"""The two benchmark workloads and the derivation of command seeds.

Each workload is a fixed list of ``bpl`` commands (README arguments unless
noted in README.md next to this file). One pass runs every command of the
workload once, each in its own interpreter.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Command(NamedTuple):
    """One ``bpl`` invocation: an id used in metric names, argv without
    ``--seed``, and the exit code the CLI contract prescribes for it."""

    cid: str
    argv: tuple[str, ...]
    expected_exit: int


# verify commands pass --alpha 1e-6: the KS statistic is computed exactly as
# at the default level, but a correct sampler whose random stream changes
# (ROADMAP items 2 and 3) then has a ~1e-6 instead of a 1% chance per check of
# a false rejection that would be counted as a failed command.
_N = ("--n", "1000000")
_ALPHA = ("--alpha", "1e-6")

WORKLOADS: dict[str, tuple[Command, ...]] = {
    # z-grid probes and scans (quadrature in breadth), then nested integrands
    # that call beta_kernel or gauss_2f1 at every node (quadrature in depth)
    "quadrature": (
        Command("probe-psi-doubling", ("probe", "psi-doubling", "--a", "0.7", "--c", "-0.5"), 0),
        Command("probe-hermite-doubling", ("probe", "hermite-doubling", "--nu", "1.0", "--order", "8"), 0),
        Command("probe-turan-psi", ("probe", "turan-psi", "--a", "0.5", "--c", "0.3", "--lambda", "0.4"), 0),
        Command("scan-cmcj", ("scan", "cmcj", "--a", "0.7", "--c=-0.5,0.2,0.5,1.1"), 0),
        Command("scan-kumma", ("scan", "kumma", "--a", "0.6", "--c", "0.5", "--c-prime", "0.1"), 0),
        Command("scan-cmmi", ("scan", "cmmi", "--n", "0,1,2"), 0),
        Command("scan-cjmain", ("scan", "cjmain", "--a", "0.5,0.8,2.0", "--b", "0.2"), 0),
        Command("verify-free", ("verify", "free", "--a", "1", "--b", "1", "--c", "1", "--d", "1") + _ALPHA, 0),
        Command("scan-conjhyp", ("scan", "conjhyp", "--a", "0.25"), 0),
        Command("thorin", ("thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:50"), 0),
        Command("scan-thorin-order", ("scan", "thorin-order", "--a", "0.3,0.6", "--b", "0.5", "--t", "0.5:4:5"), 0),
    ),
    "verify-sampling": (
        Command("verify-theorem-a-0.5", ("verify", "theorem-a", "--a", "0.5") + _N + _ALPHA, 0),
        Command("verify-theorem-a-1", ("verify", "theorem-a", "--a", "1") + _N + _ALPHA, 0),
        Command("verify-theorem-a-2", ("verify", "theorem-a", "--a", "2") + _N + _ALPHA, 0),
        Command("verify-theorem-b", ("verify", "theorem-b", "--a", "0.5", "--b", "0.2") + _N + _ALPHA, 0),
        Command("verify-prop-b0", ("verify", "prop-b0", "--a", "1.0", "--b", "0.5", "--b-prime", "1.5") + _N + _ALPHA, 0),
        Command("verify-ab-half", ("verify", "ab-half", "--a", "0.25") + _N + _ALPHA, 0),
        Command("verify-half-gaussian", ("verify", "half-gaussian", "--a", "0.5") + _N + _ALPHA, 0),
        Command("verify-cor34", ("verify", "cor34", "--a", "1.0") + _N + _ALPHA, 0),
        Command("verify-negative-control", ("verify", "theorem-a", "--a", "1.0", "--negative-control", "1.1") + _N + _ALPHA, 1),
    ),
}

# Reference CSVs are captured for these command seeds only (refs/), so every
# command seed is drawn from them.
REF_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)


def all_commands() -> list[Command]:
    return [cmd for cmds in WORKLOADS.values() for cmd in cmds]


def pass_seeds(workload: str, seed: int, pass_index: int) -> list[int]:
    """Command seeds of one pass, a pure function of (workload, seed, pass)."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return [rng.choice(REF_SEEDS) for _ in WORKLOADS[workload]]


def command_argv(cmd: Command, cmd_seed: int) -> list[str]:
    return [*cmd.argv, "--seed", str(cmd_seed)]
