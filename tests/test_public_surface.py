"""Every public callable has a user: a ``bpl`` command reaches it, or an
acceptance criterion needs it.

COMMANDS runs every verify identity, every probe ratio in each of its kinds,
every scan, and thorin on both of its routes (a < 1 and a = 1), at sizes that
take well under a second in all. A profiler records the code object of every
Python function called meanwhile, on any thread. A callable in the __all__ of
a bpl module passes when one of its code objects ran (a class, through a
function of its own body; an error class has none and is not counted), or
when SERVES names it with the acceptance criterion whose test in
test_acceptance.py calls it.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import threading

import pytest

import bpl
import test_acceptance
from bpl.cli import main

# a level of 1e-6 keeps a KS verdict off the exit code of a proven identity
_V = ("--n", "3000", "--alpha", "1e-6")
_Z = ("--z-n", "60")

COMMANDS = [
    ("verify", "theorem-a", "--a", "0.5", *_V),
    ("verify", "theorem-b", "--a", "0.5", "--b", "0.2", *_V),
    ("verify", "prop-b0", "--a", "1", "--b", "0.5", "--b-prime", "1.5", *_V),
    ("verify", "ab-half", "--a", "0.25", *_V),
    ("verify", "free", "--a", "1", "--b", "1", "--c", "1", "--d", "1", *_V),
    ("verify", "half-gaussian", "--a", "0.5", *_V),
    ("verify", "cor34", "--a", "1", *_V),
    ("probe", "psi-cc", "--a", "0.7", "--c", "0.3", "--c-prime", "-0.5", *_Z),
    ("probe", "psi-cc", "--a", "0.5", "--c", "0.3", "--c-prime", "-0.5", "--lcm", *_Z),
    ("probe", "psi-doubling", "--a", "0.7", "--c", "-0.5", *_Z),
    ("probe", "psi-doubling", "--a", "0.5", "--c", "0.5", "--lcm", *_Z),
    ("probe", "psi-doubling", "--a", "0.7", "--c", "0.75", "--monotone", *_Z),
    ("probe", "hermite-doubling", "--nu", "1", *_Z),
    ("probe", "hermite-doubling", "--nu", "0.5", "--lcm", *_Z),
    ("probe", "k0-e1", *_Z),
    ("probe", "turan-hermite", "--nu", "1.3", "--c", "0.6", *_Z),
    ("probe", "turan-psi", "--a", "0.5", "--c", "0.3", "--lambda", "0.4", *_Z),
    ("scan", "cjmain", "--a", "0.5", "--b", "0.2", "--n-samples", "3000"),
    ("scan", "cmcj", "--a", "0.7", "--c=-0.5,0.5"),
    ("scan", "cmmi", "--n", "0,1,2"),
    ("scan", "thorin-order", "--a", "0.3,0.6", "--b", "0.5", "--t", "0.5:4:3"),
    ("scan", "conjhyp", "--a", "0.25"),
    ("scan", "kumma", "--a", "0.6", "--c", "0.5", "--c-prime", "0.1"),
    ("thorin", "--a", "0.5", "--x", "0.5", "--t", "0.1:10:5"),
    ("thorin", "--a", "1", "--x", "0.5", "--t", "0.1:10:5"),
]

# public names no command reaches, each with the criterion that needs it.
# EvalOptions: the commands run at DEFAULT_OPTIONS, built when bpl is imported
SERVES = {
    "lemma_densities": "criterion 04",
    "EvalOptions": "criterion 05",
    "SumSpec": "criterion 05",
    "appell_f1": "criterion 05",
    "sum_density_2f1": "criterion 05",
    "sum_density_appell": "criterion 05",
    "sum_density_pfaff1": "criterion 05",
    "sum_density_pfaff2": "criterion 05",
    "stoo_check": "criterion 09",
    "awk_density": "criterion 10",
}


def _called(run) -> set:
    """The code objects of the Python functions called while run() runs, on
    the calling thread and on every thread started meanwhile."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    threading.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


def _public() -> dict:
    """name -> code objects of each callable in the __all__ of a bpl module,
    each object once; a class by the functions of its own body."""
    modules = [bpl] + [importlib.import_module(f"bpl.{m.name}")
                       for m in pkgutil.iter_modules(bpl.__path__)]
    out = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                codes = {f.__code__ for f in vars(obj).values() if inspect.isfunction(f)}
            elif inspect.isfunction(obj):
                codes = {obj.__code__}
            else:
                continue
            if codes:
                out.setdefault(name, set()).update(codes)
    return out


@pytest.fixture(scope="module")
def commands_run():
    exits = []

    def run():
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                exits.append(main(list(argv)))

    return exits, _called(run)


def test_every_command_exits_zero(commands_run):
    exits, _ = commands_run
    assert [" ".join(c[:2]) for c, code in zip(COMMANDS, exits) if code != 0] == []


def test_every_public_callable_is_reached_or_serves_a_criterion(commands_run):
    _, seen = commands_run
    public = _public()
    unused = sorted(name for name, codes in public.items()
                    if not codes & seen and name not in SERVES)
    assert unused == [], f"public, but no command reaches them and no criterion needs them: {unused}"
    # an entry of SERVES names a public callable that no command reaches
    stale = sorted(name for name in SERVES if name not in public or public[name] & seen)
    assert stale == []


@pytest.mark.parametrize("criterion", sorted(set(SERVES.values())))
def test_each_served_name_is_called_by_its_criterion_test(criterion):
    number = criterion.split()[-1]
    (test,) = [fn for name, fn in vars(test_acceptance).items()
               if name.startswith(f"test_criterion_{number}_")]
    seen = _called(test)
    public = _public()
    missed = sorted(name for name, c in SERVES.items()
                    if c == criterion and not public[name] & seen)
    assert missed == []
