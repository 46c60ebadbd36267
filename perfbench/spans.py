"""Outside-in span tracing of the ``bpl`` layers, installed from the benchmark.

``install`` wraps every public function of each layer module in every ``bpl``
module namespace that bound it (modules import with ``from .x import y``, so
patching only the defining module would miss calls). On top of that it wraps

- the integrand handed to a public quadrature entry: one call is one 15-node
  panel;
- the target returned by a probes ratio builder, or handed to a probe: one
  call is one target evaluation;
- the Mellin, density and sampler callables of an ``IdentitySpec`` returned
  by an identities builder: they are the two deterministic channels and the
  stochastic one of ``verify``.

Spans (name, start, end, parent) stay in flat arrays in memory; ``summary``
reduces them at exit. Self time is a span's duration minus the time its
child spans cover. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("special", "quadrature", "distributions", "convolution",
          "identities", "thorin", "probes", "cli")

QUAD_ENTRIES = ("integrate", "beta_kernel", "halfline_power", "power_weighted")
PROBES = ("cm_probe", "lcm_probe", "monotone_probe")
SAMPLERS = ("sample_gamma", "sample_beta", "sample_betaprime", "size_bias_sample")
SPEC_FIELDS = {
    "lhs_mellin": "identities.mellin_channel",
    "rhs_mellin": "identities.mellin_channel",
    "lhs_density": "identities.density_channel",
    "rhs_density": "identities.density_channel",
    "lhs_sampler": "identities.sampler",
    "rhs_sampler": "identities.sampler",
}
INTEGRAND = "quadrature.integrand"
TARGET = "probes.target"


def group_of(name: str) -> str:
    """Spans of one group are nested at most once in inclusive times."""
    layer, _, fn = name.partition(".")
    if layer == "distributions" and fn in SAMPLERS:
        return "distributions.sample"
    if layer == "convolution" and "density" in fn:
        return "convolution.density"
    return name


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._group_ids: dict[str, int] = {}
        self._groups: list[int] = []
        self.active: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self.outer = array("b")
        self.failures: list[tuple[int, BaseException]] = []
        # one stack for all threads: cmd_verify's pool runs a single worker
        # while the main thread waits on it, so spans still nest
        self._stack = [-1]

    def _ids(self, name: str) -> tuple[int, int]:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            group = group_of(name)
            gid = self._group_ids.setdefault(group, len(self._group_ids))
            self._groups.append(gid)
            if gid == len(self.active):
                self.active.append(0)
        return nid, self._groups[nid]

    def wrap(self, fn, name: str, *, pre=None, post=None, extra=None):
        """Wrap fn so every call records one span.

        pre(args, kwargs) may replace the arguments, post(result) the result;
        extra(args, result) gives the span's work count (nodes, points, draws).
        """
        nid, gid = self._ids(name)
        tr = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            idx = len(tr.name_id)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.outer.append(tr.active[gid] == 0)
            tr.extra.append(0)
            tr.end.append(0)
            tr.active[gid] += 1
            tr._stack.append(idx)
            tr.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tr.failures.append((idx, exc))
                raise
            finally:
                tr.end[idx] = clock()
                tr._stack.pop()
                tr.active[gid] -= 1
            if extra is not None:
                tr.extra[idx] = int(extra(args, out))
            return post(out) if post is not None else out

        traced.__perfbench_span__ = name
        return traced

    def wrap_once(self, fn, name: str, **kw):
        if not callable(fn) or hasattr(fn, "__perfbench_span__"):
            return fn
        return self.wrap(fn, name, **kw)

    # -- hooks ---------------------------------------------------------------

    def _wrap_first_arg(self, name: str, kwarg_names: tuple[str, ...], extra):
        def pre(args, kwargs):
            if args:
                return (self.wrap_once(args[0], name, extra=extra), *args[1:]), kwargs
            for key in kwarg_names:
                if key in kwargs:
                    kwargs = dict(kwargs, **{key: self.wrap_once(kwargs[key], name, extra=extra)})
            return args, kwargs
        return pre

    def _target_post(self, out):
        if inspect.isfunction(out):
            return self.wrap_once(out, TARGET)
        return out

    def _spec_post(self, out):
        for field, name in SPEC_FIELDS.items():
            fn = getattr(out, field, None)
            if fn is not None:
                setattr(out, field, self.wrap_once(fn, name))
        return out

    def hooks_for(self, layer: str, fn_name: str) -> dict:
        """Argument and result hooks of one public function (see module doc)."""
        if layer == "quadrature" and fn_name in QUAD_ENTRIES:
            return {"pre": self._wrap_first_arg(INTEGRAND, ("f", "R"),
                                                lambda args, out: np.size(args[0]))}
        if layer == "probes" and fn_name in PROBES:
            return {"pre": self._wrap_first_arg(TARGET, ("f",), None),
                    "extra": lambda args, out: np.size(args[1]) if len(args) > 1 else 0}
        if layer == "probes":
            return {"post": self._target_post}
        if layer == "identities" and fn_name.endswith("_spec"):
            return {"post": self._spec_post}
        if layer == "distributions" and fn_name in SAMPLERS:
            return {"extra": lambda args, out: np.size(out)}
        return {}

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, outermost calls, inclusive ns of outermost
        spans, self ns, and the work counts of all and of outermost spans."""
        n = len(self.name_id)
        names = self.names
        out = {name: {"calls": 0, "outer_calls": 0, "outer_ns": 0, "self_ns": 0,
                      "extra": 0, "outer_extra": 0} for name in names}
        if n:
            nid = np.frombuffer(self.name_id, dtype=np.int32)
            parent = np.frombuffer(self.parent, dtype=np.int32)
            dur = (np.frombuffer(self.end, dtype=np.int64)
                   - np.frombuffer(self.start, dtype=np.int64))
            extra = np.frombuffer(self.extra, dtype=np.int64)
            outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
            covered = np.zeros(n, dtype=np.int64)
            has_parent = parent >= 0
            np.add.at(covered, parent[has_parent], dur[has_parent])
            own = dur - covered
            k = len(names)
            cols = {
                "calls": np.bincount(nid, minlength=k),
                "outer_calls": np.bincount(nid[outer], minlength=k),
                "outer_ns": np.bincount(nid[outer], weights=dur[outer], minlength=k),
                "self_ns": np.bincount(nid, weights=own, minlength=k),
                "extra": np.bincount(nid, weights=extra, minlength=k),
                "outer_extra": np.bincount(nid[outer], weights=extra[outer], minlength=k),
            }
            for i, name in enumerate(names):
                out[name] = {key: int(col[i]) for key, col in cols.items()}
        # an exception unwinding through nested spans of one layer is one failure
        failed: dict[str, set[int]] = {}
        for idx, exc in self.failures:
            layer = names[self.name_id[idx]].partition(".")[0]
            failed.setdefault(layer, set()).add(id(exc))
        return {"spans": n, "by_name": out,
                "failures": {layer: len(ids) for layer, ids in failed.items()}}

    def write_spans(self, path: str, cmd_id: str) -> None:
        """Tab-separated spans: command, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("command\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.name_id)):
                fh.write(f"{cmd_id}\t{i}\t{self.parent[i]}\t{names[self.name_id[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\n")


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every layer; returns the original
    functions by qualified name (for ``jacobi_rule.cache_info``)."""
    mods = {layer: importlib.import_module(f"bpl.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "bpl" or name.startswith("bpl."))]
    originals = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            originals[name] = obj
            wrapped = tracer.wrap(obj, name, **tracer.hooks_for(layer, attr))
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, key, wrapped)
    return originals
