"""Per-call spans around the public functions of slitkit's layers.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each module namespace that holds the function under any name:
``counterexample`` calls ``f_eval`` through its own ``from .slitmap import
f_eval`` binding, so patching ``slitmap`` alone would miss those calls.  A
span records the function's name, start, end and the span that was open when
it began; the benchmark opens a root span around each of its operations, so
the spans of one operation share that root.  Spans stay in memory and are
written out once, at the end of the run.  Wrappers record nothing while
``active`` is false, which keeps the benchmark's own checks out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("prime", "slitmap", "potential", "counterexample", "svgfig")


def _points(z, a, m):
    return np.broadcast(z, a).size


def _pairs(mu, w):
    return np.size(w) * mu.nodes.size


# Work counted per call, by span name; other spans count calls only.
WORK = {"prime.prime_omega": _points, "potential.log_potential": _pairs}

# (metric, span name, statistic, unit).  Statistics: calls, work (summed WORK
# counts), self_s (summed self time) and evals_per_call (f_eval spans nested
# anywhere below a span of this name, per such span).
PER_LAYER = (
    ("prime.omega.calls", "prime.prime_omega", "calls", "count"),
    ("prime.omega.points", "prime.prime_omega", "work", "count"),
    ("prime.omega.self_s", "prime.prime_omega", "self_s", "s"),
    ("prime.log_deriv.calls", "prime.prime_omega_log_deriv", "calls", "count"),
    ("prime.log_deriv.self_s", "prime.prime_omega_log_deriv", "self_s", "s"),
    ("slitmap.f_eval.self_s", "slitmap.f_eval", "self_s", "s"),
    ("slitmap.f_prime.self_s", "slitmap.f_prime", "self_s", "s"),
    ("slitmap.f_inverse.calls", "slitmap.f_inverse", "calls", "count"),
    ("slitmap.f_inverse.self_s", "slitmap.f_inverse", "self_s", "s"),
    ("slitmap.f_inverse.evals_per_call", "slitmap.f_inverse", "evals_per_call", "count"),
    ("slitmap.slit_endpoint.calls", "slitmap.slit_endpoint", "calls", "count"),
    ("slitmap.slit_endpoint.self_s", "slitmap.slit_endpoint", "self_s", "s"),
    ("potential.log_potential.pairs", "potential.log_potential", "work", "count"),
    ("potential.log_potential.self_s", "potential.log_potential", "self_s", "s"),
    ("potential.competitor_boundary_dist.calls", "potential.competitor_boundary_dist", "calls", "count"),
    ("potential.competitor_boundary_dist.self_s", "potential.competitor_boundary_dist", "self_s", "s"),
    ("counterexample.delta_of.calls", "counterexample.delta_of", "calls", "count"),
    ("counterexample.delta_of.self_s", "counterexample.delta_of", "self_s", "s"),
    ("counterexample.certify_degenerate.self_s", "counterexample.certify_degenerate", "self_s", "s"),
    ("counterexample.nondegenerate_evidence.self_s", "counterexample.nondegenerate_evidence", "self_s", "s"),
    ("svgfig.plot_map.self_s", "svgfig.plot_map", "self_s", "s"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work = array("q")
        self._open = [-1]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int, work: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.work.append(work)
        self.start.append(0)
        self.end.append(0)
        self._open.append(idx)
        return idx

    def _finish(self, idx: int, t0: int, t1: int) -> None:
        self._open.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def root(self, name: str):
        """Span around one operation of the benchmark, active inside."""
        idx = self._begin(self._name(name), 0)
        self.active = True
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self.active = False
            self._finish(idx, t0, t1)

    def wrap(self, name: str, fn):
        nid = self._name(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._begin(nid, work(*args, **kwargs) if work else 0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx, t0, perf_counter_ns())

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions in every slitkit namespace."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"slitkit.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "slitkit" and not modname.startswith("slitkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the growable buffers)."""
        def column(a):
            return np.frombuffer(a, dtype=np.int64).copy()

        return {
            "names": np.array(self.names),
            "name_id": column(self.name_id),
            "start_ns": column(self.start),
            "end_ns": column(self.end),
            "parent": column(self.parent),
            "work": column(self.work),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self) -> dict:
        return layer_metrics(**self.arrays())


def self_times(start_ns, end_ns, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover, in ns.

    Calls are synchronous on one thread, so children of one span never
    overlap and the covered time is the sum of their durations.
    """
    dur = (np.asarray(end_ns) - np.asarray(start_ns)).astype(np.float64)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def nearest_ancestor(parent, is_target) -> np.ndarray:
    """Index of the closest strict ancestor flagged in is_target, or -1."""
    parent = np.asarray(parent)
    anc = parent.copy()
    while True:
        climb = (anc >= 0) & ~is_target[np.maximum(anc, 0)]
        if not climb.any():
            return anc
        anc[climb] = parent[anc[climb]]


def layer_metrics(names, name_id, start_ns, end_ns, parent, work) -> dict:
    """The PER_LAYER metrics from span arrays, as {metric: (value, unit)}."""
    names = [str(n) for n in names]
    name_id = np.asarray(name_id)
    self_s = self_times(start_ns, end_ns, parent) / 1e9

    def mask(span: str) -> np.ndarray:
        if span not in names:
            return np.zeros(name_id.size, dtype=bool)
        return name_id == names.index(span)

    out = {}
    for metric, span, stat, unit in PER_LAYER:
        sel = mask(span)
        if stat == "calls":
            value = int(sel.sum())
        elif stat == "work":
            value = int(np.asarray(work)[sel].sum())
        elif stat == "self_s":
            value = float(self_s[sel].sum())
        else:
            anc = nearest_ancestor(parent, sel)
            nested = mask("slitmap.f_eval") & (anc >= 0)
            value = float(nested.sum() / sel.sum()) if sel.any() else 0.0
        out[metric] = (value, unit)
    return out
