"""Spans and counters recorded from outside the program.

The tracer wraps the functions that form each layer's boundary, where the
callers look them up, and records one span per call (name, start, end,
parent) into flat in-memory arrays.  A few very frequent calls are counted
without a span.  Nothing is written while a round runs; ``dump`` writes the
spans out when the run ends.

Spans come from one thread, so they nest: the children of a span never
overlap, and its self time is its duration minus the sum of its direct
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (owner, attribute, span name[, kind]).  The owner is a module, or a class
# written "module:Class".  Names imported by value are wrapped in every
# module that holds them, so no call is missed.  Kinds: "span" (the
# default), "count" (calls counted without a span, for very frequent
# calls) and "factory" (the function's result is wrapped).
TARGETS = [
    ("nonholo.cli", "main", "cli"),
    ("nonholo.integrate", "solve_ivp", "integrate.solver"),
    ("nonholo.integrate", "integrals", "integrate.integrals"),
    ("nonholo.planar", "energy_fn", "integrate.integrals", "factory"),   # planar-demo's integral
    ("nonholo.cli", "trajectory_csv", "integrate.csv"),
    ("nonholo.integrate", "trajectory_csv", "integrate.csv"),
    ("nonholo.sphere", "rhs", "sphere.rhs"),
    ("nonholo.integrate", "rhs", "sphere.rhs"),
    ("nonholo.sphere", "assemble_P", "sphere.assemble_P"),
    ("nonholo.cli", "assemble_P", "sphere.assemble_P"),
    ("nonholo.sphere", "conformal_residual", "sphere.conformal_residual"),
    ("nonholo.cli", "conformal_residual", "sphere.conformal_residual"),
    ("nonholo.sphere", "measure_residual", "sphere.measure_residual"),
    ("nonholo.cli", "measure_residual", "sphere.measure_residual"),
    ("nonholo.core", "jacobiator", "core.jacobiator"),
    ("nonholo.cli", "jacobiator", "core.jacobiator"),
    ("nonholo.core", "fd_gradient", "core.fd_gradient"),
    ("nonholo.core", "fd_curl", "core.fd_curl"),
    ("nonholo.spherical", "fd_curl", "core.fd_curl"),
    ("nonholo.core:ScalarField", "__call__", "core.scalar_field", "count"),
    ("nonholo.core:VectorField3", "__call__", "core.vector_field", "count"),
    ("nonholo.spherical", "_legendre_tables", "spherical.legendre_tables"),
    ("nonholo.spherical:SphereSpectralField", "analyze", "spherical.analyze"),
    ("nonholo.spherical:SphereSpectralField", "surface_gradient", "spherical.surface_gradient"),
    ("nonholo.spherical", "sphere_quadrature", "spherical.sphere_quadrature"),
    ("nonholo.spherical", "_calibrated_sign", "spherical.calibrated_sign"),
    ("nonholo.spherical", "solve_curl_equation", "spherical.solve_curl_equation"),
    ("nonholo.gauge", "solve_curl_equation", "spherical.solve_curl_equation"),
    ("nonholo.gauge", "pushforward_bivector", "gauge.pushforward_bivector"),
    ("nonholo.gauge", "reduction_report", "gauge.reduction_report"),
    ("nonholo.gauge", "apply_gauge_state", "gauge.apply_gauge_state"),
    ("nonholo.planar", "planar_rhs", "planar.planar_rhs"),
    ("nonholo.planar", "to_conformal", "planar.to_conformal"),
]

# the per-layer metrics a traced round reports: span calls, span self
# times, microseconds per call (inclusive of children) and plain counters
CALLS = ["sphere.rhs", "sphere.assemble_P", "core.jacobiator", "core.fd_gradient", "core.fd_curl",
         "spherical.legendre_tables", "spherical.surface_gradient", "gauge.pushforward_bivector",
         "gauge.apply_gauge_state", "planar.planar_rhs", "planar.to_conformal"]
SELF_S = ["integrate.solver", "integrate.integrals", "integrate.csv", "sphere.conformal_residual",
          "sphere.measure_residual", "core.jacobiator", "core.fd_curl", "spherical.legendre_tables",
          "spherical.analyze", "spherical.surface_gradient", "spherical.sphere_quadrature",
          "spherical.calibrated_sign", "spherical.solve_curl_equation",
          "gauge.pushforward_bivector", "gauge.reduction_report", "planar.planar_rhs", "cli"]
US_PER_CALL = ["sphere.rhs", "sphere.assemble_P"]
COUNTERS = ["integrate.nfev", "spherical.legendre_tables.points"]


def metric_names():
    """Every per-layer metric, with its unit."""
    out = {f"{n}.calls": "count" for n in CALLS}
    out.update({f"{n}.self_s": "s" for n in SELF_S})
    out.update({f"{n}.us_per_call": "us" for n in US_PER_CALL})
    out.update({n: "count" for n in COUNTERS})
    out.update({f"{n}.calls": "count" for _, _, n, *kind in TARGETS if kind == ["count"]})
    return out


def self_times(name_id, start, end, parent, n_names):
    """Per-name (calls, inclusive seconds, self seconds) of a span tree.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    A span's self time is its duration minus its direct children's.
    """
    name_id = np.asarray(name_id, np.int64)
    parent = np.asarray(parent, np.int64)
    dur = np.asarray(end, float) - np.asarray(start, float)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    calls = np.bincount(name_id, minlength=n_names)
    inclusive = np.bincount(name_id, weights=dur, minlength=n_names)
    self_s = np.bincount(name_id, weights=own, minlength=n_names)
    return calls, inclusive, self_s


class Tracer:
    """Records spans and counters while ``active`` is entered."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._id(name)
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            if name == "spherical.legendre_tables":      # _legendre_tables(L, x)
                x = kwargs.get("x", args[1] if len(args) > 1 else ())
                counters["spherical.legendre_tables.points"] += int(np.size(x))
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if name == "integrate.solver":               # solve_ivp's result
                counters["integrate.nfev"] += int(getattr(result, "nfev", 0))
            return result

        return traced

    def counted(self, fn, name):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counting

    def instrument(self, fn, name, kind="span"):
        """The wrapper installed in place of ``fn``."""
        if isinstance(fn, classmethod):
            return classmethod(self.instrument(fn.__func__, name, kind))
        if kind == "count":
            return self.counted(fn, f"{name}.calls")
        if kind == "factory":
            return functools.wraps(fn)(lambda *a, **k: self.wrap(fn(*a, **k), name))
        return self.wrap(fn, name)

    @contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit.  A name
        the program no longer has is skipped and its metrics read 0."""
        undo = []
        try:
            for owner_path, attr, name, *kind in TARGETS:
                owner = _owner(owner_path)
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    sys.stderr.write(f"trace: {owner_path}.{attr} not found; {name} reads 0\n")
                    continue
                undo.append((owner, attr, original))
                setattr(owner, attr, self.instrument(original, name, *kind))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self):
        """The per-layer metrics of the spans and counters recorded so far."""
        for name in set(CALLS + SELF_S + US_PER_CALL):
            self._id(name)
        calls, inclusive, own = self_times(self.name_id, self.start, self.end, self.parent,
                                           len(self.names))
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = int(calls[self._ids[name]])
        for name in SELF_S:
            out[f"{name}.self_s"] = float(own[self._ids[name]])
        for name in US_PER_CALL:
            i = self._ids[name]
            out[f"{name}.us_per_call"] = float(1e6 * inclusive[i] / calls[i]) if calls[i] else 0.0
        for name in metric_names():
            if name not in out:
                out[name] = int(self.counters[name])
        return out

    def dump(self, path):
        """Write the recorded spans (one round) as arrays."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent))


def _owner(path):
    """The module, or the "module:Class" class, that holds wrapped names."""
    mod, _, cls = path.partition(":")
    owner = importlib.import_module(mod)
    return getattr(owner, cls, None) if cls else owner

