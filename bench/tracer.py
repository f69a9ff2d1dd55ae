"""Spans around the calls into each symspaces module, recorded from outside.

``install`` wraps every public function (the names in each module's
``__all__``, and ``quotient.submersion_sample_rates``), a fixed list of
methods, and the dense numpy kernels that the modules call directly.  The
modules bind many names at import (``from .lts import is_ideal``), so each
wrapper is rebound in every module namespace that holds the original.  Methods are wrapped on their class, and
``numpy.linalg.svd``, ``numpy.linalg.lstsq`` and ``numpy.einsum`` on numpy,
because the modules look those up at call time.

Each span keeps its name, start, end, parent span and op; spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np
from symspaces.numkernel import DomainError
from symspaces.subspace import ChartSplitError

MODULES = ("numkernel", "lts", "sympair", "symspace", "subspace", "quotient", "catalog", "reports", "cli")

# Module functions that metric_map.json names but that are not in their module's __all__.
UNEXPORTED = (("quotient", "submersion_sample_rates"),)

# (module, class, method, span name); the span names follow the metric names.
METHODS = (
    ("lts", "LinearSubspace", "onb", "lts.LinearSubspace.onb"),
    ("lts", "LinearSubspace", "distance", "lts.LinearSubspace.distance"),
    ("sympair", "MatrixSymmetricPair", "matrix_coords", "sympair.matrix_coords"),
    ("sympair", "MatrixSymmetricPair", "matrix_to_minus", "sympair.matrix_to_minus"),
    ("sympair", "MatrixSymmetricPair", "algebra", "sympair.algebra"),
    ("sympair", "MatrixSymmetricPair", "validate", "sympair.MatrixSymmetricPair.validate"),
    ("subspace", "ReflectionSubspace", "member", "subspace.ReflectionSubspace.member"),
)

NUMPY = (
    (np.linalg, "svd", "numpy.svd"),
    (np.linalg, "lstsq", "numpy.lstsq"),
    (np, "einsum", "numpy.einsum"),
)


class Tracer:
    """In-memory span store for one run."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span or -1, op)
        self.notes = []  # (span, key, value) observations made by the wrappers
        self.stack = []
        self.op = -1

    def wrap(self, name, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(self, sid, fn, args, kwargs)
            finally:
                spans[sid] = (idx, start, clock(), parent, self.op)
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced callable for the rest of the process."""
        mods = [sys.modules[f"symspaces.{m}"] for m in MODULES]
        holders = mods + [sys.modules["symspaces"]]
        functions = [(mod, attr) for mod in mods for attr in getattr(mod, "__all__", ())]
        functions += [(sys.modules[f"symspaces.{short}"], attr) for short, attr in UNEXPORTED]
        for mod, attr in functions:
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            wrapped = self.wrap(name, fn, OBSERVERS.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
        for short, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"symspaces.{short}"], cls_name)
            setattr(cls, meth, self.wrap(name, vars(cls)[meth], OBSERVERS.get(name)))
        for owner, attr, name in NUMPY:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def per_op(self):
        """``{op: {span name: {"calls", "self_s", notes...}}}`` from the stored spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, (idx, start, end, _, op) in enumerate(self.spans):
            stats = out.setdefault(op, {}).setdefault(self.names[idx], {"calls": 0, "self_s": 0.0})
            stats["calls"] += 1
            stats["self_s"] += (end - start) - child[sid]
        for sid, key, value in self.notes:
            idx, _, _, _, op = self.spans[sid]
            stats = out[op][self.names[idx]]
            if key == "peak_mb":
                stats[key] = max(stats.get(key, 0.0), value)
            else:
                stats[key] = stats.get(key, 0) + value
        return out


def _observe_mat_log(tracer, sid, fn, args, kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError:
        tracer.notes.append((sid, "domain_errors", 1))
        raise


def _observe_member(tracer, sid, fn, args, kwargs):
    result = fn(*args, **kwargs)
    if result is not None:
        tracer.notes.append((sid, "decided", 1))
    return result


def _observe_chart_split(tracer, sid, fn, args, kwargs):
    try:
        report = fn(*args, **kwargs)
    except ChartSplitError as exc:
        tracer.notes.append((sid, "halvings", len(exc.report.history) - 1))
        raise
    tracer.notes.append((sid, "halvings", len(report.history) - 1))
    return report


def _observe_axioms(tracer, sid, fn, args, kwargs):
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracer.notes.append((sid, "peak_mb", peak / 2**20))


OBSERVERS = {
    "numkernel.mat_log": _observe_mat_log,
    "subspace.ReflectionSubspace.member": _observe_member,
    "subspace.exp_chart_split": _observe_chart_split,
    "lts.check_lts_axioms": _observe_axioms,
}
