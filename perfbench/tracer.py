"""Span tracer that works from outside the library.

Each traced public function is rebound, for the duration of a traced op, in
every magweyl module namespace that holds it: weyl_calculus binds
centered_dft and fourier_g by name, and lie_core calls bch, psi_map and
psi_inverse through its own globals, so rebinding the attribute of the
defining module alone would miss those calls. Spans are kept in memory as
(name, start, end, parent, op) plus a work count and are written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from math import prod

import numpy as np

from magweyl import cli, lie_core, magnetic, symbol_space, weyl_calculus

MODULES = (lie_core, symbol_space, magnetic, weyl_calculus, cli)
LAYERS = tuple(m.__name__.rpartition(".")[2] for m in MODULES)


def _lead(*arrays):
    shapes = [np.shape(a)[:-1] for a in arrays]
    return prod(np.broadcast_shapes(*shapes))


def _field_bytes(field, *_args, **_kw):
    return field.values.nbytes


# (module, function, work counter or None, name of the counted unit)
TARGETS = (
    (lie_core, "bch", lambda alg, X, Y: _lead(X, Y), "points"),
    (lie_core, "psi_map", None, None),
    (lie_core, "psi_inverse", None, None),
    (magnetic, "alpha_phase", lambda A, Y, Z: _lead(Y, Z), "pairs"),
    (symbol_space, "centered_dft", lambda v, *a, **k: np.asarray(v).nbytes, "bytes"),
    (symbol_space, "fourier_g", _field_bytes, "bytes"),
    (symbol_space, "symplectic_fourier", _field_bytes, "bytes"),
    (symbol_space, "sample_symbol",
     lambda f, grid: 16 * grid.points_per_axis ** (2 * grid.dim), "bytes"),
    (weyl_calculus, "kernel_from_symbol",
     lambda ctx, a: a.values.size, "entries"),
    (weyl_calculus, "symbol_from_kernel", None, None),
    (weyl_calculus, "compose_kernels", None, None),
    (weyl_calculus, "moyal_2step_point", None, None),
    (weyl_calculus, "pi_action", None, None),
    (weyl_calculus, "magnetic_derivative_check", None, None),
    (cli, "main", None, None),
)


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for mod, fn, counter, unit in TARGETS:
        qual = f"{mod.__name__.rpartition('.')[2]}.{fn}"
        names[f"{qual}.s"] = "s"
        if counter is not None:
            names[f"{qual}.calls"] = "count"
            names[f"{qual}.{unit}"] = "bytes" if unit == "bytes" else "count"
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
    names["trace.overhead_frac"] = "frac"
    return names


def _largest_array(objs):
    best = 0
    for o in objs:
        v = getattr(o, "values", o)
        if isinstance(v, np.ndarray):
            best = max(best, v.nbytes)
    return best


class Tracer:
    """Records spans of the TARGETS while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, work]
        self.stack = []
        self.op = None
        self.largest_array = 0
        self._bindings = []
        for mod, fn, counter, unit in TARGETS:
            orig = getattr(mod, fn)
            qual = f"{mod.__name__.rpartition('.')[2]}.{fn}"
            wrapper = self._wrap(qual, orig, counter)
            for m in MODULES:
                if getattr(m, fn, None) is orig:
                    self._bindings.append((m, fn, orig, wrapper))
        self.units = {f"{mod.__name__.rpartition('.')[2]}.{fn}": unit
                      for mod, fn, _, unit in TARGETS}

    def _wrap(self, qual, fn, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    counter(*args, **kwargs) if counter else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self.largest_array = max(self.largest_array,
                                     _largest_array(args + (result,)))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op_id):
        """Rebind every target to its traced wrapper for one op."""
        self.op = op_id
        for m, fn, _, wrapper in self._bindings:
            setattr(m, fn, wrapper)
        try:
            yield
        finally:
            for m, fn, orig, _ in self._bindings:
                setattr(m, fn, orig)
            self.op = None

    def summarize(self, n_ops):
        """Per-op averages: time in the outermost span of each function,
        calls and work counts, and self time charged to the layer of the
        innermost active span."""
        out = {name: 0.0 for name in per_layer_names()}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _, work) in enumerate(self.spans):
            layer = name.partition(".")[0]
            out[f"{layer}.self_s"] += t1 - t0 - child[i]
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.{self.units[name]}"] += work
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += t1 - t0
        del out["trace.overhead_frac"]
        return {k: v / n_ops for k, v in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work"],
                       "spans": self.spans}, fh)
