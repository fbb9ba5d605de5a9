"""The closed measurement loop of one workload process, and its machine facts.

One caller runs ops back to back until the timed ops have taken the run's
seconds; the next op starts only after the previous one returned and was
gated. Only the op itself is timed: drawing its inputs and its correctness
gate are not. In a traced run every op's inputs run twice, untraced and
traced in alternating order, so the outputs can be compared bit for bit and
the tracing overhead read from the same run.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, per_layer_names
from workloads import digest


def _timed(workload, state, inputs):
    t0 = time.perf_counter()
    try:
        out = workload.run(state, inputs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    return time.perf_counter() - t0, out


def _gate(workload, state, inputs, out):
    if out is None:
        return False, None
    try:
        return workload.gate(state, inputs, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None


def measure(workload, state, seed, seconds, trace, size=None, trace_path=None,
            deadline=None):
    """Run ops until they have taken `seconds` of timed op time, or until the
    next op would pass `deadline` (a time.monotonic() value); return counts,
    op times and, traced, per-layer numbers."""
    tracer = Tracer() if trace else None
    times, times_traced, errs = [], [], []
    failed = mismatched = completed = 0
    index = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.monotonic()
        index += 1
        inputs = workload.op_inputs(seed, index, size)
        if tracer is None:
            t, out = _timed(workload, state, inputs)
            completed += out is not None
        else:
            runs = {}
            for traced in ((False, True) if index % 2 else (True, False)):
                with tracer.installed(index) if traced else contextlib.nullcontext():
                    runs[traced] = _timed(workload, state, inputs)
            t, out = runs[False]
            times_traced.append(runs[True][0])
            other = runs[True][1]
            completed += out is not None and other is not None
            if out is not None and (other is None or digest(out) != digest(other)):
                mismatched += 1
                out = None
        times.append(t)
        ok, err = _gate(workload, state, inputs, out)
        failed += not ok
        if err is not None:
            errs.append(err)
        if sum(times) >= seconds:
            break
        now = time.monotonic()
        if deadline is not None and now + (now - cycle_start) > deadline:
            break
    result = {
        "attempted": index,
        "completed": completed,
        "failed": failed,
        "op_time_s": sum(times),
        "wall_s": time.perf_counter() - start,
        "op_times_s": times,
        "err_rel_max": max(errs) if errs else None,
        "bitwise_mismatches": mismatched,
    }
    if tracer is not None:
        layers = tracer.summarize(index)
        layers["trace.overhead_frac"] = (statistics.median(times_traced)
                                         / statistics.median(times) - 1.0)
        units = per_layer_names()
        result["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        result["largest_array_bytes"] = tracer.largest_array
        if trace_path is not None:
            tracer.write(trace_path)
    return result


def _llc_bytes():
    """Size of the highest-level unified cache of cpu0, from sysfs."""
    best = (0, None)
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and level > best[0]:
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            best = (level, int(size.rstrip("KMG")) * scale)
    return best[1]


def machine_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "magweyl_threads": os.environ.get("MAGWEYL_THREADS"),
        "llc_bytes": _llc_bytes(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
