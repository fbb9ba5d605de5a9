"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload heis-moyal --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's own src/. The launcher starts each workload process itself, one
at a time, with one BLAS thread and MAGWEYL_THREADS=1:

- with --trace 0 it starts SETUP_SAMPLES processes, each timed from spawn to
  the end of its set-up, and the last one goes on to measure; setup_s is the
  median of those set-ups;
- with --trace 1 it starts one process, which runs every op untraced and
  traced and reports the per-layer numbers.

The line before the result holds what the result has no room for:
fail_frac, err_rel_max, sample counts and machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 3
DEADLINE_S = 175.0
REPORT_MARGIN_S = 10.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MAGWEYL_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the launcher for its workload processes
    ap.add_argument("--role", choices=("launch", "setup", "measure"), default="launch")
    ap.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------- workload process

def _emit(line):
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def workload_process(args):
    sys.path.insert(0, str(ROOT / "src"))
    import magweyl

    if Path(magweyl.__file__).resolve().parent != ROOT / "src" / "magweyl":
        raise BenchError(f"magweyl imported from {magweyl.__file__}, not this checkout")
    from loop import machine_facts, measure, peak_rss_mb
    from workloads import WORKLOADS, golden_kernel_ok

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    state = workload.prepare(args.workdir)
    golden_ok = golden_kernel_ok(ROOT, args.workdir)
    # untimed warm-up op: fills the lru_caches and numpy's FFT caches
    workload.run(state, workload.op_inputs(args.seed, 0))
    setup_s = time.monotonic() - args.spawned
    if args.role == "setup":
        _emit(json.dumps({"setup_s": setup_s}))
        return
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    result = measure(workload, state, args.seed, args.seconds, args.trace,
                     trace_path=traces / f"{args.workload}.json",
                     deadline=args.deadline)
    result.update(setup_s=setup_s, golden_ok=golden_ok, peak_rss_mb=peak_rss_mb(),
                  facts=machine_facts())
    _emit(json.dumps(result))


# ---------------------------------------------------------------- launcher

def _spawn(args, role, workdir, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role, "--workdir", str(workdir),
           # the measuring process stops starting ops in time to report
           "--deadline", repr(deadline - REPORT_MARGIN_S)]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process of {args.workload} passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{role} process of {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def launch(args):
    if not (ROOT / "src" / "magweyl" / "__init__.py").is_file():
        raise BenchError(f"no magweyl sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, "setup", workdir, deadline)["setup_s"])
        res = _spawn(args, "measure", workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": res["completed"] / res["op_time_s"], "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(res["op_times_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    # the golden build-kernel checksum is one more attempted check
    attempted = res["attempted"] + 1
    failed = res["failed"] + (not res["golden_ok"])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_frac": {"value": failed / attempted, "unit": "frac"},
        "err_rel_max": {"value": res["err_rel_max"], "unit": "rel"},
        "op_samples": len(res["op_times_s"]),
        "completed": res["completed"],
        "op_time_s": res["op_time_s"],
        "wall_s": res["wall_s"],
        "setup_samples": setups,
        "golden_ok": res["golden_ok"],
        "bitwise_mismatches": res["bitwise_mismatches"],
        "largest_array_bytes": res.get("largest_array_bytes"),
        "facts": res["facts"],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = _parse(argv)
    try:
        if args.role == "launch":
            launch(args)
        else:
            workload_process(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
