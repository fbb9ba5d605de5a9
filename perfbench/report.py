"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py

For each workload of BENCHMARK.json it makes one untraced run (the six
end-to-end metrics: setup_s, ops_per_s, op_p50_s, peak_rss_mb, fail_frac,
err_rel_max) and one traced run (the per-layer metrics and
trace.overhead_frac), both through run.py with seed 1 and the file's
run_seconds, and exits non-zero if any run reports an incorrect output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 1


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    detail, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return detail, result


def _row(name, metric):
    value = metric["value"]
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<44} {text:>14} {metric['unit']}")


def main():
    all_correct = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        detail, result = run(workload, trace=0)
        traced_detail, traced = run(workload, trace=1)
        all_correct &= result["correct"] and traced["correct"]
        print(f"{workload}  seed={SEED}  correct={result['correct']}  "
              f"traced-correct={traced['correct']}  op samples={detail['op_samples']}  "
              f"setup samples={len(detail['setup_samples'])}")
        for name, metric in result["metrics"].items():
            _row(name, metric)
        _row("fail_frac", detail["fail_frac"])
        _row("err_rel_max", detail["err_rel_max"])
        print("  per layer (traced run, per op):")
        for name, metric in traced["metrics"].items():
            _row(name, metric)
        print(f"  largest array crossing a traced call: "
              f"{traced_detail['largest_array_bytes']} bytes")
        print(f"  facts: {json.dumps(detail['facts'])}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
