"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import loop  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from magweyl import magnetic  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# same code paths as the benchmark sizes, a fraction of a second per op
TINY_SIZES = {"cli-pi": {"N": 4, "L": 4.0}, "filiform-general": {"N": 2, "L": 3.0}}


def _run_bench(*argv):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_inputs_are_deterministic(name):
    w = workloads.WORKLOADS[name]
    first, again, other = (w.op_inputs(seed, 3) for seed in (7, 7, 8))
    assert first.keys() == again.keys()
    for key in first:
        np.testing.assert_array_equal(first[key], again[key])
    assert any(not np.array_equal(first[k], other[k]) for k in first)


def test_workload_and_layer_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == tracer.per_layer_names()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_benchmark_json(trace, key):
    res = _run_bench("--workload", "filiform-general", "--seed", "3",
                     "--seconds", "0.5", "--trace", str(trace))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def _fail_count(name, tmp_path, seconds=0.2):
    w = workloads.WORKLOADS[name]
    size = TINY_SIZES[name]
    state = w.prepare(tmp_path, size)
    res = loop.measure(w, state, seed=5, seconds=seconds, trace=False, size=size)
    return res["failed"], res["attempted"]


def test_tampered_gauge_reference_fails_filiform_ops(tmp_path, monkeypatch):
    assert _fail_count("filiform-general", tmp_path)[0] == 0
    call = magnetic.GaugeFunction.__call__
    monkeypatch.setattr(magnetic.GaugeFunction, "__call__",
                        lambda self, X: call(self, X) + 1e-3 * X[..., 0])
    failed, attempted = _fail_count("filiform-general", tmp_path)
    assert failed == attempted


def test_tampered_cli_tolerance_fails_cli_ops(tmp_path, monkeypatch):
    assert _fail_count("cli-pi", tmp_path)[0] == 0
    setup = workloads.cli_setup

    def tampered(state, size):
        setup(state, size)
        cfg = json.loads(Path(state["config"]).read_text())
        cfg["tolerances"] = {"derivative-relative-error": 1e-30}
        Path(state["config"]).write_text(json.dumps(cfg))

    w = workloads.WORKLOADS["cli-pi"]
    monkeypatch.setitem(workloads.WORKLOADS, "cli-pi",
                        workloads.Workload(w.name, w.algebra, w.size, w.inputs,
                                           w.run, w.gate, setup=tampered))
    failed, attempted = _fail_count("cli-pi", tmp_path)
    assert failed == attempted


@pytest.fixture(scope="module")
def heis_op(tmp_path_factory):
    """One heis-moyal op at the benchmark size: the smallest grid with pinned
    Heisenberg tolerances (a few seconds)."""
    w = workloads.WORKLOADS["heis-moyal"]
    state = w.prepare(tmp_path_factory.mktemp("heis"))
    inputs = w.op_inputs(5, 1)
    return w, state, inputs, w.run(state, inputs)


@pytest.mark.parametrize("key", [None, "ab", "Kab"])
def test_tampered_route_fails_heis_gate(heis_op, key):
    w, state, inputs, out = heis_op
    if key is not None:
        # a symbol_from_kernel or compose_kernels that is off by one percent
        field = out[key]
        out = dict(out, **{key: type(field)(field.grid, 1.01 * field.values)})
    ok, err = w.gate(state, inputs, out)
    assert ok == (key is None) and err > 0


def test_tampered_golden_checksum_is_caught(tmp_path):
    assert workloads.golden_kernel_ok(ROOT, tmp_path)
    fake = tmp_path / "fake-root"
    (fake / "golden").mkdir(parents=True)
    (fake / "golden" / "checksums.json").write_text(
        json.dumps({workloads.GOLDEN_KEY: "0" * 64}))
    assert not workloads.golden_kernel_ok(fake, tmp_path)


def test_traced_outputs_equal_untraced(tmp_path):
    w = workloads.WORKLOADS["filiform-general"]
    state = w.prepare(tmp_path)
    res = loop.measure(w, state, seed=2, seconds=0.2, trace=True)
    assert res["bitwise_mismatches"] == 0 and res["failed"] == 0
    layers = res["per_layer"]
    # the gate's gauge partner is computed outside the traced op
    assert layers["weyl_calculus.kernel_from_symbol.calls"]["value"] == 1
    assert layers["lie_core.psi_inverse.s"]["value"] > 0
