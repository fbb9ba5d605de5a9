"""Tests for the command-line front end: configs, reports, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from magweyl import cli
from magweyl import lie_core as lc
from magweyl import magnetic as mg
from magweyl import symbol_space as sp
from magweyl.errors import ConfigError


def write_config(tmp_path, name="cfg.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run(*argv):
    return cli.main(list(argv))


CHEAP = {"algebra": "heisenberg:3", "potential": "heisenberg-linear:0.4",
         "grid": {"N": 8, "L": 6.0}, "suites": ["fourier", "gauge"]}


class TestConfigParsing:
    def test_missing_file_is_config_error(self, capsys):
        assert run("suite", "--config", "/nonexistent.json") == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("suite", "--config", str(path)) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_unknown_preset_names(self, tmp_path):
        cfg = write_config(tmp_path, algebra="nosuch:9", grid={"N": 8, "L": 4.0})
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        cfg = write_config(tmp_path, algebra="abelian:2", potential="nosuch",
                           grid={"N": 8, "L": 4.0})
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_odd_or_missing_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, algebra="abelian:1", grid={"N": 9, "L": 4.0})
        assert run("suite", "--config", cfg) == 2
        cfg = write_config(tmp_path, algebra="abelian:1", grid={"L": 4.0})
        assert run("suite", "--config", cfg) == 2
        cfg = write_config(tmp_path, algebra="abelian:1", grid={"N": 8, "L": -1})
        assert run("suite", "--config", cfg) == 2

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{**CHEAP, "suites": ["nosuch"]})
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_inline_algebra_dict(self, tmp_path, capsys):
        heis = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1]}]}
        cfg = write_config(tmp_path, algebra=heis)
        out = str(tmp_path / "o")
        assert run("verify-algebra", "--config", cfg, "--out", out) == 0

    def test_inline_algebra_without_dim(self, tmp_path, capsys):
        bad = {"brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1]}]}
        cfg = write_config(tmp_path, algebra=bad)
        assert run("verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and "'dim'" in err
        assert len(err.strip().splitlines()) == 1

    def test_inline_potential_exponent_length(self, tmp_path, capsys):
        heis = lc.algebra_preset("heisenberg:3")
        good = mg.potential_to_dict(mg.potential_preset("heisenberg-linear:0.4", heis))
        body = {"algebra": "heisenberg:3", "grid": {"N": 4, "L": 3.0},
                "suites": ["fourier"]}
        cfg = write_config(tmp_path, **body, potential=good)
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        bad = {"components": [[{"exponents": [1, 0], "coeff": 0.4}], [], []]}
        cfg = write_config(tmp_path, **body, potential=bad)
        capsys.readouterr()
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and "exponents" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_integer_threads_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGWEYL_THREADS", "two")
        cfg = write_config(tmp_path, **{**CHEAP, "suites": ["fourier"]})
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and "MAGWEYL_THREADS" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_verify_algebra_reads_no_thread_count(self, tmp_path, capsys, monkeypatch):
        # verify-algebra builds no kernel, so a malformed MAGWEYL_THREADS is
        # not its error
        monkeypatch.setenv("MAGWEYL_THREADS", "two")
        cfg = write_config(tmp_path, algebra="heisenberg:3")
        assert run("verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("command, flag", [
        ("verify-algebra", "--threads"), ("verify-algebra", "--suites"),
        ("build-kernel", "--seed"), ("build-kernel", "--suites")])
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path, **CHEAP, symbol={"kind": "gaussian"})
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", cfg, "--out", str(tmp_path / "o"), flag, "3")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("override", [
        {"symbol": {"kind": "gaussian", "amplitude": "x"}},
        {"symbol": {"kind": "gaussian", "centers_x": "abc"}},
        {"symbol": {"kind": "poly-gaussian", "linear_x": [None, 0, 0]}},
        {"symbol": {"kind": "gaussian", "centers_x": [float("inf"), 0, 0]}},
        {"grid": {"N": 4, "L": float("inf")}},
        {"grid": {"N": 4, "L": 1e308}},
    ], ids=["amplitude-string", "centers-string", "linear-null", "centers-infinity",
            "L-infinity", "L-overflows-step"])
    def test_symbol_and_grid_values_checked(self, tmp_path, capsys, override):
        body = {"algebra": "heisenberg:3", "potential": "heisenberg-linear:0.4",
                "grid": {"N": 4, "L": 3.0}, "symbol": {"kind": "gaussian"}}
        cfg = write_config(tmp_path, **{**body, **override})
        out = tmp_path / "o"
        assert run("build-kernel", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ")
        assert len(err.strip().splitlines()) == 1
        assert not (out / "kernel.bin").exists()


    @pytest.mark.parametrize("algebra, potential", [
        ("heisenberg:3", "heisenberg-linear:nan"), ("heisenberg:3", "heisenberg-linear:1e400"),
        ("abelian:2", "landau:nan")], ids=["heisenberg-nan", "heisenberg-overflow", "landau-nan"])
    def test_non_finite_preset_strength(self, tmp_path, capsys, algebra, potential):
        cfg = write_config(tmp_path, algebra=algebra, potential=potential,
                           grid={"N": 4, "L": 3.0}, symbol={"kind": "gaussian"})
        out = tmp_path / "o"
        assert run("build-kernel", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1
        assert not (out / "kernel.bin").exists()

    def test_zero_preset_with_a_suffix(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algebra="abelian:2", potential="zero:junk",
                           grid={"N": 4, "L": 3.0}, symbol={"kind": "gaussian"})
        out = tmp_path / "o"
        assert run("build-kernel", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1
        assert "zero:junk" in err
        assert not (out / "kernel.bin").exists()

    @pytest.mark.parametrize("override", [
        {"algebra": {"dim": 1.4e16}}, {"algebra": "abelian:100000"},
        {"grid": {"N": 2, "L": 1e-300}},
    ], ids=["inline-dim-huge", "preset-dim-huge", "L-tiny"])
    def test_sizes_out_of_float_range(self, tmp_path, capsys, override):
        body = {"algebra": "heisenberg:3", "grid": {"N": 2, "L": 3.0},
                "symbol": {"kind": "zero"}}
        cfg = write_config(tmp_path, **{**body, **override})
        assert run("build-kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1

    def test_bracket_of_an_axis_with_itself(self, tmp_path, capsys):
        bad = {"dim": 3, "brackets": [{"i": 1, "j": 1, "coeffs": [0, 0, 1]}]}
        cfg = write_config(tmp_path, algebra=bad)
        assert run("verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("override", [
        {"seed": None}, {"seed": -1}, {"seed": "7"}, {"tolerances": [1e-3]},
        {"tolerances": {"fourier-involution": "tight"}}, {"suites": "fourier"},
        {"suites": [["fourier"]]},
    ], ids=["seed-null", "seed-negative", "seed-string", "tolerances-list",
            "tolerance-string", "suites-string", "suites-nested"])
    def test_run_entries_checked(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **{**CHEAP, "suites": ["fourier"], **override})
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1

    BRANCHES = {
        # config: run-level entries and flags
        "config-a-list": ("build-kernel", [1, 2], [], "config must be a JSON object"),
        "out-a-number": ("build-kernel", {"out": 3}, [], "'out'"),
        "seed-a-fraction": ("build-kernel", {"seed": 1.5}, [], "'seed'"),
        "verify-algebra-without-algebra": ("verify-algebra", {"algebra": None}, [],
                                           "needs an 'algebra' entry"),
        "suites-flag-empty": ("suite", {}, ["--suites", ","], "no suites selected"),
        "threads-flag-zero": ("build-kernel", {}, ["--threads", "0"], "thread count"),
        "seed-flag-negative": ("suite", {}, ["--seed", "-1"], "--seed must be >= 0"),
        # algebra
        "algebra-file-a-list": ("build-kernel", {"algebra": {"file": "list.json"}}, [],
                                "inline algebra must be an object"),
        "brackets-a-number": ("build-kernel", {"algebra": {"dim": 3, "brackets": 5}}, [],
                              "'brackets'"),
        "bracket-without-coeffs": ("build-kernel", {"algebra": {
            "dim": 3, "brackets": [{"i": 1, "j": 2}]}}, [], "'coeffs'"),
        "bracket-index-4-on-dim-3": ("build-kernel", {"algebra": {
            "dim": 3, "brackets": [{"i": 1, "j": 4, "coeffs": [0, 0, 1]}]}}, [],
            "bracket indices"),
        "bracket-coeff-nan": ("build-kernel", {"algebra": {
            "dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, float("nan")]}]}}, [],
            "finite numbers"),
        "heisenberg-without-dim": ("build-kernel", {"algebra": "heisenberg"}, [],
                                   "preset 'heisenberg' does not have the form "
                                   "'heisenberg:<2k+1>'"),
        "abelian-dim-not-a-number": ("build-kernel", {"algebra": "abelian:x"}, [],
                                     "preset 'abelian:x' does not have the form "
                                     "'abelian:<d>'"),
        "abelian-dim-above-max": ("build-kernel", {"algebra": "abelian:100000"}, [],
                                  f"algebra dimension above {cli.MAX_DIM}: 'abelian:100000'"),
        # potential, on heisenberg:3
        "one-component-on-dim-3": ("build-kernel", {"potential": {"components": [[]]}}, [],
                                   "a list of 3 term lists"),
        "component-a-number": ("build-kernel", {"potential": {"components": [5, [], []]}}, [],
                               "component must be a list"),
        "term-without-exponents": ("build-kernel", {"potential": {
            "components": [[{"coeff": 0.4}], [], []]}}, [], "'exponents'"),
        "coeff-infinity": ("build-kernel", {"potential": {
            "components": [[{"exponents": [1, 0, 0], "coeff": float("inf")}], [], []]}}, [],
            "finite numbers"),
        "potential-a-number": ("build-kernel", {"potential": 3}, [], "potential spec"),
        "landau-strength-not-a-number": ("build-kernel", {
            "algebra": "abelian:2", "potential": "landau:abc"}, [],
            "preset 'landau:abc' does not have the form 'landau:<b>'"),
        # symbol
        "gaussian-with-linear-x": ("build-kernel", {"symbol": {
            "kind": "gaussian", "linear_x": [1, 0, 0]}}, [], "kind 'poly-gaussian'"),
    }

    @pytest.mark.parametrize("case", BRANCHES)
    def test_each_config_error_branch(self, tmp_path, capsys, monkeypatch, case):
        command, override, argv, says = self.BRANCHES[case]
        body = {"algebra": "heisenberg:3", "grid": {"N": 4, "L": 3.0},
                "symbol": {"kind": "gaussian"}, "suites": ["fourier"]}
        if isinstance(override, dict):  # an entry None drops that key
            body = {k: v for k, v in {**body, **override}.items() if v is not None}
        else:
            body = override  # the whole config
        monkeypatch.chdir(tmp_path)
        Path("list.json").write_text("[1]")
        Path("cfg.json").write_text(json.dumps(body))
        assert run(command, "--config", "cfg.json", "--out", "o", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1
        assert says in err
        assert not Path("o/report.json").exists() and not Path("o/kernel.bin").exists()

    def test_algebra_and_potential_from_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        heis = lc.algebra_preset("heisenberg:3")
        Path("algebra.json").write_text(json.dumps(
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1]}]}))
        Path("potential.json").write_text(json.dumps(
            mg.potential_to_dict(mg.potential_preset("heisenberg-linear:0.4", heis))))
        cfg = write_config(tmp_path, algebra={"file": "algebra.json"})
        assert run("verify-algebra", "--config", cfg, "--out", "a") == 0
        cfg = write_config(tmp_path, algebra="heisenberg:3", potential={"file": "potential.json"},
                           grid={"N": 4, "L": 3.0}, symbol={"kind": "gaussian"})
        assert run("build-kernel", "--config", cfg, "--out", "p") == 0
        assert Path("p/kernel.bin").exists()


class TestVerifyAlgebra:
    @pytest.mark.parametrize("preset", ["abelian:2", "heisenberg:3", "filiform3:4"])
    def test_presets_pass(self, tmp_path, preset, capsys):
        cfg = write_config(tmp_path, algebra=preset)
        out = str(tmp_path / "out")
        assert run("verify-algebra", "--config", cfg, "--out", out) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["overall_pass"]
        names = {c["check"] for c in report["checks"]}
        assert names == {"bch-associativity", "bch-inverse-identity",
                         "psi-round-trip", "psi-jacobian-unimodular"}

    def test_module_entry_point_runs_once(self, tmp_path):
        # the package does not import its cli, so `-m` finds no stale copy
        # of the module in sys.modules and runpy raises no RuntimeWarning
        cfg = write_config(tmp_path, algebra="abelian:2")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "magweyl.cli",
             "verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "o" / "report.json").read_text())["overall_pass"]

    def test_broken_jacobi_surfaced(self, tmp_path, capsys):
        # [e1,e2]=e3, [e1,e3]=e2 violates Jacobi closure under nilpotency
        bad = {"dim": 3, "brackets": [
            {"i": 1, "j": 2, "coeffs": [0, 0, 1]},
            {"i": 1, "j": 3, "coeffs": [0, 1, 0]}]}
        cfg = write_config(tmp_path, algebra=bad)
        code = run("verify-algebra", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code != 0
        err = capsys.readouterr().err
        assert "Jacobi" in err or "Nilpotent" in err


class TestBuildKernel:
    def test_deterministic_bytes_and_golden(self, tmp_path):
        body = {"algebra": "abelian:1", "potential": "zero",
                "grid": {"N": 32, "L": 6.0},
                "symbol": {"kind": "gaussian", "centers_x": [0.4],
                           "centers_xi": [-0.3]}}
        cfg = write_config(tmp_path, **body)
        for name in ("a", "b"):
            assert run("build-kernel", "--config", cfg,
                       "--out", str(tmp_path / name)) == 0
        raw_a = (tmp_path / "a" / "kernel.bin").read_bytes()
        raw_b = (tmp_path / "b" / "kernel.bin").read_bytes()
        assert raw_a == raw_b
        meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
        assert meta["sha256"] == hashlib.sha256(raw_a).hexdigest()
        golden_path = Path(__file__).resolve().parents[1] / "golden" / "checksums.json"
        golden = json.loads(golden_path.read_text())
        assert meta["sha256"] == golden["build-kernel/gaussian-abelian1-N32-L6"]

    def test_zero_symbol_zero_kernel(self, tmp_path):
        body = {"algebra": "abelian:1", "grid": {"N": 8, "L": 4.0},
                "symbol": {"kind": "zero"}}
        cfg = write_config(tmp_path, **body)
        assert run("build-kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        K = sp.load_field(tmp_path / "o" / "kernel.bin")
        assert np.abs(K.values).max() == 0.0

    def test_symbol_dim_mismatch(self, tmp_path):
        body = {"algebra": "abelian:1", "grid": {"N": 8, "L": 4.0},
                "symbol": {"kind": "gaussian", "centers_x": [0.1, 0.2]}}
        cfg = write_config(tmp_path, **body)
        assert run("build-kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_missing_symbol_entry(self, tmp_path):
        body = {"algebra": "abelian:1", "grid": {"N": 8, "L": 4.0}}
        cfg = write_config(tmp_path, **body)
        assert run("build-kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 2


    def test_two_derived_axes(self, tmp_path):
        # class 1 with [e1, e2] = e4 and [e1, e3] = e5
        alg = {"dim": 5, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 0, 1, 0]},
                                      {"i": 1, "j": 3, "coeffs": [0, 0, 0, 0, 1]}]}
        body = {"algebra": alg, "grid": {"N": 2, "L": 3.0},
                "symbol": {"kind": "gaussian", "centers_x": [0.2, 0, 0, 0.1, 0]}}
        cfg = write_config(tmp_path, **body)
        assert run("build-kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 0
        K = sp.load_field(tmp_path / "o" / "kernel.bin")
        assert K.values.shape == (32, 32) and np.all(np.isfinite(K.values))

    @pytest.mark.parametrize("override", [
        {"grid": {"N": 4, "L": 1e200}},
        {"symbol": {"kind": "gaussian", "amplitude": 1e308}},
    ], ids=["L-1e200", "amplitude-1e308"])
    def test_non_finite_kernel_not_written(self, tmp_path, capsys, override):
        body = {"algebra": "heisenberg:3", "potential": "heisenberg-linear:0.4",
                "grid": {"N": 4, "L": 3.0}, "symbol": {"kind": "gaussian"}}
        cfg = write_config(tmp_path, **{**body, **override})
        out = tmp_path / "o"
        assert run("build-kernel", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("ShapeError: ")
        assert len(err.strip().splitlines()) == 1
        assert not (out / "kernel.bin").exists()


class TestGridBudget:
    """A phase-space grid beyond the work budget is a configuration error,
    refused before any sample is allocated."""

    HUGE = {"algebra": "abelian:1", "grid": {"N": 1 << 40, "L": 4.0}}

    def test_build_kernel(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.HUGE, symbol={"kind": "zero"})
        assert run("build-kernel", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1

    def test_fourier_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.HUGE, suites=["fourier"])
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("N", [1 << 40, 4096])
    def test_derivative_check_suite(self, tmp_path, capsys, N):
        # the check samples a config field, 16 N^d bytes: 8 TiB and 512 GiB here
        cfg = write_config(tmp_path, algebra="heisenberg:3", grid={"N": N, "L": 4.0})
        out = tmp_path / "o"
        assert run("suite", "--config", cfg, "--out", str(out),
                   "--suites", "derivative-check") == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ") and len(err.strip().splitlines()) == 1
        assert not (out / "report.json").exists()


def random_symbol_summed(grid, rng):
    """cli._random_symbol's three Gaussians drawn from rng in its order and
    summed as out = 0.0, out = out + amp * exp(...)."""
    d = grid.dim
    sx, sxi = cli._boxed_widths(grid)
    span, span_xi = grid.box_half_width / 3.0, np.pi / (3.0 * grid.h)
    terms = [(rng.uniform(-span, span, size=d), rng.uniform(-span_xi, span_xi, size=d),
              rng.normal() + 1j * rng.normal()) for _ in range(3)]

    def f(X, Xi):
        out = 0.0
        for cx, cxi, amp in terms:
            qx = sum((X[..., i] - cx[i]) ** 2 for i in range(d))
            qxi = sum((Xi[..., i] - cxi[i]) ** 2 for i in range(d))
            out = out + amp * np.exp(-qx / (2 * sx) - qxi / (2 * sxi))
        return out

    return sp.sample_symbol(f, grid)


class TestFourierSuite:
    CANONICAL = {"algebra": "heisenberg:3", "potential": "heisenberg-linear:0.4",
                 "grid": {"N": 8, "L": 6.0}, "seed": 42}

    def rng(self):
        return np.random.default_rng([42, cli.SUITES.index("fourier") + 1])

    @pytest.mark.parametrize("dim,N,L", [(3, 8, 6.0), (1, 1024, 10.0)])
    def test_random_symbol_is_the_summed_gaussians(self, dim, N, L):
        # at N = 1024 the exponent underflows, so zeros and their signs are
        # compared too
        grid = sp.make_grid(dim, N, L)
        rng, oracle_rng = self.rng(), self.rng()
        for _ in range(3):
            got = cli._random_symbol(grid, rng).values
            want = random_symbol_summed(grid, oracle_rng).values
            assert got.strides == want.strides and got.tobytes() == want.tobytes()
        assert N == 8 or np.any(got == 0)

    def test_peak_and_value(self):
        # the canonical Heisenberg:3 N = 8 run: the gap is formed in the
        # double transform's table, which is dropped before the next symbol
        # is drawn, so the peak is a symbol, its transform and one work
        # table (5.0 when each transform made two and the loop held the
        # last pair while drawing the next)
        ctx = cli._context_from_config(self.CANONICAL, 1)
        table = 16 * ctx.grid.points_per_axis ** (2 * ctx.grid.dim)
        cli._suite_fourier(self.CANONICAL, ctx, self.rng())  # warm the FFT plans
        tracemalloc.start()
        try:
            (record,) = cli._suite_fourier(self.CANONICAL, ctx, self.rng())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"PEAK suite-fourier N=8 peak={peak} tables={peak / table:.2f}")
        rng, worst = self.rng(), 0.0
        for _ in range(5):
            a = random_symbol_summed(ctx.grid, rng)
            aa = sp.symplectic_fourier(sp.symplectic_fourier(a))
            worst = max(worst, np.abs(aa.values - a.values).max() / np.abs(a.values).max())
        assert record["check"] == "fourier-involution"
        assert repr(record["value"]) == repr(float(worst))
        assert peak <= 3.5 * table


class TestSuiteCommand:
    def test_report_bytes_reproducible_across_threads(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **CHEAP)
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r1"),
                   "--threads", "1") == 0
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r2"),
                   "--threads", "4") == 0
        r1 = (tmp_path / "r1" / "report.json").read_bytes()
        r2 = (tmp_path / "r2" / "report.json").read_bytes()
        assert r1 == r2

    def test_seed_changes_are_honored(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{**CHEAP, "suites": ["fourier"]})
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r1")) == 0
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r2"),
                   "--seed", "7") == 0
        v1 = json.loads((tmp_path / "r1" / "report.json").read_text())
        v2 = json.loads((tmp_path / "r2" / "report.json").read_text())
        assert v1["overall_pass"] and v2["overall_pass"]
        # different random symbols, different round-off fingerprints
        assert v1["checks"][0]["value"] != v2["checks"][0]["value"]

    def test_suites_flag_filters(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **CHEAP)
        out = str(tmp_path / "r")
        assert run("suite", "--config", cfg, "--out", out, "--suites", "fourier") == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert [c["check"] for c in report["checks"]] == ["fourier-involution"]

    def test_summary_csv_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{**CHEAP, "suites": ["fourier"]})
        out = tmp_path / "r"
        assert run("suite", "--config", cfg, "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "check,value,tolerance,pass,wall_time_s"
        assert lines[1].startswith("fourier-involution,")

    def test_tolerance_override_can_fail_a_check(self, tmp_path, capsys):
        body = {**CHEAP, "suites": ["fourier"],
                "tolerances": {"fourier-involution": 1e-30}}
        cfg = write_config(tmp_path, **body)
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r")) == 1
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert not report["overall_pass"]
        err = capsys.readouterr().err
        assert err == "CheckFailed: fourier-involution\n"

    def test_moyal_crosscheck_needs_low_class(self, tmp_path, capsys):
        body = {"algebra": "filiform3:4", "grid": {"N": 4, "L": 3.0},
                "suites": ["moyal-crosscheck"]}
        cfg = write_config(tmp_path, **body)
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r")) == 2

    def test_moyal_crosscheck_without_a_regular_axis(self, tmp_path, capsys):
        # Heisenberg in the basis e1, e2, e1 + e2 + e3: no axis is regular,
        # so no derived axis is shiftable and the route's class <= 1
        # inverse refuses with one line
        skew = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [-1, -1, 1]},
                                       {"i": 1, "j": 3, "coeffs": [-1, -1, 1]},
                                       {"i": 2, "j": 3, "coeffs": [1, 1, -1]}]}
        cfg = write_config(tmp_path, algebra=skew, grid={"N": 4, "L": 3.0},
                           suites=["moyal-crosscheck"])
        code = run("suite", "--config", cfg, "--out", str(tmp_path / "r"))
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("NotShiftable: ") and "x1, x2, x3" in err

    def test_abelian_landau_full_cheap_suites(self, tmp_path, capsys):
        body = {"algebra": "abelian:2", "potential": "landau:0.5",
                "grid": {"N": 16, "L": 6.0},
                "suites": ["fourier", "gauge", "abelian-baseline",
                           "derivative-check"]}
        cfg = write_config(tmp_path, **body)
        assert run("suite", "--config", cfg, "--out", str(tmp_path / "r")) == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["overall_pass"]
