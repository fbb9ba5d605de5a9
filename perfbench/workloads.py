"""The benchmark's workloads: seeded inputs, one op each, and its correctness gate.

Every op builds a fresh WeylContext, because every CLI run pays for its own
context and a context shared across runs would serve no real traffic. The
ops call the library only through its public functions. Each workload is
split into

- ``inputs(rng, size)``: plain numbers drawn from the seed, nothing computed;
- ``run(state, inputs)``: the timed op, returning its outputs;
- ``gate(state, inputs, outputs)``: untimed; ``(ok, err)`` where ``err`` is
  the workload's reference error (reported as ``err_rel_max``) and ``ok``
  applies only tolerances the repository already pins for that
  configuration. Work a check needs beyond the op itself, such as the gauge
  partner of an output, is done here and not in ``run``.

The grids are the smallest the pinned gates allow and are far below the
canonical N=10/12 configurations: one benchmark run must finish in well
under three minutes with several set-ups and several timed ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from magweyl import cli, lie_core, magnetic
from magweyl import symbol_space as sp
from magweyl import weyl_calculus as wl

# Tolerances pinned elsewhere in the repository, named after where they live.
ISOMETRY_HEIS_N8 = 1e-3     # test_heisenberg_isometry_and_round_trip: Heisenberg:3, N=8, L=6
ROUND_TRIP_HEIS_N8 = 1e-1   # the same test, adjoint inverse of the kernel
COMPOSE_SEQUENTIAL = 1e-12  # test_compose_matches_sequential_apply
GAUGE_COVARIANCE = 1e-9     # gauge-covariance suite default and acceptance 6
GAUGE_INVARIANCE = 1e-6     # moyal-gauge-invariance, acceptance 9 (Heisenberg:3, N=8, L=6)

GOLDEN_KEY = "build-kernel/gaussian-abelian1-N32-L6"
GOLDEN_CONFIG = {"algebra": "abelian:1", "potential": "zero",
                 "grid": {"N": 32, "L": 6.0},
                 "symbol": {"kind": "gaussian", "centers_x": [0.4],
                            "centers_xi": [-0.3]}}


def boxed_gaussian(grid, centers_x, centers_xi):
    """Gaussian with position width L h / pi and the reciprocal dual width.

    The same conditioning the test suite uses for isometry and round trips.
    """
    d = grid.dim
    sx = grid.box_half_width * grid.h / np.pi
    cx = np.asarray(centers_x, dtype=float)
    cxi = np.asarray(centers_xi, dtype=float)

    def f(X, Xi):
        qx = sum((X[..., i] - cx[i]) ** 2 for i in range(d))
        qxi = sum((Xi[..., i] - cxi[i]) ** 2 for i in range(d))
        return np.exp(-qx / (2 * sx) - qxi * sx / 2)

    return sp.sample_symbol(f, grid)


def quiet_cli(argv):
    """cli.main with its report lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def golden_kernel_ok(root, workdir):
    """Rebuild the pinned build-kernel config and compare its sha256."""
    cfg = Path(workdir) / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    out = Path(workdir) / "golden-out"
    if quiet_cli(["build-kernel", "--config", str(cfg), "--out", str(out)]) != 0:
        return False
    digest = hashlib.sha256((out / "kernel.bin").read_bytes()).hexdigest()
    expected = json.loads((Path(root) / "golden" / "checksums.json").read_text())
    return digest == expected[GOLDEN_KEY]


def _rel(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def _isometry_gap(K, a):
    return abs(sp.l2_norm(K) / sp.l2_norm(a) - 1.0)


# ---------------------------------------------------------------- heis-moyal

def heis_inputs(rng, size):
    N = size["N"]
    return {
        "N": N, "L": size["L"],
        "b": float(rng.uniform(0.3, 0.5)),
        "centers": rng.uniform(-0.3, 0.3, size=(4, 3)),
        # psi = c0 x1^2 x2 + c1 x3^2, the gauge partner's shift
        "psi": rng.uniform([0.05, 0.02], [0.15, 0.08]),
        "probe": rng.integers(N // 4, 3 * N // 4, size=3),
        "xi": rng.uniform(-0.4, 0.4, size=3),
    }


def _heis_potential(state, p):
    return magnetic.potential_preset(f"heisenberg-linear:{p['b']!r}", state["algebra"])


def heis_run(state, p):
    grid = sp.make_grid(3, p["N"], p["L"])
    ctx = wl.make_context(state["algebra"], _heis_potential(state, p), grid)
    c = p["centers"]
    a = boxed_gaussian(grid, c[0], c[1])
    b = boxed_gaussian(grid, c[2], c[3])
    # moyal_product spelled out, so the kernels and their product can be gated
    Ka = wl.kernel_from_symbol(ctx, a)
    Kb = wl.kernel_from_symbol(ctx, b)
    Kab = wl.compose_kernels(Ka, Kb)
    ab = wl.symbol_from_kernel(ctx, Kab)
    X = grid.axis_x[p["probe"]]
    direct = wl.moyal_2step_point(ctx, a, b, X, p["xi"])
    return {"a": a, "b": b, "Ka": Ka, "Kb": Kb, "Kab": Kab, "ab": ab,
            "direct": np.array(direct)}


def route_value(ab, jx, xi):
    """The route product at an on-grid X and off-grid xi, interpolated the
    way the moyal-crosscheck suite does it."""
    grid = ab.grid
    N = grid.points_per_axis
    E = np.exp(1j * np.outer(grid.axis_xi, grid.axis_x))
    vals = ab.values[tuple(jx)].astype(complex)
    for ax in range(grid.dim):
        coeff = np.linalg.solve(E, vals.reshape(N, -1))
        vals = (np.exp(1j * xi[ax] * grid.axis_x) @ coeff).reshape(vals.shape[1:])
    return complex(vals)


def heis_gate(state, p, out):
    """Checks in order of cost; the first that fails ends the gate.

    - both kernels are isometric to their symbols;
    - Kab is the product of Ka and Kb: applied to a Gaussian it matches
      applying Kb, then Ka;
    - the adjoint inverse takes Ka back to a;
    - the route is gauge invariant: in A + dpsi the product kernel is
      e^{i psi} Kab e^{-i psi} (kernel covariance), and inverting that in
      the partner context must give ab again;
    - the direct point is gauge invariant.

    A symbol_from_kernel off by a uniform factor passes up to about 10%:
    both gauge sides carry the factor, and the round trip's N=8 tolerance
    leaves that much room.
    """
    ab, direct = out["ab"], complex(out["direct"])
    grid = ab.grid
    err = abs(direct - route_value(ab, p["probe"], p["xi"])) / np.abs(ab.values).max()

    def product_is_composition():
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), grid)
        lhs = wl.apply_operator(out["Kab"], f)
        rhs = wl.apply_operator(out["Ka"], wl.apply_operator(out["Kb"], f))
        return _rel(lhs.values, rhs.values) <= COMPOSE_SEQUENTIAL

    alg, A = state["algebra"], _heis_potential(state, p)

    def inverse_round_trip():
        back = wl.symbol_from_kernel(wl.make_context(alg, A, grid), out["Ka"])
        return _rel(back.values, out["a"].values) < ROUND_TRIP_HEIS_N8

    table = np.zeros((3, 2, 3))
    table[2, 1, 0], table[0, 0, 2] = p["psi"]
    psi = magnetic.GaugeFunction(alg, table)
    ctx1 = wl.make_context(
        alg, magnetic.add_potentials(A, magnetic.gradient_potential(psi)), grid)

    def route_gauge_invariant():
        ph = np.exp(1j * psi(sp.coordinate_mesh(grid).reshape(-1, 3)))
        Kab1 = wl.IntegralKernel(grid, ph[:, None] * out["Kab"].values
                                 * np.conj(ph)[None, :])
        return _rel(wl.symbol_from_kernel(ctx1, Kab1).values, ab.values) <= GAUGE_INVARIANCE

    def direct_gauge_invariant():
        direct1 = wl.moyal_2step_point(ctx1, out["a"], out["b"],
                                       grid.axis_x[p["probe"]], p["xi"])
        return abs(direct1 - direct) / abs(direct) <= GAUGE_INVARIANCE

    ok = (_isometry_gap(out["Ka"], out["a"]) <= ISOMETRY_HEIS_N8
          and _isometry_gap(out["Kb"], out["b"]) <= ISOMETRY_HEIS_N8
          and product_is_composition()
          and inverse_round_trip()
          and route_gauge_invariant()
          and direct_gauge_invariant())
    return ok, float(err)


# ---------------------------------------------------------------- cli-pi

CLI_SUITES = "fourier,derivative-check"


def cli_setup(state, size):
    cfg = Path(state["workdir"]) / "cli-pi.json"
    cfg.write_text(json.dumps({"algebra": "heisenberg:3",
                               "potential": "heisenberg-linear:0.4",
                               "grid": {"N": size["N"], "L": size["L"]}}))
    state["config"] = str(cfg)
    state["out"] = str(Path(state["workdir"]) / "cli-pi-out")


def cli_inputs(rng, size):
    return {"seed": int(rng.integers(0, 2 ** 31))}


def cli_run(state, p):
    code = quiet_cli(["suite", "--config", state["config"], "--out", state["out"],
                      "--seed", str(p["seed"]), "--suites", CLI_SUITES])
    report = (Path(state["out"]) / "report.json").read_bytes()
    return {"code": np.array(code), "report": np.frombuffer(report, dtype=np.uint8)}


def cli_gate(state, p, out):
    report = json.loads(out["report"].tobytes())
    err = max(c["value"] for c in report["checks"]
              if c["check"] == "derivative-relative-error")
    return int(out["code"]) == 0 and report["overall_pass"], float(err)


# ---------------------------------------------------------------- filiform-general

def fil_inputs(rng, size):
    return {
        "N": size["N"], "L": size["L"],
        # A_i(x) = sum_j B[i, j] x_j
        "B": rng.uniform(-0.5, 0.5, size=(4, 4)),
        "centers": rng.uniform(-0.3, 0.3, size=(2, 4)),
        # psi = c0 x1^2 x2 + c1 x3 x4 + c2 x4^2
        "psi": rng.uniform(0.02, 0.1, size=3),
    }


def _fil_potential(state, p):
    tables = []
    for i in range(4):
        t = np.zeros((2,) * 4)
        for j in range(4):
            t[tuple(np.eye(4, dtype=int)[j])] = p["B"][i, j]
        tables.append(t)
    return magnetic.make_potential(state["algebra"], tables)


def fil_run(state, p):
    grid = sp.make_grid(4, p["N"], p["L"])
    ctx = wl.make_context(state["algebra"], _fil_potential(state, p), grid)
    a = boxed_gaussian(grid, *p["centers"])
    K = wl.kernel_from_symbol(ctx, a)
    return {"a": a, "K": K, "back": wl.symbol_from_kernel(ctx, K)}


def fil_gate(state, p, out):
    """The kernel is gauge covariant and the inverse gauge invariant: in
    A + dpsi the kernel must be e^{i psi} K e^{-i psi}, and its inverse the
    same symbol as in A."""
    alg, grid = state["algebra"], out["a"].grid
    table = np.zeros((3,) * 4)
    table[2, 1, 0, 0], table[0, 0, 1, 1], table[0, 0, 0, 2] = p["psi"]
    psi = magnetic.GaugeFunction(alg, table)
    A1 = magnetic.add_potentials(_fil_potential(state, p),
                                 magnetic.gradient_potential(psi))
    ctx1 = wl.make_context(alg, A1, grid)
    K1 = wl.kernel_from_symbol(ctx1, out["a"])
    ph = np.exp(1j * psi(sp.coordinate_mesh(grid).reshape(-1, 4)))
    expected = ph[:, None] * out["K"].values * np.conj(ph)[None, :]
    covariance = _rel(K1.values, expected)
    invariance = _rel(wl.symbol_from_kernel(ctx1, K1).values, out["back"].values)
    ok = covariance <= GAUGE_COVARIANCE and invariance <= GAUGE_INVARIANCE
    return ok, _rel(out["back"].values, out["a"].values)


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    algebra: str | None
    size: dict
    inputs: object
    run: object
    gate: object
    setup: object = None

    def prepare(self, workdir, size=None):
        """Untimed per-process state: the algebra and any config files."""
        size = self.size if size is None else size
        state = {"workdir": str(workdir),
                 "algebra": self.algebra and lie_core.algebra_preset(self.algebra)}
        if self.setup is not None:
            self.setup(state, size)
        return state

    def op_inputs(self, seed, index, size=None):
        rng = np.random.default_rng([seed, WORKLOAD_IDS[self.name], index])
        return self.inputs(rng, self.size if size is None else size)


WORKLOADS = {w.name: w for w in (
    Workload("heis-moyal", "heisenberg:3", {"N": 8, "L": 6.0},
             heis_inputs, heis_run, heis_gate),
    # the CLI builds its own algebra on every run
    Workload("cli-pi", None, {"N": 8, "L": 6.0},
             cli_inputs, cli_run, cli_gate, setup=cli_setup),
    Workload("filiform-general", "filiform3:4", {"N": 2, "L": 3.0},
             fil_inputs, fil_run, fil_gate),
)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def digest(outputs):
    """sha256 over every output array, for bitwise traced-vs-untraced checks."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        v = outputs[key]
        arr = np.ascontiguousarray(v.values if hasattr(v, "values") else v)
        h.update(key.encode())
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()
