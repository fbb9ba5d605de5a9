"""Command-line front end: config loading, verification suites, reports.

Reports are written twice: report.json carries the check outcomes with
values rounded to 12 significant digits so identical configurations give
identical bytes regardless of thread count or timing, and summary.csv adds
the per-check wall times for human consumption. Checks that one computation
yields together (the two BCH checks, the two unitarity symbols, the two
derivative checks) book its time on the first of them and 0 on the others.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import lie_core, magnetic
from . import symbol_space as sp
from . import weyl_calculus as wl
from .errors import ConfigError, JacobiViolation, MagweylError, ShapeError

SUITES = ("fourier", "unitarity", "gauge", "abelian-baseline",
          "moyal-crosscheck", "derivative-check")
# algebras hold dim^3 structure constants and the Jacobi check forms dim^4
# numbers; any grid on a larger algebra would not fit in memory anyway
MAX_DIM = 32


# ---------------------------------------------------------------- config

def _read_json(path, what):
    if not isinstance(path, str) or not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def load_config(path):
    """The config object, with its run-level entries checked for shape."""
    cfg = _read_json(path, "config file")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    seed = _as_int(cfg.get("seed", 42))
    if seed is None or seed < 0:
        raise ConfigError(f"config 'seed' must be an integer >= 0, got {cfg['seed']!r}")
    tols = cfg.get("tolerances", {})
    if not (isinstance(tols, dict) and all(_is_finite(v) for v in tols.values())):
        raise ConfigError("config 'tolerances' must map check names to finite numbers")
    suites = cfg.get("suites", [])
    if not (isinstance(suites, list) and all(isinstance(n, str) for n in suites)):
        raise ConfigError("config 'suites' must be a list of suite names")
    if not isinstance(cfg.get("out", ""), str):
        raise ConfigError("config 'out' must be a directory name")
    return cfg


def _as_int(value):
    """The integer a JSON number stands for, or None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float) and not value.is_integer():
        return None
    return int(value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    """A JSON number that is a finite float (not NaN, +-Infinity or a huge int)."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _finite_vector(spec, key, d):
    """spec[key] as a length-d array of finite numbers (zeros when absent)."""
    value = spec.get(key, [0.0] * d)
    if not (isinstance(value, list) and len(value) == d
            and all(_is_finite(v) for v in value)):
        raise ConfigError(f"symbol {key!r} must be a list of {d} finite numbers")
    return np.asarray(value, dtype=float)


def _inline_algebra(data):
    """Check the shape of a {dim, brackets} object, then build the algebra."""
    if not isinstance(data, dict):
        raise ConfigError("inline algebra must be an object")
    dim = _as_int(data.get("dim"))
    if dim is None or not 1 <= dim <= MAX_DIM:
        raise ConfigError(f"inline algebra needs an integer 'dim' in 1..{MAX_DIM}")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ConfigError("algebra 'brackets' must be a list")
    for entry in brackets:
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= entry.keys():
            raise ConfigError("each algebra bracket needs 'i', 'j' and 'coeffs'")
        if any(_as_int(entry[k]) is None or not 1 <= entry[k] <= dim
               for k in ("i", "j")):
            raise ConfigError(f"bracket indices must be integers in 1..{dim}")
        if entry["i"] == entry["j"]:
            raise ConfigError("a bracket [e_i, e_j] needs i != j")
        coeffs = entry["coeffs"]
        if not (isinstance(coeffs, list) and len(coeffs) == dim
                and all(_is_finite(c) for c in coeffs)):
            raise ConfigError(f"bracket coeffs must be a list of {dim} finite numbers")
    return lie_core.algebra_from_dict(data)


def _inline_potential(data, algebra):
    """Check the shape of a {components} object, then build the potential."""
    d = algebra.dim
    comps = data.get("components") if isinstance(data, dict) else None
    if not isinstance(comps, list) or len(comps) != d:
        raise ConfigError(
            f"inline potential needs 'components', a list of {d} term lists")
    for comp in comps:
        if not isinstance(comp, list):
            raise ConfigError("each potential component must be a list of terms")
        for term in comp:
            if not isinstance(term, dict) or not {"exponents", "coeff"} <= term.keys():
                raise ConfigError("each potential term needs 'exponents' and 'coeff'")
            exps = term["exponents"]
            if not (isinstance(exps, list) and len(exps) == d
                    and all(_as_int(e) is not None and 0 <= e <= magnetic.MAX_DEGREE
                            for e in exps)):
                raise ConfigError(f"potential exponents must be {d} integers "
                                  f"in 0..{magnetic.MAX_DEGREE}")
            if not _is_finite(term["coeff"]):
                raise ConfigError("potential coefficients must be finite numbers")
    return magnetic.potential_from_dict(algebra, data)


def _algebra_from_spec(spec):
    if isinstance(spec, str):
        try:
            dim = int(spec.partition(":")[2])
        except ValueError:
            dim = None  # no dimension in the name; algebra_preset judges it
        if dim is not None and dim > MAX_DIM:
            raise ConfigError(f"algebra dimension above {MAX_DIM}: {spec!r}")
        try:
            return lie_core.algebra_preset(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, dict):
        if "file" in spec:
            return _inline_algebra(_read_json(spec["file"], "algebra file"))
        return _inline_algebra(spec)
    raise ConfigError("algebra spec must be a preset name or an object")


def _potential_from_spec(spec, algebra):
    if spec is None or spec == "zero":
        return magnetic.potential_preset("zero", algebra)
    if isinstance(spec, str):
        try:
            return magnetic.potential_preset(spec, algebra)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(spec, dict):
        if "file" in spec:
            return _inline_potential(_read_json(spec["file"], "potential file"), algebra)
        return _inline_potential(spec, algebra)
    raise ConfigError("potential spec must be a preset name or an object")


def _grid_from_spec(spec, algebra):
    if not isinstance(spec, dict) or "N" not in spec or "L" not in spec:
        raise ConfigError("grid spec must be an object with N and L")
    N, L = spec["N"], spec["L"]
    n = _as_int(N)
    if n is None or n < 2 or n % 2 != 0:
        raise ConfigError(f"grid N must be an even integer >= 2, got {N!r}")
    # both grid steps, h = 2L/N and dxi = pi/L, must be finite floats, and
    # so must the dual cell volume dxi^{2d} that scales the transforms
    if not (_is_finite(L) and L > 0 and 2.0 * L / n <= sys.float_info.max
            and np.pi / L <= sys.float_info.max
            and 2 * algebra.dim * math.log(np.pi / L) < math.log(sys.float_info.max)):
        raise ConfigError(f"grid L must be positive with finite steps 2L/N and pi/L "
                          f"and a finite (pi/L)^(2 dim), got {L!r}")
    return sp.make_grid(algebra.dim, n, float(L))


def _boxed_widths(grid):
    sx = grid.box_half_width * grid.h / np.pi
    if not 0.0 < sx < np.inf:
        raise ShapeError(f"the symbol width L h / pi = {sx!r} is out of float range "
                         f"for L = {grid.box_half_width!r}")
    return sx, 1.0 / sx


def _check_field_size(grid, kind, axes):
    """Refuse a grid whose complex samples on `axes` axes exceed the work budget."""
    nbytes = 16 * grid.points_per_axis ** axes
    if nbytes > wl._MAX_WORK_BYTES:
        raise ConfigError(
            f"a {kind} on N = {grid.points_per_axis} points per axis in dimension "
            f"{grid.dim} needs {nbytes:.3g} bytes, above the work budget of "
            f"{wl._MAX_WORK_BYTES:.3g}")


def _symbol_from_spec(spec, grid):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("symbol spec must be an object with a 'kind'")
    _check_field_size(grid, "symbol", 2 * grid.dim)
    kind = spec["kind"]
    d = grid.dim
    if kind == "zero":
        n = grid.points_per_axis
        return sp.SymbolField(grid, np.zeros((n,) * (2 * d)))
    if kind not in ("gaussian", "poly-gaussian"):
        raise ConfigError(f"unknown symbol kind {kind!r}")
    cx, cxi, lin_x, lin_xi = (_finite_vector(spec, key, d) for key in
                              ("centers_x", "centers_xi", "linear_x", "linear_xi"))
    amp = spec.get("amplitude", 1.0)
    if not _is_finite(amp):
        raise ConfigError(f"symbol 'amplitude' must be a finite number, got {amp!r}")
    sx, sxi = _boxed_widths(grid)
    if kind == "gaussian" and (np.any(lin_x) or np.any(lin_xi)):
        raise ConfigError("linear coefficients need kind 'poly-gaussian'")

    def f(X, Xi):
        qx = sum((X[..., i] - cx[i]) ** 2 for i in range(d))
        qxi = sum((Xi[..., i] - cxi[i]) ** 2 for i in range(d))
        out = amp * np.exp(-qx / (2 * sx) - qxi / (2 * sxi))
        if kind == "poly-gaussian":
            out = out * (1.0 + sum(lin_x[i] * X[..., i] + lin_xi[i] * Xi[..., i]
                                   for i in range(d)))
        return out

    return sp.sample_symbol(f, grid)


def _context_from_config(cfg, threads):
    if "algebra" not in cfg or "grid" not in cfg:
        raise ConfigError("config needs 'algebra' and 'grid' entries")
    algebra = _algebra_from_spec(cfg["algebra"])
    potential = _potential_from_spec(cfg.get("potential"), algebra)
    grid = _grid_from_spec(cfg["grid"], algebra)
    return wl.make_context(algebra, potential, grid, threads=threads)


# ---------------------------------------------------------------- reports

def _checks(cfg, started, *items):
    """Check records for the (name, value, default) items of one call started
    at `started`: each value against the config's tolerance for its name, else
    against the default. The first record carries the call's wall time and the
    others 0, so the times add up to the run time."""
    wall = time.perf_counter() - started
    records = []
    for name, value, default in items:
        tolerance = float(cfg.get("tolerances", {}).get(name, default))
        records.append({"check": name, "value": float(value), "tolerance": tolerance,
                        "pass": bool(value <= tolerance), "wall_time_s": wall})
        wall = 0.0
    return records


def write_report(out_dir, checks):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    overall = all(c["pass"] for c in checks)
    rows = [{"check": c["check"], "value": float(f"{c['value']:.12g}"),
             "tolerance": c["tolerance"], "pass": c["pass"]} for c in checks]
    report = {"checks": rows, "overall_pass": overall}
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value", "tolerance", "pass", "wall_time_s"])
        for c in checks:
            writer.writerow([c["check"], f"{c['value']:.6e}", f"{c['tolerance']:.1e}",
                             "pass" if c["pass"] else "FAIL", f"{c['wall_time_s']:.3f}"])
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{c['check']}: {status} value={c['value']:.6e} tol={c['tolerance']:.1e}")
    print(f"overall: {'PASS' if overall else 'FAIL'}")
    return overall


# ---------------------------------------------------------------- algebra suite
#
# Each check's computation is one public function on explicit inputs. The
# suites draw those inputs from their seeded rng; the acceptance tests pass
# their pinned grids, seeds and probes to the same functions.

def bch_axiom_gaps(algebra, X, Y, Z):
    """Worst associativity defect of BCH, and worst inverse and identity
    defect, over the rows of X, Y and Z."""
    assoc = np.abs(lie_core.bch(algebra, lie_core.bch(algebra, X, Y), Z)
                   - lie_core.bch(algebra, X, lie_core.bch(algebra, Y, Z))).max()
    inv = np.abs(lie_core.bch(algebra, X, -X)).max()
    ident = np.abs(lie_core.bch(algebra, X, np.zeros(algebra.dim)) - X).max()
    return assoc, max(inv, ident)


def psi_round_trip_gap(algebra, V, Y):
    """Worst |psi_V^{-1}(psi_V(Y)) - Y| over the rows of V and Y."""
    back = lie_core.psi_inverse(algebra, V, lie_core.psi_map(algebra, V, Y))
    return np.abs(back - Y).max()


def psi_jacobian_gap(algebra, V, Y):
    """Worst |det D_Y psi_V(Y) - 1| over the rows of V and Y, by central
    differences."""
    step = 1e-5
    eye = step * np.eye(algebra.dim)
    worst = 0.0
    for v, y in zip(V, Y):
        jac = np.stack([(lie_core.psi_map(algebra, v, y + e)
                         - lie_core.psi_map(algebra, v, y - e)) / (2 * step)
                        for e in eye], axis=1)
        worst = max(worst, abs(np.linalg.det(jac) - 1.0))
    return worst


def verify_algebra_checks(cfg, seed):
    algebra = _algebra_from_spec(cfg["algebra"])
    d = algebra.dim
    rng = np.random.default_rng([seed, 0])

    t0 = time.perf_counter()
    assoc, inv = bch_axiom_gaps(algebra, *rng.normal(size=(3, 100, d)))
    checks = _checks(cfg, t0, ("bch-associativity", assoc, 1e-10),
                     ("bch-inverse-identity", inv, 1e-10))

    t0 = time.perf_counter()
    V, Y = rng.normal(size=(2, 100, d))
    checks += _checks(cfg, t0, ("psi-round-trip", psi_round_trip_gap(algebra, V, Y),
                                1e-10))

    t0 = time.perf_counter()
    VY = rng.normal(size=(20, 2, d))
    checks += _checks(cfg, t0, ("psi-jacobian-unimodular",
                                psi_jacobian_gap(algebra, VY[:, 0], VY[:, 1]), 1e-6))
    return checks


# ---------------------------------------------------------------- run suites

def _random_symbol(grid, rng):
    _check_field_size(grid, "symbol", 2 * grid.dim)
    d = grid.dim
    sx, sxi = _boxed_widths(grid)
    span = grid.box_half_width / 3.0
    span_xi = np.pi / (3.0 * grid.h)
    terms = []
    for _ in range(3):
        cx = rng.uniform(-span, span, size=d)
        cxi = rng.uniform(-span_xi, span_xi, size=d)
        amp = rng.normal() + 1j * rng.normal()
        terms.append((cx, cxi, amp))

    def f(X, Xi):
        # one complex accumulator, from zeros as 0.0 + ... would start, and
        # two float buffers. amp * e is added part by part: e's imaginary part
        # is zero, so each part of the product is one real product up to the
        # sign of a zero, and the accumulator, from +0, never holds -0
        out = np.zeros(np.broadcast_shapes(X.shape[:-1], Xi.shape[:-1]), dtype=complex)
        e, part = np.empty(out.shape), np.empty(out.shape)
        for cx, cxi, amp in terms:
            qx = sum((X[..., i] - cx[i]) ** 2 for i in range(d))
            qxi = sum((Xi[..., i] - cxi[i]) ** 2 for i in range(d))
            np.subtract(-qx / (2 * sx), qxi / (2 * sxi), out=e)
            np.exp(e, out=e)
            out.real += np.multiply(amp.real, e, out=part)
            out.imag += np.multiply(amp.imag, e, out=part)
        return out

    return sp.sample_symbol(f, grid)


def _suite_fourier(cfg, ctx, rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        # SF(SF(a)) - a is formed in the double transform's table, which is
        # dropped before the next symbol is drawn; a draw peaks at two
        # tables, so the last symbol can stay alive meanwhile, and the
        # allocator keeps its pages rather than giving them back each time
        a = _random_symbol(ctx.grid, rng)
        gap = sp.symplectic_fourier(sp.symplectic_fourier(a)).values
        gap -= a.values
        worst = max(worst, np.abs(gap).max() / np.abs(a.values).max())
        del gap
    return _checks(cfg, t0, ("fourier-involution", worst, 1e-10))


def unitarity_gaps(ctx):
    """| ||K_a|| / ||a|| - 1 | for a shifted Gaussian and a Gaussian times a linear
    polynomial, both of the grid's boxed widths, by check name."""
    d = ctx.grid.dim
    specs = {"unitarity-gaussian": {"kind": "gaussian",
                                    "centers_x": [0.3] + [0.0] * (d - 1)},
             "unitarity-poly-gaussian": {"kind": "poly-gaussian",
                                         "linear_x": [0.4] + [0.0] * (d - 1),
                                         "linear_xi": [0.0] * (d - 1) + [0.3]}}
    gaps = {}
    for name, spec in specs.items():
        a = _symbol_from_spec(spec, ctx.grid)
        K = wl.kernel_from_symbol(ctx, a)
        gaps[name] = abs(sp.l2_norm(K) / sp.l2_norm(a) - 1.0)
    return gaps


def _suite_unitarity(cfg, ctx, rng):
    default = 1e-6 if ctx.algebra.nilpotency_class == 0 else 1e-3
    t0 = time.perf_counter()
    return _checks(cfg, t0, *((name, gap, default)
                              for name, gap in unitarity_gaps(ctx).items()))


def gauge_partner(ctx, rng):
    """A potential with the same field as ctx's: the symmetric gauge for a
    constant field on abelian:2, else a random polynomial gradient added."""
    alg, A = ctx.algebra, ctx.potential
    if alg.dim == 2 and alg.nilpotency_class == 0:
        # constant-field potentials get the symmetric gauge as the partner
        b = float(magnetic.field_eval(A, np.zeros(2), np.eye(2)[0], np.eye(2)[1]))
        if abs(b) > 1e-12:
            tables = [np.zeros((2, 2)), np.zeros((2, 2))]
            tables[0][0, 1] = -b / 2.0
            tables[1][1, 0] = b / 2.0
            sym = magnetic.make_potential(alg, tables)
            gap = max(np.abs(magnetic.add_tables(t1, -np.asarray(t2))).max()
                      for t1, t2 in zip(sym.tables, A.tables))
            if gap > 1e-12:
                return sym
    d = alg.dim
    table = np.zeros((4,) * d)
    lead = (2, 1) + (0,) * (d - 2) if d >= 2 else (3,)
    table[lead] = 0.2
    for _ in range(5):
        exps = tuple(rng.integers(0, 4, size=d))
        if 0 < sum(exps) <= 3:
            table[exps] = rng.normal(scale=0.3)
    psi = magnetic.GaugeFunction(alg, table)
    return magnetic.add_potentials(A, magnetic.gradient_potential(psi))


def _suite_gauge(cfg, ctx, rng):
    t0 = time.perf_counter()
    a = _symbol_from_spec({"kind": "gaussian"}, ctx.grid)
    rep = wl.gauge_covariance_check(ctx, gauge_partner(ctx, rng), a)
    return _checks(cfg, t0, ("gauge-covariance", rep["value"], 1e-9))


def _flat_context(grid):
    """Zero field on abelian:1: the classical Weyl calculus on a 1-D grid."""
    alg = lie_core.algebra_preset("abelian:1")
    return wl.make_context(alg, magnetic.potential_preset("zero", alg), grid)


def abelian_baseline_gap(grid):
    """Relative l2 gap between the flat kernel of e^{-(x^2 + xi^2)/2} on a
    1-D grid and its closed form."""
    a = sp.sample_symbol(
        lambda X, Xi: np.exp(-(X[..., 0] ** 2 + Xi[..., 0] ** 2) / 2), grid)
    K = wl.kernel_from_symbol(_flat_context(grid), a)
    y = grid.axis_x
    truth = (np.exp(-(y[:, None] + y[None, :]) ** 2 / 8)
             * np.exp(-(y[:, None] - y[None, :]) ** 2 / 2) / np.sqrt(2 * np.pi))
    return np.sqrt(np.sum(np.abs(K.values - truth) ** 2) / np.sum(truth ** 2))


def _suite_abelian_baseline(cfg, ctx, rng):
    t0 = time.perf_counter()
    return _checks(cfg, t0, ("abelian-baseline-kernel",
                             abelian_baseline_gap(sp.make_grid(1, 64, 8.0)), 1e-6))


def moyal_route_gap(ctx, a, b, probes):
    """Worst gap between the direct Moyal point and the route a#b, relative
    to sup |a#b|, over probes (position index per axis, off-grid xi).

    The route is read at xi through its trigonometric interpolant along each
    xi axis, with modes at the position nodes x_j. E = e^{i xi_k x_j} has
    E^H E = N I on the locked grid, so samples v have coefficients E^H v / N.
    """
    ab = wl.moyal_product(ctx, a, b)
    sup = np.abs(ab.values).max()
    grid = ctx.grid
    worst = 0.0
    for jx, xi in probes:
        direct = wl.moyal_2step_point(ctx, a, b, grid.axis_x[list(jx)], xi)
        route = ab.values[tuple(jx)]
        for t in xi:
            weights = np.exp(1j * np.outer(t - grid.axis_xi, grid.axis_x)).sum(axis=1)
            route = np.tensordot(weights / grid.points_per_axis, route, axes=1)
        worst = max(worst, abs(direct - complex(route)) / sup)
    return worst


def abelian_moyal_gaps(grid, probes=()):
    """The flat Moyal product of two unit Gaussians against its closed form
    (1/2) e^{-(|P|^2 + |Q|^2)/2} e^{-i sigma(P, Q)}, P = mu_a - w, Q = mu_b - w.

    Returns the route's worst gap on the 1-D grid, relative to the closed
    form's maximum there, and the direct point's worst gap over probes
    (position index, xi), relative to 1/2.
    """
    ctx = _flat_context(grid)
    mu_a, mu_b = np.array([0.4, -0.3]), np.array([-0.2, 0.5])
    ga = sp.sample_symbol(lambda X, Xi: np.exp(-(X[..., 0] - mu_a[0]) ** 2
                                               - (Xi[..., 0] - mu_a[1]) ** 2), grid)
    gb = sp.sample_symbol(lambda X, Xi: np.exp(-(X[..., 0] - mu_b[0]) ** 2
                                               - (Xi[..., 0] - mu_b[1]) ** 2), grid)

    def closed_form(W):
        P, Q = mu_a - W, mu_b - W
        sig = P[..., 1] * Q[..., 0] - P[..., 0] * Q[..., 1]
        return (0.5 * np.exp(-((P ** 2).sum(-1) + (Q ** 2).sum(-1)) / 2)
                * np.exp(-1j * sig))

    truth = closed_form(
        np.stack(np.meshgrid(grid.axis_x, grid.axis_xi, indexing="ij"), axis=-1))
    prod = wl.moyal_product(ctx, ga, gb)
    route = np.abs(prod.values - truth).max() / np.abs(truth).max()
    point = 0.0
    for jx, xi in probes:
        w = np.array([grid.axis_x[jx], xi])
        direct = wl.moyal_2step_point(ctx, ga, gb, w[:1], w[1:])
        point = max(point, abs(direct - closed_form(w)) / 0.5)
    return route, point


def _suite_moyal(cfg, ctx, rng):
    if ctx.algebra.nilpotency_class > 1:
        raise ConfigError("moyal-crosscheck needs an algebra of class <= 1")
    d = ctx.grid.dim
    N = ctx.grid.points_per_axis
    t0 = time.perf_counter()
    a = _symbol_from_spec({"kind": "gaussian",
                           "centers_x": [0.3] + [0.0] * (d - 1),
                           "centers_xi": [0.0] * (d - 1) + [-0.2]}, ctx.grid)
    b = _symbol_from_spec({"kind": "gaussian",
                           "centers_x": [0.0] * (d - 1) + [-0.25],
                           "centers_xi": [0.15] + [0.0] * (d - 1)}, ctx.grid)
    probes = [(rng.integers(N // 4, 3 * N // 4, size=d), rng.uniform(-0.4, 0.4, size=d))
              for _ in range(5)]
    checks = _checks(cfg, t0, ("moyal-direct-vs-route",
                               moyal_route_gap(ctx, a, b, probes), 5e-2))

    t0 = time.perf_counter()
    route, _ = abelian_moyal_gaps(sp.make_grid(1, 64, 6.5))
    checks += _checks(cfg, t0, ("moyal-abelian-closed-form", route, 2e-2))
    return checks


def derivative_gaps(ctx, P0):
    """The magnetic derivative check of the unit Gaussian at P0 with
    tau = 1e-3, by check name."""
    _check_field_size(ctx.grid, "config field", ctx.grid.dim)
    f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
    return {r["check"]: r["value"]
            for r in wl.magnetic_derivative_check(ctx, P0, f, tau=1e-3)}


def _suite_derivative(cfg, ctx, rng):
    t0 = time.perf_counter()
    gaps = derivative_gaps(ctx, rng.uniform(-0.5, 0.5, size=ctx.grid.dim))
    return _checks(cfg, t0, *((name, gaps[name], default)
                              for name, default in (("derivative-relative-error", 1e-4),
                                                    ("derivative-ratio-gap", 0.8))))


_SUITE_FUNCS = {
    "fourier": _suite_fourier,
    "unitarity": _suite_unitarity,
    "gauge": _suite_gauge,
    "abelian-baseline": _suite_abelian_baseline,
    "moyal-crosscheck": _suite_moyal,
    "derivative-check": _suite_derivative,
}


def run_suites(cfg, suites, seed, threads):
    ctx = _context_from_config(cfg, threads=threads)
    checks = []
    for name in suites:
        if name not in _SUITE_FUNCS:
            raise ConfigError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        rng = np.random.default_rng([seed, SUITES.index(name) + 1])
        checks.extend(_SUITE_FUNCS[name](cfg, ctx, rng))
    return checks


# ---------------------------------------------------------------- commands

def _resolve_out(cfg, args):
    return args.out or cfg.get("out") or "magweyl-out"


def _finish(cfg, args, checks):
    """Write the reports; on a failed check, exit 1 with one stderr line."""
    if write_report(_resolve_out(cfg, args), checks):
        return 0
    failed = ", ".join(c["check"] for c in checks if not c["pass"])
    print(f"CheckFailed: {failed}", file=sys.stderr)
    return 1


def cmd_verify_algebra(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _as_int(cfg.get("seed", 42))
    if "algebra" not in cfg:
        raise ConfigError("config needs an 'algebra' entry")
    checks = verify_algebra_checks(cfg, seed)
    return _finish(cfg, args, checks)


def cmd_build_kernel(args):
    cfg = load_config(args.config)
    if "symbol" not in cfg:
        raise ConfigError("config needs a 'symbol' entry")
    ctx = _context_from_config(cfg, threads=args.threads)
    a = _symbol_from_spec(cfg["symbol"], ctx.grid)
    K = wl.kernel_from_symbol(ctx, a)
    if not np.all(np.isfinite(K.values)):
        # values that pass the config checks can still overflow on the way
        raise ShapeError(f"the kernel has {np.count_nonzero(~np.isfinite(K.values))} "
                         "non-finite entries; not written")
    out = Path(_resolve_out(cfg, args))
    out.mkdir(parents=True, exist_ok=True)
    kernel_path = out / "kernel.bin"
    sp.dump_field(K, kernel_path)
    digest = hashlib.sha256(kernel_path.read_bytes()).hexdigest()
    meta = {
        "algebra": cfg["algebra"],
        "potential": cfg.get("potential", "zero"),
        "grid": {"N": ctx.grid.points_per_axis, "L": ctx.grid.box_half_width},
        "symbol": cfg["symbol"],
        "sha256": digest,
    }
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"kernel.bin sha256={digest}")
    return 0


def cmd_suite(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else _as_int(cfg.get("seed", 42))
    if args.suites:
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
    else:
        suites = cfg.get("suites", list(SUITES))
    if not suites:
        raise ConfigError("no suites selected")
    checks = run_suites(cfg, suites, seed, args.threads)
    return _finish(cfg, args, checks)


def _resolve_threads(threads):
    """The --threads value, else MAGWEYL_THREADS, validated once per run."""
    if threads is None:
        raw = os.environ.get("MAGWEYL_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(
                f"MAGWEYL_THREADS must be an integer >= 1, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"the thread count must be >= 1, got {threads}")
    return threads


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="magweyl",
        description="Kernel quantization on nilpotent groups: builds and checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify-algebra", cmd_verify_algebra),
                     ("build-kernel", cmd_build_kernel),
                     ("suite", cmd_suite)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--suites", default=None)
        p.add_argument("--threads", type=int, default=None)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        args.threads = _resolve_threads(args.threads)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # non-finite results are reported by the checks and the kernel
        # guard; numpy's floating-point warnings would only add stderr lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except MagweylError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
