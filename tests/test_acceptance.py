"""Acceptance gate: ten checks at desk scale, pinned tolerances.

Each test prints one summary line so the run log shows every criterion's
measured value next to its tolerance. Where `magweyl suite` or
`verify-algebra` runs the same check, the test calls the check function in
`magweyl.cli` with its own pinned grids, seeds and probes.
"""

import numpy as np

from magweyl import cli
from magweyl import lie_core as lc
from magweyl import magnetic as mg
from magweyl import symbol_space as sp
from magweyl import weyl_calculus as wl

ALGEBRAS = ("abelian:2", "heisenberg:3", "filiform3:4")


def report(k, name, value, tol):
    status = "PASS" if value <= tol else "FAIL"
    print(f"ACCEPTANCE {k} {name}: {status} value={value:.3e} tol={tol:.0e}")
    assert value <= tol


def gaussian(grid, **centers):
    """The CLI's boxed Gaussian symbol, with optional centers_x / centers_xi."""
    return cli._symbol_from_spec({"kind": "gaussian", **centers}, grid)


def test_acceptance_1_bch_group_axioms():
    worst = 0.0
    for preset in ALGEBRAS:
        alg = lc.algebra_preset(preset)
        rng = np.random.default_rng(1)
        X, Y, Z = rng.normal(size=(3, 100, alg.dim))
        worst = max(worst, *cli.bch_axiom_gaps(alg, X, Y, Z))
    report(1, "bch-group-axioms", worst, 1e-10)


def test_acceptance_2_psi_diffeomorphism():
    worst_rt, worst_jac = 0.0, 0.0
    for preset in ALGEBRAS:
        alg = lc.algebra_preset(preset)
        rng = np.random.default_rng(2)
        V, Y = rng.normal(size=(2, 100, alg.dim))
        worst_rt = max(worst_rt, cli.psi_round_trip_gap(alg, V, Y))
        VY = rng.normal(size=(20, 2, alg.dim))
        worst_jac = max(worst_jac, cli.psi_jacobian_gap(alg, VY[:, 0], VY[:, 1]))
    report(2, "psi-round-trip", worst_rt, 1e-10)
    report(2, "psi-jacobian-unimodular", worst_jac, 1e-6)


def test_acceptance_3_symplectic_fourier_involution():
    worst = 0.0
    for dim, N in ((1, 64), (3, 8)):
        grid = sp.make_grid(dim, N, 6.0)
        rng = np.random.default_rng(3)
        sx = grid.box_half_width * grid.h / np.pi
        for _ in range(5):
            cx = rng.uniform(-2, 2, size=dim)
            cxi = rng.uniform(-2, 2, size=dim)
            amp = rng.normal() + 1j * rng.normal()

            def f(X, Xi, cx=cx, cxi=cxi, amp=amp):
                qx = sum((X[..., i] - cx[i]) ** 2 for i in range(dim))
                qxi = sum((Xi[..., i] - cxi[i]) ** 2 for i in range(dim))
                return amp * np.exp(-qx / (2 * sx) - qxi * sx / 2)

            a = sp.sample_symbol(f, grid)
            aa = sp.symplectic_fourier(sp.symplectic_fourier(a))
            diff = sp.SymbolField(grid, aa.values - a.values)
            worst = max(worst, sp.l2_norm(diff) / sp.l2_norm(a))
    report(3, "symplectic-fourier-involution", worst, 1e-10)


def test_acceptance_4_abelian_baseline_kernel():
    gap = cli.abelian_baseline_gap(sp.make_grid(1, 64, 8.0))
    report(4, "abelian-baseline-kernel", gap, 1e-6)


def test_acceptance_5_kernel_map_unitarity():
    alg1 = lc.algebra_preset("abelian:1")
    ctx1 = wl.make_context(alg1, mg.potential_preset("zero", alg1),
                           sp.make_grid(1, 64, 8.0))
    heis = lc.algebra_preset("heisenberg:3")
    ctx3 = wl.make_context(heis, mg.potential_preset("heisenberg-linear:0.4", heis),
                           sp.make_grid(3, 12, 6.0))
    for ctx, tol, label in ((ctx1, 1e-6, "abelian-N64"), (ctx3, 1e-3, "heisenberg-N12")):
        worst = max(cli.unitarity_gaps(ctx).values())
        report(5, f"kernel-unitarity-{label}", worst, tol)


def test_acceptance_6_gauge_covariance():
    ab2 = lc.algebra_preset("abelian:2")
    grid2 = sp.make_grid(2, 16, 6.0)
    ctx2 = wl.make_context(ab2, mg.potential_preset("landau:0.5", ab2), grid2)
    heis = lc.algebra_preset("heisenberg:3")
    grid3 = sp.make_grid(3, 8, 6.0)
    ctx3 = wl.make_context(heis, mg.potential_preset("heisenberg-linear:0.4", heis), grid3)
    gap = 0.0
    for ctx in (ctx2, ctx3):
        partner = cli.gauge_partner(ctx, np.random.default_rng(6))
        rep = wl.gauge_covariance_check(ctx, partner, gaussian(ctx.grid))
        gap = max(gap, rep["value"])
    report(6, "gauge-covariance", gap, 1e-9)


def test_acceptance_7_moyal_cross_check():
    heis = lc.algebra_preset("heisenberg:3")
    grid = sp.make_grid(3, 12, 6.0)
    ctx = wl.make_context(heis, mg.potential_preset("heisenberg-linear:0.4", heis), grid)
    a = gaussian(grid, centers_x=[0.3, -0.2, 0.1],
                 centers_xi=[0.2, 0.1, -0.3])
    b = gaussian(grid, centers_x=[-0.25, 0.15, 0.0],
                 centers_xi=[-0.1, 0.3, 0.2])
    probes = [((6, 6, 6), np.zeros(3)),
              ((7, 5, 6), np.array([0.3, -0.2, 0.1])),
              ((5, 7, 8), np.array([-0.2, 0.4, 0.0])),
              ((8, 6, 4), np.array([0.1, 0.2, -0.3])),
              ((6, 8, 7), np.array([0.0, -0.4, 0.2]))]
    report(7, "moyal-direct-vs-route-heisenberg", cli.moyal_route_gap(ctx, a, b, probes),
           5e-2)

    route, point = cli.abelian_moyal_gaps(
        sp.make_grid(1, 64, 6.5),
        probes=[(28, -0.7), (32, 0.0), (36, 1.1), (40, 0.3), (24, -0.2)])
    report(7, "moyal-abelian-vs-oracle", max(route, point), 2e-2)


def test_acceptance_8_magnetic_derivative():
    heis = lc.algebra_preset("heisenberg:3")
    grid = sp.make_grid(3, 16, 6.5)
    ctx = wl.make_context(heis, mg.potential_preset("heisenberg-linear:0.4", heis), grid)
    gaps = cli.derivative_gaps(ctx, np.array([0.5, -0.3, 0.4]))
    report(8, "derivative-relative-error", gaps["derivative-relative-error"], 1e-4)
    report(8, "derivative-ratio-gap", gaps["derivative-ratio-gap"], 0.8)


def test_acceptance_9_moyal_gauge_invariance():
    heis = lc.algebra_preset("heisenberg:3")
    grid = sp.make_grid(3, 8, 6.0)
    A = mg.potential_preset("heisenberg-linear:0.4", heis)
    table = np.zeros((3, 2, 3))
    table[2, 1, 0] = 0.1
    table[0, 0, 2] = 0.05
    psi = mg.GaugeFunction(heis, table)
    A1 = mg.add_potentials(A, mg.gradient_potential(psi))
    a = gaussian(grid, centers_x=[0.3, -0.2, 0.1])
    b = gaussian(grid, centers_xi=[-0.1, 0.3, 0.2])
    ab = wl.moyal_product(wl.make_context(heis, A, grid), a, b)
    ab1 = wl.moyal_product(wl.make_context(heis, A1, grid), a, b)
    diff = sp.SymbolField(grid, ab1.values - ab.values)
    gap = sp.l2_norm(diff) / sp.l2_norm(ab)

    ab2 = lc.algebra_preset("abelian:2")
    grid2 = sp.make_grid(2, 16, 6.0)
    landau = mg.potential_preset("landau:0.5", ab2)
    tables = [np.zeros((2, 2)), np.zeros((2, 2))]
    tables[0][0, 1] = -0.25
    tables[1][1, 0] = 0.25
    symmetric = mg.make_potential(ab2, tables)
    a2 = gaussian(grid2, centers_x=[0.3, -0.2])
    b2 = gaussian(grid2, centers_xi=[-0.1, 0.25])
    p1 = wl.moyal_product(wl.make_context(ab2, landau, grid2), a2, b2)
    p2 = wl.moyal_product(wl.make_context(ab2, symmetric, grid2), a2, b2)
    diff2 = sp.SymbolField(grid2, p2.values - p1.values)
    gap = max(gap, sp.l2_norm(diff2) / sp.l2_norm(p1))
    report(9, "moyal-gauge-invariance", gap, 1e-6)


# the quantization of |xi|^2 + w^2 |x|^2 in the constant field B is the
# Fock-Darwin Hamiltonian, levels (2n + |m| + 1) 2 Omega - m B with
# Omega = sqrt(w^2 + B^2 / 4), n >= 0, m in Z
FD_B, FD_W = 1.0, 0.5


def fock_darwin_lowest(grid, A):
    """The 10 lowest eigenvalues of the Hermitian part of h^2 K on abelian:2,
    K the kernel of |xi|^2 + w^2 |x|^2 in the potential A."""
    ab2 = A.algebra
    h = sp.sample_symbol(lambda X, Xi: (Xi[..., 0] ** 2 + Xi[..., 1] ** 2
                                        + FD_W ** 2 * (X[..., 0] ** 2 + X[..., 1] ** 2)), grid)
    K = grid.h ** 2 * wl.kernel_from_symbol(wl.make_context(ab2, A, grid), h).values
    return np.linalg.eigvalsh((K + K.conj().T) / 2)[:10]


def fock_darwin_levels():
    """The 10 lowest Fock-Darwin levels in closed form."""
    n, m = np.meshgrid(np.arange(10), np.arange(-40, 41), indexing="ij")
    return np.sort(((2 * n + abs(m) + 1) * 2 * np.hypot(FD_W, FD_B / 2) - m * FD_B).ravel())[:10]


def test_acceptance_10_fock_darwin_spectrum():
    ab2 = lc.algebra_preset("abelian:2")
    grid = sp.make_grid(2, 32, 8.0)
    landau = fock_darwin_lowest(grid, mg.potential_preset("landau:1", ab2))
    levels = fock_darwin_levels()
    report(10, "fock-darwin-spectrum", np.max(np.abs(landau - levels) / levels), 1e-5)

    tables = [np.zeros((2, 2)), np.zeros((2, 2))]
    tables[0][0, 1] = -FD_B / 2
    tables[1][1, 0] = FD_B / 2  # the symmetric gauge A = (-B x2 / 2, B x1 / 2)
    symmetric = fock_darwin_lowest(grid, mg.make_potential(ab2, tables))
    report(10, "fock-darwin-gauge-invariance",
           np.max(np.abs(symmetric - landau) / landau), 1e-11)


def test_fock_darwin_converges_over_n():
    # at L = 8 the largest relative error of the first 10 levels falls at
    # each refinement of h = 2L/N (3.3e-5, 2.3e-6 and 8.0e-7 when measured);
    # beyond N = 40 it flattens towards the box's floor (5.3e-7 at N = 48)
    A = mg.potential_preset("landau:1", lc.algebra_preset("abelian:2"))
    levels = fock_darwin_levels()
    errors = []
    for N in (24, 32, 40):
        grid = sp.make_grid(2, N, 8.0)
        errors.append(np.max(np.abs(fock_darwin_lowest(grid, A) - levels) / levels))
        print(f"FOCK-DARWIN L=8 N={N} h={grid.h:.3f} max-rel-error={errors[-1]:.3e}")
    assert errors[0] > errors[1] > errors[2]
