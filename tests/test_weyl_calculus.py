"""Tests for kernels, the twisted representation, and the Moyal product."""

import tracemalloc

import numpy as np
import oracles
import pytest
from test_magnetic import random_potential

from magweyl import lie_core as lc
from magweyl import magnetic as mg
from magweyl import symbol_space as sp
from magweyl import weyl_calculus as wl
from magweyl.errors import FieldsDiffer, NotShiftable, ShapeError, WrongClass

AB1 = lc.algebra_preset("abelian:1")
AB2 = lc.algebra_preset("abelian:2")
HEIS = lc.algebra_preset("heisenberg:3")
FIL = lc.algebra_preset("filiform3:4")
# class 1 with two derived axes: [e1, e2] = e4, [e1, e3] = e5
DER2 = lc.algebra_from_dict({"dim": 5, "brackets": [
    {"i": 1, "j": 2, "coeffs": [0, 0, 0, 1, 0]},
    {"i": 1, "j": 3, "coeffs": [0, 0, 0, 0, 1]}]})
# class 3: the filiform algebra on 5 axes, [e1, e_k] = e_{k+1}
FIL5 = lc.algebra_from_dict({"dim": 5, "brackets": [
    {"i": 1, "j": k, "coeffs": list(np.eye(5)[k])} for k in (2, 3, 4)]})
# Heisenberg:3 in the basis e1, e2, e1 + e2 + e3: every bracket touches
# every coordinate, so no axis is regular
HEIS_SKEW = lc.algebra_from_dict({"dim": 3, "brackets": [
    {"i": 1, "j": 2, "coeffs": [-1, -1, 1]},
    {"i": 1, "j": 3, "coeffs": [-1, -1, 1]},
    {"i": 2, "j": 3, "coeffs": [1, 1, -1]}]})
# Heisenberg:3 in the basis e1, e2, e1 + e3: x1 and x3 are derived, and
# their brackets read x1 and x3
HEIS_TILT = lc.algebra_from_dict({"dim": 3, "brackets": [
    {"i": 1, "j": 2, "coeffs": [-1, 0, 1]},
    {"i": 2, "j": 3, "coeffs": [1, 0, -1]}]})


def zero_ctx(alg, N, L, **kw):
    grid = sp.make_grid(alg.dim, N, L)
    return wl.make_context(alg, mg.potential_preset("zero", alg), grid, **kw)


def boxed_gaussian(grid, centers_x=None, centers_xi=None, poly=None):
    """Gaussian with position width L h / pi and the reciprocal dual width.

    That split puts the box, resolution, and dual-box truncation tails at a
    common level, the right conditioning for round-trip and isometry checks.
    """
    d = grid.dim
    sx = grid.box_half_width * grid.h / np.pi
    cx = np.zeros(d) if centers_x is None else np.asarray(centers_x)
    cxi = np.zeros(d) if centers_xi is None else np.asarray(centers_xi)

    def f(X, Xi):
        qx = sum((X[..., i] - cx[i]) ** 2 for i in range(d))
        qxi = sum((Xi[..., i] - cxi[i]) ** 2 for i in range(d))
        out = np.exp(-qx / (2 * sx) - qxi * sx / 2)
        return out * poly(X, Xi) if poly is not None else out

    return sp.sample_symbol(f, grid)


def heis_ctx(N, L, b=0.4, **kw):
    grid = sp.make_grid(3, N, L)
    A = mg.potential_preset(f"heisenberg-linear:{b}", HEIS)
    return wl.make_context(HEIS, A, grid, **kw)


def filiform_ctx(N, seed=6, **kw):
    """filiform3:4 on L = 3 with A_i(x) = sum_j B[i, j] x_j, B seeded."""
    B = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(4, 4))
    tables = []
    for i in range(4):
        t = np.zeros((2,) * 4)
        for j in range(4):
            t[tuple(np.eye(4, dtype=int)[j])] = B[i, j]
        tables.append(t)
    return wl.make_context(FIL, mg.make_potential(FIL, tables), sp.make_grid(4, N, 3.0), **kw)


def filiform_symbol(grid):
    return boxed_gaussian(grid, centers_x=[0.2, -0.1, 0.0, 0.1],
                          centers_xi=[0.1, 0.0, -0.2, 0.1])


class TestContextAndValidation:
    def test_dim_mismatch_rejected(self):
        grid = sp.make_grid(2, 8, 4.0)
        with pytest.raises(ShapeError):
            wl.make_context(HEIS, mg.potential_preset("zero", HEIS), grid)
        with pytest.raises(ShapeError):
            wl.make_context(AB2, mg.potential_preset("zero", HEIS), grid)

    def test_kernel_shape_enforced(self):
        grid = sp.make_grid(1, 8, 4.0)
        with pytest.raises(ShapeError):
            wl.IntegralKernel(grid, np.zeros((8, 4)))

    def test_kernel_from_symbol_rejects_foreign_grid(self):
        ctx = zero_ctx(AB1, 8, 4.0)
        other = boxed_gaussian(sp.make_grid(1, 16, 4.0))
        with pytest.raises(ShapeError):
            wl.kernel_from_symbol(ctx, other)
        with pytest.raises(ShapeError):
            wl.kernel_from_symbol(ctx, np.zeros((8, 8)))

    def test_symbol_from_kernel_rejects_foreign_grid(self):
        ctx = zero_ctx(AB1, 8, 4.0)
        K = wl.IntegralKernel(sp.make_grid(1, 16, 4.0), np.zeros((16, 16)))
        with pytest.raises(ShapeError):
            wl.symbol_from_kernel(ctx, K)

    def test_apply_operator_wants_position_field(self):
        ctx = zero_ctx(AB1, 8, 4.0)
        K = wl.kernel_from_symbol(ctx, boxed_gaussian(ctx.grid))
        dual = sp.ConfigField(ctx.grid, np.zeros(8), space="gstar")
        with pytest.raises(ShapeError):
            wl.apply_operator(K, dual)
        with pytest.raises(ShapeError):
            wl.apply_operator(K.values, sp.ConfigField(ctx.grid, np.zeros(8)))

    def test_compose_kernels_rejects_mixed_grids(self):
        K1 = wl.IntegralKernel(sp.make_grid(1, 8, 4.0), np.eye(8))
        K2 = wl.IntegralKernel(sp.make_grid(1, 8, 5.0), np.eye(8))
        with pytest.raises(ShapeError):
            wl.compose_kernels(K1, K2)


class TestKernelMap:
    def test_abelian_gaussian_kernel_closed_form(self):
        # a = e^{-(x^2 + xi^2)/2} quantizes to
        # (2 pi)^{-1/2} e^{-(y+z)^2/8} e^{-(y-z)^2/2}
        ctx = zero_ctx(AB1, 64, 8.0)
        a = sp.sample_symbol(
            lambda X, Xi: np.exp(-(X[..., 0] ** 2 + Xi[..., 0] ** 2) / 2), ctx.grid)
        K = wl.kernel_from_symbol(ctx, a)
        y = ctx.grid.axis_x
        expected = (np.exp(-(y[:, None] + y[None, :]) ** 2 / 8)
                    * np.exp(-(y[:, None] - y[None, :]) ** 2 / 2)
                    / np.sqrt(2 * np.pi))
        err = np.abs(K.values - expected).max() / expected.max()
        assert err < 1e-12

    def test_linearity(self):
        ctx = zero_ctx(AB1, 16, 5.0)
        a = boxed_gaussian(ctx.grid, centers_x=[0.4])
        b = boxed_gaussian(ctx.grid, centers_xi=[-0.6])
        Kab = wl.kernel_from_symbol(
            ctx, sp.SymbolField(ctx.grid, 2.0 * a.values + 1j * b.values))
        Ka = wl.kernel_from_symbol(ctx, a)
        Kb = wl.kernel_from_symbol(ctx, b)
        assert np.abs(Kab.values - 2.0 * Ka.values - 1j * Kb.values).max() < 1e-13

    def test_zero_symbol_zero_kernel_and_back(self):
        ctx = heis_ctx(8, 6.0)
        zero = sp.SymbolField(ctx.grid, np.zeros((8,) * 6))
        K = wl.kernel_from_symbol(ctx, zero)
        assert np.abs(K.values).max() == 0.0
        back = wl.symbol_from_kernel(ctx, K)
        assert np.abs(back.values).max() == 0.0

    def test_abelian_isometry_and_round_trip(self):
        ctx = zero_ctx(AB1, 64, 8.0)
        a = boxed_gaussian(ctx.grid, centers_x=[0.5], centers_xi=[-0.3])
        K = wl.kernel_from_symbol(ctx, a)
        assert abs(sp.l2_norm(K) / sp.l2_norm(a) - 1) < 1e-9
        back = wl.symbol_from_kernel(ctx, K)
        rel = np.abs(back.values - a.values).max() / np.abs(a.values).max()
        assert rel < 1e-9

    def test_heisenberg_isometry_and_round_trip(self):
        ctx = heis_ctx(8, 6.0)
        a = boxed_gaussian(ctx.grid, centers_x=[0.3, -0.2, 0.1],
                           centers_xi=[0.2, 0.1, -0.3])
        K = wl.kernel_from_symbol(ctx, a)
        assert abs(sp.l2_norm(K) / sp.l2_norm(a) - 1) < 1e-3
        back = wl.symbol_from_kernel(ctx, K)
        rel = np.abs(back.values - a.values).max() / np.abs(a.values).max()
        # inversion is exact up to the corner band truncation; at N=8 the
        # truncated mass sits near 4e-2 for this symbol
        assert rel < 1e-1

    def test_fastpath_matches_general_heisenberg(self):
        ctx = heis_ctx(4, 3.0)
        a = boxed_gaussian(ctx.grid, poly=lambda X, Xi: 1 + 0.3 * X[..., 0])
        Kf = wl.kernel_from_symbol(ctx, a)
        Kg = oracles.kernel_general_dense(ctx, a)
        assert np.abs(Kf.values - Kg).max() / np.abs(Kg).max() < 1e-12

    def test_fastpath_matches_general_abelian(self):
        ctx = zero_ctx(AB1, 16, 5.0)
        a = boxed_gaussian(ctx.grid, centers_xi=[0.4])
        Kf = wl.kernel_from_symbol(ctx, a)
        Kg = oracles.kernel_general_dense(ctx, a)
        assert np.abs(Kf.values - Kg).max() / np.abs(Kg).max() < 1e-12

    def test_thread_count_does_not_change_values(self):
        # slabs are computed independently and written disjointly; the
        # filiform3:4 slabs also evaluate the group law on their pairs, and
        # with no regular axis (HEIS_SKEW) the workers split one slab's pairs
        for make in (lambda t: heis_ctx(8, 6.0, threads=t),
                     lambda t: filiform_ctx(4, threads=t),
                     lambda t: zero_ctx(HEIS_SKEW, 6, 3.0, threads=t)):
            ctx, ctx4 = make(1), make(4)
            d = ctx.grid.dim
            a = boxed_gaussian(ctx.grid, centers_x=[0.3] + [0.0] * (d - 2) + [-0.2])
            K1 = wl.kernel_from_symbol(ctx, a)
            K4 = wl.kernel_from_symbol(ctx4, a)
            assert np.array_equal(K1.values, K4.values)

    def test_library_ignores_the_threads_environment(self, monkeypatch):
        # only the CLI reads MAGWEYL_THREADS; a library call runs on ctx.threads
        monkeypatch.setenv("MAGWEYL_THREADS", "two")
        ctx = heis_ctx(4, 3.0)
        K = wl.kernel_from_symbol(ctx, boxed_gaussian(ctx.grid))
        assert ctx.threads == 1
        assert np.all(np.isfinite(K.values))

    def test_filiform_general_path_round_trip(self):
        # class-2 algebra: structured assembly plus the interpolating
        # inverse; accuracy on the coarsest grid is documented, not sharp
        grid = sp.make_grid(4, 4, 3.0)
        ctx = wl.make_context(FIL, mg.potential_preset("zero", FIL), grid)
        a = boxed_gaussian(grid)
        K = wl.kernel_from_symbol(ctx, a)
        assert abs(sp.l2_norm(K) / sp.l2_norm(a) - 1) < 5e-2
        back = wl.symbol_from_kernel(ctx, K)
        rel = np.abs(back.values - a.values).max() / np.abs(a.values).max()
        assert rel < 2.5e-1

    @pytest.mark.parametrize("alg, stuck", [(HEIS_SKEW, "x1, x2, x3"), (HEIS_TILT, "x1, x3")],
                             ids=["heisenberg3-skew", "heisenberg3-tilt"])
    def test_inverse_refuses_unshiftable_derived_axes(self, alg, stuck):
        # the bracket term on these axes scales a derived coordinate, which
        # the class <= 1 inverse cannot undo by a shift; the forward map is
        # fine (its oracle tests) and the inverse refuses, naming the axes
        ctx = zero_ctx(alg, 4, 3.0)
        K = wl.kernel_from_symbol(ctx, boxed_gaussian(ctx.grid))
        with pytest.raises(NotShiftable, match=f"brackets on {stuck} read derived axes"):
            wl.symbol_from_kernel(ctx, K)

    def test_kernel_dump_load_round_trip(self, tmp_path):
        ctx = zero_ctx(AB1, 8, 4.0)
        K = wl.kernel_from_symbol(ctx, boxed_gaussian(ctx.grid))
        path = tmp_path / "kernel.bin"
        sp.dump_field(K, path)
        K2 = sp.load_field(path)
        assert isinstance(K2, wl.IntegralKernel)
        assert np.abs(K2.values - K.values).max() < 1e-6


class TestOperatorAlgebra:
    def test_identity_kernel_acts_as_identity(self):
        ctx = zero_ctx(AB2, 8, 4.0)
        g = ctx.grid
        n = g.points_per_axis ** g.dim
        ident = wl.IntegralKernel(g, np.eye(n) / g.h ** g.dim)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1)), g)
        out = wl.apply_operator(ident, f)
        assert np.abs(out.values - f.values).max() < 1e-12
        K = wl.kernel_from_symbol(ctx, boxed_gaussian(g))
        KI = wl.compose_kernels(K, ident)
        assert np.abs(KI.values - K.values).max() < 1e-12

    def test_compose_matches_sequential_apply(self):
        ctx = heis_ctx(4, 3.0)
        g = ctx.grid
        a = boxed_gaussian(g, centers_x=[0.2, 0.0, -0.1])
        b = boxed_gaussian(g, centers_xi=[0.1, -0.2, 0.0])
        Ka = wl.kernel_from_symbol(ctx, a)
        Kb = wl.kernel_from_symbol(ctx, b)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), g)
        lhs = wl.apply_operator(wl.compose_kernels(Ka, Kb), f)
        rhs = wl.apply_operator(Ka, wl.apply_operator(Kb, f))
        assert np.abs(lhs.values - rhs.values).max() < 1e-12

    def test_compose_is_associative(self):
        g = sp.make_grid(1, 8, 4.0)
        rng = np.random.default_rng(11)
        Ks = [wl.IntegralKernel(g, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
              for _ in range(3)]
        lhs = wl.compose_kernels(wl.compose_kernels(Ks[0], Ks[1]), Ks[2])
        rhs = wl.compose_kernels(Ks[0], wl.compose_kernels(Ks[1], Ks[2]))
        assert np.abs(lhs.values - rhs.values).max() < 1e-12


class TestRepresentation:
    def test_abelian_weyl_shift_closed_form(self):
        # zero potential: pi(X, xi) f (Y) = e^{i(<xi,Y> - <xi,X>/2)} f(Y - X)
        ctx = zero_ctx(AB1, 64, 6.5)
        y = ctx.grid.axis_x
        f = sp.ConfigField(ctx.grid, np.exp(-y ** 2 / 2) * (1 + 0.3 * y))
        X, xi = np.array([0.4]), np.array([-0.7])
        out = wl.pi_action(ctx, X, xi, f)
        shifted = oracles.trig_eval_dense(f, (y - X[0])[:, None])
        oracle = np.exp(1j * (xi[0] * y - 0.5 * xi[0] * X[0])) * shifted
        assert np.abs(out.values - oracle).max() / np.abs(oracle).max() < 1e-12

    def test_identity_element_acts_trivially(self):
        ctx = heis_ctx(8, 6.0)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
        out = wl.pi_action(ctx, np.zeros(3), np.zeros(3), f)
        assert np.abs(out.values - f.values).max() < 1e-12

    def test_pi_is_unitary(self):
        ctx = heis_ctx(8, 6.0)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
        out = wl.pi_action(ctx, np.array([0.4, -0.2, 0.3]), np.array([0.2, -0.3, 0.1]), f)
        assert abs(sp.l2_norm(out) / sp.l2_norm(f) - 1) < 1e-12

    def test_abelian_weyl_system_cocycle(self):
        # pi(X,xi) pi(X',xi') = e^{i(<xi,X'> - <xi',X>)/2} pi(X+X', xi+xi')
        ctx = zero_ctx(AB2, 32, 6.5)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
        X1, xi1 = np.array([0.4, -0.2]), np.array([0.3, 0.25])
        X2, xi2 = np.array([-0.15, 0.35]), np.array([-0.4, 0.2])
        lhs = wl.pi_action(ctx, X1, xi1, wl.pi_action(ctx, X2, xi2, f))
        phase = np.exp(0.5j * (xi1 @ X2 - xi2 @ X1))
        rhs = wl.pi_action(ctx, X1 + X2, xi1 + xi2, f)
        err = np.abs(lhs.values - phase * rhs.values).max() / np.abs(f.values).max()
        assert err < 1e-6

    def test_heisenberg_group_law(self):
        # zero potential, xi = 0: pi is the plain quasi-regular action, so
        # pi(X1) pi(X2) = pi(X1 * X2); interp aliasing dominates the error
        ctx = zero_ctx(HEIS, 16, 6.5)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
        X1 = np.array([0.4, -0.2, 0.3])
        X2 = np.array([-0.15, 0.35, -0.25])
        z = np.zeros(3)
        lhs = wl.pi_action(ctx, X1, z, wl.pi_action(ctx, X2, z, f))
        rhs = wl.pi_action(ctx, lc.bch(HEIS, X1, X2), z, f)
        err = np.abs(lhs.values - rhs.values).max() / np.abs(f.values).max()
        assert err < 1e-3

    def test_rejects_dual_field_and_foreign_grid(self):
        ctx = zero_ctx(AB1, 8, 4.0)
        with pytest.raises(ShapeError):
            wl.pi_action(ctx, np.zeros(1), np.zeros(1),
                         sp.ConfigField(ctx.grid, np.zeros(8), space="gstar"))
        other = sp.ConfigField(sp.make_grid(1, 16, 4.0), np.zeros(16))
        with pytest.raises(ShapeError):
            wl.pi_action(ctx, np.zeros(1), np.zeros(1), other)


class TestDenseOracles:
    """The phase-table evaluators reproduce the dense per-pair mode sums."""

    @staticmethod
    def rel(fast, dense):
        return np.abs(fast - dense).max() / np.abs(dense).max()

    def test_trig_eval_at_translated_grid_heisenberg(self):
        ctx = heis_ctx(8, 6.0)
        f = sp.sample_config(
            lambda Y: np.exp(-(Y ** 2).sum(-1) / 2) * (1 + 0.3 * Y[..., 0]), ctx.grid)
        pts = lc.bch(HEIS, -np.array([0.4, -0.2, 0.3]), wl._grid_points(ctx))
        assert self.rel(wl._trig_eval(f, pts), oracles.trig_eval_dense(f, pts)) < 1e-13

    def test_trig_eval_at_random_points_filiform(self):
        grid = sp.make_grid(4, 4, 3.0)
        rng = np.random.default_rng(5)
        f = sp.ConfigField(grid, rng.normal(size=(4,) * 4)
                           + 1j * rng.normal(size=(4,) * 4))
        pts = rng.uniform(-3.0, 3.0, size=(300, 4))
        assert self.rel(wl._trig_eval(f, pts), oracles.trig_eval_dense(f, pts)) < 1e-13

    def test_general_kernel_filiform_linear_potential(self):
        ctx = filiform_ctx(2)
        a = filiform_symbol(ctx.grid)
        K = wl.kernel_from_symbol(ctx, a)
        assert self.rel(K.values, oracles.kernel_general_dense(ctx, a)) < 1e-13

    def test_general_kernel_filiform_n4_sampled_rows(self):
        # the nonlinear axis summed against the group law on 4^8 pairs; a
        # dense oracle row costs about 0.1 s, so 16 seeded rows
        ctx = filiform_ctx(4)
        a = filiform_symbol(ctx.grid)
        rows = np.random.default_rng(44).choice(4 ** 4, size=16, replace=False)
        K = wl.kernel_from_symbol(ctx, a).values[rows]
        assert self.rel(K, oracles.kernel_general_dense(ctx, a, rows)) < 1e-13

    def test_exact_tie_follows_the_mask_rule(self):
        # pair (0, 4) at N = 2 has |M_4| = L exactly, which the rule keeps;
        # the group law's round-off above L must not drop it
        ctx = filiform_ctx(2)
        a = filiform_symbol(ctx.grid)
        Y, Z = wl._grid_points(ctx)[[0, 4]]
        M = -lc.psi_map(FIL, lc.bch(FIL, Y, -Z), -Y)
        assert abs(abs(M[3]) - ctx.grid.box_half_width) < 1e-14
        K = wl.kernel_from_symbol(ctx, a).values
        dense = oracles.kernel_general_dense(ctx, a, rows=np.array([0]))
        assert K[0, 4] != 0
        assert abs(K[0, 4] - dense[0, 4]) <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("N", [2, 4])
    def test_maps_do_not_follow_the_group_law_round_off(self, N, monkeypatch):
        # the quadrature rounds the midpoints otherwise than the closed form;
        # the masks' slack keeps every tie on the same side
        ctx = filiform_ctx(N)
        a = filiform_symbol(ctx.grid)
        K = wl.kernel_from_symbol(ctx, a)
        back = wl.symbol_from_kernel(ctx, K)
        monkeypatch.setattr(lc, "psi_map", oracles.psi_map_node_loop)
        assert self.rel(wl.kernel_from_symbol(ctx, a).values, K.values) < 1e-13
        assert self.rel(wl.symbol_from_kernel(ctx, K).values, back.values) < 1e-13

    def test_kernel_without_a_regular_axis(self):
        # every axis derived: one slab over all (j_q, k_q) pairs on axis q
        A = random_potential(HEIS_SKEW, np.random.default_rng(45), degree=1)
        ctx = wl.make_context(HEIS_SKEW, A, sp.make_grid(3, 4, 3.0))
        a = boxed_gaussian(ctx.grid, centers_x=[0.2, -0.1, 0.1],
                           centers_xi=[0.1, 0.0, -0.2])
        K = wl.kernel_from_symbol(ctx, a)
        assert self.rel(K.values, oracles.kernel_general_dense(ctx, a)) <= 1e-12

    @pytest.mark.parametrize("alg", [HEIS, HEIS_SKEW, DER2, FIL],
                             ids=["heisenberg3", "heisenberg3-skew", "two-derived", "filiform"])
    def test_group_law_is_bilinear_off_the_nonlinear_axes(self, alg):
        # the assembly reads these axes by index and compiled phases
        rng = np.random.default_rng(46)
        Y, Z = rng.uniform(-3.0, 3.0, size=(2, 1000, alg.dim))
        W = lc.bch(alg, Y, -Z)
        M = -lc.psi_map(alg, W, -Y)
        off = [i for i in range(alg.dim) if i not in wl._axes(alg).nonlinear]
        assert np.abs((W - (Y - Z - lc.bracket(alg, Y, Z) / 2))[:, off]).max() < 1e-12
        assert np.abs((M - (Y + Z) / 2)[:, off]).max() < 1e-12

    @pytest.mark.parametrize("alg, modal", [(HEIS, 0), (DER2, 0), (FIL, 0), (HEIS_SKEW, 3)],
                             ids=["heisenberg3", "two-derived", "filiform", "heisenberg3-skew"])
    def test_shiftable_axes_skip_the_per_pair_phases(self, alg, modal, monkeypatch):
        # a derived axis whose bracket reads regular axes only is read by
        # index after one shift transform per slab; the others off the
        # nonlinear axes keep their compiled per-pair phases
        calls = []
        phase = wl._derived_phase
        monkeypatch.setattr(wl, "_derived_phase", lambda *args: calls.append(1) or phase(*args))
        ctx = zero_ctx(alg, 2, 3.0)
        wl._kernel_structured(ctx, boxed_gaussian(ctx.grid))
        assert len(calls) == modal

    ROLES = {
        "abelian2": (AB2, [], [0, 1], [], []),
        "heisenberg3": (HEIS, [2], [0, 1], [], [2]),
        "heisenberg5": (lc.algebra_preset("heisenberg:5"), [4], [0, 1, 2, 3], [], [4]),
        "filiform": (FIL, [2, 3], [0, 1], [3], [2]),
        "filiform5": (FIL5, [2, 3, 4], [0, 1], [3, 4], [2]),
        "two-derived": (DER2, [3, 4], [0, 1, 2], [], [3, 4]),
        "heisenberg3-skew": (HEIS_SKEW, [0, 1, 2], [], [], []),
        "heisenberg3-tilt": (HEIS_TILT, [0, 2], [1], [], []),
    }

    @pytest.mark.parametrize("alg, derived, regular, nonlinear, shiftable", ROLES.values(),
                             ids=ROLES.keys())
    def test_axis_roles(self, alg, derived, regular, nonlinear, shiftable):
        # derived and nonlinear axes are where brackets and double brackets
        # of generic elements land, above round-off (in the skew basis a
        # double bracket cancels inexactly); a shiftable axis's terms read
        # regular axes only
        axes = wl._axes(alg)
        assert (axes.derived, axes.regular, axes.nonlinear, axes.shiftable) == (
            derived, regular, nonlinear, shiftable)
        cstr = alg.structure_constants
        assert axes.terms == [[(i, j, cstr[i, j, c]) for i, j in zip(*np.nonzero(cstr[:, :, c]))]
                              for c in range(alg.dim)]
        X, Y, Z = np.random.default_rng(48).normal(size=(3, 20, alg.dim))
        B = lc.bracket(alg, X, Y)
        for vals, want in ((B, derived), (lc.bracket(alg, Z, B), nonlinear)):
            assert np.flatnonzero(np.abs(vals).max(axis=0) > 1e-12).tolist() == want

    @staticmethod
    def moyal_pair(ctx, jx, xi):
        """Production and dense direct point for two boxed Gaussians."""
        d = ctx.grid.dim
        a = boxed_gaussian(ctx.grid, centers_x=[0.3] + [0.0] * (d - 1),
                           centers_xi=[0.0] * (d - 1) + [-0.2])
        b = boxed_gaussian(ctx.grid, centers_x=[0.0] * (d - 1) + [-0.25],
                           centers_xi=[0.15] + [0.0] * (d - 1))
        X = ctx.grid.axis_x[jx]
        return (wl.moyal_2step_point(ctx, a, b, X, xi),
                oracles.moyal_point_dense(ctx, a, b, X, xi))

    def test_moyal_point_heisenberg_degree2(self):
        A = random_potential(HEIS, np.random.default_rng(37), degree=2)
        ctx = wl.make_context(HEIS, A, sp.make_grid(3, 8, 6.0))
        got, want = self.moyal_pair(ctx, [3, 5, 4], np.array([0.2, -0.1, 0.3]))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_moyal_point_heisenberg5(self):
        alg = lc.algebra_preset("heisenberg:5")
        c = np.random.default_rng(38).normal(size=5)
        A = mg.make_potential(alg, [np.full((1,) * 5, ci) for ci in c])
        ctx = wl.make_context(alg, A, sp.make_grid(5, 4, 3.0))
        got, want = self.moyal_pair(ctx, [1, 2, 2, 3, 1],
                                    np.array([0.2, -0.1, 0.3, 0.1, -0.2]))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_moyal_point_abelian_landau(self):
        A = mg.potential_preset("landau:0.5", AB2)
        ctx = wl.make_context(AB2, A, sp.make_grid(2, 8, 4.0))
        got, want = self.moyal_pair(ctx, [3, 5], np.array([0.3, -0.2]))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_moyal_point_two_derived_axes(self):
        c = np.random.default_rng(39).normal(size=5)
        A = mg.make_potential(DER2, [np.full((1,) * 5, ci) for ci in c])
        ctx = wl.make_context(DER2, A, sp.make_grid(5, 4, 3.0))
        got, want = self.moyal_pair(ctx, [1, 2, 2, 3, 1],
                                    np.array([0.2, -0.1, 0.3, 0.1, -0.2]))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_moyal_point_without_a_regular_axis(self):
        # every axis derived: the window sub-grids of T and Z are whole
        A = random_potential(HEIS_SKEW, np.random.default_rng(47), degree=1)
        ctx = wl.make_context(HEIS_SKEW, A, sp.make_grid(3, 4, 3.0))
        got, want = self.moyal_pair(ctx, [1, 2, 2], np.array([0.2, -0.1, 0.3]))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_kernel_two_derived_axes(self):
        A = random_potential(DER2, np.random.default_rng(40), degree=1)
        ctx = wl.make_context(DER2, A, sp.make_grid(5, 2, 3.0))
        a = boxed_gaussian(ctx.grid, centers_x=[0.2, -0.1, 0.0, 0.1, 0.0],
                           centers_xi=[0.1, 0.0, -0.2, 0.1, 0.0])
        K = wl.kernel_from_symbol(ctx, a)
        assert self.rel(K.values, oracles.kernel_general_dense(ctx, a)) <= 1e-12

    @staticmethod
    def constant_potential(alg, seed):
        c = np.random.default_rng(seed).normal(size=alg.dim)
        return mg.make_potential(alg, [np.full((1,) * alg.dim, ci) for ci in c])

    @pytest.mark.parametrize("case", ["heisenberg3-N8", "heisenberg5-N4",
                                      "two-derived-N4", "abelian2-N8"])
    def test_half_step_shifts_match_upsampling(self, case):
        alg5 = lc.algebra_preset("heisenberg:5")
        ctx = {
            "heisenberg3-N8": lambda: heis_ctx(8, 6.0),
            "heisenberg5-N4": lambda: wl.make_context(
                alg5, self.constant_potential(alg5, 41), sp.make_grid(5, 4, 3.0)),
            "two-derived-N4": lambda: wl.make_context(
                DER2, self.constant_potential(DER2, 42), sp.make_grid(5, 4, 3.0)),
            "abelian2-N8": lambda: wl.make_context(
                AB2, mg.potential_preset("landau:0.5", AB2), sp.make_grid(2, 8, 4.0)),
        }[case]()
        d = ctx.grid.dim
        a = boxed_gaussian(ctx.grid, centers_x=[0.3] + [0.0] * (d - 1),
                           centers_xi=[0.0] * (d - 1) + [-0.2])
        K = wl._kernel_structured(ctx, a)
        assert self.rel(K, oracles.kernel_twostep_upsampled(ctx, a)) <= 1e-13
        # a kernel off the range of the forward map exercises every table entry
        rng = np.random.default_rng(43)
        M = K + 0.1 * np.abs(K).max() * (rng.normal(size=K.shape)
                                         + 1j * rng.normal(size=K.shape))
        assert self.rel(wl._twostep_adjoint(ctx, M),
                        oracles.symbol_adjoint_upsampled(ctx, M)) <= 1e-13

    @pytest.mark.parametrize("case", ["heisenberg3-N8", "heisenberg5-N4", "two-derived-N4",
                                      "abelian2-N8"])
    def test_fold_free_inverse_matches_folded(self, case):
        alg, N, L = {
            "heisenberg3-N8": (HEIS, 8, 6.0),
            "heisenberg5-N4": (lc.algebra_preset("heisenberg:5"), 4, 3.0),
            "two-derived-N4": (DER2, 4, 3.0),
            "abelian2-N8": (AB2, 8, 4.0),
        }[case]
        ctx = zero_ctx(alg, N, L)
        d = alg.dim
        der = wl._axes(alg).derived
        # a random table, off the range of the forward map, with the
        # doubled windows on the derived axes
        shape = (N,) * d + tuple(2 * N if i in der else N for i in range(d))
        rng = np.random.default_rng(44)
        bbar = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = oracles.midpoint_table_to_symbol_folded(ctx, bbar)
        # the adjoint folds each doubled window mod N at its gather: cell w of
        # the N-point window sums the doubled window's w and w -+ N
        table = bbar
        for ax in (d + c for c in der):
            rolled = np.roll(table, -(N // 2), axis=ax)
            table = rolled.reshape(rolled.shape[:ax] + (2, N) + rolled.shape[ax + 1:]).sum(axis=ax)
        # it takes the table in FFT order, every axis half-swapped
        got = wl._midpoint_table_to_symbol(ctx, sp._half_swap(table, range(2 * d)))
        if der:
            assert self.rel(got, want) <= 1e-15
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_derived_phase_matches_dense(self, seed):
        rng = np.random.default_rng([42, seed])
        d, N, L = 4, 6, 3.0
        grid = sp.make_grid(d, N, L)
        x, zeta = grid.axis_x, wl._fine_dual_axis(grid)
        # random structure-constant-like coefficients, about half of them zero
        lin_p, lin_q, bil = (rng.normal(size=shape) * (rng.random(shape) < 0.5)
                             for shape in (d, d, (d, d)))
        const = rng.normal()
        # P as flat rows, Q as a tensor layout over two axes, the rest fixed
        p_idx = list(rng.integers(0, N, size=(d, 7)).reshape(d, 7, 1, 1))
        q_idx = [3, np.arange(N).reshape(1, N, 1), 0, np.arange(N).reshape(1, 1, N)]
        P = np.stack(np.broadcast_arrays(*[x[i] for i in p_idx]), axis=-1)
        Q = np.stack(np.broadcast_arrays(*[x[i] for i in q_idx]), axis=-1)
        PB, QB = np.broadcast_arrays(P, Q)
        w = const + P @ lin_p + Q @ lin_q + np.einsum('...i,ij,...j->...', PB, bil, QB)
        bound = np.median(np.abs(w))
        want = np.exp(1j * np.multiply.outer(w, zeta))
        want[np.abs(w) >= bound] = 0.0
        got = wl._derived_phase(x, zeta, bound, const, lin_p, lin_q, bil)(p_idx, q_idx)
        got = np.broadcast_to(got, want.shape)
        assert np.count_nonzero(want) and not np.all(want)
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (4, 2, 3), (2, 3, 2, 4, 2, 3, 2, 2)],
                             ids=["nd1", "nd2", "nd3", "nd8"])
    def test_corner_gather_matches_corner_loop(self, shape):
        nd = len(shape)
        rng = np.random.default_rng([47, nd])
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # three rows of a block and a point each: four blocks
        rows = (wl._PAIR_BUDGET // 8 >> nd) + 1
        n = np.array(shape)
        u = rng.random((3, rows, nd))
        # per axis a cell inside the grid, a node (t = 0), the boundary
        # cells (base -1 and n - 1), and cells wholly off the grid on
        # either side (base <= -2 and base >= n)
        cells = [u * (n - 1), np.floor(u * n), u - 1, n - 1 + u, -2 - 3 * u, n + 3 * u]
        kind = rng.choice(len(cells), size=u.shape, p=[0.4, 0.2, 0.1, 0.1, 0.1, 0.1])
        frac = np.choose(kind, cells)
        # the library reads coordinates: index = x / step + origin
        step, origin = 0.25, 3
        x = (frac - origin) * step
        parts = (x,) if nd == 1 else (x[..., :nd // 2], x[..., nd // 2:])
        got = wl._multilinear(tensor, parts, step, origin)
        want = oracles.multilinear_corner_loop(tensor, x / step + origin)
        assert got.shape == (3, rows)
        assert np.count_nonzero(want == 0) and np.count_nonzero(want)
        assert np.array_equal(got, want)
        # a block and one point (a one-point final block), and a lone point
        for n in (rows, 1):
            part = tuple(p.reshape(-1, p.shape[-1])[:n] for p in parts)
            assert np.array_equal(wl._multilinear(tensor, part, step, origin), want.ravel()[:n])


class ExpCounter:
    """Stands in for a module's numpy: counts the entries passed to np.exp."""

    def __init__(self):
        self.count = 0

    def exp(self, x, *args, **kwargs):
        self.count += np.size(x)
        return np.exp(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


class TestExponentialCounts:
    """The class <= 1 evaluators build their derived-axis phases from small
    tables; one exponential per (pair, mode) would exceed these bounds."""

    def setup_method(self):
        self.ctx = heis_ctx(8, 6.0)
        self.pairs = 8 ** 6
        self.a = boxed_gaussian(self.ctx.grid, centers_x=[0.3, 0.0, -0.2])
        self.b = boxed_gaussian(self.ctx.grid, centers_xi=[0.1, -0.2, 0.0])

    def test_twostep_kernel(self, monkeypatch):
        counter = ExpCounter()
        monkeypatch.setattr(wl, "np", counter)
        wl._kernel_structured(self.ctx, self.a)
        assert 0 < counter.count < self.pairs

    def test_structured_kernel_filiform(self, monkeypatch):
        # the nonlinear axis forms 2N + N exponentials per pair; the dense
        # mode sum over all axes forms 48 per pair here
        ctx = filiform_ctx(4)
        a = filiform_symbol(ctx.grid)
        counter = ExpCounter()
        monkeypatch.setattr(wl, "np", counter)
        wl._kernel_structured(ctx, a)
        assert 0 < counter.count < 16 * 4 ** 8

    def test_direct_moyal_point(self, monkeypatch):
        counter = ExpCounter()
        monkeypatch.setattr(wl, "np", counter)
        X = self.ctx.grid.axis_x[[3, 5, 4]]
        wl.moyal_2step_point(self.ctx, self.a, self.b, X, np.array([0.2, -0.1, 0.3]))
        # beta is formed on the window pairs only, 1/16 of all pairs at N = 8
        assert 0 < counter.count < self.pairs // 4


class TransformWork:
    """Stands in for centered_dft in weyl_calculus: sums values.size *
    len(axes) over calls."""

    def __init__(self, monkeypatch):
        self.work = 0
        self.calls = 0
        monkeypatch.setattr(wl, "centered_dft", self.count)

    def count(self, values, axes, inverse=False, in_place=False, fft_order=False):
        self.work += np.size(values) * len(axes)
        self.calls += 1
        return sp.centered_dft(values, axes, inverse, in_place, fft_order)


class TestTransformWork:
    """The class <= 1 assembly and its adjoint shift the regular axes by half
    a step with N-point transforms, and the assembly upsamples only the
    derived ones; upsampling every axis, the round trip did 1.23e7 and
    1.28e7 units of work here. The adjoint folds each doubled derived window
    mod N at its gather, so every transform runs over N^{2d} entries and
    each difference axis is transformed once, on N points: 2.36e6 in all,
    7.9e5 of them in the last step (4.19e6 and 1.05e6 with the doubled
    windows, 1.84e6 in the last step with a 2N-point inverse and a fold per
    derived axis). The direct Moyal point transforms its tables on the
    window rows only; on every row of the grid they took 2.62e6."""

    def setup_method(self):
        self.ctx = heis_ctx(8, 6.0)
        self.a = boxed_gaussian(self.ctx.grid, centers_x=[0.3, 0.0, -0.2])

    def test_twostep_kernel(self, monkeypatch):
        work = TransformWork(monkeypatch)
        wl._kernel_structured(self.ctx, self.a)
        assert 0 < work.work < 8e6

    def test_twostep_adjoint(self, monkeypatch):
        K = wl._kernel_structured(self.ctx, self.a)
        work = TransformWork(monkeypatch)
        wl._twostep_adjoint(self.ctx, K)
        assert 0 < work.work < 3e6

    def test_midpoint_table_to_symbol(self, monkeypatch):
        bbar = np.ones((8,) * 6, dtype=complex)
        work = TransformWork(monkeypatch)
        wl._midpoint_table_to_symbol(self.ctx, bbar)
        assert 0 < work.work < 8e5

    def test_direct_moyal_point(self, monkeypatch):
        # at this probe the windows keep 4 of 8 rows on each regular axis
        b = boxed_gaussian(self.ctx.grid, centers_xi=[0.1, -0.2, 0.0])
        work = TransformWork(monkeypatch)
        wl.moyal_2step_point(self.ctx, self.a, b, self.ctx.grid.axis_x[[3, 5, 4]],
                             np.array([0.2, -0.1, 0.3]))
        assert 0 < work.work < 1e6

    def test_every_fft_runs_in_centered_dft(self, monkeypatch):
        # each centered_dft call runs one fftn or ifftn, so an FFT reached by
        # another route would be missed here and by the benchmark's tracer
        ffts = []

        def counted(fft):
            def call(*args, **kwargs):
                ffts.append(fft.__name__)
                return fft(*args, **kwargs)
            return call

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        work = TransformWork(monkeypatch)
        b = boxed_gaussian(self.ctx.grid, centers_xi=[0.1, -0.2, 0.0])
        wl.symbol_from_kernel(self.ctx, wl.kernel_from_symbol(self.ctx, self.a))
        wl.moyal_2step_point(self.ctx, self.a, b, self.ctx.grid.axis_x[[3, 5, 4]],
                             np.array([0.2, -0.1, 0.3]))
        fctx = filiform_ctx(2)
        wl.symbol_from_kernel(fctx, wl.kernel_from_symbol(fctx, filiform_symbol(fctx.grid)))
        assert work.calls == len(ffts) > 0


class SwapCount:
    """Stands in for the half swaps of symbol_space and weyl_calculus:
    counts the calls of _half_swap and of _half_swap_in_place."""

    def __init__(self, monkeypatch):
        self.calls = {"_half_swap": 0, "_half_swap_in_place": 0}
        for name in self.calls:
            counted = self.counter(name, getattr(sp, name))
            monkeypatch.setattr(sp, name, counted)
            monkeypatch.setattr(wl, name, counted)

    def counter(self, name, fn):
        def call(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return call


class TestFftOrder:
    """The kernel maps keep their tables in FFT order between transforms:
    the symbol is swapped once on entry and the adjoint's symbol once on
    exit, and only small tables move in between. Centred in and out at
    every transform, one Heisenberg:3 N = 8 op took 52 swaps per kernel, 8
    per inverse and 8 per direct point."""

    def test_swaps_per_map(self, monkeypatch):
        ctx = heis_ctx(8, 6.0)
        a = boxed_gaussian(ctx.grid, centers_x=[0.3, 0.0, -0.2])
        b = boxed_gaussian(ctx.grid, centers_xi=[0.1, -0.2, 0.0])
        K = wl.kernel_from_symbol(ctx, a)
        counts = {}
        for name, call in (
                ("kernel", lambda: wl.kernel_from_symbol(ctx, a)),
                ("inverse", lambda: wl.symbol_from_kernel(ctx, K)),
                ("point", lambda: wl.moyal_2step_point(ctx, a, b, ctx.grid.axis_x[[3, 5, 4]],
                                                       np.array([0.2, -0.1, 0.3])))):
            with monkeypatch.context() as patch:
                swaps = SwapCount(patch)
                call()
            counts[name] = swaps.calls
        assert counts["kernel"]["_half_swap"] <= 1
        assert counts["inverse"]["_half_swap"] == 0
        assert counts["inverse"]["_half_swap_in_place"] <= 2
        assert counts["point"]["_half_swap"] <= 4

    @pytest.mark.parametrize("axes", [[0], [2], [1, 3], [0, 1, 2, 3]])
    def test_pad_is_the_centred_pad_in_fft_order(self, axes):
        rng = np.random.default_rng(53)
        v = rng.normal(size=(4, 2, 6, 8)) + 1j * rng.normal(size=(4, 2, 6, 8))
        for table in (v, np.transpose(v, (2, 0, 3, 1))):
            # the centred pad moves index j to j + n/2 of 2n
            centred = np.pad(sp._half_swap(table, axes),
                             [(n // 2, n // 2) if ax in axes else (0, 0)
                              for ax, n in enumerate(table.shape)])
            want = sp._half_swap(centred, axes)
            got = wl._pad_fft_order(table, axes)
            assert got.flags.c_contiguous and np.array_equal(got, want)


class TestWorkBudget:
    """kernel_from_symbol and symbol_from_kernel check their working memory
    against the budget before they allocate it; the inverses' estimates
    (`_adjoint_bytes`, `_interp_bytes`) cover their measured peaks."""

    @staticmethod
    def record_estimates(monkeypatch):
        estimates = []
        check = wl._check_work_bytes

        def record(nbytes):
            estimates.append(nbytes)
            check(nbytes)

        monkeypatch.setattr(wl, "_check_work_bytes", record)
        return estimates

    def test_assembly_and_adjoint_refuse_beyond_the_budget(self, monkeypatch):
        ctx = heis_ctx(8, 6.0)
        a = boxed_gaussian(ctx.grid)
        K = wl.kernel_from_symbol(ctx, a)
        fctx = filiform_ctx(4)
        fa = filiform_symbol(fctx.grid)
        fK = wl.kernel_from_symbol(fctx, fa)
        # filiform3:4 has no adjoint; its inverse interpolates
        runs = (lambda: wl._kernel_structured(ctx, a),
                lambda: wl.symbol_from_kernel(ctx, K),
                lambda: wl._kernel_structured(fctx, fa),
                lambda: wl.symbol_from_kernel(fctx, fK))
        estimates = self.record_estimates(monkeypatch)
        for run in runs:
            run()
        assert len(estimates) == 4
        for est, run in zip(estimates, runs):
            monkeypatch.setattr(wl, "_MAX_WORK_BYTES", est * (1 - 1e-9))
            with pytest.raises(ShapeError):
                run()

    def peak_and_estimates(self, monkeypatch, run):
        """The tracemalloc peak of run() and the estimates it checked."""
        estimates = self.record_estimates(monkeypatch)
        # numpy imports its FFT module on first use; that is not working memory
        sp.centered_dft(np.zeros(2), [0])
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, estimates

    @pytest.mark.parametrize("case", ["8", "12", "abelian1-N64", "two-derived-N4",
                                      "heisenberg3-skew-N6", "filiform-N4", "filiform-N2"])
    def test_structured_assembly_peak_within_its_estimate(self, case, monkeypatch):
        # every assembly shape: Heisenberg:3 at N = 8 and 12 (slabs with a
        # shiftable axis), the one-dimensional group, two shiftable axes, no
        # regular axis (modal axes, one slab), and a nonlinear axis; the
        # one-dimensional group and filiform3:4 at N = 2 build all their
        # slabs as one table
        ctx = {"8": lambda: heis_ctx(8, 6.0),
               "12": lambda: heis_ctx(12, 6.0),
               "abelian1-N64": lambda: zero_ctx(AB1, 64, 6.0),
               "two-derived-N4": lambda: zero_ctx(DER2, 4, 3.0),
               "heisenberg3-skew-N6": lambda: zero_ctx(HEIS_SKEW, 6, 3.0),
               "filiform-N4": lambda: filiform_ctx(4),
               "filiform-N2": lambda: filiform_ctx(2)}[case]()
        a = boxed_gaussian(ctx.grid)
        peak, estimates = self.peak_and_estimates(monkeypatch,
                                                  lambda: wl._kernel_structured(ctx, a))
        assert len(estimates) == 1
        assert peak <= estimates[0]

    @pytest.mark.parametrize("N", [8, 12])
    @pytest.mark.parametrize("function", ["_twostep_adjoint", "symbol_from_kernel"])
    def test_class1_inverse_peak_within_its_estimate(self, function, N, monkeypatch):
        # the adjoint alone against `_adjoint_bytes`, and symbol_from_kernel
        # on a fresh context, which builds alpha and hands the dealphaed
        # kernel over to the adjoint, against the estimate it checks
        ctx = heis_ctx(N, 6.0)
        a = boxed_gaussian(ctx.grid)
        if function == "symbol_from_kernel":
            K, fresh = wl.kernel_from_symbol(ctx, a), heis_ctx(N, 6.0)
            peak, estimates = self.peak_and_estimates(
                monkeypatch, lambda: wl.symbol_from_kernel(fresh, K))
        else:
            M = wl._kernel_structured(ctx, a)
            peak, estimates = self.peak_and_estimates(monkeypatch,
                                                      lambda: wl._twostep_adjoint(ctx, M))
            estimates.append(wl._adjoint_bytes(ctx.grid))
        print(f"PEAK {function} N={N} peak={peak} estimate={estimates[0]}")
        assert len(estimates) == 1
        assert peak <= estimates[0]

    def test_adjoint_estimate_counts_the_gather_buffers(self, monkeypatch):
        # at N = 2 a gather step's strided add can buffer three operands of
        # one diagonal each, 1.5 tables beside its two: heisenberg:7 peaked
        # at 3.52 tables with numpy 2.4, above a count of three tables
        ctx = zero_ctx(lc.algebra_preset("heisenberg:7"), 2, 3.0)
        M = wl._kernel_structured(ctx, boxed_gaussian(ctx.grid))
        peak, _ = self.peak_and_estimates(monkeypatch, lambda: wl._twostep_adjoint(ctx, M))
        assert peak <= wl._adjoint_bytes(ctx.grid)

    @pytest.mark.parametrize("N", [8, 12])
    def test_kernel_from_symbol_peak_within_its_estimate(self, N, monkeypatch):
        # on a fresh context: the assembly, then alpha's build beside the
        # kernel, under the one estimate the assembly checks
        ctx = heis_ctx(N, 6.0)
        a = boxed_gaussian(ctx.grid)
        peak, estimates = self.peak_and_estimates(monkeypatch,
                                                  lambda: wl.kernel_from_symbol(ctx, a))
        print(f"PEAK kernel_from_symbol N={N} peak={peak} estimate={estimates[0]}")
        assert len(estimates) == 1
        assert peak <= estimates[0]

    @pytest.mark.parametrize("function", ["kernel_from_symbol", "symbol_from_kernel"])
    def test_refusal_comes_before_the_tables(self, function, monkeypatch):
        # a budget of one kernel table refuses Heisenberg:3 at N = 8; the entry
        # points raise before they allocate as much as one table
        ctx = heis_ctx(8, 6.0)
        a = boxed_gaussian(ctx.grid)
        K, fresh = wl.kernel_from_symbol(ctx, a), heis_ctx(8, 6.0)
        run = {"kernel_from_symbol": lambda: wl.kernel_from_symbol(fresh, a),
               "symbol_from_kernel": lambda: wl.symbol_from_kernel(fresh, K)}[function]
        table = K.values.nbytes
        monkeypatch.setattr(wl, "_MAX_WORK_BYTES", table)
        sp.centered_dft(np.zeros(2), [0])
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table
        assert "alpha" not in fresh._cache

    def test_concurrent_slab_builds_fit_the_budget(self, monkeypatch):
        # a budget that fits two concurrent slab builds but not three: four threads
        # run two at a time, with the values of one thread
        ctx = {t: heis_ctx(8, 6.0, threads=t) for t in (1, 2, 3, 4)}
        a = boxed_gaussian(ctx[1].grid)
        K1 = wl._kernel_structured(ctx[1], a)
        estimates = self.record_estimates(monkeypatch)
        for t in (2, 3):
            wl._kernel_structured(ctx[t], a)
        two, three = estimates
        assert two < three
        monkeypatch.setattr(wl, "_MAX_WORK_BYTES", two)
        estimates.clear()
        assert np.array_equal(wl._kernel_structured(ctx[4], a), K1)
        assert estimates == [two]

    @pytest.mark.parametrize("N", [2, 4])
    def test_interpolating_inverse_peak_within_its_estimate(self, N, monkeypatch):
        fctx = filiform_ctx(N)
        fK = wl._kernel_structured(fctx, filiform_symbol(fctx.grid))
        peak, estimates = self.peak_and_estimates(monkeypatch,
                                                  lambda: wl._interp_inverse(fctx, fK))
        assert estimates == []
        assert peak <= wl._interp_bytes(fctx.grid)


class TestBatchedBits:
    """Batching changes no output bit. The nodes of a Gauss-Legendre rule on
    few points share one group-law call, the components of a potential share
    one power table, and the assembly builds consecutive slabs as one table;
    each matches its one-at-a-time form (tests/oracles.py, or the assembly
    with one slab per table) with np.array_equal, shape and layout."""

    PRESETS = ["abelian:1", "abelian:2", "heisenberg:3", "heisenberg:5", "filiform3:4"]

    @staticmethod
    def same(got, want):
        assert got.shape == want.shape
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(got, want)

    @staticmethod
    def dense_potential(alg, rng, degree):
        """Every monomial of total degree <= degree, in every component."""
        d = alg.dim
        tables = [np.zeros((degree + 1,) * d) for _ in range(d)]
        for t in tables:
            for exps in np.ndindex(t.shape):
                if sum(exps) <= degree:
                    t[exps] = rng.normal(scale=0.3)
        return mg.make_potential(alg, tables)

    def potentials(self, name, alg):
        rng = np.random.default_rng([48, alg.dim])
        out = [self.dense_potential(alg, rng, deg) for deg in range(4)]
        if name == "heisenberg:3":
            # heis-moyal's gauge partner: A + d psi, psi = c0 x1^2 x2 + c1 x3^2
            table = np.zeros((3, 2, 3))
            table[2, 1, 0], table[0, 0, 2] = 0.1, 0.05
            dpsi = mg.gradient_potential(mg.GaugeFunction(alg, table))
            out.append(mg.add_potentials(mg.potential_preset("heisenberg-linear:0.4", alg), dpsi))
        return out

    @staticmethod
    def point_counts(nodes):
        # a lone point, the most points that batch every node, one more (the
        # nodes split into smaller batches), and past the bound (one node a call)
        bound = lc._PAIR_BUDGET // 8
        return [1, bound // nodes, bound // nodes + 1, bound + 1]

    @pytest.mark.parametrize("name", PRESETS)
    def test_alpha_exponent_and_potential(self, name):
        alg = lc.algebra_preset(name)
        rng = np.random.default_rng([49, alg.dim])
        for A in self.potentials(name, alg):
            for n in self.point_counts(mg._alpha_nodes(A)):
                Y, Z = rng.normal(size=(2, n, alg.dim))
                self.same(mg.evaluate_potential(A, Y),
                          oracles.evaluate_potential_per_component(A, Y))
                self.same(mg.alpha_exponent(A, Y, Z), oracles.alpha_exponent_node_loop(A, Y, Z))
            # the pair layout of the phase tables: rows of Y against all of Z
            Y, Z = rng.normal(size=(7, 1, alg.dim)), rng.normal(size=(1, 9, alg.dim))
            self.same(mg.alpha_exponent(A, Y, Z), oracles.alpha_exponent_node_loop(A, Y, Z))

    @pytest.mark.parametrize("name, N, degree", [
        ("abelian:1", 64, 3), ("abelian:2", 96, 1), ("heisenberg:3", 8, 2),
        ("heisenberg:3", 18, 1), ("heisenberg:5", 4, 1), ("filiform3:4", 4, 1)])
    def test_pi_action(self, name, N, degree):
        # N^d points: all nodes in one call, two calls (heisenberg:3 N = 18),
        # or one node a call (abelian:2 N = 96)
        alg = lc.algebra_preset(name)
        rng = np.random.default_rng([51, alg.dim, N])
        A = self.dense_potential(alg, rng, degree)
        ctx = wl.make_context(alg, A, sp.make_grid(alg.dim, N, 3.0))
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1)), ctx.grid)
        X, xi = 0.3 * rng.normal(size=(2, alg.dim))
        self.same(wl.pi_action(ctx, X, xi, f).values, oracles.pi_action_node_loop(ctx, X, xi, f))

    @pytest.mark.parametrize("case, batched", [
        ("abelian1-N32", True), ("abelian1-N64", True), ("heisenberg3-N4", True),
        ("heisenberg3-N8", False), ("heisenberg5-N2", True), ("two-derived-N4", False),
        ("filiform-N2", True), ("filiform-N4", False)])
    def test_slab_tables(self, case, batched, monkeypatch):
        # a pair budget of one forces one slab per table (and one pair per block)
        ctx = {"abelian1-N32": lambda: zero_ctx(AB1, 32, 6.0),
               "abelian1-N64": lambda: zero_ctx(AB1, 64, 6.0),
               "heisenberg3-N4": lambda: heis_ctx(4, 3.0),
               "heisenberg3-N8": lambda: heis_ctx(8, 6.0),
               "heisenberg5-N2": lambda: zero_ctx(lc.algebra_preset("heisenberg:5"), 2, 3.0),
               "two-derived-N4": lambda: zero_ctx(DER2, 4, 3.0),
               "filiform-N2": lambda: filiform_ctx(2),
               "filiform-N4": lambda: filiform_ctx(4)}[case]()
        rng = np.random.default_rng(52)
        shape = (ctx.grid.points_per_axis,) * (2 * ctx.grid.dim)
        a = sp.SymbolField(ctx.grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        calls = []
        for budget in (wl._PAIR_BUDGET, 1):
            work = TransformWork(monkeypatch)
            monkeypatch.setattr(wl, "_PAIR_BUDGET", budget)
            calls.append((wl._kernel_structured(ctx, a), work.calls))
        (got, batch_calls), (want, slab_calls) = calls
        self.same(got, want)
        # one table for several slabs makes fewer transform calls
        assert (batch_calls < slab_calls) == batched


class TestCompiledPhases:
    """alpha and beta compiled on the node sub-grid match the pairwise quadrature."""

    @staticmethod
    def exponent_gap(ctx, rows=None):
        """max |production exponent - quadrature exponent| / max(1, max |e|)."""
        e = oracles.alpha_exponent_dense(ctx, rows)
        got = wl._alpha_matrix(ctx)
        got = got if rows is None else got[rows]
        return np.abs(np.angle(got * np.exp(-1j * e))).max() / max(1.0, np.abs(e).max())

    def test_heisenberg_linear_n8(self):
        assert self.exponent_gap(heis_ctx(8, 6.0)) <= 1e-13

    def test_heisenberg_linear_n12_sampled(self):
        rows = np.random.default_rng(31).choice(12 ** 3, size=40, replace=False)
        assert self.exponent_gap(heis_ctx(12, 6.0), rows) <= 1e-13

    def test_heisenberg_random_degree2_n8(self):
        A = random_potential(HEIS, np.random.default_rng(32), degree=2)
        assert A.degree == 2 and mg.alpha_degree(A) + 1 < 8
        ctx = wl.make_context(HEIS, A, sp.make_grid(3, 8, 6.0))
        assert self.exponent_gap(ctx) <= 1e-13

    def test_heisenberg5_constant_potential(self):
        # degree bound 2, so 3 of the 4 nodes per axis carry the quadrature
        alg = lc.algebra_preset("heisenberg:5")
        c = np.random.default_rng(33).normal(size=5)
        A = mg.make_potential(alg, [np.full((1,) * 5, ci) for ci in c])
        ctx = wl.make_context(alg, A, sp.make_grid(5, 4, 3.0))
        rows = np.random.default_rng(34).choice(4 ** 5, size=64, replace=False)
        assert self.exponent_gap(ctx, rows) <= 1e-13

    def test_abelian_landau(self):
        A = mg.potential_preset("landau:0.5", AB2)
        ctx = wl.make_context(AB2, A, sp.make_grid(2, 8, 4.0))
        assert self.exponent_gap(ctx) <= 1e-13

    def test_full_node_set_is_bitwise_the_quadrature(self):
        # filiform3:4, linear potential: degree bound 6 >= N - 1, so m = N
        A = random_potential(FIL, np.random.default_rng(35), degree=1)
        ctx = wl.make_context(FIL, A, sp.make_grid(4, 4, 3.0))
        assert np.array_equal(wl._alpha_matrix(ctx), oracles.alpha_matrix_dense(ctx))

    def test_moyal_point_matches_dense_beta(self, monkeypatch):
        A = random_potential(HEIS, np.random.default_rng(36), degree=2)
        ctx = wl.make_context(HEIS, A, sp.make_grid(3, 8, 6.0))
        p = np.array([3, 4, 5])
        X = ctx.grid.axis_x[p]
        # the (T, Z) window pairs the direct point reads: 2 (X - T) and
        # 2 (Z - X) inside |.| < L on the regular axes
        idx = np.arange(8)
        t_axes = [idx[(2 * (p[ax] - idx) >= -4) & (2 * (p[ax] - idx) < 4)] for ax in (0, 1)]
        z_axes = [idx[(2 * (idx - p[ax]) >= -4) & (2 * (idx - p[ax]) < 4)] for ax in (0, 1)]
        t_axes.append(idx)
        z_axes.append(idx)
        got = wl._moyal_beta(ctx, X, t_axes, z_axes)
        assert got.shape == (4 * 4 * 8, 4 * 4 * 8)
        gap = np.abs(got - oracles.moyal_beta_dense(ctx, X, t_axes, z_axes)).max()
        assert gap <= 1e-12
        a = boxed_gaussian(ctx.grid, centers_x=[0.3, 0.0, 0.0],
                           centers_xi=[0.0, 0.0, -0.2])
        b = boxed_gaussian(ctx.grid, centers_x=[0.0, 0.0, -0.25],
                           centers_xi=[0.15, 0.0, 0.0])
        xi = np.array([0.2, -0.1, 0.3])
        got = wl.moyal_2step_point(ctx, a, b, X, xi)
        monkeypatch.setattr(wl, "_moyal_beta", oracles.moyal_beta_dense)
        want = wl.moyal_2step_point(ctx, a, b, X, xi)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_production_paths_skip_the_pointwise_phase(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("alpha_phase called")

        monkeypatch.setattr(mg, "alpha_phase", refuse)
        ctx = heis_ctx(4, 3.0)
        a = boxed_gaussian(ctx.grid)
        wl.symbol_from_kernel(ctx, wl.kernel_from_symbol(ctx, a))
        wl.moyal_2step_point(ctx, a, a, np.zeros(3), np.zeros(3))


class TestDerivativeCheck:
    def test_heisenberg_generator(self):
        ctx = heis_ctx(16, 6.5)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
        error, ratio_gap = wl.magnetic_derivative_check(
            ctx, np.array([0.5, -0.3, 0.4]), f, tau=1e-3)
        assert error["value"] < 1e-5
        assert ratio_gap["value"] < 0.5

    def test_abelian_landau_generator(self):
        grid = sp.make_grid(2, 32, 6.5)
        A = mg.potential_preset("landau:0.5", AB2)
        ctx = wl.make_context(AB2, A, grid)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), grid)
        error, ratio_gap = wl.magnetic_derivative_check(
            ctx, np.array([0.4, 0.7]), f, tau=1e-3)
        assert error["value"] < 1e-5
        assert ratio_gap["value"] < 0.5

    def test_second_order_convergence(self):
        # the fitted order of the central difference at steps large enough
        # that round-off stays far below the truncation error
        ctx = heis_ctx(12, 6.0)
        f = sp.sample_config(lambda Y: np.exp(-(Y ** 2).sum(-1) / 2), ctx.grid)
        taus = [0.2, 0.1, 0.05]
        errors = [wl.magnetic_derivative_check(ctx, np.array([0.5, -0.3, 0.4]), f, tau)[0]
                  ["value"] for tau in taus]
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        assert abs(slope - 2.0) < 0.05


class TestGaugeCovariance:
    def test_heisenberg_gradient_shift(self):
        ctx = heis_ctx(8, 6.0)
        table = np.zeros((3, 2, 3))
        table[2, 1, 0] = 0.1  # psi = 0.1 x1^2 x2 + 0.05 x3^2
        table[0, 0, 2] = 0.05
        psi = mg.GaugeFunction(HEIS, table)
        A1 = mg.add_potentials(ctx.potential, mg.gradient_potential(psi))
        rep = wl.gauge_covariance_check(ctx, A1, boxed_gaussian(ctx.grid))
        assert rep["value"] < 1e-12

    def test_landau_vs_symmetric(self):
        grid = sp.make_grid(2, 16, 6.0)
        AL = mg.potential_preset("landau:0.5", AB2)
        tables = [np.zeros((2, 2)), np.zeros((2, 2))]
        tables[0][0, 1] = -0.25  # symmetric gauge (b/2)(-x2, x1)
        tables[1][1, 0] = 0.25
        Asym = mg.make_potential(AB2, tables)
        ctx = wl.make_context(AB2, AL, grid)
        rep = wl.gauge_covariance_check(ctx, Asym, boxed_gaussian(grid))
        assert rep["value"] < 1e-12

    def test_different_fields_rejected(self):
        grid = sp.make_grid(2, 8, 4.0)
        ctx = wl.make_context(AB2, mg.potential_preset("landau:0.5", AB2), grid)
        with pytest.raises(FieldsDiffer):
            wl.gauge_covariance_check(ctx, mg.potential_preset("landau:0.7", AB2),
                                      boxed_gaussian(grid))


def moyal_gaussian_oracle(muA, muB):
    """Closed form for e^{-|w-muA|^2} # e^{-|w-muB|^2} at zero field, d=1.

    (a#b)(w) = (1/2) e^{-(|P|^2+|Q|^2)/2} e^{-i sigma(P,Q)} with P = muA - w,
    Q = muB - w, sigma((x,xi),(y,eta)) = xi y - x eta; the width makes
    2 e^{-|w|^2} an idempotent.
    """
    def val(x, xi):
        P = muA - np.array([x, xi])
        Q = muB - np.array([x, xi])
        sig = P[1] * Q[0] - P[0] * Q[1]
        return 0.5 * np.exp(-(P @ P + Q @ Q) / 2) * np.exp(-1j * sig)
    return val


class TestMoyalProduct:
    def setup_method(self):
        self.ctx = zero_ctx(AB1, 64, 6.5)
        self.muA = np.array([0.4, -0.3])
        self.muB = np.array([-0.2, 0.5])
        self.a = self._gauss(self.muA)
        self.b = self._gauss(self.muB)

    def _gauss(self, mu):
        return sp.sample_symbol(
            lambda X, Xi: np.exp(-(X[..., 0] - mu[0]) ** 2 - (Xi[..., 0] - mu[1]) ** 2),
            self.ctx.grid)

    def test_kernel_route_matches_closed_form(self):
        ab = wl.moyal_product(self.ctx, self.a, self.b)
        oracle = moyal_gaussian_oracle(self.muA, self.muB)
        g = self.ctx.grid
        truth = np.array([[oracle(x, xi) for xi in g.axis_xi] for x in g.axis_x])
        err = np.abs(ab.values - truth).max() / np.abs(truth).max()
        assert err < 5e-4

    def test_direct_points_match_closed_form(self):
        oracle = moyal_gaussian_oracle(self.muA, self.muB)
        xs = self.ctx.grid.axis_x
        sup = 0.5  # the oracle's maximum modulus scale
        for ix, xi in [(32, 0.0), (36, -0.7), (28, 1.3), (40, 0.25)]:
            v = wl.moyal_2step_point(self.ctx, self.a, self.b,
                                     np.array([xs[ix]]), np.array([xi]))
            assert abs(v - oracle(xs[ix], xi)) / sup < 1e-5

    def test_idempotent_gaussian(self):
        p = sp.sample_symbol(
            lambda X, Xi: 2.0 * np.exp(-X[..., 0] ** 2 - Xi[..., 0] ** 2),
            self.ctx.grid)
        pp = wl.moyal_product(self.ctx, p, p)
        assert np.abs(pp.values - p.values).max() / 2.0 < 1e-4

    def test_gauge_invariance_both_routes(self):
        ctx = heis_ctx(8, 6.0)
        table = np.zeros((3, 2, 3))
        table[2, 1, 0] = 0.1
        table[0, 0, 2] = 0.05
        psi = mg.GaugeFunction(HEIS, table)
        A1 = mg.add_potentials(ctx.potential, mg.gradient_potential(psi))
        ctx1 = wl.make_context(HEIS, A1, ctx.grid)
        a = boxed_gaussian(ctx.grid, centers_x=[0.3, -0.2, 0.1])
        b = boxed_gaussian(ctx.grid, centers_xi=[-0.1, 0.3, 0.2])
        ab = wl.moyal_product(ctx, a, b)
        ab1 = wl.moyal_product(ctx1, a, b)
        assert np.abs(ab.values - ab1.values).max() / np.abs(ab.values).max() < 1e-12
        xs = ctx.grid.axis_x
        X, xi = np.array([xs[5], xs[3], xs[4]]), np.array([0.2, -0.3, 0.1])
        v = wl.moyal_2step_point(ctx, a, b, X, xi)
        v1 = wl.moyal_2step_point(ctx1, a, b, X, xi)
        assert abs(v - v1) / abs(v) < 1e-12

    def test_direct_formula_guards(self):
        grid4 = sp.make_grid(4, 4, 3.0)
        fctx = wl.make_context(FIL, mg.potential_preset("zero", FIL), grid4)
        a4 = boxed_gaussian(grid4)
        with pytest.raises(WrongClass):
            wl.moyal_2step_point(fctx, a4, a4, np.zeros(4), np.zeros(4))
        with pytest.raises(ShapeError):
            wl.moyal_2step_point(self.ctx, self.a, self.b,
                                 np.array([0.123]), np.array([0.0]))
