"""Dense reference evaluators, kept as cross-check oracles for the tests.

Each evaluates its defining formula at every point or pair, with no
structure to get wrong, so it is slow: the mode sums form one complex
exponential per (point, mode) pair, and the phase factors run the alpha
quadrature on every grid pair. The library evaluates the same sums through
separable phase tables, compiles the phases on a small node sub-grid, and
builds the derived-axis phases of its class <= 1 evaluators from per-term
tables.
"""

from math import ceil

import numpy as np

from magweyl import lie_core, magnetic
from magweyl import weyl_calculus as wl
from magweyl.symbol_space import fourier_g


def _mode_coords(axis, d):
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def trig_eval_dense(f, points):
    """The band-limited interpolant of a config field at arbitrary points.

    f(x) = (2 pi)^{-d/2} dxi^d sum_k F_k exp(i <xi_k, x>), F the unitary
    forward transform of f.
    """
    g = f.grid
    d = g.dim
    fhat = fourier_g(f, forward=True).values.ravel()
    modes = _mode_coords(g.axis_xi, d)
    scale = (g.dxi / np.sqrt(2 * np.pi)) ** d
    shape = np.asarray(points).shape[:-1]
    pts = np.asarray(points, dtype=float).reshape(-1, d)
    return scale * (np.exp(1j * (pts @ modes.T)) @ fhat).reshape(shape)


def kernel_general_dense(ctx, a):
    """The kernel of the symbol a for any class, by dense mode sums per row.

    Same joint spectrum, midpoints and masks as the library's general
    assembly; includes the alpha factor.
    """
    alg, grid = ctx.algebra, ctx.grid
    L = grid.box_half_width
    J = wl._joint_spectrum(ctx, a)
    chi = _mode_coords(grid.axis_xi, grid.dim)
    zeta = _mode_coords(wl._fine_dual_axis(grid), grid.dim)
    pts = wl._grid_points(ctx)
    n = pts.shape[0]
    K = np.empty((n, n), dtype=complex)
    for row in range(n):
        Yr = pts[row]
        W = lie_core.bch(alg, Yr, -pts)
        M = -lie_core.psi_map(alg, W, -Yr)
        vals = np.einsum('pc,pc->p', np.exp(1j * (M @ chi.T)) @ J,
                         np.exp(1j * (W @ zeta.T)))
        bad = np.any(np.abs(W) >= 2 * L, axis=-1) | np.any(np.abs(M) > L, axis=-1)
        vals[bad] = 0.0
        K[row] = vals
    return K * alpha_matrix_dense(ctx)


def alpha_exponent_dense(ctx, rows=None):
    """alpha's exponent by the quadrature at every grid pair, shape (N^d, N^d).

    rows, an index array, restricts Y to those grid points.
    """
    pts = wl._grid_points(ctx)
    ys = pts if rows is None else pts[rows]
    n = pts.shape[0]
    out = np.empty((ys.shape[0], n))
    block = max(1, wl._PAIR_BUDGET // n)
    for start in range(0, ys.shape[0], block):
        out[start:start + block] = magnetic.alpha_exponent(
            ctx.potential, ys[start:start + block, None, :], pts[None, :, :])
    return out


def alpha_matrix_dense(ctx, rows=None):
    """alpha(Y, Z) at every grid pair: alpha_phase, pair by pair, bit for bit."""
    return np.exp(1j * alpha_exponent_dense(ctx, rows))


def moyal_beta_dense(ctx, X):
    """beta = conj(alpha(Y0, Z0)) alpha(Y0, S) alpha(S, Z0) over (T, Z) pairs.

    Y0 = X+Z-T, Z0 = X+T-Z, S = Z+T-X, one row per grid point T.
    """
    A = ctx.potential
    pts = wl._grid_points(ctx)
    X = np.asarray(X, dtype=float)
    Z = pts[None, :, :]
    T = pts[:, None, :]
    Y0, Z0, S = X + Z - T, X + T - Z, Z + T - X
    return (np.conj(magnetic.alpha_phase(A, Y0, Z0))
            * magnetic.alpha_phase(A, Y0, S)
            * magnetic.alpha_phase(A, S, Z0))


def alpha_phase_segment_form(A, Y, Z):
    """Straight-segment phase exp(-i INT <A(sZ+(1-s)Y), Z*(-Y)> ds).

    Valid shortcut for alpha_phase on two-step algebras when every value of
    A annihilates the derived subalgebra; in general this form equals
    alpha_phase times exp((i/2) INT <A(sZ+(1-s)Y), [Z,Y]> ds).
    """
    alg = A.algebra
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    W = lie_core.bch(alg, Z, -Y)
    nodes, weights = lie_core.gauss01(max(1, ceil((A.degree + 1) / 2)))
    phase = 0.0
    for s, w in zip(nodes, weights):
        seg = s * Z + (1.0 - s) * Y
        phase = phase - w * np.einsum('...i,...i->...',
                                      magnetic.evaluate_potential(A, seg), W)
    return np.exp(1j * phase)


def moyal_point_dense(ctx, a, b, X, xi):
    """The direct class <= 1 product formula at (X, xi), pair by pair.

    Every (T, Z) pair forms u = 2(X-T) + [Z, X-T] and v = 2(Z-X) + [T, Z-X]
    with the bracket einsum, gathers the half-transform tables at their
    regular coordinates, and forms exp(i u_c zeta) and exp(i v_c zeta), one
    exponential per (pair, mode), on every derived axis c. beta is the
    library's compiled one (checked against moyal_beta_dense on its own).
    """
    grid = ctx.grid
    d, N = grid.dim, grid.points_per_axis
    h, L = grid.h, grid.box_half_width
    half = N // 2
    X = np.asarray(X, dtype=float)
    xi = np.asarray(xi, dtype=float)
    der = wl._derived_axes(ctx.algebra)
    reg = [i for i in range(d) if i not in der]
    Ca = wl._half_transform_table(ctx, a)
    Cb = wl._half_transform_table(ctx, b)
    zeta = wl._fine_dual_axis(grid)
    pts = wl._grid_points(ctx)
    n = pts.shape[0]
    cstr = ctx.algebra.structure_constants

    def gather(table, first_idx, u):
        ok = np.ones(first_idx.shape, dtype=bool)
        iu = []
        for ax in reg:
            r = np.round(u[..., ax] / h).astype(int)
            ok &= (r >= -half) & (r < half)
            iu.append(np.clip(r + half, 0, N - 1))
        val = table[(first_idx,) + tuple(iu)]
        # the mode axes follow der; contract the last one first
        for ax in reversed(der):
            ph = np.exp(1j * np.multiply.outer(u[..., ax], zeta))
            ph[np.abs(u[..., ax]) >= 2 * L] = 0.0
            ph = ph.reshape(ph.shape[:-1] + (1,) * (val.ndim - ph.ndim) + ph.shape[-1:])
            val = np.sum(val * ph, axis=-1)
        return np.where(ok, val, 0.0)

    beta = wl._moyal_beta(ctx, X)
    total = 0.0 + 0.0j
    block = max(1, wl._PAIR_BUDGET // n)
    z_flat = np.arange(n)
    for t0 in range(0, n, block):
        T = pts[t0:t0 + block]
        nt = T.shape[0]
        Zb = np.broadcast_to(pts[None, :, :], (nt, n, d))
        Tb = np.broadcast_to(T[:, None, :], (nt, n, d))
        XmT = X - Tb
        ZmX = Zb - X
        u = 2 * XmT + np.einsum('ijk,...i,...j->...k', cstr, Zb, XmT)
        v = 2 * ZmX + np.einsum('ijk,...i,...j->...k', cstr, Tb, ZmX)
        At = gather(Ca, np.broadcast_to(z_flat[None, :], (nt, n)), u)
        Bt = gather(Cb, np.broadcast_to(np.arange(t0, t0 + nt)[:, None], (nt, n)), v)
        diff = Zb - Tb
        phase_vec = 2 * diff + np.einsum('ijk,i,...j->...k', cstr, X, diff)
        phase = np.exp(-1j * np.einsum('k,...k->...', xi, phase_vec))
        total += np.sum(beta[t0:t0 + nt] * At * Bt * phase)
    return complex(total * h ** (2 * d) / np.pi ** (2 * d))
