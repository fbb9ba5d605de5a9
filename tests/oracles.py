"""Dense reference evaluators, kept as cross-check oracles for the tests.

Each forms one complex exponential per (point, mode) pair, straight from the
defining sums, so it is slow but has no structure to get wrong. The library
evaluates the same sums through separable phase tables.
"""

import numpy as np

from magweyl import lie_core
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
    return K * wl._alpha_matrix(ctx)
