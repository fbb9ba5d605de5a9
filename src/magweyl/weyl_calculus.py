"""Operator kernels, the twisted representation, and the Moyal product.

The quantization map sends a phase-space symbol a to the integral kernel

    K_a(Y, Z) = alpha(Y, Z) (2 pi)^{-d} INT a(m(Y,Z), xi) e^{i<xi, Y*(-Z)>} dxi

with m(Y, Z) = INT_0^1 (s(Z*(-Y))) * Y ds, the group midpoint (equal to
(Y+Z)/2 on algebras of class <= 1). With the phase-space cell
(2 pi)^{-d} h^d dxi^d on symbols and h^{2d} on kernels the map is isometric,
which fixes every constant downstream.

Discretization notes. The partial transform b(m, w) of the symbol decays in
w, but a plain DFT evaluation would make it periodic with period 2L, folding
O(1) mass onto the far anti-diagonal of the kernel where the true values
vanish. All evaluations therefore use zero-extension semantics: b is taken
as zero outside its |w_i| < L data window on axes where w is an on-grid
difference, and axes where w picks up off-grid bracket terms use a doubled
spectral grid (2N modes at spacing dxi/2, the exact representation of the
zero-padded window on |w| < 2L) plus explicit masking beyond. Where such an
axis's bracket term reads only on-grid coordinates, w is an integer grid
shifted by an amount fixed per table entry, so the mode sums at every
on-grid difference are one inverse transform after a shift phase (the
shift theorem); elsewhere they are summed per pair. The midpoint slot is
evaluated by exact trigonometric interpolation: spectral zero padding (or
its half-step ramp) for half-grid points, mode sums on the axes where the
group law is nonlinear (class >= 2). Both give the interpolant a plain
nonuniform-DFT definition would, so the one assembly, for every class,
matches a dense mode sum to round-off.

Between the symbol and the kernel boundary the kernel maps keep every
table in FFT order (`centered_dft`'s fft_order), mode axes that a sum
contracts included, and build the small phase, ramp and coordinate tables
in that order (`_fft_order`). The transforms give the bits of centred
tables; a mode sum adds its terms in FFT order, which moves its value at
round-off only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import lie_core, magnetic
from .errors import NotShiftable, ShapeError, WrongClass
from .lie_core import _PAIR_BUDGET
from .symbol_space import (ConfigField, IntegralKernel, SymbolField, _half_swap,
                           _half_swap_in_place, centered_dft, coordinate_mesh, fourier_g)

TWO_PI = 2.0 * np.pi
_MAX_WORK_BYTES = 1.2e9
# relative slack of the nonlinear axes' masks, so that an exact tie |m| = L
# or |w| = 2L follows the rule: the group law's round-off reads at most
# 1.2e-15 L and the nearest non-tie 4.6e-3 of the bound (filiform3:4, L = 3,
# N = 2, 4 and 6, against exact rational midpoints)
_TIE_SLACK = 1e-9


@dataclass(eq=False)
class WeylContext:
    """Bundles the algebra, the potential, and the grid for kernel work."""

    algebra: lie_core.NilpotentLieAlgebra
    potential: magnetic.MagneticPotential
    grid: object
    threads: int = 1
    _cache: dict = field(default_factory=dict, repr=False)


def make_context(algebra, potential, grid, threads=1):
    if grid.dim != algebra.dim:
        raise ShapeError(f"grid dimension {grid.dim} != algebra dimension {algebra.dim}")
    if potential.algebra.dim != algebra.dim:
        raise ShapeError("potential lives on an algebra of different dimension")
    return WeylContext(algebra, potential, grid, threads)


def _grid_points(ctx):
    """Flattened position-grid coordinates, shape (N^d, d). Cached."""
    if "points" not in ctx._cache:
        ctx._cache["points"] = coordinate_mesh(ctx.grid).reshape(-1, ctx.grid.dim)
    return ctx._cache["points"]


def _lagrange_matrix(x, nodes):
    """L[i, j] = l_j(x_i): the Lagrange basis of the nodes at the points x.

    Rows at a node are exact unit vectors (every factor is 1.0 or 0.0).
    """
    out = np.ones((x.size, nodes.size))
    for j in range(nodes.size):
        for k in range(nodes.size):
            if k != j:
                out[:, j] *= (x - nodes[k]) / (nodes[j] - nodes[k])
    return out


def _pair_nodes(grid, degree, y_axes, z_axes):
    """The 2d grid-index arrays of `_grid_pair_values`, Y's axes then Z's,
    and the interpolation nodes on each, as grid indices: the axis itself
    when it has at most degree + 1 points, else degree + 1 of its own
    points spread over it."""
    full = [np.arange(grid.points_per_axis)] * grid.dim
    subsets = ((full if y_axes is None else list(y_axes))
               + (full if z_axes is None else list(z_axes)))
    return subsets, [sub if sub.size <= degree + 1
                     else sub[np.round(np.linspace(0, sub.size - 1, degree + 1)).astype(int)]
                     for sub in subsets]


def _pair_rows(nz):
    """Rows of a node-pair block against nz columns: _PAIR_BUDGET // 8 pairs
    (one node's points in `lie_core.gauss_sum`), or one row if that is more."""
    return max(1, (_PAIR_BUDGET // 8) // nz)


def _grid_pair_values(grid, fn, degree, y_axes=None, z_axes=None):
    """fn(Y, Z) on the grid pairs of two tensor sub-grids, for a polynomial fn.

    fn must be a real polynomial of degree <= degree in each of the 2d
    coordinates of (Y, Z), batched over leading axes. y_axes and z_axes,
    lists of d grid-index arrays, restrict Y and Z to the tensor sub-grids
    they span, the whole grid by default; the result is
    (prod |y_axes[i]|, prod |z_axes[i]|), raveled in "ij" order.

    fn is evaluated only on a tensor sub-grid of nodes read off the
    requested axes (`_pair_nodes`): an axis with at most degree + 1 points
    is its own node set, a longer one gives degree + 1 of its points. The
    node pairs go to fn in row blocks (`_pair_rows`), so no call outgrows
    _PAIR_BUDGET // 8 pairs or one row, and the values are expanded along
    the other axes by Lagrange interpolation, which is exact for such fn up
    to round-off. Where every axis is its own node set, every value is
    fn's own, bit for bit.
    """
    d = grid.dim
    subsets, nodes = _pair_nodes(grid, degree, y_axes, z_axes)
    y_pts, z_pts = (np.stack([g.ravel() for g in np.meshgrid(
        *[grid.axis_x[v] for v in side], indexing="ij")], axis=-1)
        for side in (nodes[:d], nodes[d:]))
    vals = np.empty((y_pts.shape[0], z_pts.shape[0]))
    block = _pair_rows(z_pts.shape[0])
    for start in range(0, y_pts.shape[0], block):
        vals[start:start + block] = fn(y_pts[start:start + block, None, :], z_pts[None, :, :])
    out = vals.reshape([v.size for v in nodes])
    # contract the leading axis and append the expanded one, or move an axis
    # that is its own node set to the back: after 2d steps the axes are back
    # in (Y axes..., Z axes...) order
    for sub, node in zip(subsets, nodes):
        if node.size < sub.size:
            out = np.tensordot(out, _lagrange_matrix(grid.axis_x[sub], grid.axis_x[node]),
                               axes=([0], [1]))
        else:
            out = np.moveaxis(out, 0, -1)
    return out.reshape(int(np.prod([v.size for v in subsets[:d]])), -1)


def _pair_values_bytes(grid, degree, call_bytes, y_axes=None, z_axes=None):
    """Peak bytes of `_grid_pair_values`, its output included.

    The node-pair values and either one block's call to fn (call_bytes of
    the block's pair count) or the largest Lagrange step (its input, the
    input's transposed copy and its output, in floats). Axes moved to the
    back after the last expansion leave a view that the final reshape
    copies: then the output twice.
    """
    d = grid.dim
    subsets, nodes = _pair_nodes(grid, degree, y_axes, z_axes)
    sizes = [v.size for v in nodes]
    ny, nz = int(np.prod(sizes[:d])), int(np.prod(sizes[d:]))
    expand = 0
    for k, sub in enumerate(subsets):
        if sizes[k] < sub.size:
            step_in = int(np.prod(sizes))
            sizes[k] = sub.size
            expand = max(expand, 8 * (2 * step_in + int(np.prod(sizes))))
    if expand and nodes[-1].size == subsets[-1].size:
        expand = max(expand, 16 * int(np.prod(sizes)))
    return 8 * ny * nz + max(call_bytes(min(ny, _pair_rows(nz)) * nz), expand)


def _unit_phase(e):
    """exp(i e) for a handed-over real table e, formed in one complex table:
    the call peaks at e and the result, 24 bytes an entry.

    i e is written part by part, the imaginary part 0 + e as the complex
    product 1j * e forms it, bit for bit np.exp(1j * e); a float-to-complex
    ufunc would add a cast buffer.
    """
    out = np.empty(e.shape, dtype=complex)
    out.real[...] = 0.0
    np.add(e, 0.0, out=out.imag)
    del e
    return np.exp(out, out=out)


def _alpha_matrix(ctx):
    """alpha(Y, Z) on all grid pairs, shape (N^d, N^d). Cached.

    exp(i e) is formed in one complex table (`_unit_phase`), so the build
    peaks at 1.5 tables after the exponent's own (`_alpha_bytes`).
    """
    if "alpha" not in ctx._cache:
        A = ctx.potential
        ctx._cache["alpha"] = _unit_phase(_grid_pair_values(
            ctx.grid, partial(magnetic.alpha_exponent, A), magnetic.alpha_degree(A)))
    return ctx._cache["alpha"]


def _alpha_bytes(ctx):
    """Peak bytes of building alpha (`_alpha_matrix`); 0 once it is cached.

    The exponent's build (`_pair_values_bytes`, one block's quadrature
    counted by `magnetic._alpha_exponent_bytes`), then the exponent and
    alpha, 1.5 kernel-sized tables.
    """
    if "alpha" in ctx._cache:
        return 0
    grid, A = ctx.grid, ctx.potential
    build = _pair_values_bytes(grid, magnetic.alpha_degree(A),
                               partial(magnetic._alpha_exponent_bytes, A))
    return max(build, 24 * grid.points_per_axis ** (2 * grid.dim))


class _AxisRoles(NamedTuple):
    """The role of each coordinate axis under the brackets; lists, read only.

    derived axes receive bracket values ([g, g] support) and regular ones do
    not. nonlinear axes receive double-bracket values ([g, [g, g]] support):
    off them, in any class, Y*(-Z) = Y - Z - [Y, Z]/2 and the group midpoint
    is (Y+Z)/2; the higher Dynkin terms lie in [g, [g, g]]. A shiftable axis
    c is derived and its bracket term reads regular coordinates only, so for
    a kernel pair with midpoint m and difference delta the coordinate
    w_c = delta_c - [delta, m]_c / 2 is the integer grid r_c h shifted by an
    amount that the regular axes fix; a nonlinear axis never is. terms[c]
    lists the (i, j, c_ijc) with c_ijc != 0, in np.nonzero order.
    """

    derived: list
    regular: list
    nonlinear: list
    shiftable: list
    terms: list

    def require_shiftable(self):
        """NotShiftable unless every derived axis is shiftable."""
        # a bracket term that reads a derived axis scales it; no shift undoes it
        stuck = ", ".join(f"x{c + 1}" for c in self.derived if c not in self.shiftable)
        if stuck:
            raise NotShiftable(f"the class <= 1 inverse needs every derived axis shiftable, but "
                               f"the brackets on {stuck} read derived axes; use a basis adapted "
                               "to [g, g]")


def _axes(alg):
    """The axis roles of an algebra (`_AxisRoles`)."""
    d, cstr = alg.dim, alg.structure_constants
    terms = [[(int(i), int(j), float(cstr[i, j, c]))
              for i, j in zip(*np.nonzero(cstr[:, :, c]))] for c in range(d)]
    der = [c for c in range(d) if terms[c]]
    hit = np.abs(np.einsum('jkm,iml->ijkl', cstr, cstr)).sum(axis=(0, 1, 2)) > 0
    return _AxisRoles(
        derived=der,
        regular=[i for i in range(d) if i not in der],
        nonlinear=[k for k in range(d) if hit[k]],
        shiftable=[c for c in der if not any(i in der or j in der for i, j, _ in terms[c])],
        terms=terms)


def _fft_order(values):
    """A small table with the two halves of every axis swapped: in FFT order,
    the order of the kernel maps' tables (`centered_dft`'s fft_order)."""
    return values[np.ix_(*[(np.arange(n) + n // 2) % n for n in values.shape])]


def _pad_fft_order(values, axes):
    """values zero-padded to twice its length on each listed axis, in FFT order.

    The first half of each axis stays in front and the second moves to the
    back, zeros between: the centred pad (index j to j + n/2) seen in FFT
    order. It zero-extends a window of samples, or zero-pads a spectrum
    so that its 2n-point inverse transform samples the interpolant at half
    steps.
    """
    shape, split, pick, halves = [], [], [], []
    for ax, n in enumerate(values.shape):
        if ax in axes:
            # the padded axis as 4 quarters of n/2, of which 0 and 3 are kept
            shape.append(2 * n)
            split += [4, n // 2]
            pick += [slice(None, None, 3), slice(None)]
            halves += [2, n // 2]
        else:
            shape.append(n)
            split.append(n)
            pick.append(slice(None))
            halves.append(n)
    padded = np.zeros(shape, dtype=values.dtype)
    padded.reshape(split)[tuple(pick)] = values.reshape(halves, copy=False)
    return padded


def _fine_spectrum(values, axes):
    """Replace window samples along axes by doubled-grid spectral modes.

    Input samples g_j sit at w = (j - N/2) h on the |w| < L window; the 2N
    output coefficients c_k per axis represent the zero-extended window as
    g(w) = sum_k c_k exp(i zeta_k w), zeta_k = (k - N) dxi / 2, faithful for
    |w| < 2L (the representation is 4L-periodic beyond; callers mask).
    Input and output are in FFT order on those axes.
    """
    out = values
    for ax in axes:
        out = centered_dft(_pad_fft_order(out, [ax]), [ax], in_place=True, fft_order=True)
        out /= out.shape[ax]
    return out


def _partial_transform(ctx, values, scale, w_order, fine):
    """b[X axes..., w axes in w_order]: a symbol's transform over xi.

    values holds the symbol's samples, X axes first (they may span a tensor
    sub-grid), then its d xi axes in FFT order, a complex table handed over
    and transformed in place. The inverse transform over xi times scale,
    with the difference axes listed in fine replaced by their doubled-grid
    spectra (`_fine_spectrum`), every difference axis in FFT order; w_order
    lists the difference axes in the order the caller reads them.
    """
    d = ctx.grid.dim
    b = centered_dft(values, range(d, 2 * d), inverse=True, in_place=True, fft_order=True)
    b *= scale
    b = _fine_spectrum(b, [d + ax for ax in fine])
    return np.transpose(b, list(range(d)) + [d + ax for ax in w_order])


def _fine_dual_axis(grid):
    n = grid.points_per_axis
    return (np.arange(2 * n) - n) * (grid.dxi / 2.0)


def _contract_modes(val, phases):
    """Contract the trailing mode axes of val with one phase per axis.

    val has a pair layout followed by one mode axis per entry of phases, in
    order; each phase broadcasts over the pair layout and ends in its mode
    axis. The last mode axis is contracted first.
    """
    for i, ph in reversed(list(enumerate(phases))):
        ph = ph.reshape(ph.shape[:-1] + (1,) * i + ph.shape[-1:])
        val = np.einsum('...k,...k->...', val, ph)
    return val


def _derived_phase(x, zeta, bound, const, lin_p, lin_q, bil):
    """Compile exp(i w zeta) for a derived coordinate w of a grid-point pair.

    For grid points P and Q (coordinates from the axis x),
    w = const + <lin_p, P> + <lin_q, Q> + <P, bil Q>: one term per nonzero
    coefficient, each in at most two grid coordinates. The phase is the
    product of one small table per term, at most (N, N, 2N) entries, so the
    exponentials are paid once here instead of once per (pair, mode).

    Returns phase(p_idx, q_idx). p_idx and q_idx give, per axis, the grid
    index of P and of Q as an int or an integer array broadcasting over the
    pair layout; the result has that layout plus the mode axis of zeta and
    is zero at the pairs with |w| >= bound.
    """
    d = len(lin_p)
    terms = ([(lin_p[i], ((0, i),)) for i in range(d) if lin_p[i] != 0.0]
             + [(lin_q[j], ((1, j),)) for j in range(d) if lin_q[j] != 0.0]
             + [(bil[i, j], ((0, i), (1, j))) for i in range(d) for j in range(d)
                if bil[i, j] != 0.0])
    xx = np.multiply.outer(x, x)
    tables = [np.exp(1j * ((c * (x if len(slots) == 1 else xx))[..., None] * zeta))
              for c, slots in terms]
    head = np.exp(1j * (const * zeta))

    def phase(p_idx, q_idx):
        pair = (p_idx, q_idx)
        w = const
        factors = [head]
        for (c, slots), table in zip(terms, tables):
            idx = tuple(pair[side][ax] for side, ax in slots)
            coord = x[idx[0]] if len(idx) == 1 else x[idx[0]] * x[idx[1]]
            w = w + c * coord
            factors.append(table[idx])
        # smallest factors first, so most products stay below the pair size
        factors.sort(key=np.size)
        out = factors[0]
        for f in factors[1:]:
            out = out * f
        return out * (np.abs(w) < bound)[..., None]

    phase.nbytes = head.nbytes + sum(t.nbytes for t in tables)
    return phase


def _phase_table(X, axis_modes):
    """exp(i <X_p, k>) over the tensor mode grid axis_modes^d, shape (n, m^d).

    Modes are ordered as a raveled "ij" mesh. The table is the row-wise
    Kronecker (Khatri-Rao) product of d per-axis tables, so it costs n d m
    exponentials instead of one per (point, mode) pair.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    # exponents are real broadcast products, never a matmul: with OpenBLAS,
    # numpy's complex exp runs ~10x slower right after a complex BLAS call
    axis_phases = np.exp(1j * (X[:, :, None] * axis_modes))
    out = axis_phases[:, 0]
    for ax in range(1, d):
        out = (out[:, :, None] * axis_phases[:, ax, None, :]).reshape(n, -1)
    return out


def _trig_eval(f, points):
    """Evaluate the band-limited interpolant of a config field anywhere.

    Uses f(x) = (2 pi)^{-d/2} dxi^d sum_k F_k exp(i <xi_k, x>) with F the
    unitary forward transform; reproduces grid samples exactly.
    """
    g = f.grid
    d = g.dim
    fhat = fourier_g(f, forward=True).values.ravel()
    scale = (g.dxi / np.sqrt(TWO_PI)) ** d
    shape = np.asarray(points).shape[:-1]
    pts = np.asarray(points, dtype=float).reshape(-1, d)
    out = np.empty(pts.shape[0], dtype=complex)
    block = max(1, int(2e8 / (16 * fhat.size)))
    for start in range(0, pts.shape[0], block):
        table = _phase_table(pts[start:start + block], g.axis_xi)
        out[start:start + block] = table @ fhat
    return scale * out.reshape(shape)


def _spectral_gradient(f):
    """All partials of the interpolant at the grid nodes, shape (N^d, d)."""
    g = f.grid
    d = g.dim
    fhat = fourier_g(f, forward=True)
    mesh = np.meshgrid(*([g.axis_xi] * d), indexing="ij")
    cols = []
    for i in range(d):
        gi = ConfigField(g, 1j * mesh[i] * fhat.values, space="gstar")
        cols.append(fourier_g(gi, forward=False).values.ravel())
    return np.stack(cols, axis=-1)


def pi_action(ctx, X, xi, f):
    """The twisted representation applied to a config field.

    Returns Y -> e^{i Phi(Y)} f((-X) * Y) with
    Phi(Y) = INT_0^1 [<xi, W_s> + <A(W_s), (R_{W_s})'_0 X>] ds, W_s = (-sX)*Y;
    the quadrature is exact for polynomial potentials and the shift uses the
    trigonometric interpolant of f, summed over all N^d modes at each of the
    N^d shifted points: O(N^{2d}) multiply-adds, O(N^d d N) exponentials.
    """
    if not isinstance(f, ConfigField) or f.space != "g":
        raise ShapeError("pi_action expects a position-space config field")
    if f.grid != ctx.grid:
        raise ShapeError("field grid does not match the context grid")
    X = np.asarray(X, dtype=float)
    xi = np.asarray(xi, dtype=float)
    alg, A = ctx.algebra, ctx.potential
    pts = _grid_points(ctx)
    vals = _trig_eval(f, lie_core.bch(alg, -X, pts))

    def integrand(s):
        # theta0_eval at W_s, on a leading node axis
        ws = lie_core.bch(alg, -s * X, pts)
        return np.einsum('...i,...i->...', xi, ws) + magnetic._pairing_at_nodes(A, ws, X)

    phase = lie_core.gauss_sum(integrand, magnetic._alpha_nodes(A), pts.shape[:-1])
    n = ctx.grid.points_per_axis
    out = np.exp(1j * phase) * vals
    return ConfigField(ctx.grid, out.reshape((n,) * ctx.grid.dim))


def _check_work_bytes(nbytes):
    if nbytes > _MAX_WORK_BYTES:
        raise ShapeError(
            f"the kernel map would need ~{nbytes / 1e9:.1f} GB working memory; "
            "reduce N or the dimension")


def _parity_ramps(grid):
    """exp(i xi_k h / 2) at odd differences and 1 at even ones, (N, N).

    Rows run over the band xi_k = (k - N/2) dxi, columns over the
    differences w = r - N/2 of an N-point window, both in FFT order, the
    order of the kernel maps' tables: column r holds w = r mod N, which has
    the parity of r (N is even). Multiplying the N-point
    spectrum of samples by the ramp and transforming back gives the
    trigonometric interpolant half a step on, at (s - N/2) h + h/2: the odd
    outputs of 2x spectral zero padding (`_pad_fft_order` and a 2N-point
    inverse transform), whose even outputs are the samples themselves. A
    kernel pair (j, l) has midpoint index u = j + l and difference w = j - l
    of the same parity, so on an axis where the difference is an index this
    selects the shift per entry.
    """
    odd = np.arange(grid.points_per_axis) % 2 == 1
    return np.where(odd, np.exp(0.5j * grid.h * _fft_order(grid.axis_xi))[:, None], 1.0)


def _kernel_structured(ctx, a):
    """Dealphaed kernel for any class: on-grid differences, fine derived axes.

    Every axis role is read from one `_axes` record. Off the derived axes
    w = Y*(-Z) has plain differences y_i - z_i, and off the nonlinear axes
    the midpoint (Y+Z)/2 lies on the half-step grid, so those evaluations
    are exact interpolant values. A nonlinear axis stays spectral in both
    slots: its N position modes and 2N difference modes are summed against
    the group law's midpoint and difference on every pair, masked where
    |m| > L or |w| >= 2L, with exact ties on the rule's side
    (`_TIE_SLACK`). Assembly runs in slabs of
    constant j - k along the first regular axis q, and consecutive slabs
    are built as one table, the slab an axis of it, as many as fit
    _PAIR_BUDGET entries (every slab of a one-dimensional group or of
    filiform3:4 at N = 2, one slab of Heisenberg:3 at N = 8).
    The midpoint index j + k of a regular axis has the parity of its
    difference, so the position spectrum carries that axis's half-step ramp
    once per call and the slab table is read at (j + k) // 2. A derived
    axis off the nonlinear ones takes both parities, so each slab pads its
    spectrum to 2N modes and transforms it to the half-step grid, read at
    j + k; so is the one axis of a one-dimensional group. The symbol is
    half-swapped once, into the copy that the transform over xi runs in,
    and every table stays in FFT order from there on; the mode sums
    contract against phases built on the FFT-ordered mode axes.

    A shiftable derived axis c has w_c = r_c h - S_c, r_c = j_c - k_c, where
    S_c = [delta, m]_c / 2, one product per entry of the record's terms[c],
    is fixed by the table's own regular midpoints m and differences delta.
    Since h zeta_k = pi (k - N) / N, the mode sum at every r_c at once is
    one 2N-point inverse transform of the doubled window's spectrum times
    exp(-i zeta S_c) (the shift theorem), masked where |r_c h - S_c| >= 2L
    and read at r_c by index.
    The other derived axes keep their doubled mode axis and are summed per
    pair against compiled phases (`_derived_phase`). With no regular axis
    no axis is shiftable, q is derived, and one slab over all (j_q, k_q)
    keeps its whole mode axis. Pairs are gathered in blocks of about
    _PAIR_BUDGET entries, by as many workers as ctx.threads and the work
    budget allow. The budget check also counts the alpha build that
    kernel_from_symbol runs beside the returned kernel.
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N = grid.dim, grid.points_per_axis
    L, h, dxi = grid.box_half_width, grid.h, grid.dxi
    half = N // 2
    cstr = alg.structure_constants
    axes = _axes(alg)
    der, reg, nl, shift = axes.derived, axes.regular, axes.nonlinear, axes.shiftable
    lin = [i for i in range(d) if i not in nl]
    # the derived half-step axes summed against per-pair phases (the
    # shiftable ones are read by index after a shift transform), and the
    # axes whose partial transform carries the doubled-grid spectrum
    modal = [c for c in der if c not in nl + shift]
    fine = [c for c in der if c not in shift]
    # the position axes upsampled to 2N points (derived half-step axes, or the
    # one axis of a one-dimensional group) and those with a half-step ramp
    up = [0] if d == 1 else [c for c in lin if c in der]
    ramped = [i for i in reg if i not in up]
    q = (reg or der)[0]

    # a slab's (j_q, k_q) pairs are gathered `block` at a time; a job is a
    # batch of consecutive slabs whose tables fit one _PAIR_BUDGET-entry
    # table, or with no regular axis a block of the one slab's pairs
    n2 = N ** (2 * d)
    layout = N ** (2 * d - 2)
    gathered = layout * (2 * N) ** len(modal) * (2 * N * N) ** len(nl)
    block = max(1, _PAIR_BUDGET // gathered)
    bsize = n2 << len(fine)
    # the entries of one slab's table, and of a job's
    table = (bsize // N if reg else bsize) << (len(shift) + len(up))
    batch = min(N, max(1, _PAIR_BUDGET // table)) if reg else 1
    jobs = ([np.arange(r, min(r + batch, half)) for r in range(-half, half, batch)] if reg
            else [np.arange(s, min(s + block, N * N)) for s in range(0, N * N, block)])

    # complex entries alive at the peak of each stage, the input aside:
    # - the transform over xi: its copy out, then the doubling of the fine
    #   axes one at a time (input, padded, its one copy, and b), each padded
    #   table transformed in place;
    # - the position spectrum: b, transformed and ramped in place;
    # - the slabs: the spectrum, the kernel, the index vectors, the modal
    #   phase tables ((N, N, 2N) per term), and per worker a job's table
    #   (`batch` slabs) being built (its last transform's input and one
    #   copy) or a built table and a block of pairs (the gathered entries,
    #   their first contraction, and per pair the output, its mask, 2 x 2N
    #   layouts per modal axis and 6N + 4d per nonlinear one); with no
    #   regular axis the one table is built before the workers run;
    # plus 64 kB of small tables; then, as kernel_from_symbol goes on, the
    # kernel beside alpha's build (`_alpha_bytes`), counted here so that one
    # estimate covers that whole call before anything is allocated
    tab = batch * table
    alpha = _alpha_bytes(ctx)
    phase_tables = 2 * N ** 3 * sum(len(axes.terms[c]) + 2 for c in modal)
    pairs = min(block, batch * N if reg else N * N) * (
        gathered + (gathered // (2 * N) if modal + nl else 0)
        + layout * (2 + 4 * N * len(modal) + (6 * N + 4 * d) * len(nl)))

    def work_bytes(workers):
        slabs = (workers * (tab + max(tab, pairs)) if reg
                 else max(2 * tab, tab + workers * pairs))
        stages = (2 * n2 + (2.5 * bsize + n2 if fine else 0),
                  bsize,
                  bsize + n2 + (len(lin) + len(reg) + len(shift)) * layout + phase_tables
                  + slabs)
        return max(16 * max(stages) + (1 << 16), 16 * n2 + alpha)

    # the most workers that fit the budget; refuse when one does not
    workers = min(ctx.threads, len(jobs))
    while workers > 1 and work_bytes(workers) > _MAX_WORK_BYTES:
        workers -= 1
    _check_work_bytes(work_bytes(workers))

    # b[X axes..., w axes...]: inverse transform over xi with the kernel
    # measure, the w block reordered to (regular, shiftable, modal derived,
    # nonlinear axes); the shiftable axes keep their N-point windows. The
    # symbol's one swap into FFT order is the copy the transform runs in
    b = _partial_transform(ctx, _half_swap(a.values, range(2 * d)), (dxi / TWO_PI) ** d,
                           reg + shift + modal + nl, fine)

    # x is read by grid index; the mode axes, like every table axis, are in
    # FFT order
    x, x_fft = grid.axis_x, _fft_order(grid.axis_x)
    xi_fft, zeta_fft = _fft_order(grid.axis_xi), _fft_order(_fine_dual_axis(grid))
    w_axis = {ax: d + pos for pos, ax in enumerate(reg + shift + modal + nl)}

    # the position spectrum over N^d, each ramped axis's ramp at odd differences
    spec = centered_dft(b, range(d), in_place=True, fft_order=True)
    del b
    spec /= N ** d
    if ramped:
        ramps = _parity_ramps(grid)
    for ax in ramped:
        shape = [1] * spec.ndim
        shape[ax], shape[w_axis[ax]] = N, N
        spec *= ramps.reshape(shape)
    ktensor = np.zeros((N,) * (2 * d), dtype=complex)

    # the remaining (j_i, k_i) pairs, axes (j_rest..., k_rest...), as
    # broadcasting per-axis index vectors; axis q is set per block of pairs
    rest = [i for i in range(d) if i != q]
    m = d - 1
    axis_idx = [np.arange(N).reshape((N,) + (1,) * (2 * m - 1 - i)) for i in range(2 * m)]
    jrest = {ax: axis_idx[i] for i, ax in enumerate(rest)}
    krest = {ax: axis_idx[m + i] for i, ax in enumerate(rest)}
    # the tables are read in FFT order: the midpoint index j + k of an
    # upsampled axis at (j + k + N) mod 2N, (j + k) // 2 of a ramped one at
    # ((j + k) // 2 + N/2) mod N
    def midpoint(ax, jk):
        return (jk + N) % (2 * N) if ax in up else (jk // 2 + half) % N

    umid = {ax: midpoint(ax, jrest[ax] + krest[ax]) for ax in rest if ax in lin}
    ridx, rmask = [], np.ones((N,) * (2 * m), dtype=bool)
    for ax in rest:
        if ax in reg:
            rr = jrest[ax] - krest[ax]
            rmask &= (rr >= -half) & (rr < half)
            ridx.append(rr % N)
    # a shiftable axis's table is indexed by r_c mod 2N, r_c in [-N, N)
    ridx += [(jrest[c] - krest[c]) % (2 * N) for c in shift]
    # w_c = y_c - z_c - [Y, Z]_c / 2 on each modal derived axis
    e = np.eye(d)
    phase_fns = [_derived_phase(x, zeta_fft, 2 * L, 0.0, e[c], -e[c], -0.5 * cstr[:, :, c])
                 for c in modal]

    # a job's table: the d positions, then the w block, whose first axis
    # runs over the job's slabs r (with no regular axis, over w_q's modes)
    shift_axes = [w_axis[c] for c in shift]

    def along(v, axis):
        shape = [1] * (2 * d)
        shape[axis] = v.size
        return v.reshape(shape)

    # on a slab table regular axis i has difference r_i h and midpoint
    # (u_i - N/2) h, plus h / 2 at odd r_i; on axis q, r_i is the slab's r;
    # these small tables and w_fine in FFT order like the slab table
    diff = {i: along(_fft_order(np.arange(N) - half), w_axis[i]) for i in reg[1:]}
    mid = {i: along(x_fft, i) + (diff[i] % 2) * (h / 2) for i in reg[1:]}
    # S_c = [delta, m]_c / 2 as (coefficient, i, j) terms
    s_terms = [[(0.5 * h * coef, i, j) for i, j, coef in axes.terms[c]] for c in shift]
    w_fine = _fft_order((np.arange(2 * N) - N) * h)

    def shift_offsets(rs):
        """S_c over the job table's axes for the slabs rs, per shiftable axis c."""
        r = along(rs, d)
        dr = {**diff, q: r}
        mr = {**mid, q: along(x_fft, q) + (r % 2) * (h / 2)}
        return [sum(coef * dr[i] * mr[j] for coef, i, j in terms) for terms in s_terms]

    def slab_table(rs):
        t = spec if rs is None else np.take(spec, rs % N, axis=d)
        if ramped:
            t = centered_dft(t, ramped, inverse=True, in_place=True, fft_order=True)
        offsets = shift_offsets(rs) if shift else []
        t = _fine_spectrum(t, shift_axes)
        for c, s in zip(shift, offsets):
            t *= np.exp(-1j * (along(zeta_fft, w_axis[c]) * s))
        if up:
            # padded first, to free the unpadded table, and transformed in
            # place; shift is within up
            t = _pad_fft_order(t, up)
            centered_dft(t, up + shift_axes, inverse=True, in_place=True, fft_order=True)
        for c, s in zip(shift, offsets):
            t *= np.abs(along(w_fine, w_axis[c]) - s) < 2 * L
        # the nonlinear position axes stay spectral, behind the w block
        return np.moveaxis(t, nl, range(-len(nl), 0))

    def do_pairs(table, jq, kq, slab):
        """Gather the pairs (jq, kq), slab the index of their slab in the
        job's table (None with no regular axis), into the kernel."""
        lead = (jq.size,) + (1,) * (2 * m)
        y_idx = [jq.reshape(lead) if ax == q else jrest[ax] for ax in range(d)]
        z_idx = [kq.reshape(lead) if ax == q else krest[ax] for ax in range(d)]
        uq = midpoint(q, (jq + kq).reshape(lead))
        val = table[tuple(uq if ax == q else umid[ax] for ax in lin)
                    + (() if slab is None else (slab.reshape(lead),)) + tuple(ridx)]
        phases, keep = [fn(y_idx, z_idx) for fn in phase_fns], rmask
        if nl:
            Y, Z = (np.stack(np.broadcast_arrays(*(x[i] for i in idx)), axis=-1)
                    for idx in (y_idx, z_idx))
            W = lie_core.bch(alg, Y, -Z)
            M = -lie_core.psi_map(alg, W, -Y)
            phases += ([np.exp(1j * (W[..., c, None] * zeta_fft)) for c in nl]
                       + [np.exp(1j * (M[..., c, None] * xi_fft)) for c in nl])
            keep = (keep & np.all(np.abs(W[..., nl]) < 2 * L * (1 - _TIE_SLACK), axis=-1)
                    & np.all(np.abs(M[..., nl]) <= L * (1 + _TIE_SLACK), axis=-1))
        idx = [slice(None)] * (2 * d)
        idx[q], idx[d + q] = jq, kq
        ktensor[tuple(idx)] = np.where(keep, _contract_modes(val, phases), 0.0)

    # a worker per job builds its table and gathers its pairs; with no regular
    # axis the workers split the one table's pair blocks; each pair writes its
    # own block of the kernel
    if reg:
        def run(rs):
            table = slab_table(rs)
            # slab by slab, j_q from max(0, r) to min(N, N + r) and k_q = j_q - r
            js = np.arange(N)
            slab, jq = np.nonzero((js >= rs[:, None]) & (js < N + rs[:, None]))
            kq = jq - rs[slab]
            for s in range(0, jq.size, block):
                do_pairs(table, jq[s:s + block], kq[s:s + block], slab[s:s + block])
    else:
        table = slab_table(None)

        def run(flat):
            do_pairs(table, flat // N, flat % N, None)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, jobs))
    else:
        for job in jobs:
            run(job)
    return ktensor.reshape(N ** d, N ** d)


def kernel_from_symbol(ctx, a):
    """The integral kernel of the operator quantizing the symbol a.

    The assembly's estimate covers the whole call, alpha's build beside the
    assembled kernel included, and is checked before anything is allocated;
    the kernel is multiplied by alpha in place.
    """
    if not isinstance(a, SymbolField):
        raise ShapeError("kernel_from_symbol expects a phase-space symbol field")
    if a.grid != ctx.grid:
        raise ShapeError("symbol grid does not match the context grid")
    K = _kernel_structured(ctx, a)
    K *= _alpha_matrix(ctx)
    return IntegralKernel(ctx.grid, K)


def _multilinear(tensor, parts, step, origin):
    """Multilinear interpolation at fractional indices, zero outside the grid.

    The last axes of the arrays in parts, joined, hold the tensor.ndim
    coordinates of each point; the fractional index on an axis is
    coordinate / step + origin. Per block of points each axis gives its two
    corner weights, 1 - t and t, each zeroed where that corner is off the
    grid, and its two clipped indices; tensor.ndim Kronecker steps expand
    them to all 2^nd corners, axis i as bit i of the corner index, with the
    weights multiplied in axis order. One gather reads every corner's value
    and the corners are summed in index order, so the values are those of a
    loop over the corners, bit for bit. A block holds about _PAIR_BUDGET / 8
    corner entries.
    """
    cols = [q.reshape(-1, q.shape[-1]) for q in parts]
    npts = cols[0].shape[0]
    shape = np.array(tensor.shape)
    strides = np.cumprod(np.r_[1, shape[:0:-1]])[::-1]
    out = np.zeros(npts, dtype=tensor.dtype)
    block = max(1, (_PAIR_BUDGET // 8) >> tensor.ndim)
    for start in range(0, npts, block):
        p = (np.concatenate([q[start:start + block] for q in cols], axis=1) / step + origin).T
        base = np.floor(p).astype(int)
        t = p - base
        # the lower and upper corner of every point on every axis: (2, nd, points)
        ends = np.stack([base, base + 1])
        wt = np.where((ends >= 0) & (ends < shape[:, None]), np.stack([1.0 - t, t]), 0.0)
        ix = np.clip(ends, 0, shape[:, None] - 1) * strides[:, None]
        w, idx = wt[:, 0], ix[:, 0]
        for i in range(1, tensor.ndim):
            w = (wt[:, None, i] * w).reshape(-1, t.shape[1])
            idx = (ix[:, None, i] + idx).reshape(-1, t.shape[1])
        vals = tensor.take(idx)
        vals *= w
        # added to zeros, as the loop's sum starts at +0; over a C-contiguous
        # (corners, points) block the reduce adds row by row, but on one
        # point it would take numpy's pairwise sum
        out[start:start + block] += (np.add.reduce(vals, axis=0) if vals.shape[1] > 1
                                     else np.add.accumulate(vals, axis=0)[-1])
        # one corner block alive at a time
        del w, idx, vals
    return out.reshape(parts[0].shape[:-1])


def _sigma_inverse(ctx, V, W):
    """The (Y, Z) pair with group midpoint V and difference Y*(-Z) = W."""
    alg = ctx.algebra
    Y = -lie_core.psi_inverse(alg, W, -V)
    Z = lie_core.bch(alg, -W, Y)
    return Y, Z


def _interp_bytes(grid):
    """Working memory of `_interp_inverse`, its input aside: G and the one
    copy its transform hands back into it; per pair of a block the group
    law's peak, 13 d floats with Y and Z, and the interpolated value; and
    one corner block of _multilinear, at most 48 bytes per corner entry."""
    d, N = grid.dim, grid.points_per_axis
    n = N ** d
    corners = max(1 << 2 * d, _PAIR_BUDGET // 8)
    return 32 * n * n + (104 * d + 16) * min(max(1, _PAIR_BUDGET // n), n) * n + 48 * corners


def _interp_inverse(ctx, M):
    """Invert the quantization of class >= 2 by interpolating the kernel.

    For every grid pair (V, W), _sigma_inverse gives the pair (Y, Z) with
    group midpoint V and difference Y*(-Z) = W; the dealphaed kernel is read
    there by multilinear interpolation (zero off the grid, every corner of a
    block of pairs in one gather) and transformed over W. Linear across each
    cell of an oscillating kernel, so coarse. The pairs run in blocks of
    about _PAIR_BUDGET: rows of V by all of W.
    """
    grid = ctx.grid
    d, N, h = grid.dim, grid.points_per_axis, grid.h
    n = N ** d
    block = max(1, _PAIR_BUDGET // n)
    pts = _grid_points(ctx)
    tensor = M.reshape((N,) * (2 * d))
    G = np.empty((n, n), dtype=complex)
    for start in range(0, n, block):
        nb = pts[start:start + block].shape[0]
        V = np.broadcast_to(pts[start:start + block, None, :], (nb, n, d))
        W = np.broadcast_to(pts[None, :, :], (nb, n, d))
        Y, Z = _sigma_inverse(ctx, V, W)
        G[start:start + block] = _multilinear(tensor, (Y, Z), h, N // 2)
    G = centered_dft(G.reshape((N,) * (2 * d)), range(d, 2 * d), in_place=True)
    G *= h ** d
    return G


def _adjoint_bytes(grid):
    """Working memory of `_twostep_adjoint`, its input handed over: two
    kernel-sized tables at the peak of each stage (a gather step's input and
    output, then a table and the one copy its transform hands back into it),
    numpy's buffers for a gather step's strided add (three operands of at
    most np.getbufsize() entries and of one diagonal, n2 / N) and 64 kB of
    small tables."""
    N = grid.points_per_axis
    n2 = N ** (2 * grid.dim)
    return 32 * n2 + 48 * min(np.getbufsize(), n2 // N) + (1 << 16)


def _twostep_adjoint(ctx, M):
    """Invert the class <= 1 quantization by running its chain backwards.

    The forward map reads the symbol's partial transform at half-step
    midpoints (j + l) h / 2 and differences j - l, with the derived
    difference coordinates living on the doubled window |w| < 2L and
    shifted per cell by the bracket term. Gathering the kernel into a table
    at midpoint index (j + l) // 2 and difference w = j - l on the N-point
    window |w| < L, undoing the half-step shifts on the position spectrum
    (the projection of the twice-upsampled table onto its centred band,
    which kills the parity alias exactly), and undoing the bracket shifts
    on the difference spectrum (`_midpoint_table_to_symbol`) recovers the
    symbol. On a derived axis the gather also adds the pair with
    j - l = w -+ N to the cell: the doubled window folded mod N. N is even,
    so the alias has the parity of w, the same midpoint index and the same
    half-step ramp, and every axis shares the one window: the table has
    N^{2d} entries. Exact up to band truncation at the box corners, so
    tail-level for symbols that decay inside the box. Only bracket shifts
    that read regular coordinates are undone, so every derived axis must be
    shiftable (callers run the `_axes` record's require_shiftable first).
    M is dropped after the first gather step, so a caller that hands it
    over (as `symbol_from_kernel` does) frees it there. The gather writes
    the table in FFT order, which it keeps through the position round trip
    and `_midpoint_table_to_symbol`; the symbol is swapped back in place
    once, on exit.
    """
    grid = ctx.grid
    d, N = grid.dim, grid.points_per_axis
    der = _axes(ctx.algebra).derived

    # table[s..., w...] = K[j, l] with j + l = 2 s + (w parity), one axis pair
    # at a time: the pairs with j - l = r are a diagonal of the (j, l) plane,
    # j from max(r, 0), and land in column w = r, or on a derived axis in
    # column r folded mod N. The table is in FFT order: column w at w mod N,
    # and the run of midpoints from s0 at (s0 + N/2) mod N, wrapping at N
    half = N // 2

    def gather(table, i):
        out = np.zeros_like(table)
        for r in range(1 - N, N) if i in der else range(-half, half):
            s0 = (max(r, 0) - (r + r % 2) // 2 + half) % N
            n = N - abs(r)
            diag = np.moveaxis(np.diagonal(table, -r, i, d + i), -1, i)
            cell = [slice(None)] * (2 * d)
            cell[d + i] = r % N
            # the run up to the wrap at N, then the rest from 0
            first = min(n, N - s0)
            cell[i] = slice(s0, s0 + first)
            out[tuple(cell)] += diag[(slice(None),) * i + (slice(first),)]
            if first < n:
                cell[i] = slice(n - first)
                out[tuple(cell)] += diag[(slice(None),) * i + (slice(first, n),)]
        return out

    table = M.reshape((N,) * (2 * d))
    del M
    for i in range(d):
        table = gather(table, i)

    # the position round trip, both transforms in the table
    centered_dft(table, range(d), in_place=True, fft_order=True)
    ramps = np.conj(_parity_ramps(grid))
    for i in range(d):
        table *= ramps.reshape([N if k in (i, d + i) else 1 for k in range(2 * d)])
    centered_dft(table, range(d), inverse=True, in_place=True, fft_order=True)
    table /= N ** d
    return _midpoint_table_to_symbol(ctx, table)


def _midpoint_table_to_symbol(ctx, bbar):
    """The symbol from its partial transform b(m, w) on the difference windows.

    bbar has axes (m..., w...), each w on the N-point window |w| < L, in
    FFT order on every axis, and is handed over: the symbol is returned in
    it, swapped back to centred order in place. On a derived axis c it
    holds the doubled window |w| < 2L folded mod N (the adjoint folds it at
    the gather), with entries at w_c = r h + s_c(m, w), s_c = [m, W]_c / 2
    over the regular coordinates. The N-point spectrum of the folded window is the even
    modes of the doubled window's 2N-point spectrum (frequency sampling), so
    times exp(-i xi s_c) it is that of the unshifted window folded onto
    |w| < L. Each difference axis is transformed once, on N points.
    Callers run the `_axes` record's require_shiftable first, so every
    bracket term reads regular axes only and at least one axis is regular.
    """
    grid = ctx.grid
    d, N, h = grid.dim, grid.points_per_axis, grid.h
    axes = _axes(ctx.algebra)
    der, reg = axes.derived, axes.regular
    x, xi = _fft_order(grid.axis_x), _fft_order(grid.axis_xi)
    if der:
        centered_dft(bbar, [d + c for c in der], in_place=True, fft_order=True)
    for c in der:
        # exp(-i xi s_c), s_c = [m, W]_c / 2 over the regular coordinates
        bbar *= np.exp(-1j * xi.reshape((-1,) + (1,) * (d - 1 - c)) * sum(
            0.5 * coef * x.reshape((N,) + (1,) * (2 * d - 1 - i))
            * x.reshape((N,) + (1,) * (d - 1 - j))
            for i, j, coef in axes.terms[c]))
    centered_dft(bbar, [d + i for i in reg], in_place=True, fft_order=True)
    bbar *= h ** d
    _half_swap_in_place(bbar)
    return bbar


def symbol_from_kernel(ctx, K):
    """Invert the quantization map: recover the symbol of a kernel.

    One estimate covers the whole call and is checked before anything is
    allocated: alpha's build (`_alpha_bytes`), then alpha beside the
    dealphaed kernel conj(alpha) K and the inverse it is handed to (which
    covers the three tables of forming conj(alpha) K).
    """
    if not isinstance(K, IntegralKernel):
        raise ShapeError("symbol_from_kernel expects an integral kernel")
    if K.grid != ctx.grid:
        raise ShapeError("kernel grid does not match the context grid")
    table = 16 * K.values.size
    if ctx.algebra.nilpotency_class <= 1:
        _axes(ctx.algebra).require_shiftable()
        invert, beside = _twostep_adjoint, _adjoint_bytes(ctx.grid)
    else:
        invert, beside = _interp_inverse, table + _interp_bytes(ctx.grid)
    _check_work_bytes(max(_alpha_bytes(ctx), table + beside))
    # conj(alpha) K is handed over, not kept, so the adjoint can free it early
    return SymbolField(ctx.grid, invert(ctx, np.conj(_alpha_matrix(ctx)) * K.values))


def apply_operator(K, f):
    """(K f)(Y) = h^d sum_Z K(Y, Z) f(Z)."""
    if not isinstance(K, IntegralKernel) or not isinstance(f, ConfigField):
        raise ShapeError("apply_operator expects (kernel, config field)")
    if f.grid != K.grid or f.space != "g":
        raise ShapeError("field must live on the kernel's position grid")
    g = K.grid
    out = g.h ** g.dim * (K.values @ f.values.ravel())
    return ConfigField(g, out.reshape(f.values.shape))


def compose_kernels(K1, K2):
    """Kernel of the composed operator: matrix product weighted by h^d."""
    if not isinstance(K1, IntegralKernel) or not isinstance(K2, IntegralKernel):
        raise ShapeError("compose_kernels expects two integral kernels")
    if K1.grid != K2.grid:
        raise ShapeError("kernels live on different grids")
    g = K1.grid
    return IntegralKernel(g, g.h ** g.dim * (K1.values @ K2.values))


def moyal_product(ctx, a, b):
    """The twisted product of symbols, via compose-then-invert."""
    Ka = kernel_from_symbol(ctx, a)
    Kb = kernel_from_symbol(ctx, b)
    return symbol_from_kernel(ctx, compose_kernels(Ka, Kb))


def _half_transform_table(ctx, symbol, x_axes):
    """Table for At(X, u) = INT symbol(X, z) e^{i<z, u>} dz.

    Layout (flat X, u on regular axes..., modes on central axes...), every
    axis after X in FFT order: regular axes carry the on-grid |u| < L
    window (zero outside), u = r h at index r mod N; central axes stay
    spectral on the doubled mode grid, which the caller sums against
    phases in the same order. The table is C-ordered, and on a basis whose
    derived axes come last the reshape to it is a view. X runs over the tensor
    sub-grid that x_axes, a list of d grid index arrays, spans, raveled in
    "ij" order; each row depends only on its own X, so it is the whole-grid
    table's row bit for bit.
    """
    grid = ctx.grid
    d, N = grid.dim, grid.points_per_axis
    axes = _axes(ctx.algebra)
    # the rows and the xi axes in FFT order, gathered in one copy
    values = symbol.values[np.ix_(*x_axes, *([(np.arange(N) + N // 2) % N] * d))]
    vals = _partial_transform(ctx, values, grid.dxi ** d, axes.regular + axes.derived,
                              axes.derived)
    return np.ascontiguousarray(vals.reshape((-1,) + vals.shape[d:]))


def _moyal_beta(ctx, X, t_axes=None, z_axes=None):
    """beta(X; Z, T) of the direct product formula over (T, Z) grid pairs.

    Its exponent -e(Y0, Z0) + e(Y0, S) + e(S, Z0), e = alpha_exponent, is
    alpha's exponent under affine substitutions of (T, Z), so it keeps
    alpha_degree and is compiled the same way as the alpha matrix, on
    nodes read off the sub-grids it is asked for (`_grid_pair_values`).
    t_axes and z_axes restrict T and Z to tensor sub-grids; by default the
    shape is (N^d, N^d).
    """
    A = ctx.potential

    def exponent(T, Z):
        Y0, Z0, S = X + Z - T, X + T - Z, Z + T - X
        return (magnetic.alpha_exponent(A, Y0, S) + magnetic.alpha_exponent(A, S, Z0)
                - magnetic.alpha_exponent(A, Y0, Z0))

    return _unit_phase(_grid_pair_values(ctx.grid, exponent, magnetic.alpha_degree(A),
                                         t_axes, z_axes))


def _moyal_beta_bytes(ctx, t_axes, z_axes):
    """Peak bytes of `_moyal_beta` on the sub-grids t_axes and z_axes.

    The exponent's build (`_pair_values_bytes`), where one block's call
    holds Y0, Z0 and S, a partial sum and one quadrature
    (`magnetic._alpha_exponent_bytes`); then the exponent and beta, 24
    bytes a pair.
    """
    A, d = ctx.potential, ctx.grid.dim

    def call_bytes(pairs):
        return 8 * pairs * (3 * d + 1) + magnetic._alpha_exponent_bytes(A, pairs)

    pairs = int(np.prod([v.size for v in t_axes])) * int(np.prod([v.size for v in z_axes]))
    return max(_pair_values_bytes(ctx.grid, magnetic.alpha_degree(A), call_bytes,
                                  t_axes, z_axes), 24 * pairs)


def moyal_2step_point(ctx, a, b, X, xi):
    """The twisted product of two symbols at one phase-space point, directly.

    Reduces the two spectral integrals of the explicit class <= 1
    composition formula analytically, leaving a double Riemann sum with the
    triangular phase correction:

        (a#b)(X, xi) = pi^{-2d} h^{2d} SUM_{Z,T} beta(X;Z,T) At(Z, u)
                       Bt(T, v) e^{-i <xi, 2(Z-T) + [X, Z-T]>},
        u = 2(X-T) + [Z, X-T],   v = 2(Z-X) + [T, Z-X],
        beta = conj(alpha(Y0, Z0)) alpha(Y0, S) alpha(S, Z0),
        Y0 = X+Z-T,  Z0 = X+T-Z,  S = Z+T-X,

    with At, Bt the inverse transforms of the symbols over the covector
    slot. Independent of the kernel machinery, so it cross-checks the
    compose-then-invert route. X must lie on the position grid (only then
    are u and v on-grid in the non-central coordinates). Pairs whose
    regular coordinates of u or v leave the |.| < L window add exact zeros,
    so T and Z run over tensor sub-grids, and At and Bt are transformed on
    those rows only; with no regular axis the sub-grids are the whole grid.

    The cost follows what the sum reads. beta's exponent is evaluated on
    nodes read off the two windows (`_grid_pair_values`): at Heisenberg:3,
    N = 8, 4 x 4 x (degree + 1) points a side. T rows go in blocks whose
    gathered tables and phases, (2N)^|derived| entries a pair, stay within
    _PAIR_BUDGET entries two at a time. One estimate of the working memory
    (beta's build, then beta, the two half-transform tables and the larger
    of a table's build or one T block) is checked before any table is
    allocated.
    """
    alg, grid = ctx.algebra, ctx.grid
    if alg.nilpotency_class > 1:
        raise WrongClass("the direct product formula needs an algebra of class <= 1")
    d, N = grid.dim, grid.points_per_axis
    h, L = grid.h, grid.box_half_width
    half = N // 2
    X = np.asarray(X, dtype=float)
    xi = np.asarray(xi, dtype=float)
    p_idx = X / h + half
    if not np.allclose(p_idx, np.round(p_idx), atol=1e-9):
        raise ShapeError("the probe point X must lie on the position grid")

    axes = _axes(alg)
    der, reg = axes.derived, axes.regular
    # zeta in FFT order, as the tables' mode axes are
    x, zeta = grid.axis_x, _fft_order(_fine_dual_axis(grid))
    cstr = alg.structure_constants
    pts = _grid_points(ctx)
    n = pts.shape[0]
    p = np.round(p_idx).astype(int)
    idx = np.indices((N,) * d).reshape(d, n)

    # brackets land on derived axes only, so the regular coordinates of u
    # and v are the on-grid 2(X-T) and 2(Z-X); pairs outside their |.| < L
    # windows contribute exact zeros, which leaves tensor sub-grids of T
    # and Z: T rows in blocks, Z as a tensor layout; the tables hold those
    # windows in FFT order, r at r mod N
    def window(shift):
        r = 2 * shift
        return np.all((r >= -half) & (r < half), axis=0), r % N

    t_ok, iu = window(p[reg, None] - idx[reg])
    z_ok, iv = window(idx[reg] - p[reg, None])
    ts, zs = np.flatnonzero(t_ok), np.flatnonzero(z_ok)
    t_axes = [np.unique(idx[ax, ts]) for ax in range(d)]
    z_axes = [np.unique(idx[ax, zs]) for ax in range(d)]
    z_shape = tuple(v.size for v in z_axes)
    z_idx = [v.reshape((1,) * (1 + ax) + (-1,) + (1,) * (d - 1 - ax))
             for ax, v in enumerate(z_axes)]
    iv = iv[:, zs]

    # u_c = 2(X-T)_c + [Z, X-T]_c and v_c = 2(Z-X)_c + [T, Z-X]_c as
    # functions of the pair (P, Q) = (T, Z)
    e = np.eye(d)
    u_fns, v_fns = [], []
    for c in der:
        cc = cstr[:, :, c]
        u_fns.append(_derived_phase(x, zeta, 2 * L, 2 * X[c], -2 * e[c], cc @ X, -cc.T))
        v_fns.append(_derived_phase(x, zeta, 2 * L, -2 * X[c], -(cc @ X), 2 * e[c], cc))

    # a T block's tables, the gathered At or Bt and one side's derived
    # phases, hold at most (2N)^|der| entries a pair each: T rows go in
    # blocks of one row or more, two such tables within _PAIR_BUDGET entries
    modes = (2 * N) ** len(der)
    block = max(1, _PAIR_BUDGET // (2 * zs.size * modes))
    pairs = min(block, ts.size) * zs.size
    # one estimate before the tables: beta's build; then beta, At's and Bt's
    # half-transform tables and either one table's build (its gathered rows
    # and a padded or transposed copy) or one T block (a gathered table, one
    # side's phases and the products forming them, the other side's sums
    # and the block's product); the derived phases' tables, the grid-sized
    # index and phase vectors, and small arrays
    row = N ** len(reg) * modes
    t_block = 16 * pairs * (modes + 2 * N * (len(der) + 2) + 4)
    build = 16 * max(ts.size, zs.size) * (N ** d + row)
    _check_work_bytes(
        max(_moyal_beta_bytes(ctx, t_axes, z_axes),
            16 * (ts.size * zs.size + row * (ts.size + zs.size)) + max(build, t_block))
        + sum(fn.nbytes for fn in u_fns + v_fns) + 8 * n * (6 * d + 7) + (1 << 16))

    # beta on the window pairs only, rows in ts order and columns in zs
    # order, built first, beside the grid-sized vectors only
    beta = _moyal_beta(ctx, X, t_axes, z_axes)
    # At is read only at the Z rows and Bt only at the T rows, so each
    # table is built on its window's sub-grid, rows in zs and ts order
    Ca = _half_transform_table(ctx, a, z_axes)
    Cb = _half_transform_table(ctx, b, t_axes)

    # e^{-i <xi, 2(Z-T) + [X, Z-T]>} = e^{-i phi(Z)} e^{i phi(T)}, phi linear
    g = 2 * xi + np.einsum('ijk,i,k->j', cstr, X, xi)
    phi = pts @ g
    z_phase = np.exp(-1j * phi)
    t_phase = np.conj(z_phase)

    total = 0.0 + 0.0j
    for t0 in range(0, ts.size, block):
        tb = ts[t0:t0 + block]
        nt = tb.size
        t_idx = [idx[ax, tb].reshape((nt,) + (1,) * d) for ax in range(d)]
        # the row indices span the (T, Z) block even with no regular axis
        z_rows = np.broadcast_to(np.arange(zs.size), (nt, zs.size))
        t_rows = np.broadcast_to(np.arange(t0, t0 + nt)[:, None], (nt, zs.size))
        At = Ca[(z_rows,) + tuple(r[tb, None] for r in iu)]
        At = _contract_modes(At.reshape((nt,) + z_shape + At.shape[2:]),
                             [fn(t_idx, z_idx) for fn in u_fns])
        Bt = Cb[(t_rows,) + tuple(r[None, :] for r in iv)]
        Bt = _contract_modes(Bt.reshape((nt,) + z_shape + Bt.shape[2:]),
                             [fn(t_idx, z_idx) for fn in v_fns])
        prod = beta[t0:t0 + block] * At.reshape(nt, -1) * Bt.reshape(nt, -1)
        total += t_phase[tb] @ (prod @ z_phase[zs])
    return complex(total * h ** (2 * d) / np.pi ** (2 * d))


def magnetic_derivative_check(ctx, P0, f, tau=1e-3):
    """Finite-difference check of the generator of t -> pi(t P0, 0).

    Central differences of the orbit at steps tau and 2 tau are compared
    with the exact generator: the directional derivative of the interpolant
    along the right-translation field plus i times the potential pairing.
    Returns two check records: the relative error at tau, and the gap from 4
    of the ratio between the errors at 2 tau and tau (a clean second-order
    difference has ratio 4).
    """
    P0 = np.asarray(P0, dtype=float)
    zero = np.zeros(ctx.grid.dim)
    orbit = {t: pi_action(ctx, t * P0, zero, f).values
             for t in (tau, -tau, 2 * tau, -2 * tau)}
    d1 = (orbit[tau] - orbit[-tau]) / (2 * tau)
    d2 = (orbit[2 * tau] - orbit[-2 * tau]) / (4 * tau)
    pts = _grid_points(ctx)
    grad = _spectral_gradient(f)
    R = lie_core.right_translation_differential(ctx.algebra, pts, P0)
    exact = (-np.einsum('pi,pi->p', grad, R)
             + 1j * magnetic.pairing_AR(ctx.potential, pts, P0) * f.values.ravel())
    exact = exact.reshape(f.values.shape)
    norm = np.linalg.norm(exact)
    e1 = np.linalg.norm(d1 - exact) / norm
    e2 = np.linalg.norm(d2 - exact) / norm
    return [{"check": "derivative-relative-error", "value": float(e1)},
            {"check": "derivative-ratio-gap", "value": abs(float(e2 / e1) - 4.0)}]


def gauge_covariance_check(ctx, A1, a):
    """Verify the kernel conjugation identity between two gauges.

    With psi the gauge function of (A1, A) the kernel computed in gauge A1
    must equal e^{i psi(Y)} K_A(Y, Z) e^{-i psi(Z)} entrywise; returns the
    maximum deviation relative to the kernel's sup norm as a check record.
    Raises FieldsDiffer (from the gauge-function probe) when the two
    potentials do not generate the same field.
    """
    psi = magnetic.gauge_function(A1, ctx.potential)
    K = kernel_from_symbol(ctx, a)
    ctx1 = make_context(ctx.algebra, A1, ctx.grid, ctx.threads)
    K1 = kernel_from_symbol(ctx1, a)
    ph = np.exp(1j * psi(_grid_points(ctx)))
    expected = ph[:, None] * K.values * np.conj(ph)[None, :]
    err = np.abs(K1.values - expected).max() / np.abs(K1.values).max()
    return {"check": "gauge-covariance", "value": float(err)}
