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
zero-padded window on |w| < 2L) plus explicit masking beyond. The midpoint
slot is evaluated by exact trigonometric interpolation: half-step spectral
shifts (spectral zero padding on one-dimensional groups) for half-grid
points, mode sums on the axes where the group law is nonlinear (class >= 2).
Both give the interpolant a plain nonuniform-DFT definition would, so the
one assembly, for every class, matches a dense mode sum to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import lie_core, magnetic
from .errors import ShapeError, WrongClass
from .symbol_space import ConfigField, SymbolField, centered_dft, fourier_g

TWO_PI = 2.0 * np.pi
_PAIR_BUDGET = 1 << 17
_MAX_WORK_BYTES = 1.2e9


class IntegralKernel:
    """Kernel matrix on the position grid: rows indexed by Y, columns by Z."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        n = grid.points_per_axis ** grid.dim
        if values.shape != (n, n):
            raise ShapeError(f"kernel must be a {n} x {n} matrix, got {values.shape}")
        self.grid = grid
        self.values = values

    @property
    def cell_volume(self):
        g = self.grid
        return g.h ** (2 * g.dim)


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
        g = ctx.grid
        mesh = np.meshgrid(*([g.axis_x] * g.dim), indexing="ij")
        ctx._cache["points"] = np.stack([m.ravel() for m in mesh], axis=-1)
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


def _grid_pair_values(grid, fn, degree, y_axes=None, z_axes=None):
    """fn(Y, Z) on all grid pairs, shape (N^d, N^d), for a polynomial fn.

    fn must be a real polynomial of degree <= degree in each of the 2d
    coordinates of (Y, Z), batched over leading axes. It is evaluated only
    on the tensor sub-grid of m = min(N, degree + 1) grid nodes per axis,
    (m^d)^2 pairs in _PAIR_BUDGET blocks, and expanded to every pair by
    per-axis Lagrange interpolation, which is exact for such fn up to
    round-off. With m = N the Lagrange matrix is the identity, so every
    value is fn's own, bit for bit.

    y_axes and z_axes, lists of d grid-index arrays, restrict Y and Z to
    the tensor sub-grids they span; the result is then
    (prod |y_axes[i]|, prod |z_axes[i]|), raveled in "ij" order.
    """
    d, N = grid.dim, grid.points_per_axis
    m = min(N, degree + 1)
    nodes = grid.axis_x[np.round(np.linspace(0, N - 1, m)).astype(int)]
    mesh = np.meshgrid(*([nodes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    n = pts.shape[0]
    vals = np.empty((n, n))
    block = max(1, _PAIR_BUDGET // n)
    for start in range(0, n, block):
        vals[start:start + block] = fn(pts[start:start + block, None, :], pts[None, :, :])
    full = [np.arange(N)] * d
    subsets = ((full if y_axes is None else list(y_axes))
               + (full if z_axes is None else list(z_axes)))
    out = vals.reshape((m,) * (2 * d))
    # contract the leading axis and append the expanded one: after 2d steps
    # the axes are back in (Y axes..., Z axes...) order
    for sub in subsets:
        out = np.tensordot(out, _lagrange_matrix(grid.axis_x[sub], nodes), axes=([0], [1]))
    ny = int(np.prod([v.size for v in subsets[:d]]))
    return out.reshape(ny, -1)


def _alpha_matrix(ctx):
    """alpha(Y, Z) on all grid pairs, shape (N^d, N^d). Cached."""
    if "alpha" not in ctx._cache:
        A = ctx.potential
        e = _grid_pair_values(ctx.grid, partial(magnetic.alpha_exponent, A),
                              magnetic.alpha_degree(A))
        ctx._cache["alpha"] = np.exp(1j * e)
    return ctx._cache["alpha"]


def _derived_axes(alg):
    """Coordinate axes that receive bracket values ([g, g] support)."""
    hit = np.abs(alg.structure_constants).sum(axis=(0, 1)) > 0
    return [k for k in range(alg.dim) if hit[k]]


def _upsample2(values, axes):
    """Refine the grid by 2 along the given axes via spectral zero-padding.

    Returns samples of the trigonometric interpolant at half-step points:
    output index u corresponds to (u - N) h / 2 when the input index j
    corresponds to (j - N/2) h. Exact at the original nodes (u = 2j).
    """
    out = values
    for ax in axes:
        n = out.shape[ax]
        spec = centered_dft(out, [ax], inverse=False)
        pad = [(0, 0)] * out.ndim
        pad[ax] = (n // 2, n // 2)
        out = centered_dft(np.pad(spec, pad), [ax], inverse=True)
        out /= n
    return out


def _fine_spectrum(values, axes):
    """Replace window samples along axes by doubled-grid spectral modes.

    Input samples g_j sit at w = (j - N/2) h on the |w| < L window; the 2N
    output coefficients c_k per axis represent the zero-extended window as
    g(w) = sum_k c_k exp(i zeta_k w), zeta_k = (k - N) dxi / 2, faithful for
    |w| < 2L (the representation is 4L-periodic beyond; callers mask).
    """
    out = values
    for ax in axes:
        n = out.shape[ax]
        pad = [(0, 0)] * out.ndim
        pad[ax] = (n // 2, n // 2)
        out = centered_dft(np.pad(out, pad), [ax], inverse=False)
        out /= 2 * n
    return out


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
    nodes, weights = lie_core.gauss01(magnetic._alpha_nodes(A))
    phase = 0.0
    for s, w in zip(nodes, weights):
        ws = lie_core.bch(alg, -s * X, pts)
        phase = phase + w * magnetic.theta0_eval(A, X, xi, ws)
    n = ctx.grid.points_per_axis
    out = np.exp(1j * phase) * vals
    return ConfigField(ctx.grid, out.reshape((n,) * ctx.grid.dim))


def _check_work_bytes(nbytes):
    if nbytes > _MAX_WORK_BYTES:
        raise ShapeError(
            f"the kernel map would need ~{nbytes / 1e9:.1f} GB working memory; "
            "reduce N or the dimension")


def _half_step_ramp(grid):
    """exp(i xi_k h / 2) on the centred band xi_k = (k - N/2) dxi.

    Multiplying the N-point spectrum of samples by it and transforming back
    gives the trigonometric interpolant half a step on, at (s - N/2) h + h/2:
    the odd outputs of the 2x spectral upsampling (`_upsample2`), whose even
    outputs are the samples themselves.
    """
    return np.exp(0.5j * grid.h * grid.axis_xi)


def _parity_ramps(grid, wsize, offset):
    """The half-step ramp at odd differences and 1 at even ones, (N, wsize).

    A kernel pair (j, l) has midpoint index u = j + l and difference
    w = j - l (difference index minus offset) of the same parity, so on an
    axis where the difference is an index this selects the shift per entry.
    """
    odd = (np.arange(wsize) - offset) % 2 == 1
    return np.where(odd[None, :], _half_step_ramp(grid)[:, None], 1.0)


def _nonlinear_axes(alg):
    """Coordinate axes that receive double-bracket values ([g, [g, g]] support).

    Off them, in any class, Y*(-Z) = Y - Z - [Y, Z]/2 and the group
    midpoint is (Y+Z)/2; the higher Dynkin terms lie in [g, [g, g]].
    """
    c = alg.structure_constants
    hit = np.abs(np.einsum('jkm,iml->ijkl', c, c)).sum(axis=(0, 1, 2)) > 0
    return [k for k in range(alg.dim) if hit[k]]


def _kernel_structured(ctx, a):
    """Dealphaed kernel for any class: on-grid differences, fine derived axes.

    Off the derived axes w = Y*(-Z) has plain differences y_i - z_i, and off
    the nonlinear axes (`_nonlinear_axes`) the midpoint (Y+Z)/2 lies on the
    half-step grid, so those evaluations are exact interpolant values
    obtained by indexing, a spectral half-step shift, or a short mode sum.
    A nonlinear axis stays spectral in both slots: its N position modes and
    2N difference modes are summed against the group law's midpoint and
    difference on every pair, masked where |m| > L or |w| >= 2L.
    Assembly runs in slabs of constant j - k along the first regular axis
    q. The midpoint index j + k of a regular axis has the parity of its
    difference, so the position spectrum carries that axis's half-step ramp
    once per call; a derived axis takes both parities, so every slab makes
    one inverse transform per parity pattern of the derived half-step axes
    and reads it at (j + k) // 2. With no regular axis, q is derived and one
    slab over all (j_q, k_q) keeps its whole difference mode axis.
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N = grid.dim, grid.points_per_axis
    L, dxi = grid.box_half_width, grid.dxi
    half = N // 2
    der = _derived_axes(alg)
    nl = _nonlinear_axes(alg)
    reg = [i for i in range(d) if i not in der]
    # derived axes whose midpoints take both half-step parities, and the
    # position axes read by index rather than summed over modes
    par = [c for c in der if c not in nl]
    lin = [i for i in range(d) if i not in nl]
    q = (reg or der)[0]
    npar = 1 << len(par)

    # b[X axes..., w axes...]: inverse transform over xi with the kernel
    # measure, doubled-grid spectra on the derived axes, then the w block
    # reordered to (regular axes..., derived mode axes, nonlinear last...)
    b = centered_dft(a.values, range(d, 2 * d), inverse=True)
    b *= (dxi / TWO_PI) ** d
    b = _fine_spectrum(b, [d + ax for ax in der])
    b = np.transpose(b, list(range(d)) + [d + ax for ax in reg + par + nl])
    # b, its position spectrum, one slab per parity pattern, one pair's gather
    gathered = N ** (2 * d - 2) * (2 * N) ** len(der) * N ** len(nl)
    _check_work_bytes(16 * (2 * b.size + npar * b.size // (N if reg else 1) + gathered))

    x = grid.axis_x
    zeta = _fine_dual_axis(grid)
    cstr = alg.structure_constants
    ktensor = np.zeros((N,) * (2 * d), dtype=complex)

    if d == 1:
        up = _upsample2(b, [0])
        for r in range(-half, half):
            js = np.arange(max(0, r), min(N, N + r))
            ktensor[js, js - r] = up[2 * js - r, r + half]
        return ktensor.reshape(N, N)

    # the position spectrum with every regular axis's ramp at odd differences
    spec = centered_dft(b, range(d), inverse=False)
    reg_ramps = _parity_ramps(grid, N, half)
    for pos, ax in enumerate(reg):
        shape = [1] * spec.ndim
        shape[ax], shape[d + pos] = N, N
        spec *= reg_ramps.reshape(shape)
    ramp = _half_step_ramp(grid)

    # index grids over the remaining (j_i, k_i) pairs, axes (j_rest..., k_rest...)
    rest = [i for i in range(d) if i != q]
    m = d - 1
    grids = np.meshgrid(*([np.arange(N)] * (2 * m)), indexing="ij")
    JJ = {ax: grids[i] for i, ax in enumerate(rest)}
    KK = {ax: grids[m + i] for i, ax in enumerate(rest)}
    uhalf = tuple((JJ[ax] + KK[ax]) // 2 for ax in rest if ax in lin)
    parity = sum(((JJ[c] + KK[c]) % 2) << bit for bit, c in enumerate(par) if c != q)
    ridx, rmask = [], np.ones(grids[0].shape, dtype=bool)
    for ax in rest:
        if ax in reg:
            rr = JJ[ax] - KK[ax]
            rmask &= (rr >= -half) & (rr < half)
            ridx.append(np.clip(rr + half, 0, N - 1))
    # the same layout as per-axis index vectors; axis q is set per pair
    axis_idx = [np.arange(N).reshape((N,) + (1,) * (2 * m - 1 - i)) for i in range(2 * m)]
    jrest = {ax: axis_idx[i] for i, ax in enumerate(rest)}
    krest = {ax: axis_idx[m + i] for i, ax in enumerate(rest)}
    # w_c = y_c - z_c - [Y, Z]_c / 2 on each derived half-step axis
    e = np.eye(d)
    phase_fns = [_derived_phase(x, zeta, 2 * L, 0.0, e[c], -e[c], -0.5 * cstr[:, :, c])
                 for c in par]

    def slab_tables(r):
        sl = spec if r is None else np.take(spec, r + half, axis=d)
        tables = np.empty((npar,) + sl.shape, dtype=complex)
        for p in range(npar):
            shifted = sl
            for bit, c in enumerate(par):
                if p >> bit & 1:
                    shifted = shifted * ramp.reshape((N,) + (1,) * (sl.ndim - 1 - c))
            np.divide(centered_dft(shifted, lin, inverse=True), N ** d, out=tables[p])
        # the nonlinear position axes stay spectral, behind the w block
        return np.moveaxis(tables, [1 + c for c in nl], range(-len(nl), 0))

    def do_pairs(tables, qpairs):
        out = []
        for j_q, k_q in qpairs:
            val = tables
            if q in lin:
                val = np.take(val, (j_q + k_q) // 2, axis=1 + lin.index(q))
            p_idx = parity + (((j_q + k_q) % 2) << par.index(q) if q in par else 0)
            val = val[(p_idx,) + uhalf + tuple(ridx)]
            y_idx = [j_q if ax == q else jrest[ax] for ax in range(d)]
            z_idx = [k_q if ax == q else krest[ax] for ax in range(d)]
            phases, keep = [fn(y_idx, z_idx) for fn in phase_fns], rmask
            if nl:
                Y, Z = (np.stack(np.broadcast_arrays(*(x[i] for i in idx)), axis=-1)
                        for idx in (y_idx, z_idx))
                W = lie_core.bch(alg, Y, -Z)
                M = -lie_core.psi_map(alg, W, -Y)
                phases += ([np.exp(1j * (W[..., c, None] * zeta)) for c in nl]
                           + [np.exp(1j * (M[..., c, None] * grid.axis_xi)) for c in nl])
                keep = (keep & np.all(np.abs(W[..., nl]) < 2 * L, axis=-1)
                        & np.all(np.abs(M[..., nl]) <= L, axis=-1))
            out.append((j_q, k_q, np.where(keep, _contract_modes(val, phases), 0.0)))
        return out

    # a worker per slab builds its tables; with no regular axis the one
    # slab's tables are built once and the workers split its pairs
    if reg:
        jobs = [(r, [(j, j - r) for j in range(max(0, r), min(N, N + r))])
                for r in range(-half, half)]

        def run(job):
            return do_pairs(slab_tables(job[0]), job[1])
    else:
        qpairs = [(j, k) for j in range(N) for k in range(N)]
        jobs = [qpairs[i::ctx.threads] for i in range(ctx.threads)]
        run = partial(do_pairs, slab_tables(None))
    if ctx.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=ctx.threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    for slab in results:
        for j_q, k_q, val in slab:
            idx = [slice(None)] * (2 * d)
            idx[q], idx[d + q] = j_q, k_q
            ktensor[tuple(idx)] = val
    return ktensor.reshape(N ** d, N ** d)


def kernel_from_symbol(ctx, a):
    """The integral kernel of the operator quantizing the symbol a."""
    if not isinstance(a, SymbolField):
        raise ShapeError("kernel_from_symbol expects a phase-space symbol field")
    if a.grid != ctx.grid:
        raise ShapeError("symbol grid does not match the context grid")
    return IntegralKernel(ctx.grid, _kernel_structured(ctx, a) * _alpha_matrix(ctx))


def _multilinear(tensor, frac_idx):
    """Multilinear interpolation at fractional indices, zero outside the grid."""
    nd = tensor.ndim
    pts = frac_idx.reshape(-1, nd)
    out = np.zeros(pts.shape[0], dtype=tensor.dtype)
    shape = np.array(tensor.shape)
    block = max(1, int(2e7 / nd))
    for start in range(0, pts.shape[0], block):
        p = pts[start:start + block]
        base = np.floor(p).astype(int)
        t = p - base
        acc = np.zeros(p.shape[0], dtype=tensor.dtype)
        for corner in range(1 << nd):
            offs = np.array([(corner >> i) & 1 for i in range(nd)])
            idx = base + offs
            ok = np.all((idx >= 0) & (idx < shape), axis=1)
            w = np.prod(np.where(offs, t, 1.0 - t), axis=1)
            vals = np.zeros(p.shape[0], dtype=tensor.dtype)
            vals[ok] = tensor[tuple(idx[ok].T)]
            acc += w * vals
        out[start:start + block] = acc
    return out.reshape(frac_idx.shape[:-1])


def _sigma_inverse(ctx, V, W):
    """The (Y, Z) pair with group midpoint V and difference Y*(-Z) = W."""
    alg = ctx.algebra
    Y = -lie_core.psi_inverse(alg, W, -V)
    Z = lie_core.bch(alg, -W, Y)
    return Y, Z


def _symbol_interp(ctx, M):
    """Inversion via interpolation of the dealphaed kernel at midpoint pairs."""
    grid = ctx.grid
    d, N, h = grid.dim, grid.points_per_axis, grid.h
    n = N ** d
    block = max(1, _PAIR_BUDGET // n)
    # G and its transform's two copies; per pair of a block, Y, Z and frac
    # (4 d floats) and at most 16 d floats of group-law or interpolation
    # temporaries
    _check_work_bytes(48 * n * n + 160 * d * min(block, n) * n)
    pts = _grid_points(ctx)
    tensor = M.reshape((N,) * (2 * d))
    G = np.empty((n, n), dtype=complex)
    for start in range(0, n, block):
        nb = pts[start:start + block].shape[0]
        V = np.broadcast_to(pts[start:start + block, None, :], (nb, n, d))
        W = np.broadcast_to(pts[None, :, :], (nb, n, d))
        Y, Z = _sigma_inverse(ctx, V, W)
        frac = np.concatenate([Y, Z], axis=-1) / h + N // 2
        G[start:start + block] = _multilinear(tensor, frac)
    G = centered_dft(G.reshape((N,) * (2 * d)), range(d, 2 * d), inverse=False)
    G *= h ** d
    return G


def _symbol_twostep_adjoint(ctx, M):
    """Invert the class <= 1 quantization by running its chain backwards.

    The forward map reads a half-step midpoint table at the parity cells
    (j + l, j - l), with the derived difference coordinates living on the
    doubled window |w| < 2L and shifted per cell by the bracket term.
    Gathering the kernel into that table at midpoint index (j + l) // 2,
    undoing the half-step shifts on the position spectrum (the projection
    of the twice-upsampled table onto its centred band, which kills the
    parity alias exactly), undoing the bracket shifts spectrally, and
    folding the doubled windows recovers the symbol. Exact up to band
    truncation at the box corners, so tail-level for symbols that decay
    inside the box. Every difference axis here, the doubled derived ones
    too, is indexed by the integer j - l, which fixes the parity of j + l,
    so one table of N^d midpoints carries all of them.
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N = grid.dim, grid.points_per_axis
    half = N // 2
    der = _derived_axes(alg)
    K = M.reshape((N,) * (2 * d))
    wsize = tuple(2 * N if i in der else N for i in range(d))
    offset = [N if i in der else half for i in range(d)]
    # the table and its position spectrum
    _check_work_bytes(32 * N ** d * int(np.prod(wsize)))

    # table[s..., w...] = K[j, l] with j + l = 2 s + (w parity), j - l = w:
    # per axis an (s, w) index pair, zero where j or l leaves the grid
    src_j, src_l, ok = [], [], True
    for i in range(d):
        shape = [1] * (2 * d)
        shape[i], shape[d + i] = N, wsize[i]
        w = np.arange(wsize[i]) - offset[i]
        j = np.arange(N)[:, None] + (w + w % 2)[None, :] // 2
        l = j - w[None, :]
        ok = ok & ((j >= 0) & (j < N) & (l >= 0) & (l < N)).reshape(shape)
        src_j.append(np.clip(j, 0, N - 1).reshape(shape))
        src_l.append(np.clip(l, 0, N - 1).reshape(shape))
    table = np.where(ok, K[tuple(src_j + src_l)], 0.0)

    spec = centered_dft(table, range(d), inverse=False)
    for i in range(d):
        shape = [1] * (2 * d)
        shape[i], shape[d + i] = N, wsize[i]
        spec *= np.conj(_parity_ramps(grid, wsize[i], offset[i])).reshape(shape)
    table = centered_dft(spec, range(d), inverse=True)
    table /= N ** d
    return _midpoint_table_to_symbol(ctx, table)


def _midpoint_table_to_symbol(ctx, bbar):
    """The symbol from its partial transform b(m, w) on the difference windows.

    bbar has axes (m..., w...), doubled windows on the derived axes. There
    it holds b at w_c = (r - N) h + [m, W]_c / 2; each fibre is translated
    back onto the plain lattice through the doubled-window modes and
    |w| < 2L folded onto the xi-dual window before the transform over w.
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N, h = grid.dim, grid.points_per_axis, grid.h
    half = N // 2
    der = _derived_axes(alg)
    nc = [i for i in range(d) if i not in der]
    if der:
        x = grid.axis_x
        cstr = alg.structure_constants
        kfine = (np.arange(2 * N) - N) * grid.dxi / 2
        for c in der:
            s = 0.0
            for i in nc:
                for j in nc:
                    if cstr[i, j, c] == 0.0:
                        continue
                    mi = x.reshape((N,) + (1,) * (2 * d - 1 - i))
                    wj = x.reshape((N,) + (1,) * (d - 1 - j))
                    s = s + 0.5 * cstr[i, j, c] * mi * wj
            spec = centered_dft(bbar, [d + c], inverse=False)
            spec *= np.exp(-1j * kfine.reshape((-1,) + (1,) * (d - 1 - c)) * s)
            bbar = centered_dft(spec, [d + c], inverse=True)
            bbar /= 2 * N
        for c in der:
            A = np.moveaxis(bbar, d + c, -1)
            B = np.zeros(A.shape[:-1] + (N,), dtype=complex)
            for r in range(2 * N):
                B[..., (r - half) % N] += A[..., r]
            bbar = np.moveaxis(B, -1, d + c)

    out = centered_dft(bbar, range(d, 2 * d), inverse=False)
    out *= h ** d
    return out


def symbol_from_kernel(ctx, K):
    """Invert the quantization map: recover the symbol of a kernel."""
    if not isinstance(K, IntegralKernel):
        raise ShapeError("symbol_from_kernel expects an integral kernel")
    if K.grid != ctx.grid:
        raise ShapeError("kernel grid does not match the context grid")
    M = np.conj(_alpha_matrix(ctx)) * K.values
    if ctx.algebra.nilpotency_class <= 1:
        vals = _symbol_twostep_adjoint(ctx, M)
    else:
        vals = _symbol_interp(ctx, M)
    return SymbolField(ctx.grid, vals)


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


def _half_transform_table(ctx, symbol):
    """Table for At(X, u) = INT symbol(X, z) e^{i<z, u>} dz.

    Layout (N^d flat X, u on regular axes..., modes on central axes...):
    regular axes carry the on-grid |u| < L window (zero outside), central
    axes stay spectral on the doubled mode grid.
    """
    grid = ctx.grid
    d, N = grid.dim, grid.points_per_axis
    der = _derived_axes(ctx.algebra)
    reg = [i for i in range(d) if i not in der]
    vals = centered_dft(symbol.values, range(d, 2 * d), inverse=True)
    vals *= grid.dxi ** d
    vals = _fine_spectrum(vals, [d + ax for ax in der])
    order = list(range(d)) + [d + ax for ax in reg] + [d + ax for ax in der]
    vals = np.transpose(vals, order)
    return np.ascontiguousarray(vals.reshape((N ** d,) + vals.shape[d:]))


def _moyal_beta(ctx, X, t_axes=None, z_axes=None):
    """beta(X; Z, T) of the direct product formula over (T, Z) grid pairs.

    Its exponent -e(Y0, Z0) + e(Y0, S) + e(S, Z0), e = alpha_exponent, is
    alpha's exponent under affine substitutions of (T, Z), so it keeps
    alpha_degree and is compiled the same way as the alpha matrix. t_axes
    and z_axes restrict T and Z to tensor sub-grids (`_grid_pair_values`);
    by default the shape is (N^d, N^d).
    """
    A = ctx.potential

    def exponent(T, Z):
        Y0, Z0, S = X + Z - T, X + T - Z, Z + T - X
        return (magnetic.alpha_exponent(A, Y0, S) + magnetic.alpha_exponent(A, S, Z0)
                - magnetic.alpha_exponent(A, Y0, Z0))

    return np.exp(1j * _grid_pair_values(ctx.grid, exponent, magnetic.alpha_degree(A),
                                         t_axes, z_axes))


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
    are u and v on-grid in the non-central coordinates).
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

    der = _derived_axes(alg)
    reg = [i for i in range(d) if i not in der]
    Ca = _half_transform_table(ctx, a)
    Cb = _half_transform_table(ctx, b)
    x, zeta = grid.axis_x, _fine_dual_axis(grid)
    cstr = alg.structure_constants
    pts = _grid_points(ctx)
    n = pts.shape[0]
    p = np.round(p_idx).astype(int)
    idx = np.indices((N,) * d).reshape(d, n)

    # brackets land on derived axes only, so the regular coordinates of u
    # and v are the on-grid 2(X-T) and 2(Z-X); pairs outside their |.| < L
    # windows contribute exact zeros, which leaves tensor sub-grids of T
    # and Z: T rows in _PAIR_BUDGET blocks, Z as a tensor layout
    def window(shift):
        r = 2 * shift
        return np.all((r >= -half) & (r < half), axis=0), r + half

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

    # e^{-i <xi, 2(Z-T) + [X, Z-T]>} = e^{-i phi(Z)} e^{i phi(T)}, phi linear
    g = 2 * xi + np.einsum('ijk,i,k->j', cstr, X, xi)
    phi = pts @ g
    z_phase = np.exp(-1j * phi)
    t_phase = np.conj(z_phase)

    # beta on the window pairs only, rows in ts order and columns in zs order
    beta = _moyal_beta(ctx, X, t_axes, z_axes)
    total = 0.0 + 0.0j
    block = max(1, _PAIR_BUDGET // zs.size)
    for t0 in range(0, ts.size, block):
        tb = ts[t0:t0 + block]
        nt = tb.size
        t_idx = [idx[ax, tb].reshape((nt,) + (1,) * d) for ax in range(d)]
        At = Ca[(zs[None, :],) + tuple(r[tb, None] for r in iu)]
        At = _contract_modes(At.reshape((nt,) + z_shape + At.shape[2:]),
                             [fn(t_idx, z_idx) for fn in u_fns])
        Bt = Cb[(tb[:, None],) + tuple(r[None, :] for r in iv)]
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
