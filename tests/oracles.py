"""Dense reference evaluators, kept as cross-check oracles for the tests.

Each evaluates its defining formula at every point or pair, with no
structure to get wrong, so it is slow: the mode sums form one complex
exponential per (point, mode) pair, and the phase factors run the alpha
quadrature on every grid pair. The library evaluates the same sums through
separable phase tables, compiles the phases on a small node sub-grid, and
builds the derived-axis phases of its evaluators from per-term tables. Its
kernel assembly, for every class, sums modes only on the axes where the
group law is nonlinear; `kernel_general_dense` sums every axis's modes on
every pair. `centered_dft_rolled` is the textbook centred transform that
the library's copy-light one must match bit for bit, and
`eval_words_einsum` the dense ad-matrix contraction that the library's
sparse bracket program must match bit for bit on sparse bases.
`fine_spectrum_centred` and `half_transform_table_centred` build the
doubled-grid spectra and the direct point's tables in centred order, where
the library keeps its tables in FFT order.
`kernel_twostep_upsampled` upsamples every position axis of a slab with
`upsample2`'s spectral zero padding, applied as a (2N, N) matrix one axis
at a time, where the library upsamples only the derived axes and shifts
the regular ones by half a step. `midpoint_table_to_symbol_folded` inverts
the class <= 1 midpoint table the long way round: per derived axis a 2N-point transform,
the bracket shift, a 2N-point inverse and a fold of the doubled window onto
|w| < L, then N-point transforms; the library folds the doubled window mod
N at its gather and reads the same values off one N-point transform per
difference axis. `multilinear_corner_loop` is
the interpolating inverse's corner sum as it was first written, one masked
pass per corner of the cell, 2^nd of them; the library gathers every corner
at once and must match it bit for bit. `alpha_exponent_node_loop` and
`pi_action_node_loop` run their Gauss-Legendre rules as first written, one
group-law call per node, and `evaluate_potential_per_component` evaluates
each component on its own; the library stacks the nodes of a rule on few
points in one call, and its components share one power table, and must
match them bit for bit. `psi_map_node_loop` integrates the group law by
its Gauss-Legendre rule, one call per node; the library's closed word sum
must match it to round-off.
"""

from math import ceil

import numpy as np

from magweyl import lie_core, magnetic
from magweyl import weyl_calculus as wl
from magweyl.symbol_space import fourier_g


def centered_dft_rolled(values, axes, inverse=False):
    """The centred DFT sum as ifftshift, FFT, fftshift, then scale.

    The inverse multiplies the library's 1/N per axis back out, so both
    directions are plain exponential sums about index N/2.
    """
    axes = tuple(axes)
    v = np.fft.ifftshift(values, axes=axes)
    if inverse:
        v = np.fft.ifftn(v, axes=axes)
        scale = np.prod([values.shape[a] for a in axes])
    else:
        v = np.fft.fftn(v, axes=axes)
        scale = 1.0
    return np.fft.fftshift(v, axes=axes) * scale


def eval_words_einsum(alg, words, X, Y):
    """Sum coeff * [word](X, Y) over a word list, batched over leading axes."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    shape = np.broadcast_shapes(X.shape, Y.shape)
    X = np.broadcast_to(X, shape)
    Y = np.broadcast_to(Y, shape)
    c = alg.structure_constants
    # (ad_X)[..., k, j] = sum_i X_i c[i, j, k]
    ads = (np.einsum('...i,ijk->...kj', X, c), np.einsum('...i,ijk->...kj', Y, c))
    vecs = (X, Y)
    out = np.zeros(shape)
    for coeff, letters in words:
        v = vecs[letters[-1]]
        for l in letters[-2::-1]:
            v = np.einsum('...kj,...j->...k', ads[l], v)
        out = out + coeff * v
    return out


def _mode_coords(axis, d, subsets=None):
    """Coordinates of the tensor grid axis^d, or of its index sub-grid."""
    axes = [axis] * d if subsets is None else [axis[sub] for sub in subsets]
    mesh = np.meshgrid(*axes, indexing="ij")
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


def fine_spectrum_centred(values, axes):
    """Window samples along axes replaced by their doubled-grid spectral modes.

    Each axis is zero-padded about its centre to 2N points (np.pad) and
    transformed there, divided by 2N; every axis stays centred. The library
    pads and transforms in FFT order (`_fine_spectrum`).
    """
    out = values
    for ax in axes:
        n = out.shape[ax]
        pad = [(0, 0)] * out.ndim
        pad[ax] = (n // 2, n // 2)
        out = wl.centered_dft(np.pad(out, pad), [ax], inverse=False) / (2 * n)
    return out


def joint_spectrum(ctx, a):
    """Joint mode representation: value(m, w) = sum J e^{i<chi,m> + i<zeta,w>}.

    chi runs over the N^d position-dual modes, zeta over the doubled (2N)^d
    modes representing the zero-extended w window; shape (N^d, (2N)^d).
    """
    grid = ctx.grid
    d, N = grid.dim, grid.points_per_axis
    b = (grid.dxi / (2 * np.pi)) ** d * wl.centered_dft(a.values, range(d, 2 * d),
                                                        inverse=True)
    b = fine_spectrum_centred(b, range(d, 2 * d))
    J = wl.centered_dft(b, range(d), inverse=False) / N ** d
    return J.reshape(N ** d, (2 * N) ** d)


def kernel_general_dense(ctx, a, rows=None):
    """The kernel of the symbol a for any class, by dense mode sums per row.

    Exact group-law midpoints and differences on every pair, the joint
    spectrum in both slots, zero where |M| > L or |W| >= 2L, on the
    nonlinear axes with the library's relative slack for round-off at exact
    ties; includes the alpha factor. rows, an index array, restricts Y to
    those grid points.
    """
    alg, grid = ctx.algebra, ctx.grid
    L = grid.box_half_width
    J = joint_spectrum(ctx, a)
    chi = _mode_coords(grid.axis_xi, grid.dim)
    zeta = _mode_coords(wl._fine_dual_axis(grid), grid.dim)
    pts = wl._grid_points(ctx)
    n = pts.shape[0]
    nl = wl._axes(alg).nonlinear
    lin = [i for i in range(grid.dim) if i not in nl]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    K = np.empty((rows.size, n), dtype=complex)
    for i, row in enumerate(rows):
        Yr = pts[row]
        W = lie_core.bch(alg, Yr, -pts)
        M = -lie_core.psi_map(alg, W, -Yr)
        vals = np.einsum('pc,pc->p', np.exp(1j * (M @ chi.T)) @ J,
                         np.exp(1j * (W @ zeta.T)))
        bad = (np.any(np.abs(W[:, lin]) >= 2 * L, axis=-1)
               | np.any(np.abs(M[:, lin]) > L, axis=-1)
               | np.any(np.abs(W[:, nl]) >= 2 * L * (1 - wl._TIE_SLACK), axis=-1)
               | np.any(np.abs(M[:, nl]) > L * (1 + wl._TIE_SLACK), axis=-1))
        vals[bad] = 0.0
        K[i] = vals
    return K * alpha_matrix_dense(ctx, rows)


def upsample2(values, axes):
    """Refine the grid by 2 along the given axes via spectral zero-padding.

    Returns samples of the trigonometric interpolant at half-step points:
    output index u corresponds to (u - N) h / 2 when the input index j
    corresponds to (j - N/2) h. Exact at the original nodes (u = 2j).
    """
    out = values
    for ax in axes:
        n = out.shape[ax]
        spec = wl.centered_dft(out, [ax], inverse=False)
        pad = [(0, 0)] * out.ndim
        pad[ax] = (n // 2, n // 2)
        out = wl.centered_dft(np.pad(spec, pad), [ax], inverse=True)
        out /= n
    return out


def kernel_twostep_upsampled(ctx, a):
    """The dealphaed class <= 1 kernel for d >= 2 through 2x upsampling.

    Per slab of constant j_q - k_q, every position axis of the symbol's
    partial transform is refined to the half-step grid by spectral zero
    padding (`upsample2` of the unit vectors, a (2N, N) matrix; on axis q
    only its rows u = j_q + k_q that the slab reads), and the kernel reads
    the fine table at u = j + k. The library upsamples only the derived
    axes and reads the regular ones through N-point half-step shifts
    instead.
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N = grid.dim, grid.points_per_axis
    L, dxi = grid.box_half_width, grid.dxi
    half = N // 2
    axes = wl._axes(alg)
    der, reg = axes.derived, axes.regular
    q = reg[0]
    b = (dxi / (2 * np.pi)) ** d * wl.centered_dft(a.values, range(d, 2 * d), inverse=True)
    b = fine_spectrum_centred(b, [d + ax for ax in der])
    b = np.transpose(b, list(range(d)) + [d + ax for ax in reg] + [d + ax for ax in der])
    x = grid.axis_x
    zeta = wl._fine_dual_axis(grid)
    cstr = alg.structure_constants
    ktensor = np.zeros((N,) * (2 * d), dtype=complex)

    rest = [i for i in range(d) if i != q]
    m = d - 1
    grids = np.meshgrid(*([np.arange(N)] * (2 * m)), indexing="ij")
    JJ = {ax: grids[i] for i, ax in enumerate(rest)}
    KK = {ax: grids[m + i] for i, ax in enumerate(rest)}
    ufine = tuple(JJ[ax] + KK[ax] for ax in rest)
    ridx, rmask = [], np.ones(grids[0].shape, dtype=bool)
    for ax in rest:
        if ax in reg:
            rr = JJ[ax] - KK[ax]
            rmask &= (rr >= -half) & (rr < half)
            ridx.append(np.clip(rr + half, 0, N - 1))
    ridx = tuple(ridx)
    axis_idx = [np.arange(N).reshape((N,) + (1,) * (2 * m - 1 - i)) for i in range(2 * m)]
    jrest = {ax: axis_idx[i] for i, ax in enumerate(rest)}
    krest = {ax: axis_idx[m + i] for i, ax in enumerate(rest)}
    e = np.eye(d)
    phase_fns = [wl._derived_phase(x, zeta, 2 * L, 0.0, e[c], -e[c], -0.5 * cstr[:, :, c])
                 for c in der]

    # spectral zero padding of one axis as a (2N, N) matrix: upsample2 of
    # the unit vectors
    refine = upsample2(np.eye(N, dtype=complex), [0])
    # the trailing mode axis is independent under the upsampling and summed
    # by the contraction, so it is taken a few modes at a time: a pass
    # refines at most 2^22 entries (64 MiB); one mode of a slab refines to
    # its size times 2 on every axis but q
    per_mode = b[..., :1].size // N * 2 ** (d - 1)
    modes = max(1, (1 << 22) // per_mode)
    chunks = [slice(k, k + modes) for k in range(0, 2 * N, modes)] if der else [slice(None)]
    for r in range(-half, half):
        slab = np.take(b, r + half, axis=d)
        jq = np.arange(max(0, r), min(N, N + r))
        for ch in chunks:
            # every position axis refined, axis q only at the slab's u = j_q + k_q
            up = slab[..., ch]
            for ax in [q] + rest:
                rows = refine[2 * jq - r] if ax == q else refine
                up = np.moveaxis(np.tensordot(rows, up, axes=([1], [ax])), 0, ax)
            for i, j_q in enumerate(jq):
                k_q = j_q - r
                val = up[(slice(None),) * q + (i,)][ufine + ridx]
                y_idx = [j_q if ax == q else jrest[ax] for ax in range(d)]
                z_idx = [k_q if ax == q else krest[ax] for ax in range(d)]
                phases = [fn(y_idx, z_idx) for fn in phase_fns]
                if phases:
                    phases[-1] = phases[-1][..., ch]
                val = wl._contract_modes(val, phases)
                idx = [slice(None)] * (2 * d)
                idx[q], idx[d + q] = j_q, k_q
                ktensor[tuple(idx)] += np.where(rmask, val, 0.0)
    return ktensor.reshape(N ** d, N ** d)


def symbol_adjoint_upsampled(ctx, M):
    """The class <= 1 inversion of a dealphaed kernel through a 2N fine table.

    Scatters the kernel into the (2N)^d midpoint table at u = j + l, projects
    each midpoint axis onto its centred N band (2N-point forward transform,
    crop, N-point inverse, as one (N, 2N) matrix), then undoes the bracket
    shifts and folds the doubled windows (`midpoint_table_to_symbol_folded`).
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N = grid.dim, grid.points_per_axis
    half = N // 2
    axes = wl._axes(alg)
    der, nc = axes.derived, axes.regular
    K = M.reshape((N,) * (2 * d))
    wsize = tuple(2 * N if i in der else N for i in range(d))

    jl = np.meshgrid(*([np.arange(N)] * (2 * d)), indexing="ij")
    keep = np.ones(jl[0].shape, dtype=bool)
    for i in nc:
        diff = jl[i] - jl[d + i]
        keep &= (diff >= -half) & (diff < half)
    udest = [jl[i] + jl[d + i] for i in range(d)]
    wdest = [jl[i] - jl[d + i] + (N if i in der else half) for i in range(d)]
    wflat = np.ravel_multi_index(tuple(w[keep] for w in wdest), wsize)
    ufine = tuple(u[keep] for u in udest)
    vals = K[keep]
    # the difference axes are independent under the projection, so they are
    # taken in flat chunks to bound memory
    nw = int(np.prod(wsize))
    chunk = max(1, (1 << 20) // (2 * N) ** d)
    table = np.empty((N,) * d + (nw,), dtype=complex)
    # the projection of one axis as an (N, 2N) matrix: its 2N-point forward
    # transform, the crop to the centred N band and the N-point inverse,
    # applied to the unit vectors
    spec = wl.centered_dft(np.eye(2 * N, dtype=complex), [0], inverse=False)
    project = wl.centered_dft(spec[N - half:N + half], [0], inverse=True) / N
    for start in range(0, nw, chunk):
        nb = min(chunk, nw - start)
        sel = (wflat >= start) & (wflat < start + nb)
        fine = np.zeros((2 * N,) * d + (nb,), dtype=complex)
        fine[tuple(u[sel] for u in ufine) + (wflat[sel] - start,)] = vals[sel]
        for ax in range(d):
            fine = np.moveaxis(np.tensordot(project, fine, axes=([1], [ax])), 0, ax)
        table[..., start:start + nb] = fine
    return midpoint_table_to_symbol_folded(ctx, table.reshape((N,) * d + wsize))


def midpoint_table_to_symbol_folded(ctx, bbar):
    """The symbol from its partial transform b(m, w) on the difference windows.

    bbar has axes (m..., w...), doubled windows on the derived axes. There
    it holds b at w_c = (r - N) h + [m, W]_c / 2; each fibre is translated
    back onto the plain lattice through the doubled-window modes and
    |w| < 2L folded onto the xi-dual window before the transform over w.
    """
    alg, grid = ctx.algebra, ctx.grid
    d, N, h = grid.dim, grid.points_per_axis, grid.h
    half = N // 2
    axes = wl._axes(alg)
    der, nc = axes.derived, axes.regular
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
            spec = wl.centered_dft(bbar, [d + c], inverse=False)
            spec *= np.exp(-1j * kfine.reshape((-1,) + (1,) * (d - 1 - c)) * s)
            bbar = wl.centered_dft(spec, [d + c], inverse=True)
            bbar /= 2 * N
        for c in der:
            A = np.moveaxis(bbar, d + c, -1)
            B = np.zeros(A.shape[:-1] + (N,), dtype=complex)
            for r in range(2 * N):
                B[..., (r - half) % N] += A[..., r]
            bbar = np.moveaxis(B, -1, d + c)

    out = wl.centered_dft(bbar, range(d, 2 * d), inverse=False)
    out *= h ** d
    return out


def multilinear_corner_loop(tensor, frac_idx):
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


def moyal_beta_dense(ctx, X, t_axes=None, z_axes=None):
    """beta = conj(alpha(Y0, Z0)) alpha(Y0, S) alpha(S, Z0) over (T, Z) pairs.

    Y0 = X+Z-T, Z0 = X+T-Z, S = Z+T-X, one row per grid point T. t_axes and
    z_axes, lists of per-axis grid-index arrays, restrict T and Z to the
    tensor sub-grids they span.
    """
    A = ctx.potential
    x, d = ctx.grid.axis_x, ctx.grid.dim
    X = np.asarray(X, dtype=float)
    Z = _mode_coords(x, d, z_axes)[None, :, :]
    T = _mode_coords(x, d, t_axes)[:, None, :]
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


def half_transform_table_centred(ctx, symbol):
    """At(X, u) = INT symbol(X, z) e^{i<z, u>} dz on every grid row, centred.

    Layout (flat X, u on regular axes..., modes on derived axes...): u = r h
    at index r + N/2 of the |u| < L window, the derived axes on the doubled
    mode grid (`fine_spectrum_centred`). The library builds the same table
    in FFT order on every axis after X (`_half_transform_table`).
    """
    grid = ctx.grid
    d = grid.dim
    axes = wl._axes(ctx.algebra)
    b = grid.dxi ** d * wl.centered_dft(symbol.values, range(d, 2 * d), inverse=True)
    b = fine_spectrum_centred(b, [d + c for c in axes.derived])
    b = np.transpose(b, list(range(d)) + [d + c for c in axes.regular + axes.derived])
    return b.reshape((-1,) + b.shape[d:])


def moyal_point_dense(ctx, a, b, X, xi):
    """The direct class <= 1 product formula at (X, xi), pair by pair.

    Every (T, Z) pair forms u = 2(X-T) + [Z, X-T] and v = 2(Z-X) + [T, Z-X]
    with the bracket einsum, gathers the half-transform tables
    (`half_transform_table_centred`) at their regular coordinates, and
    forms exp(i u_c zeta) and exp(i v_c zeta), one exponential per (pair,
    mode), on every derived axis c. beta is the
    library's compiled one (checked against moyal_beta_dense on its own).
    """
    grid = ctx.grid
    d, N = grid.dim, grid.points_per_axis
    h, L = grid.h, grid.box_half_width
    half = N // 2
    X = np.asarray(X, dtype=float)
    xi = np.asarray(xi, dtype=float)
    axes = wl._axes(ctx.algebra)
    der, reg = axes.derived, axes.regular
    Ca = half_transform_table_centred(ctx, a)
    Cb = half_transform_table_centred(ctx, b)
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


def polynomial_eval_loop(table, X, chunk=1 << 16):
    """A dense-table polynomial at points X of shape (..., d), on its own."""
    X = np.asarray(X, dtype=float)
    d = X.shape[-1]
    exps = np.argwhere(table != 0.0)
    coeffs = table[tuple(exps.T)] if exps.size else np.zeros(0)
    lead = X.shape[:-1]
    out = np.zeros(int(np.prod(lead, dtype=int)) if lead else 1)
    if len(coeffs) == 0:
        return out.reshape(lead) if lead else 0.0
    flat = X.reshape(-1, d)
    kmax = int(exps.max())
    for start in range(0, flat.shape[0], chunk):
        pts = flat[start:start + chunk]
        powers = np.ones((pts.shape[0], d, kmax + 1))
        for k in range(1, kmax + 1):
            powers[:, :, k] = powers[:, :, k - 1] * pts
        terms = np.ones((pts.shape[0], len(coeffs)))
        for i in range(d):
            terms *= powers[:, i, exps[:, i]]
        out[start:start + chunk] = terms @ coeffs
    return out.reshape(lead) if lead else float(out[0])


def evaluate_potential_per_component(A, X):
    """A_X as a covector, shape (..., d): one polynomial evaluation per component."""
    return np.stack([polynomial_eval_loop(t, X) for t in A.tables], axis=-1)


def pairing_per_component(A, Y, X):
    """<A_Y, (R_Y)'_0 X> with the potential evaluated component by component."""
    R = lie_core.right_translation_differential(A.algebra, Y, X)
    return np.einsum('...i,...i->...', evaluate_potential_per_component(A, Y), R)


def alpha_exponent_node_loop(A, Y, Z):
    """alpha's exponent with one group-law call and one pairing per node."""
    alg = A.algebra
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    W = lie_core.bch(alg, Z, -Y)
    nodes, weights = lie_core.gauss01(magnetic._alpha_nodes(A))
    phase = 0.0
    for s, w in zip(nodes, weights):
        gamma = lie_core.bch(alg, s * W, Y)
        phase = phase + w * pairing_per_component(A, gamma, -W)
    return phase


def psi_map_node_loop(alg, V, Y):
    """The averaged right translation with one group-law call per node."""
    n = alg.nilpotency_class
    nodes, weights = lie_core.gauss01(ceil((n + 2) / 2))
    V = np.asarray(V, dtype=float)
    Y = np.asarray(Y, dtype=float)
    out = 0.0
    for s, w in zip(nodes, weights):
        out = out + w * lie_core.bch(alg, Y, s * V)
    return out


def pi_action_node_loop(ctx, X, xi, f):
    """The twisted representation with one group-law call per phase node."""
    X = np.asarray(X, dtype=float)
    xi = np.asarray(xi, dtype=float)
    alg, A = ctx.algebra, ctx.potential
    pts = wl._grid_points(ctx)
    vals = wl._trig_eval(f, lie_core.bch(alg, -X, pts))
    nodes, weights = lie_core.gauss01(magnetic._alpha_nodes(A))
    phase = 0.0
    for s, w in zip(nodes, weights):
        ws = lie_core.bch(alg, -s * X, pts)
        phase = phase + w * (np.einsum('...i,...i->...', xi, ws) + pairing_per_component(A, ws, X))
    n = ctx.grid.points_per_axis
    out = np.exp(1j * phase) * vals
    return out.reshape((n,) * ctx.grid.dim)
