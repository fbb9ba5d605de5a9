"""Discretized phase space: locked dual grids, sampling, Fourier transforms.

The position grid per axis is x_j = (j - N/2) h with h = 2L/N, and the dual
grid is xi_k = (k - N/2) dxi with dxi = 2 pi / (N h), so that
xi_k * x_j = 2 pi (j - N/2)(k - N/2) / N and the continuous transforms become
exact discrete sums evaluated by phase-shifted FFTs. With the symmetric
(2 pi)^{-d/2} normalization the discrete transform is exactly unitary between
the h^d- and dxi^d-weighted inner products.

Norms weight each field by its natural cell volume: h^d on the position grid,
dxi^d on the dual grid, and (2 pi)^{-d} h^d dxi^d = N^{-d} on phase space.
The phase-space weight carries the (2 pi)^{-d} factor that makes the symbol
to kernel map isometric.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadGridSpec, ShapeError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Locked dual grids on g and g* (dxi * h = 2 pi / N, N even)."""

    dim: int
    points_per_axis: int
    box_half_width: float

    @property
    def h(self):
        return 2.0 * self.box_half_width / self.points_per_axis

    @property
    def dxi(self):
        return TWO_PI / (self.points_per_axis * self.h)

    @property
    def axis_x(self):
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.h

    @property
    def axis_xi(self):
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.dxi


def make_grid(dim, N, L):
    """Build the locked grid pair; N must be even, L > 0."""
    if dim < 1 or int(dim) != dim:
        raise BadGridSpec(f"dim must be a positive integer, got {dim}")
    if N < 2 or int(N) != N or int(N) % 2 != 0:
        raise BadGridSpec(f"N must be an even integer >= 2, got {N}")
    if not (L > 0 and np.isfinite(L)):
        raise BadGridSpec(f"L must be positive and finite, got {L}")
    return PhaseSpaceGrid(int(dim), int(N), float(L))


class SymbolField:
    """Complex samples on the phase-space grid, axes (x_1..x_d, xi_1..xi_d)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        d, n = grid.dim, grid.points_per_axis
        if values.shape != (n,) * (2 * d):
            raise ShapeError(f"symbol values must have shape {(n,) * (2 * d)}, got {values.shape}")
        self.grid = grid
        self.values = values

    @property
    def cell_volume(self):
        g = self.grid
        return (g.h * g.dxi / TWO_PI) ** g.dim


class ConfigField:
    """Complex samples on the position grid (space 'g') or its dual ('gstar')."""

    def __init__(self, grid, values, space="g"):
        values = np.asarray(values, dtype=complex)
        d, n = grid.dim, grid.points_per_axis
        if values.shape != (n,) * d:
            raise ShapeError(f"config values must have shape {(n,) * d}, got {values.shape}")
        if space not in ("g", "gstar"):
            raise ShapeError(f"space must be 'g' or 'gstar', got {space!r}")
        self.grid = grid
        self.values = values
        self.space = space

    @property
    def cell_volume(self):
        g = self.grid
        return g.h ** g.dim if self.space == "g" else g.dxi ** g.dim


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


def coordinate_mesh(grid, dual=False):
    """Stacked coordinates of every grid node, shape (N,)*d + (d,)."""
    axis = grid.axis_xi if dual else grid.axis_x
    return np.stack(np.meshgrid(*([axis] * grid.dim), indexing="ij"), axis=-1)


def sample_symbol(evaluator, grid):
    """Sample a pointwise function (X, xi) -> complex at all phase-space nodes.

    The evaluator receives coordinate arrays of shape (..., d) that broadcast
    against each other, so numpy expressions over the last axis work directly.
    """
    d, n = grid.dim, grid.points_per_axis
    X = coordinate_mesh(grid).reshape((n,) * d + (1,) * d + (d,))
    Xi = coordinate_mesh(grid, dual=True).reshape((1,) * d + (n,) * d + (d,))
    values = np.broadcast_to(np.asarray(evaluator(X, Xi), dtype=complex), (n,) * (2 * d))
    return SymbolField(grid, values.copy())


def sample_config(evaluator, grid):
    """Sample a pointwise function Y -> complex at all position nodes."""
    d, n = grid.dim, grid.points_per_axis
    Y = coordinate_mesh(grid)
    values = np.broadcast_to(np.asarray(evaluator(Y), dtype=complex), (n,) * d)
    return ConfigField(grid, values.copy())


def _split_halves(values, axes):
    """values viewed with each listed axis split as (2, n/2), and the index
    that reads those length-2 axes backwards.

    Splitting an axis is a view for any strides, so a write through the
    view lands in values.
    """
    split, flip = [], []
    for ax, n in enumerate(values.shape):
        if ax in axes:
            split += [2, n // 2]
            flip += [slice(None, None, -1), slice(None)]
        else:
            split.append(n)
            flip.append(slice(None))
    return values.reshape(split, copy=False), tuple(flip)


def _half_swap(values, axes, out=None):
    """values with the two halves of each listed axis swapped, into out.

    On an even axis the ifftshift and the fftshift are this same swap, one
    strided copy. Without out it is a fresh complex array in the memory
    order of values, as np.empty_like makes it; out must not overlap values.
    """
    if out is None:
        out = np.empty_like(values, dtype=complex)
    split, flip = _split_halves(values, axes)
    _split_halves(out, axes)[0][...] = split[flip]
    return out


def _half_swap_in_place(values):
    """Swap the two halves of every axis of values in place.

    Over all axes the swap sends each block (one half per axis) to its
    complement, so the blocks with the first half on axis 0 are exchanged
    with their complements through one block-sized buffer, 2^-ndim of
    values.
    """
    split, _ = _split_halves(values, range(values.ndim))
    buf = np.empty([n // 2 for n in values.shape], dtype=values.dtype)
    for rest in itertools.product((0, 1), repeat=values.ndim - 1):
        lo = split[tuple(i for b in (0,) + rest for i in (b, slice(None)))]
        hi = split[tuple(i for b in (0,) + rest for i in (1 - b, slice(None)))]
        buf[...] = lo
        lo[...] = hi
        hi[...] = buf


def centered_dft(values, axes, inverse=False, in_place=False, fft_order=False):
    """Centered-grid DFT sum along the given axes (no measure factors).

    Computes sum_j f_j exp(-+ 2 pi i (j - N/2)(k - N/2)/N) per axis; the
    inverse flag flips the exponent sign and drops the FFT library's 1/N so
    the result is the plain conjugate-kernel sum. Every transformed axis must
    have even length N (ShapeError otherwise), so that index N/2 is the
    centre. One half-swapped copy of values is transformed in place and
    swapped back: by default into a fresh array in the memory order of
    values, so the call holds two arrays besides its input. With in_place
    the caller hands values over, a writable complex array, and the result
    is swapped back into it: the same bits, one array besides it.

    With fft_order, values and the result are both in FFT order on the
    transformed axes (their two halves swapped, centred index N/2 at 0), so
    there is no swap in or out: the result is _half_swap of the centred
    transform of _half_swap(values), bit for bit. It is a fresh complex
    copy in the memory order of values, or with in_place values itself,
    transformed where it lies with no array besides it.
    """
    values = np.asarray(values)
    axes = np.lib.array_utils.normalize_axis_tuple(tuple(axes), values.ndim)
    if any(values.shape[a] % 2 for a in axes):
        raise ShapeError(f"centered_dft needs even lengths on axes {axes}, got shape {values.shape}")
    if in_place and values.dtype != complex:
        raise ShapeError(f"centered_dft in place needs a complex array, got {values.dtype}")
    if fft_order:
        v = values if in_place else values.astype(complex, order="K")
    else:
        v = _half_swap(values, axes)
    if inverse:
        np.fft.ifftn(v, axes=axes, out=v)
        v *= np.prod([values.shape[a] for a in axes])
    else:
        np.fft.fftn(v, axes=axes, out=v)
    if fft_order:
        return v
    return _half_swap(v, axes, out=values if in_place else None)


def fourier_g(field, forward=True):
    """Unitary Fourier transform between the position grid and its dual.

    Forward uses the kernel exp(-i <xi, X>), inverse exp(+i <xi, X>); either
    direction moves the field to the other grid. Exactly unitary: the
    h^d-weighted norm of the input equals the dxi^d-weighted norm of the
    output to round-off.
    """
    if not isinstance(field, ConfigField):
        raise ShapeError("fourier_g expects a config-space field")
    g = field.grid
    d = g.dim
    cell = g.h if field.space == "g" else g.dxi
    scale = (cell / np.sqrt(TWO_PI)) ** d
    out = centered_dft(field.values, range(d), inverse=not forward)
    out *= scale
    other = "gstar" if field.space == "g" else "g"
    return ConfigField(g, out, space=other)


def symplectic_fourier(symbol):
    """The symplectic Fourier transform: an involution on symbol fields.

    Applies the forward transform on the x-axes, the inverse transform on the
    xi-axes, then swaps the two axis blocks. Applying it twice returns the
    original field to round-off. Both transforms are `centered_dft` calls in
    FFT order, in place on one half-swapped copy of the input that is
    swapped back in place, so a call holds one symbol-sized table besides
    its input.
    """
    if not isinstance(symbol, SymbolField):
        raise ShapeError("symplectic_fourier expects a phase-space field")
    g = symbol.grid
    d = g.dim
    scale = (g.h * g.dxi / TWO_PI) ** d
    v = _half_swap(symbol.values, range(2 * d))
    centered_dft(v, range(d), in_place=True, fft_order=True)
    centered_dft(v, range(d, 2 * d), inverse=True, in_place=True, fft_order=True)
    _half_swap_in_place(v)
    v *= scale
    return SymbolField(g, np.transpose(v, axes=tuple(range(d, 2 * d)) + tuple(range(d))))


def l2_norm(field):
    """Riemann-sum L2 norm with the field's cell volume."""
    return float(np.sqrt(np.sum(np.abs(field.values) ** 2) * field.cell_volume))


def inner(f, g):
    """Riemann-sum inner product, conjugate-linear in the first slot."""
    if f.grid != g.grid or f.values.shape != g.values.shape:
        raise ShapeError("inner product needs fields on the same grid")
    if f.cell_volume != g.cell_volume:
        raise ShapeError("inner product needs fields of the same kind")
    return complex(np.sum(np.conj(f.values) * g.values) * f.cell_volume)


def _field_kind(field):
    if isinstance(field, SymbolField):
        return "symbol"
    if isinstance(field, ConfigField):
        return "config" if field.space == "g" else "config_dual"
    if isinstance(field, IntegralKernel):
        return "kernel"
    raise ShapeError(f"cannot serialize {type(field).__name__}")


def _axis_names(kind, dim):
    blocks = {
        "symbol": ("x", "xi"),
        "config": ("x",),
        "config_dual": ("xi",),
        "kernel": ("y", "z"),
    }[kind]
    return [f"{b}{i + 1}" for b in blocks for i in range(dim)]


def dump_field(field, path):
    """Write a field: one JSON header line, then little-endian complex64."""
    kind = _field_kind(field)
    g = field.grid
    header = {
        "kind": kind,
        "dim": g.dim,
        "N": g.points_per_axis,
        "L": g.box_half_width,
        "axes": _axis_names(kind, g.dim),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(field.values, dtype="<c8").tobytes())


def load_field(path):
    """Read a field written by dump_field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    grid = make_grid(header["dim"], header["N"], header["L"])
    kind = header["kind"]
    d, n = grid.dim, grid.points_per_axis
    nblocks = 2 if kind in ("symbol", "kernel") else 1
    values = np.frombuffer(raw, dtype="<c8").astype(complex)
    values = values.reshape((n,) * (nblocks * d))
    if kind == "symbol":
        return SymbolField(grid, values)
    if kind == "config":
        return ConfigField(grid, values)
    if kind == "config_dual":
        return ConfigField(grid, values, space="gstar")
    if kind == "kernel":
        return IntegralKernel(grid, values.reshape(n ** d, n ** d))
    raise ShapeError(f"unknown field kind {kind!r}")
