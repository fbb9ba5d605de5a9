"""Magnetic potentials with polynomial coefficients and their phase factors.

A potential is a covector field A on the algebra, each component a real
polynomial of total degree at most 8 stored as a dense coefficient table
(entry [m_1, ..., m_d] multiplies x_1^{m_1} ... x_d^{m_d}). Polynomial
representation keeps every construction exact: derivatives and the gauge
line integral are coefficient operations, and all s-integrals below have
polynomial integrands, so fixed Gauss-Legendre rules evaluate them to
round-off.

The phase factor alpha follows the group-geodesic line integral

    alpha(Y, Z) = exp(i INT_0^1 <A(gamma(s)), (R_gamma(s))'_0 (Y*(-Z))> ds),
    gamma(s) = (s (Z*(-Y))) * Y,

which is what the kernel construction and the gauge covariance identities
are built on. On two-step algebras gamma is the straight segment from Y to
Z, and the integrand reduces to <A(sZ+(1-s)Y), Y-Z>. The often-quoted
straight-segment form pairing A against Z*(-Y) instead of Z-Y agrees with
this exactly when A annihilates the derived subalgebra, and otherwise picks
up the extra central factor exp((i/2) INT <A(seg), [Z,Y]> ds); the tests
keep that form (tests/oracles.py) and pin the factor.

The exponent of alpha is itself a real polynomial in (Y, Z) of total degree
at most alpha_degree(A), so grid-wide phase tables need the quadrature only
on a small node set (see weyl_calculus._grid_pair_values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from . import lie_core
from .errors import DegreeTooHigh, FieldsDiffer, ShapeError

MAX_DEGREE = 8
FIELD_PROBE_TOL = 1e-9
_N_FIELD_PROBES = 50


def _table_degree(table):
    nz = np.argwhere(table != 0.0)
    return 0 if nz.size == 0 else int(nz.sum(axis=1).max())


def _table_monomials(table):
    exps = np.argwhere(table != 0.0)
    coeffs = table[tuple(exps.T)] if exps.size else np.zeros(0)
    return exps, coeffs


def _power_table(pts, kmax):
    """powers[p, i, k] = pts[p, i] ** k for k <= kmax, by repeated products."""
    powers = np.ones(pts.shape + (kmax + 1,))
    for k in range(1, kmax + 1):
        powers[:, :, k] = powers[:, :, k - 1] * pts
    return powers


def _monomial_terms(powers, exps):
    """terms[p, t] = prod_i powers[p, i, exps[t, i]], C-contiguous."""
    terms = np.ones((powers.shape[0], exps.shape[0]))
    for i in range(exps.shape[1]):
        terms *= powers[:, i, exps[:, i]]
    return terms


def _eval_monomials(monomials, X, chunk=1 << 16):
    """Polynomials given as (exps, coeffs) pairs on a stack of point sets.

    X has shape (sets, ..., d); the result (sets, ..., len(monomials)).
    Each set is evaluated as a call on it alone would be, bit for bit: in
    chunks of `chunk` points, each polynomial's chunk sum one matrix-vector
    product over a C-contiguous term table (BLAS groups the rows, so the
    row count of a product matters). Sets smaller than a chunk share one
    power table per chunk's worth of points, and every polynomial reads it.
    """
    sets = X.reshape(X.shape[0], -1, X.shape[-1])
    n = sets.shape[1]
    out = np.zeros(sets.shape[:2] + (len(monomials),))
    kmax = max((int(exps.max()) for exps, coeffs in monomials if len(coeffs)), default=None)
    if kmax is None:
        return out.reshape(X.shape[:-1] + (len(monomials),))
    rows = max(1, min(n, chunk))
    group = max(1, chunk // max(1, n))
    for s0 in range(0, sets.shape[0], group):
        for r0 in range(0, n, rows):
            pts = sets[s0:s0 + group, r0:r0 + rows]
            powers = _power_table(pts.reshape(-1, pts.shape[-1]), kmax)
            for i, (exps, coeffs) in enumerate(monomials):
                if len(coeffs):
                    out[s0:s0 + group, r0:r0 + rows, i] = (
                        _monomial_terms(powers, exps).reshape(pts.shape[:2] + (-1,)) @ coeffs)
    return out.reshape(X.shape[:-1] + (len(monomials),))


def polynomial_eval(table, X, chunk=1 << 16):
    """Evaluate a dense-table polynomial at points X of shape (..., d)."""
    X = np.asarray(X, dtype=float)
    d = X.shape[-1]
    if table.ndim != d:
        raise ShapeError(f"table has {table.ndim} axes, points have dimension {d}")
    out = _eval_monomials((_table_monomials(table),), X[None], chunk)[0, ..., 0]
    return out if out.ndim else float(out)


def polynomial_derivative(table, axis):
    """Coefficient table of the partial derivative along one axis."""
    n = table.shape[axis]
    if n == 1:
        return np.zeros_like(table)
    sl = [slice(None)] * table.ndim
    sl[axis] = slice(1, None)
    mult = np.arange(1, n).reshape([-1 if i == axis else 1 for i in range(table.ndim)])
    return table[tuple(sl)] * mult


def _pad_to(table, shape):
    pad = [(0, t - s) for s, t in zip(table.shape, shape)]
    return np.pad(table, pad)


def add_tables(a, b):
    """Sum of two dense coefficient tables, padded to a common shape."""
    shape = tuple(max(s, t) for s, t in zip(a.shape, b.shape))
    return _pad_to(a, shape) + _pad_to(b, shape)


@dataclass(eq=False)
class MagneticPotential:
    """Covector field on the algebra with dense polynomial components."""

    algebra: lie_core.NilpotentLieAlgebra
    tables: tuple
    degree: int
    _grad: tuple = field(default=None, repr=False)
    _monomials: tuple = field(default=None, repr=False)


@dataclass(eq=False)
class GaugeFunction:
    """Real polynomial map on the algebra (one dense coefficient table)."""

    algebra: lie_core.NilpotentLieAlgebra
    table: np.ndarray

    def __call__(self, X):
        return polynomial_eval(self.table, X)


def make_potential(algebra, coefficient_tables):
    """Build a potential from one dense coefficient table per component."""
    d = algebra.dim
    tables = [np.asarray(t, dtype=float) for t in coefficient_tables]
    if len(tables) != d:
        raise ShapeError(f"need {d} component tables, got {len(tables)}")
    for t in tables:
        if t.ndim != d:
            raise ShapeError(f"component tables must have {d} axes, got {t.ndim}")
        if not np.all(np.isfinite(t)):
            raise ShapeError("component tables contain non-finite entries")
    degree = max(_table_degree(t) for t in tables)
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"total degree {degree} exceeds the cap {MAX_DEGREE}")
    return MagneticPotential(algebra, tuple(tables), degree)


def _monomials(A):
    """Each component's (exps, coeffs), compiled once per potential."""
    if A._monomials is None:
        A._monomials = tuple(_table_monomials(t) for t in A.tables)
    return A._monomials


def evaluate_potential(A, X):
    """A_X as a covector, shape (..., d).

    The components' monomials are compiled once per potential, and the d
    components share each power table (`_eval_monomials`).
    """
    return _eval_monomials(_monomials(A), np.asarray(X, dtype=float)[None])[0]


def _gradient_tables(A):
    if A._grad is None:
        d = A.algebra.dim
        A._grad = tuple(
            tuple(polynomial_derivative(t, j) for j in range(d)) for t in A.tables)
    return A._grad


def potential_jacobian(A, X):
    """Matrix J[..., i, j] = (d A_i / d x_j)(X)."""
    grads = _gradient_tables(A)
    d = A.algebra.dim
    rows = [np.stack([polynomial_eval(grads[i][j], X) for j in range(d)], axis=-1)
            for i in range(d)]
    return np.stack(rows, axis=-2)


def field_eval(A, X, X1, X2):
    """The field two-form B_X(X1, X2) = <A'_X(X1), X2> - <A'_X(X2), X1>."""
    J = potential_jacobian(A, X)
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    return (np.einsum('...ij,...j,...i->...', J, X1, X2)
            - np.einsum('...ij,...j,...i->...', J, X2, X1))


def gauge_function(A, A1):
    """The gauge function psi with d psi = A - A1, as an exact polynomial.

    Requires the two potentials to generate the same field; this is probed
    at 50 pseudorandom (X, X1, X2) triples (fixed seed, tolerance 1e-9) and
    FieldsDiffer is raised on disagreement. The line integral
    psi(X) = INT_0^1 <(A - A1)_{tX}, X> dt is done coefficientwise: the
    monomial c x^m in component i contributes c/(|m|+1) x^{m+e_i}.
    """
    if A.algebra is not A1.algebra and A.algebra.dim != A1.algebra.dim:
        raise ShapeError("potentials live on algebras of different dimension")
    d = A.algebra.dim
    rng = np.random.default_rng(171717)
    X, X1, X2 = rng.normal(size=(3, _N_FIELD_PROBES, d))
    gap = np.abs(field_eval(A, X, X1, X2) - field_eval(A1, X, X1, X2)).max()
    if gap > FIELD_PROBE_TOL:
        raise FieldsDiffer(f"field probes disagree by {gap:.3e}")

    psi = np.zeros((1,) * d)
    for i in range(d):
        diff = add_tables(A.tables[i], -np.asarray(A1.tables[i]))
        total = sum(np.ix_(*[np.arange(n) for n in diff.shape]))
        weighted = diff / (total + 1.0)
        pad = [(0, 1) if j == i else (0, 0) for j in range(d)]
        shifted = np.pad(weighted, pad)
        psi = add_tables(psi, np.roll(shifted, 1, axis=i))
    return GaugeFunction(A.algebra, psi)


def gradient_potential(psi):
    """The pure-gauge potential d psi (components are the partials of psi)."""
    d = psi.algebra.dim
    tables = [polynomial_derivative(psi.table, i) for i in range(d)]
    return make_potential(psi.algebra, tables)


def add_potentials(A, A1):
    """Componentwise sum of two potentials on the same algebra."""
    tables = [add_tables(a, b) for a, b in zip(A.tables, A1.tables)]
    return make_potential(A.algebra, tables)


def pairing_AR(A, Y, X):
    """The scalar <A_Y, (R_Y)'_0 X>, batched over leading axes."""
    R = lie_core.right_translation_differential(A.algebra, Y, X)
    return np.einsum('...i,...i->...', evaluate_potential(A, Y), R)


def _pairing_at_nodes(A, Y, X):
    """pairing_AR on each Y[i] of a leading node axis in one pass, bit for
    bit the per-node calls."""
    R = lie_core.right_translation_differential(A.algebra, Y, X)
    return np.einsum('...i,...i->...', _eval_monomials(_monomials(A), Y), R)


def theta0_eval(A, X, xi, Y):
    """<xi, Y> + <A_Y, (R_Y)'_0 X>: the phase generator of the representation."""
    xi = np.asarray(xi, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.einsum('...i,...i->...', xi, Y) + pairing_AR(A, Y, X)


def _alpha_nodes(A):
    n = A.algebra.nilpotency_class
    D = A.degree
    # two bounds on the s-degree of the integrand; either can dominate
    by_words = (D + n) * max(1, n)
    quoted = D * (n + 1) + n + 1
    return ceil((max(by_words, quoted) + 1) / 2)


def alpha_degree(A):
    """Bound on the total degree of alpha_exponent(A, Y, Z) in (Y, Z).

    Equals (A.degree + 1) (n + 1) for an algebra of class n. Proof: call a
    polynomial map into g filtered when, in a basis adapted to the lower
    central series g = g_0 > ... > g_n, its coordinates along g_k (modulo
    g_{k+1}) have degree <= k + 1. The identity maps Y and Z are filtered,
    and so is the bracket of two filtered maps, because [g_i, g_j] lies in
    g_{i+j+1} and a product of parts of degree <= i + 1 and <= j + 1 has
    degree <= i + j + 2. Every BCH expression is a combination of brackets,
    so W = Z*(-Y), gamma(s) = (s W)*Y and (R_gamma)'_0(-W) are filtered
    for each s, hence of degree <= n + 1 in every coordinate. A(gamma) then
    has degree <= D (n + 1), the pairing <A(gamma), (R_gamma)'_0(-W)>
    degree <= (D + 1)(n + 1), and the s-integral does not raise it.
    """
    return (A.degree + 1) * (A.algebra.nilpotency_class + 1)


def alpha_exponent(A, Y, Z):
    """The real exponent of alpha_phase: alpha = exp(i alpha_exponent).

    Line integral of the potential along gamma(s) = (s (Z*(-Y))) * Y paired
    with the right-translation differential of Y*(-Z); Gauss-Legendre with a
    node count covering the polynomial degree of the integrand, so the value
    is exact to round-off. Batched over leading axes of Y and Z; on few
    points the nodes share one group-law call and one pairing
    (`lie_core.gauss_sum`).
    """
    alg = A.algebra
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    W = lie_core.bch(alg, Z, -Y)

    def integrand(s):
        gamma = lie_core.bch(alg, s * W, Y)
        return _pairing_at_nodes(A, gamma, -W)

    return lie_core.gauss_sum(integrand, _alpha_nodes(A), W.shape[:-1])


def _alpha_exponent_bytes(A, points):
    """Bytes alpha_exponent allocates at its peak on `points` points.

    Per point W, -Y and the phase sum; per point of a batch of nodes
    (`lie_core.gauss_sum`) s W or -W, gamma, R, A(gamma), the pairing and
    its weighted copy, plus the group law's own peak
    (`lie_core._group_law_floats`); per point of a chunk of the potential
    (at most 65536) its power table, one component's term table and the
    gathered factor. An upper bound, counted in floats, plus 64 kB of
    small arrays.
    """
    alg = A.algebra
    d = alg.dim
    terms = max(len(coeffs) for exps, coeffs in _monomials(A))
    kmax = max((int(exps.max()) for exps, coeffs in _monomials(A) if len(coeffs)), default=0)
    batch = points * lie_core._nodes_per_call(_alpha_nodes(A), points)
    return 8 * (points * (2 * d + 1) + batch * (4 * d + 2 + lie_core._group_law_floats(alg))
                + min(batch, 1 << 16) * (d * (kmax + 1) + 2 * terms)) + (1 << 16)


def alpha_phase(A, Y, Z):
    """The unimodular phase factor alpha_A(Y, Z), pointwise.

    exp(i alpha_exponent(A, Y, Z)), so |alpha| = 1 exactly. Batched over
    leading axes of Y and Z.
    """
    return np.exp(1j * alpha_exponent(A, Y, Z))


def _preset_strength(name):
    """The strength b after the colon of a preset name, if it is finite."""
    kind, _, arg = name.partition(":")
    try:
        b = float(arg)
    except ValueError:
        b = np.nan
    if not np.isfinite(b):
        raise ValueError(f"potential preset {name!r} does not have the form "
                         f"'{kind}:<b>' with a finite number b")
    return b


def potential_preset(name, algebra):
    """Built-in potentials: 'zero', 'landau:<b>', 'heisenberg-linear:<b>'."""
    d = algebra.dim
    kind, sep, _ = name.partition(":")
    if kind == "zero":
        if sep:
            raise ValueError(f"zero preset takes no argument, got {name!r}")
        return make_potential(algebra, [np.zeros((1,) * d) for _ in range(d)])
    if kind == "landau":
        if d != 2:
            raise ValueError(f"landau preset needs a 2-dimensional algebra, got dim {d}")
        b = _preset_strength(name)
        tables = [np.zeros((2, 2)) for _ in range(2)]
        tables[1][1, 0] = b  # A = (0, b x_1)
        return make_potential(algebra, tables)
    if kind == "heisenberg-linear":
        if d != 3:
            raise ValueError(f"heisenberg-linear preset needs dimension 3, got {d}")
        b = _preset_strength(name)
        tables = [np.zeros((2, 2, 2)) for _ in range(3)]
        tables[1][1, 0, 0] = b  # A = (0, b x_1, 0)
        return make_potential(algebra, tables)
    raise ValueError(f"unknown potential preset {name!r}")


def potential_to_dict(A):
    """Monomial-list form: one {exponents, coeff} entry per nonzero term."""
    comps = []
    for t in A.tables:
        exps, coeffs = _table_monomials(t)
        comps.append([
            {"exponents": [int(e) for e in row], "coeff": float(c)}
            for row, c in zip(exps, coeffs)
        ])
    return {"dim": A.algebra.dim, "components": comps}


def potential_from_dict(algebra, data):
    """Inverse of potential_to_dict."""
    d = algebra.dim
    comps = data["components"]
    if len(comps) != d:
        raise ShapeError(f"need {d} components, got {len(comps)}")
    tables = []
    for comp in comps:
        if comp:
            kmax = max(max(int(e) for e in entry["exponents"]) for entry in comp)
        else:
            kmax = 0
        t = np.zeros((kmax + 1,) * d)
        for entry in comp:
            exps = tuple(int(e) for e in entry["exponents"])
            if len(exps) != d:
                raise ShapeError(f"exponent lists must have length {d}")
            t[exps] += float(entry["coeff"])
        tables.append(t)
    return make_potential(algebra, tables)
