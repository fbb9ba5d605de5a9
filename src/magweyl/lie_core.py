"""Exact computations in finite-dimensional nilpotent Lie algebras.

An algebra is described by its structure constants c[i, j, k], meaning
[e_i, e_j] = sum_k c[i, j, k] e_k in a fixed user basis. Algebra elements are
plain float arrays of coordinates in that basis; every operation accepts
arrays of shape (..., dim) and broadcasts over leading axes.

The group product attached to the algebra (in exponential coordinates) is the
Dynkin commutator series truncated at word length class + 1, which is exact
here: for a nilpotent algebra of class n (abelian has class 0, two-step
algebras class 1) all brackets of word length n + 2 or more vanish, so
psi_map's s-integral is one word sum and its inverse takes class-many steps.
The magnetic phase's s-integrals run a Gauss-Legendre rule (gauss_sum).

Every bracket runs a program compiled once per algebra from its nonzero
structure constants, on contiguous coordinate rows. On sparse bases (every
preset algebra) the values are bit for bit the dense ad-matrix
contraction's (tests/oracles.py: eval_words_einsum); on a dense basis the
sums run in another order and agree with it to round-off, about 3e-16
relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import ClassTooLarge, JacobiViolation, NotNilpotent, ShapeError

PIVOT_TOL = 1e-10
JACOBI_TOL = 1e-12
MAX_CLASS = 6
# entries of one batch of pairs or points, the unit of every blocked loop
_PAIR_BUDGET = 1 << 17


@dataclass(eq=False)
class NilpotentLieAlgebra:
    """A nilpotent Lie algebra in a fixed basis.

    nilpotency_class counts from zero: abelian algebras have class 0 and
    two-step algebras (Heisenberg) have class 1. Much of the literature calls
    these classes 1 and 2; here class n means brackets of word length n + 2
    vanish. lcs_dims lists the dimensions of the lower central series
    g = g_0 > g_1 > ... > g_n.
    """

    dim: int
    structure_constants: np.ndarray
    nilpotency_class: int
    lcs_dims: list[int]
    _program: tuple = field(default=None, repr=False)


def _row_reduce(rows, tol=PIVOT_TOL):
    """Row echelon basis of the span of `rows`, dropping pivots below tol."""
    rows = np.array(rows, dtype=float)
    basis = []
    for row in rows:
        for b in basis:
            j = int(np.argmax(np.abs(b)))
            row = row - b * (row[j] / b[j])
        if np.max(np.abs(row), initial=0.0) > tol:
            basis.append(row / np.max(np.abs(row)))
    return np.array(basis) if basis else np.zeros((0, rows.shape[1]))


def _bracket_span(c, basis):
    """Span of [g, V] for V spanned by the rows of `basis`."""
    # [e_i, v] for every generator e_i and basis row v
    prods = np.einsum('ijk,rj->irk', c, basis).reshape(-1, c.shape[0])
    return _row_reduce(prods)


def new_algebra(dim, structure_constants):
    """Validate structure constants and build the algebra.

    Checks antisymmetry and the Jacobi identity, computes the lower central
    series by iterated bracket spans (rank decisions via row reduction with
    pivot threshold 1e-10) and derives the nilpotency class. Raises
    NotNilpotent when the series stabilizes at a nonzero subspace.
    """
    c = np.asarray(structure_constants, dtype=float)
    if c.shape != (dim, dim, dim):
        raise ShapeError(f"structure constants must have shape {(dim, dim, dim)}, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ShapeError("structure constants contain non-finite entries")
    if np.max(np.abs(c + np.swapaxes(c, 0, 1)), initial=0.0) > JACOBI_TOL:
        raise ValueError("structure constants are not antisymmetric")
    jac = (
        np.einsum('jkm,mil->ijkl', c, c)
        + np.einsum('kim,mjl->ijkl', c, c)
        + np.einsum('ijm,mkl->ijkl', c, c)
    )
    worst = np.max(np.abs(jac), initial=0.0)
    if worst > JACOBI_TOL:
        raise JacobiViolation(f"Jacobi identity violated by {worst:.3e}")

    series = [np.eye(dim)]
    while series[-1].shape[0] > 0:
        nxt = _bracket_span(c, series[-1])
        if nxt.shape[0] == series[-1].shape[0]:
            raise NotNilpotent(
                f"lower central series stabilizes at dimension {nxt.shape[0]}")
        series.append(nxt)
    # series = [g_0, g_1, ..., g_n, g_{n+1} = 0]
    nclass = len(series) - 2
    lcs_dims = [b.shape[0] for b in series[:-1]]
    return NilpotentLieAlgebra(dim, c, nclass, lcs_dims)


_BRACKET_WORD = ((1.0, (0, 1)),)


def bracket(alg, X, Y):
    """[X, Y] through the algebra's bracket program, as the one word [X, Y]."""
    return _eval_words(alg, _BRACKET_WORD, X, Y)


@lru_cache(maxsize=None)
def _dynkin_words(max_degree):
    """Words and net coefficients of the Dynkin expansion of log(exp X exp Y).

    Each entry is (coeff, letters) with letters a tuple over {0, 1} (0 for X,
    1 for Y); the word value is the right-nested commutator
    [l_0, [l_1, [... , l_{m-1}]]] and a length-1 word is the letter itself.
    Words whose last two letters agree vanish identically and are dropped, as
    are words whose coefficients cancel.
    """
    acc = {}

    def extend(letters, nblocks, denom, used):
        if letters:
            key = tuple(letters)
            coeff = (-1.0) ** (nblocks - 1) / (nblocks * len(letters) * denom)
            acc[key] = acc.get(key, 0.0) + coeff
        if used >= max_degree:
            return
        room = max_degree - used
        for r in range(room + 1):
            for s in range(room - r + 1):
                if r + s == 0:
                    continue
                extend(letters + [0] * r + [1] * s,
                       nblocks + 1,
                       denom * factorial(r) * factorial(s),
                       used + r + s)

    extend([], 0, 1.0, 0)
    words = [
        (coeff, letters) for letters, coeff in acc.items()
        if abs(coeff) > 1e-16 and not (len(letters) >= 2 and letters[-1] == letters[-2])
    ]
    words.sort(key=lambda t: (len(t[1]), t[1]))
    return tuple(words)


def _bracket_program(alg):
    """The nonzero structure constants, compiled once per algebra.

    Row k lists, for each column j with a nonzero c[:, j, k], the pair
    (j, terms) with terms the (i, c[i, j, k]) with c[i, j, k] != 0 in
    increasing i, so (ad_V)[k, j] = sum_i V_i c[i, j, k] runs over those
    terms only and a missing column is a structurally zero ad entry.
    """
    if alg._program is None:
        c = alg.structure_constants
        d = alg.dim
        alg._program = tuple(
            tuple((j, tuple((int(i), float(c[i, j, k])) for i in np.flatnonzero(c[:, j, k])))
                  for j in range(d) if c[:, j, k].any())
            for k in range(d))
    return alg._program


def _ad_rows(program, V):
    """ad_V on coordinate rows: per output row, the (j, entry) kept."""
    ad = []
    for row in program:
        entries = []
        for j, terms in row:
            i, cijk = terms[0]
            acc = V[i] * cijk
            for i, cijk in terms[1:]:
                acc = acc + V[i] * cijk
            entries.append((j, acc))
        ad.append(entries)
    return ad


def _apply_ad(ad, v):
    """ad applied to coordinate rows v; a None row is structurally zero."""
    out = []
    for entries in ad:
        acc = None
        for j, a in entries:
            if v[j] is not None:
                p = a * v[j]
                acc = p if acc is None else acc + p
        out.append(acc)
    return out


def _eval_words(alg, words, X, Y):
    """Sum coeff * [word](X, Y) over a word list, batched over leading axes.

    X and Y are copied once into contiguous (d, n) coordinate rows, and the
    brackets run the algebra's bracket program on them: every sum takes
    only the terms with a nonzero structure constant, in increasing index.
    The dropped products are exact zeros, and the dense contraction adds
    the kept ones in the same increasing order on the sparse bases the
    tests cover (every preset algebra; heisenberg:5 and the all-derived
    Heisenberg basis have four- and three-term sums), so there the two
    agree bit for bit. The result is C-contiguous, because later sums run
    in memory order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    shape = np.broadcast_shapes(X.shape, Y.shape)
    d = alg.dim
    if shape[-1:] != (d,):
        raise ShapeError(f"coordinates must end in an axis of length {d}, got {shape}")
    rows = np.empty((2, d) + shape[:-1])
    last_first = tuple(range(1, len(shape))) + (0,)
    rows[0].transpose(last_first)[...] = X
    rows[1].transpose(last_first)[...] = Y
    rows = rows.reshape(2, d, -1)
    program = _bracket_program(alg)
    ads = [None, None]
    # word values by letters: a word's suffixes are shorter words, evaluated once
    values = {(0,): list(rows[0]), (1,): list(rows[1])}
    out = np.zeros(rows.shape[1:])
    out_rows = list(out)
    for coeff, letters in words:
        if len(letters) == 1:
            out += coeff * rows[letters[0]]
            continue
        v = values[letters[-1:]]
        for pos in range(len(letters) - 2, -1, -1):
            suffix = letters[pos:]
            if suffix not in values:
                l = letters[pos]
                if ads[l] is None:
                    ads[l] = _ad_rows(program, values[(l,)])
                values[suffix] = _apply_ad(ads[l], v)
            v = values[suffix]
        for out_k, vk in zip(out_rows, v):
            if vk is not None:
                out_k += coeff * vk
    return np.ascontiguousarray(out.T).reshape(shape)


def _eval_words_floats(alg, words):
    """Floats per point that _eval_words holds at its peak on a word list.

    The two letters' coordinate rows, one value per word suffix of two or
    more letters, the accumulator and the result (d rows each), and both
    letters' ad entries (one per column of the bracket program).
    """
    suffixes = {letters[pos:] for _, letters in words for pos in range(len(letters) - 1)}
    entries = sum(len(row) for row in _bracket_program(alg))
    return alg.dim * (4 + len(suffixes)) + 2 * entries


def _group_law_floats(alg):
    """Floats per point that bch or right_translation_differential hold at
    their peak, the inputs aside (an upper bound)."""
    n = alg.nilpotency_class
    return max(_eval_words_floats(alg, _dynkin_words(n + 1)),
               _eval_words_floats(alg, _dynkin_words_linear(n + 1)))


def bch(alg, X, Y):
    """The group product X * Y in exponential coordinates.

    Dynkin series truncated at word length class + 1 (exact for nilpotent
    algebras). Satisfies X * 0 = X, X * (-X) = 0 and associativity to
    round-off.
    """
    n = alg.nilpotency_class
    if n > MAX_CLASS:
        raise ClassTooLarge(f"nilpotency class {n} exceeds supported bound {MAX_CLASS}")
    return _eval_words(alg, _dynkin_words(n + 1), X, Y)


@lru_cache(maxsize=None)
def _dynkin_words_linear(max_degree):
    """Dynkin words that are degree one in the first argument."""
    return tuple(
        (coeff, letters) for coeff, letters in _dynkin_words(max_degree)
        if sum(1 for l in letters if l == 0) == 1
    )


def right_translation_differential(alg, Y, X):
    """Differential at 0 of W -> W * Y, applied to X.

    Equals d/dt at t = 0 of (tX) * Y; computed exactly by keeping the Dynkin
    words that contain X exactly once. For two-step algebras this is
    X + [X, Y] / 2.
    """
    n = alg.nilpotency_class
    if n > MAX_CLASS:
        raise ClassTooLarge(f"nilpotency class {n} exceeds supported bound {MAX_CLASS}")
    return _eval_words(alg, _dynkin_words_linear(n + 1), X, Y)


@lru_cache(maxsize=None)
def gauss01(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


def _nodes_per_call(n, npoints):
    """The nodes of an n-node rule that gauss_sum evaluates in one call."""
    return min(n, max(1, (_PAIR_BUDGET // 8) // max(1, npoints)))


def gauss_sum(integrand, n, shape):
    """sum_i w_i integrand(s_i) over the n-node Gauss-Legendre rule on [0, 1].

    The rule of magnetic.alpha_exponent and of pi_action's phase. The
    integrand is evaluated at points of the given broadcast shape (the
    coordinate axis aside). It takes the nodes s as an array of shape
    (k, 1, ..., 1), a leading node axis in front of len(shape) + 1 axes, and
    returns its values on that leading axis. The nodes go k at a time, as
    many as keep k x prod(shape) within _PAIR_BUDGET // 8 points and at
    least one, so no batch outgrows a one-node call on a pair block. The
    weighted sum runs node by node in node order, as the node loop's.
    """
    nodes, weights = gauss01(n)
    nodes = nodes.reshape((-1,) + (1,) * (len(shape) + 1))
    step = _nodes_per_call(n, int(np.prod(shape)))
    total = 0.0
    for start in range(0, len(nodes), step):
        values = integrand(nodes[start:start + step])
        for w, v in zip(weights[start:start + step], values):
            total = total + w * v
        # freed before the next batch is evaluated, as the node loop's were
        del values, v
    return total


@lru_cache(maxsize=None)
def _psi_words(max_degree):
    """The Dynkin words of bch(Y, sV) integrated over s in [0, 1]: a word
    with k letters V scales as s^k, so its coefficient is divided by k + 1."""
    return tuple((coeff / (1 + letters.count(1)), letters)
                 for coeff, letters in _dynkin_words(max_degree))


def psi_map(alg, V, Y):
    """The averaged right translation Y -> integral of Y * (sV) over s in [0, 1].

    The integrand is a sum of Dynkin words in Y and sV, each a monomial in
    s, so the integral is one word sum (`_psi_words`).
    """
    n = alg.nilpotency_class
    if n > MAX_CLASS:
        raise ClassTooLarge(f"nilpotency class {n} exceeds supported bound {MAX_CLASS}")
    return _eval_words(alg, _psi_words(n + 1), Y, V)


def psi_inverse(alg, V, Z):
    """Inverse of psi_map in its second argument.

    psi_map(V, Y) - Y - V / 2 is a sum of brackets, so from Y = Z - V / 2
    each correction Y <- Y + (Z - psi_map(V, Y)) moves the error one layer
    down the lower central series: class-many corrections are exact, and
    psi_map(V, psi_inverse(V, Z)) = Z holds to round-off.
    """
    V = np.asarray(V, dtype=float)
    Z = np.asarray(Z, dtype=float)
    Y = Z - 0.5 * V
    for _ in range(alg.nilpotency_class):
        Y = Y + (Z - psi_map(alg, V, Y))
    return Y


def _preset_dim(name, form, ok):
    """The dimension after the colon of a preset name, if ok(dimension) holds."""
    try:
        d = int(name.partition(":")[2])
    except ValueError:
        d = None
    if d is None or not ok(d):
        raise ValueError(f"algebra preset {name!r} does not have the form {form}")
    return d


def algebra_preset(name):
    """Built-in algebras: 'abelian:<d>', 'heisenberg:<2k+1>', 'filiform3:4'."""
    kind = name.partition(":")[0]
    if kind == "abelian":
        d = _preset_dim(name, "'abelian:<d>' with d >= 1", lambda d: d >= 1)
        return new_algebra(d, np.zeros((d, d, d)))
    if kind == "heisenberg":
        d = _preset_dim(name, "'heisenberg:<2k+1>' with k >= 1", lambda d: d >= 3 and d % 2)
        k = (d - 1) // 2
        c = np.zeros((d, d, d))
        for i in range(k):
            c[i, k + i, d - 1] = 1.0
            c[k + i, i, d - 1] = -1.0
        return new_algebra(d, c)
    if name == "filiform3:4":
        c = np.zeros((4, 4, 4))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        c[0, 2, 3], c[2, 0, 3] = 1.0, -1.0
        return new_algebra(4, c)
    raise ValueError(f"unknown algebra preset {name!r}")


def algebra_from_dict(data):
    """Build an algebra from {'dim': d, 'brackets': [{'i', 'j', 'coeffs'}]}.

    Bracket indices are 1-based and the antisymmetric closure is applied, so
    each unordered pair appears once.
    """
    dim = int(data["dim"])
    c = np.zeros((dim, dim, dim))
    for entry in data.get("brackets", []):
        i, j = int(entry["i"]) - 1, int(entry["j"]) - 1
        coeffs = np.asarray(entry["coeffs"], dtype=float)
        if coeffs.shape != (dim,):
            raise ShapeError(f"bracket coeffs must have length {dim}")
        c[i, j, :] = coeffs
        c[j, i, :] = -coeffs
    return new_algebra(dim, c)
