"""Tests for the Lie algebra layer: group law, translations, psi maps."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_weyl_calculus import DER2, FIL5, HEIS_SKEW

from magweyl import lie_core as lc
from magweyl.errors import ClassTooLarge, JacobiViolation, NotNilpotent, ShapeError

HEIS = lc.algebra_preset("heisenberg:3")
HEIS5 = lc.algebra_preset("heisenberg:5")
FIL = lc.algebra_preset("filiform3:4")
AB2 = lc.algebra_preset("abelian:2")
ALL_ALGS = [AB2, HEIS, HEIS5, FIL]


def coords(alg, rng, n=None):
    shape = (alg.dim,) if n is None else (n, alg.dim)
    return rng.normal(size=shape)


class TestNewAlgebra:
    def test_abelian_class_zero(self):
        alg = lc.new_algebra(1, np.zeros((1, 1, 1)))
        assert alg.nilpotency_class == 0
        assert alg.lcs_dims == [1]

    def test_heisenberg_series(self):
        assert HEIS.nilpotency_class == 1
        assert HEIS.lcs_dims == [3, 1]

    def test_filiform_series(self):
        assert FIL.nilpotency_class == 2
        assert FIL.lcs_dims == [4, 2, 1]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            lc.new_algebra(3, np.zeros((3, 3, 2)))

    def test_rejects_non_antisymmetric(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # missing the mirrored entry
        with pytest.raises(ValueError):
            lc.new_algebra(2, c)

    def test_rejects_jacobi_violation(self):
        # [e1,e2] = e3, [e1,e3] = e1: J(e1, e2, e3) = [e1, [e2, e3]]
        # + [e2, [e3, e1]] + [e3, [e1, e2]] = 0 - [e2, e1] + 0 = e3
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        c[0, 2, 0], c[2, 0, 0] = 1.0, -1.0
        with pytest.raises(JacobiViolation, match="violated by 1.000e"):
            lc.new_algebra(3, c)

    def test_rejects_solvable_non_nilpotent(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0  # [e1,e2] = e1
        with pytest.raises(NotNilpotent):
            lc.new_algebra(3, c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = bad, -bad
        with pytest.raises(ShapeError, match="non-finite"):
            lc.new_algebra(3, c)

    def test_from_dict_rejects_short_coeffs(self):
        data = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0.0, 1.0]}]}
        with pytest.raises(ShapeError, match="length 3"):
            lc.algebra_from_dict(data)

    def test_from_dict_round_trip(self):
        data = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0.0, 0.0, 1.0]}]}
        alg = lc.algebra_from_dict(data)
        assert alg.nilpotency_class == 1
        assert np.allclose(alg.structure_constants, HEIS.structure_constants)


class TestBracket:
    def test_heisenberg_generators(self):
        e = np.eye(3)
        assert np.allclose(lc.bracket(HEIS, e[0], e[1]), e[2])
        assert np.allclose(lc.bracket(HEIS, e[1], e[0]), -e[2])

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry_and_bilinearity(self, alg_idx, data):
        alg = ALL_ALGS[alg_idx]
        elems = st.lists(st.floats(-3, 3), min_size=alg.dim, max_size=alg.dim)
        X = np.array(data.draw(elems))
        Y = np.array(data.draw(elems))
        Z = np.array(data.draw(elems))
        t = data.draw(st.floats(-2, 2))
        assert np.allclose(lc.bracket(alg, X, Y), -lc.bracket(alg, Y, X), atol=1e-12)
        lhs = lc.bracket(alg, t * X + Z, Y)
        rhs = t * lc.bracket(alg, X, Y) + lc.bracket(alg, Z, Y)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(7)
        X = coords(FIL, rng, 40)
        assert np.abs(lc.bracket(FIL, X, X)).max() < 1e-14


class TestBch:
    def test_abelian_is_addition(self):
        rng = np.random.default_rng(1)
        X, Y = coords(AB2, rng, 10), coords(AB2, rng, 10)
        assert np.allclose(lc.bch(AB2, X, Y), X + Y)

    def test_heisenberg_generator_product(self):
        e = np.eye(3)
        assert np.allclose(lc.bch(HEIS, e[0], e[1]), [1.0, 1.0, 0.5])

    def test_two_step_closed_form(self):
        rng = np.random.default_rng(2)
        X, Y = coords(HEIS5, rng, 20), coords(HEIS5, rng, 20)
        expect = X + Y + 0.5 * lc.bracket(HEIS5, X, Y)
        assert np.abs(lc.bch(HEIS5, X, Y) - expect).max() < 1e-13

    def test_filiform_generator_product(self):
        e = np.eye(4)
        got = lc.bch(FIL, e[0], e[1])
        assert np.allclose(got, [1.0, 1.0, 0.5, 1.0 / 12.0], atol=1e-14)

    def test_group_axioms_random(self):
        rng = np.random.default_rng(3)
        for alg in ALL_ALGS:
            X, Y, Z = (coords(alg, rng, 100) for _ in range(3))
            assert np.abs(lc.bch(alg, X, np.zeros(alg.dim)) - X).max() < 1e-12
            assert np.abs(lc.bch(alg, X, -X)).max() < 1e-10
            assoc = lc.bch(alg, lc.bch(alg, X, Y), Z) - lc.bch(alg, X, lc.bch(alg, Y, Z))
            assert np.abs(assoc).max() < 1e-10

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_associativity_property(self, alg_idx, data):
        alg = ALL_ALGS[alg_idx]
        elems = st.lists(st.floats(-2, 2), min_size=alg.dim, max_size=alg.dim)
        X, Y, Z = (np.array(data.draw(elems)) for _ in range(3))
        lhs = lc.bch(alg, lc.bch(alg, X, Y), Z)
        rhs = lc.bch(alg, X, lc.bch(alg, Y, Z))
        assert np.allclose(lhs, rhs, atol=1e-9)

    @staticmethod
    def filiform9():
        """The model filiform algebra of dimension 9, of class 7."""
        dim = 9
        c = np.zeros((dim, dim, dim))
        for i in range(1, dim - 1):
            c[0, i, i + 1], c[i, 0, i + 1] = 1.0, -1.0
        return lc.new_algebra(dim, c)

    def test_class_cap(self):
        alg = self.filiform9()
        assert alg.nilpotency_class == 7
        with pytest.raises(ClassTooLarge):
            lc.bch(alg, np.ones(9), np.arange(9, dtype=float))

    @pytest.mark.parametrize("word_sum", [lc.right_translation_differential, lc.psi_map])
    def test_class_cap_in_the_other_word_sums(self, word_sum):
        with pytest.raises(ClassTooLarge, match="class 7"):
            word_sum(self.filiform9(), np.ones(9), np.arange(9, dtype=float))


class TestRightTranslationDifferential:
    def test_identity_cases(self):
        rng = np.random.default_rng(4)
        X = coords(FIL, rng, 10)
        assert np.allclose(lc.right_translation_differential(FIL, np.zeros(4), X), X)
        X2 = coords(AB2, rng, 10)
        Y2 = coords(AB2, rng, 10)
        assert np.allclose(lc.right_translation_differential(AB2, Y2, X2), X2)

    def test_two_step_closed_form(self):
        rng = np.random.default_rng(5)
        X, Y = coords(HEIS, rng, 30), coords(HEIS, rng, 30)
        expect = X + 0.5 * lc.bracket(HEIS, X, Y)
        got = lc.right_translation_differential(HEIS, Y, X)
        assert np.abs(got - expect).max() < 1e-13

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        t = 1e-6
        for alg in (HEIS, FIL):
            X, Y = coords(alg, rng, 20), coords(alg, rng, 20)
            fd = (lc.bch(alg, t * X, Y) - lc.bch(alg, -t * X, Y)) / (2 * t)
            got = lc.right_translation_differential(alg, Y, X)
            assert np.abs(got - fd).max() < 1e-9


class TestPsiMaps:
    def test_abelian_closed_form(self):
        rng = np.random.default_rng(8)
        V, Y = coords(AB2, rng, 10), coords(AB2, rng, 10)
        assert np.allclose(lc.psi_map(AB2, V, Y), Y + 0.5 * V)
        assert np.allclose(lc.psi_inverse(AB2, V, Y), Y - 0.5 * V)

    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(9)
        Y = coords(FIL, rng, 10)
        assert np.allclose(lc.psi_map(FIL, np.zeros(4), Y), Y)

    def test_heisenberg_hand_value(self):
        e = np.eye(3)
        got = lc.psi_map(HEIS, e[0], e[1])
        assert np.allclose(got, [0.5, 1.0, -0.25], atol=1e-14)

    def test_round_trip_100_points(self):
        rng = np.random.default_rng(10)
        assert FIL5.nilpotency_class == 3
        for alg in (HEIS, FIL, FIL5):
            V, Y = coords(alg, rng, 100), coords(alg, rng, 100)
            Z = lc.psi_map(alg, V, Y)
            back = lc.psi_inverse(alg, V, Z)
            assert np.abs(back - Y).max() < 1e-10
            fwd = lc.psi_map(alg, V, lc.psi_inverse(alg, V, Z))
            assert np.abs(fwd - Z).max() < 1e-10

    def test_quadrature_matches_dense_rule(self):
        # the fixed small rule claims exactness; compare against 64 nodes
        rng = np.random.default_rng(11)
        V, Y = coords(FIL, rng), coords(FIL, rng)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        dense = sum(w * lc.bch(FIL, Y, s * V) for s, w in zip(nodes, weights))
        assert np.allclose(lc.psi_map(FIL, V, Y), dense, atol=1e-13)

    def test_jacobian_determinant_is_one(self):
        rng = np.random.default_rng(12)
        step = 1e-5
        for alg in (HEIS, FIL):
            d = alg.dim
            for _ in range(20):
                V, Y = coords(alg, rng), coords(alg, rng)
                eye = step * np.eye(d)
                jac = np.stack(
                    [(lc.psi_map(alg, V, Y + eye[i]) - lc.psi_map(alg, V, Y - eye[i]))
                     / (2 * step) for i in range(d)], axis=1)
                assert abs(np.linalg.det(jac) - 1.0) < 1e-6


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            lc.algebra_preset("nosuch:1")

    def test_preset_dim_is_the_dimension_the_preset_builds(self):
        # the one parse behind algebra_preset and the CLI's size check
        for name in ("abelian:1", "abelian:7", "heisenberg:3", "heisenberg:9", "filiform3:4"):
            assert lc.preset_dim(name) == lc.algebra_preset(name).dim
        assert lc.preset_dim("abelian:100000") == 100000
        for name, says in (("abelian:x", "'abelian:<d>'"), ("abelian:0", "'abelian:<d>'"),
                           ("heisenberg:4", "'heisenberg:<2k+1>'"), ("heisenberg", "'heisenberg:"),
                           ("filiform3:5", "unknown"), ("nosuch:1", "unknown")):
            with pytest.raises(ValueError, match=re.escape(says)):
                lc.preset_dim(name)

    def test_heisenberg_5_pairs(self):
        e = np.eye(5)
        assert np.allclose(lc.bracket(HEIS5, e[0], e[2]), e[4])
        assert np.allclose(lc.bracket(HEIS5, e[1], e[3]), e[4])
        assert np.abs(lc.bracket(HEIS5, e[0], e[1])).max() == 0.0


def rebased(alg, seed):
    """alg in a random dense basis: every [e_i, e_j], i != j, has all coordinates."""
    rng = np.random.default_rng(seed)
    B = np.eye(alg.dim) + 0.3 * rng.normal(size=(alg.dim, alg.dim))
    c = np.einsum('ia,jb,ijk,lk->abl', B, B, alg.structure_constants, np.linalg.inv(B))
    return lc.new_algebra(alg.dim, c)


SPARSE_ALGS = {
    "abelian1": lc.algebra_preset("abelian:1"),
    "abelian2": AB2,
    "heisenberg3": HEIS,
    "heisenberg5": HEIS5,
    "filiform34": FIL,
    "heis-skew": HEIS_SKEW,
    "two-derived": DER2,
    # filiform3:4 modulo its centre: [e1, e2] = -e3
    "filiform34-quotient": lc.algebra_from_dict({"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": [0, 0, -1]}]}),
    "filiform5": FIL5,
}
FIL_DENSE = rebased(FIL, 41)
GROUP_FNS = {
    "bch": lc.bch,
    "right_translation": lc.right_translation_differential,
    "psi_map": lc.psi_map,
    "psi_inverse": lc.psi_inverse,
    "bracket": lc.bracket,
}


def input_pairs(d, rng):
    """A single point, an (n, 1) x (1, m) outer batch, and an empty batch."""
    return [(rng.normal(size=d), rng.normal(size=d)),
            (rng.normal(size=(6, 1, d)), rng.normal(size=(1, 5, d))),
            (np.zeros((0, d)), np.zeros((0, d)))]


def production_and_oracle(monkeypatch, fn, alg, X, Y):
    got = fn(alg, X, Y)
    with monkeypatch.context() as m:
        m.setattr(lc, "_eval_words", oracles.eval_words_einsum)
        want = fn(alg, X, Y)
    return got, want


class TestBracketProgram:
    """The compiled sparse bracket against the dense einsum contraction."""

    @pytest.mark.parametrize("fn", GROUP_FNS.values(), ids=GROUP_FNS.keys())
    @pytest.mark.parametrize("alg", SPARSE_ALGS.values(), ids=SPARSE_ALGS.keys())
    def test_bitwise_the_dense_contraction_on_sparse_bases(self, monkeypatch, alg, fn):
        rng = np.random.default_rng(40)
        for X, Y in input_pairs(alg.dim, rng):
            got, want = production_and_oracle(monkeypatch, fn, alg, X, Y)
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("fn", GROUP_FNS.values(), ids=GROUP_FNS.keys())
    def test_round_off_of_the_dense_contraction_on_a_dense_basis(self, monkeypatch, fn):
        assert np.all(FIL_DENSE.structure_constants[~np.eye(4, dtype=bool)] != 0.0)
        rng = np.random.default_rng(42)
        for X, Y in input_pairs(4, rng):
            got, want = production_and_oracle(monkeypatch, fn, FIL_DENSE, X, Y)
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert np.abs(got - want).max(initial=0.0) <= 1e-15 * np.abs(want).max(initial=0.0)

    def test_no_einsum_in_the_group_law(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        X, Y = np.random.default_rng(43).normal(size=(2, 7, 4))
        monkeypatch.setattr(np, "einsum", refuse)
        for fn in (lc.bch, lc.right_translation_differential, lc.psi_map):
            fn(FIL, X, Y)

    def test_trailing_axis_must_be_the_dimension(self):
        # a length-1 coordinate axis would otherwise broadcast silently
        with pytest.raises(ShapeError):
            lc.bch(HEIS, np.zeros((4, 1)), np.zeros((4, 1)))


class TestPsiClosedForm:
    """psi_map sums the integrated Dynkin words and psi_inverse corrects
    class-many times; the quadrature's node loop is the reference."""

    ALGS = {**{name: lc.algebra_preset(name) for name in
               ["abelian:1", "abelian:2", "heisenberg:3", "heisenberg:5", "filiform3:4"]},
            "heis-skew": HEIS_SKEW, "two-derived": DER2, "filiform34-dense": FIL_DENSE,
            "filiform5": FIL5}

    @pytest.mark.parametrize("alg", ALGS.values(), ids=ALGS.keys())
    def test_matches_the_quadrature(self, alg):
        rng = np.random.default_rng([50, alg.dim])
        # a lone point, the node loop's batch bound // nodes and one more
        # point, and past the bound; then rows of V against all of Y
        nodes = -(-(alg.nilpotency_class + 2) // 2)
        bound = lc._PAIR_BUDGET // 8
        pairs = [rng.normal(size=(2, n, alg.dim)) for n in
                 (1, bound // nodes, bound // nodes + 1, bound + 1)]
        pairs.append((rng.normal(size=(7, 1, alg.dim)), rng.normal(size=(1, 9, alg.dim))))
        for V, Y in pairs:
            got, want = lc.psi_map(alg, V, Y), oracles.psi_map_node_loop(alg, V, Y)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()

    def test_no_quadrature_and_no_quotient(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature or quotient algebra built")

        for name in ("gauss_sum", "gauss01", "new_algebra"):
            monkeypatch.setattr(lc, name, refuse)
        rng = np.random.default_rng(51)
        for alg in (AB2, HEIS, FIL, FIL5):
            V, Z = coords(alg, rng, 5), coords(alg, rng, 5)
            assert np.abs(lc.psi_map(alg, V, lc.psi_inverse(alg, V, Z)) - Z).max() < 1e-13
