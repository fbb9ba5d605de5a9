"""Tests for polynomial potentials, gauge functions, and phase factors."""

import json

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl import lie_core as lc
from magweyl import magnetic as mg
from magweyl.errors import DegreeTooHigh, FieldsDiffer, ShapeError

AB1 = lc.algebra_preset("abelian:1")
AB2 = lc.algebra_preset("abelian:2")
HEIS = lc.algebra_preset("heisenberg:3")


def random_potential(alg, rng, degree=3, scale=0.5):
    d = alg.dim
    tables = []
    for _ in range(d):
        t = np.zeros((degree + 1,) * d)
        for _ in range(4):
            exps = tuple(rng.integers(0, degree + 1, size=d))
            if sum(exps) <= degree:
                t[exps] = rng.normal(scale=scale)
        tables.append(t)
    return mg.make_potential(alg, tables)


class TestMakePotential:
    def test_zero_preset(self):
        A = mg.potential_preset("zero", HEIS)
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert np.all(mg.evaluate_potential(A, X) == 0.0)
        assert A.degree == 0

    def test_landau_values(self):
        A = mg.potential_preset("landau:0.7", AB2)
        X = np.array([[1.5, -2.0], [0.0, 3.0]])
        vals = mg.evaluate_potential(A, X)
        assert np.allclose(vals, [[0.0, 0.7 * 1.5], [0.0, 0.0]])

    def test_heisenberg_linear_values(self):
        A = mg.potential_preset("heisenberg-linear:2.0", HEIS)
        X = np.array([0.5, 9.0, -1.0])
        assert np.allclose(mg.evaluate_potential(A, X), [0.0, 1.0, 0.0])

    def test_rejects_component_count(self):
        with pytest.raises(ShapeError):
            mg.make_potential(AB2, [np.zeros((1, 1))])

    def test_rejects_table_rank(self):
        with pytest.raises(ShapeError):
            mg.make_potential(AB2, [np.zeros(3), np.zeros(3)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_table(self, bad):
        with pytest.raises(ShapeError, match="non-finite"):
            mg.make_potential(AB2, [np.array([[0.0, bad]]), np.zeros((1, 1))])

    def test_rejects_high_degree(self):
        t = np.zeros(10)
        t[9] = 1.0
        with pytest.raises(DegreeTooHigh):
            mg.make_potential(AB1, [t])

    def test_degree_nine_table_with_zero_tail_is_fine(self):
        t = np.zeros(10)
        t[8] = 1.0
        assert mg.make_potential(AB1, [t]).degree == 8

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            mg.potential_preset("nosuch", AB2)
        with pytest.raises(ValueError):
            mg.potential_preset("landau:1.0", HEIS)
        for name in ("zero:junk", "zero:"):
            with pytest.raises(ValueError, match="zero preset takes no argument"):
                mg.potential_preset(name, AB2)


class TestPolynomialHelpers:
    def test_eval_matches_horner_on_line(self):
        table = np.array([2.0, -1.0, 0.0, 3.0])
        xs = np.linspace(-2, 2, 7)[:, None]
        got = mg.polynomial_eval(table, xs)
        assert np.allclose(got, 2 - xs[:, 0] + 3 * xs[:, 0] ** 3)

    def test_eval_multivariate(self):
        # p(x, y) = 1 + 2 x y^2
        table = np.zeros((2, 3))
        table[0, 0], table[1, 2] = 1.0, 2.0
        pts = np.array([[1.0, 2.0], [-0.5, 3.0]])
        assert np.allclose(mg.polynomial_eval(table, pts), [9.0, -8.0])

    def test_eval_rejects_points_of_another_dimension(self):
        with pytest.raises(ShapeError, match="2 axes, points have dimension 3"):
            mg.polynomial_eval(np.zeros((2, 3)), np.zeros((4, 3)))

    def test_derivative_tables(self):
        table = np.zeros((2, 3))
        table[1, 2] = 2.0  # 2 x y^2
        dx = mg.polynomial_derivative(table, 0)
        dy = mg.polynomial_derivative(table, 1)
        pts = np.array([[1.5, -2.0]])
        assert np.allclose(mg.polynomial_eval(dx, pts), 2 * (-2.0) ** 2)
        assert np.allclose(mg.polynomial_eval(dy, pts), 4 * 1.5 * (-2.0))

    def test_chunked_eval_matches_direct(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(3, 3))
        pts = rng.normal(size=(1000, 2))
        small = mg.polynomial_eval(table, pts, chunk=17)
        big = mg.polynomial_eval(table, pts)
        # identical math; matmul reduction order may differ by an ulp
        assert np.abs(small - big).max() < 1e-14


class TestFieldEval:
    def test_constant_potential_has_zero_field(self):
        tables = [np.full((1, 1, 1), c) for c in (0.3, -0.5, 0.9)]
        A = mg.make_potential(HEIS, tables)
        rng = np.random.default_rng(2)
        X, X1, X2 = rng.normal(size=(3, 10, 3))
        assert np.abs(mg.field_eval(A, X, X1, X2)).max() == 0.0

    def test_landau_constant_field(self):
        A = mg.potential_preset("landau:0.7", AB2)
        e1, e2 = np.eye(2)
        rng = np.random.default_rng(3)
        for X in rng.normal(size=(5, 2)):
            assert np.isclose(mg.field_eval(A, X, e1, e2), 0.7)

    def test_gradient_potential_has_zero_field(self):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(3, 3, 3)) * (rng.random(size=(3, 3, 3)) < 0.3)
        psi = mg.GaugeFunction(HEIS, table)
        A = mg.gradient_potential(psi)
        X, X1, X2 = rng.normal(size=(3, 20, 3))
        assert np.abs(mg.field_eval(A, X, X1, X2)).max() < 1e-12

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        A = random_potential(HEIS, rng)
        X, X1, X2 = rng.normal(size=(3, 10, 3))
        lhs = mg.field_eval(A, X, X1, X2)
        rhs = -mg.field_eval(A, X, X2, X1)
        assert np.array_equal(lhs, rhs)


class TestGaugeFunction:
    def test_rejects_potentials_across_dimensions(self):
        with pytest.raises(ShapeError, match="different dimension"):
            mg.gauge_function(mg.potential_preset("zero", AB2), mg.potential_preset("zero", HEIS))

    def test_identical_potentials_give_zero(self):
        rng = np.random.default_rng(6)
        A = random_potential(AB2, rng)
        psi = mg.gauge_function(A, A)
        assert np.abs(psi.table).max() == 0.0

    def test_line_gauge_on_reals(self):
        A = mg.make_potential(AB1, [np.array([0.0, 1.0])])
        Z = mg.potential_preset("zero", AB1)
        psi = mg.gauge_function(A, Z)
        xs = np.linspace(-2, 2, 9)[:, None]
        assert np.allclose(psi(xs), 0.5 * xs[:, 0] ** 2)

    def test_landau_vs_rotated_gauge(self):
        b = 0.7
        A = mg.potential_preset(f"landau:{b}", AB2)
        t1 = [np.zeros((2, 2)), np.zeros((2, 2))]
        t1[0][0, 1] = -b  # A1 = (-b x_2, 0)
        A1 = mg.make_potential(AB2, t1)
        psi = mg.gauge_function(A, A1)
        X = np.random.default_rng(7).normal(size=(30, 2))
        assert np.abs(psi(X) - b * X[:, 0] * X[:, 1]).max() < 1e-12
        assert abs(psi(np.zeros(2))) == 0.0

    def test_gradient_identity_at_random_points(self):
        rng = np.random.default_rng(8)
        for alg in (AB2, HEIS):
            A = random_potential(alg, rng)
            psi_poly = mg.GaugeFunction(alg, rng.normal(size=(3,) * alg.dim))
            A1 = mg.add_potentials(A, mg.gradient_potential(psi_poly))
            psi = mg.gauge_function(A1, A)
            dpsi = mg.gradient_potential(psi)
            X = rng.normal(size=(100, alg.dim))
            gap = mg.evaluate_potential(dpsi, X) - (
                mg.evaluate_potential(A1, X) - mg.evaluate_potential(A, X))
            assert np.abs(gap).max() < 1e-10

    def test_rejects_different_fields(self):
        A = mg.potential_preset("landau:1.0", AB2)
        B = mg.potential_preset("landau:1.001", AB2)
        with pytest.raises(FieldsDiffer):
            mg.gauge_function(A, B)


class TestPairingAndTheta:
    def test_zero_potential(self):
        A = mg.potential_preset("zero", HEIS)
        rng = np.random.default_rng(9)
        Y, X = rng.normal(size=(2, 10, 3))
        assert np.all(mg.pairing_AR(A, Y, X) == 0.0)

    def test_abelian_reduces_to_plain_pairing(self):
        rng = np.random.default_rng(10)
        A = random_potential(AB2, rng)
        Y, X = rng.normal(size=(2, 10, 2))
        expect = np.einsum('ni,ni->n', mg.evaluate_potential(A, Y), X)
        assert np.allclose(mg.pairing_AR(A, Y, X), expect)

    def test_constant_potential_two_step_form(self):
        tables = [np.full((1, 1, 1), c) for c in (0.3, -0.5, 0.9)]
        A = mg.make_potential(HEIS, tables)
        c = np.array([0.3, -0.5, 0.9])
        rng = np.random.default_rng(11)
        X, Y = rng.normal(size=(2, 10, 3))
        expect = (X + 0.5 * lc.bracket(HEIS, X, Y)) @ c
        assert np.abs(mg.pairing_AR(A, Y, X) - expect).max() < 1e-13

    def test_theta0_zero_cases_and_linearity(self):
        rng = np.random.default_rng(12)
        A = random_potential(HEIS, rng)
        X, Y = rng.normal(size=(2, 10, 3))
        xi, eta = rng.normal(size=(2, 10, 3))
        zero = mg.potential_preset("zero", HEIS)
        assert np.allclose(mg.theta0_eval(zero, X, xi, Y), np.einsum('ni,ni->n', xi, Y))
        assert np.allclose(mg.theta0_eval(A, np.zeros(3), xi, Y),
                           np.einsum('ni,ni->n', xi, Y))
        # affine in xi at fixed (X, Y): the xi part is the plain pairing
        lhs = mg.theta0_eval(A, X, xi + 2.0 * eta, Y)
        direct = np.einsum('ni,ni->n', xi + 2 * eta, Y) + mg.pairing_AR(A, Y, X)
        assert np.allclose(lhs, direct)


class TestAlphaPhase:
    def test_zero_potential_gives_one(self):
        A = mg.potential_preset("zero", HEIS)
        rng = np.random.default_rng(13)
        Y, Z = rng.normal(size=(2, 10, 3))
        assert np.all(mg.alpha_phase(A, Y, Z) == 1.0)

    def test_abelian_linear_closed_form(self):
        b = 0.7
        A = mg.make_potential(AB1, [np.array([0.0, b])])
        rng = np.random.default_rng(14)
        Y, Z = rng.normal(size=(2, 25, 1))
        got = mg.alpha_phase(A, Y, Z)
        expect = np.exp(1j * b * (Y[:, 0] ** 2 - Z[:, 0] ** 2) / 2)
        assert np.abs(got - expect).max() < 1e-12

    def test_unimodular_and_diagonal(self):
        rng = np.random.default_rng(15)
        A = random_potential(HEIS, rng)
        Y, Z = rng.normal(size=(2, 30, 3))
        al = mg.alpha_phase(A, Y, Z)
        assert np.abs(np.abs(al) - 1.0).max() < 1e-15
        assert np.all(mg.alpha_phase(A, Y, Y) == 1.0)

    def test_swap_conjugates(self):
        rng = np.random.default_rng(16)
        A = random_potential(HEIS, rng)
        Y, Z = rng.normal(size=(2, 20, 3))
        assert np.abs(mg.alpha_phase(A, Z, Y) - np.conj(mg.alpha_phase(A, Y, Z))).max() < 1e-13

    def test_two_step_segment_form_when_A_kills_derived_algebra(self):
        A = mg.potential_preset("heisenberg-linear:0.8", HEIS)
        rng = np.random.default_rng(17)
        Y, Z = rng.normal(size=(2, 50, 3))
        gap = np.abs(mg.alpha_phase(A, Y, Z) - oracles.alpha_phase_segment_form(A, Y, Z)).max()
        assert gap < 1e-12

    def test_segment_form_central_correction(self):
        # with a central component the two line integrals differ by an
        # explicit factor; pin it so the convention stays fixed
        tc = [np.zeros((2, 2, 2)) for _ in range(3)]
        tc[2][0, 1, 0] = 0.5  # third component 0.5 x_2
        A = mg.make_potential(HEIS, tc)
        rng = np.random.default_rng(18)
        Y, Z = rng.normal(size=(2, 30, 3))
        g_general = mg.alpha_phase(A, Y, Z)
        g_segment = oracles.alpha_phase_segment_form(A, Y, Z)
        nodes, weights = lc.gauss01(6)
        br = lc.bracket(HEIS, Z, Y)
        corr = sum(w * np.einsum('ni,ni->n', mg.evaluate_potential(A, s * Z + (1 - s) * Y), br)
                   for s, w in zip(nodes, weights))
        assert np.abs(g_segment - g_general * np.exp(0.5j * corr)).max() < 1e-13

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_unimodularity_property(self, seed):
        rng = np.random.default_rng(seed)
        A = random_potential(HEIS, rng, degree=2)
        Y, Z = rng.normal(size=(2, 5, 3))
        assert np.abs(np.abs(mg.alpha_phase(A, Y, Z)) - 1.0).max() < 1e-15


class TestAlphaDegree:
    """alpha_exponent is a polynomial of total degree <= alpha_degree."""

    @pytest.mark.parametrize("name", ["heisenberg:3", "heisenberg:5",
                                      "filiform3:4", "abelian:2"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_bound_interpolates_on_random_lines(self, name, degree):
        alg = lc.algebra_preset(name)
        d = alg.dim
        rng = np.random.default_rng([degree, d, alg.nilpotency_class])
        top = [np.zeros((degree + 1,) * d) for _ in range(d)]
        exps = np.bincount(rng.integers(0, d, size=degree), minlength=d)
        top[rng.integers(0, d)][tuple(exps)] = 0.5  # one term of full degree
        A = mg.add_potentials(random_potential(alg, rng, degree=degree),
                              mg.make_potential(alg, top))
        assert A.degree == degree
        bound = mg.alpha_degree(A)
        t_off = rng.uniform(-1.0, 1.0, size=25)
        for _ in range(4):
            P0, V = rng.normal(size=(2, 2 * d))

            def on_line(t):
                P = P0 + np.multiply.outer(t, V)
                return mg.alpha_exponent(A, P[:, :d], P[:, d:])

            cheb = np.polynomial.Chebyshev.interpolate(on_line, bound)
            exact = on_line(t_off)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(cheb(t_off) - exact).max() <= 1e-10 * scale


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(19)
        A = random_potential(HEIS, rng, degree=3)
        data = json.loads(json.dumps(mg.potential_to_dict(A)))
        A2 = mg.potential_from_dict(HEIS, data)
        X = rng.normal(size=(40, 3))
        assert np.array_equal(mg.evaluate_potential(A, X), mg.evaluate_potential(A2, X))

    def test_rejects_wrong_component_count(self):
        with pytest.raises(ShapeError):
            mg.potential_from_dict(HEIS, {"components": [[], []]})

    def test_rejects_short_exponent_list(self):
        short = [{"exponents": [1, 0], "coeff": 1.0}]
        with pytest.raises(ShapeError, match="length 3"):
            mg.potential_from_dict(HEIS, {"components": [short, [], []]})
