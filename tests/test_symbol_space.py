"""Tests for grids, sampling, Fourier transforms, and norms."""

import itertools
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magweyl import symbol_space as ss
from magweyl.errors import BadGridSpec, ShapeError


def smooth_symbol(rng, grid):
    """Random symbol built from a few decaying Gaussian bumps."""
    d = grid.dim
    terms = [(rng.normal(scale=0.8, size=2 * d), rng.normal() + 1j * rng.normal())
             for _ in range(3)]

    def ev(X, XI):
        out = 0.0
        for mu, amp in terms:
            r2 = np.sum((X - mu[:d]) ** 2, -1) + np.sum((XI - mu[d:]) ** 2, -1)
            out = out + amp * np.exp(-0.5 * r2)
        return out

    return ss.sample_symbol(ev, grid)


class TestMakeGrid:
    def test_spacings(self):
        g = ss.make_grid(1, 8, 4.0)
        assert g.h == 1.0
        assert np.isclose(g.dxi, 2 * np.pi / 8)
        assert np.isclose(g.h * g.dxi, 2 * np.pi / g.points_per_axis)
        assert g.axis_x[4] == 0.0 and g.axis_x[0] == -4.0

    def test_dual_lock_holds_for_any_size(self):
        for N, L in [(2, 1.0), (16, 3.5), (64, 8.0)]:
            g = ss.make_grid(2, N, L)
            assert np.isclose(g.h * g.dxi * N, 2 * np.pi)

    @pytest.mark.parametrize("dim,N,L", [(1, 7, 4.0), (1, 0, 4.0), (1, 9, 4.0),
                                         (1, 8, 0.0), (1, 8, -1.0), (0, 8, 4.0)])
    def test_rejects_bad_specs(self, dim, N, L):
        with pytest.raises(BadGridSpec):
            ss.make_grid(dim, N, L)


class TestSampling:
    def test_constant_symbol(self):
        g = ss.make_grid(2, 4, 2.0)
        a = ss.sample_symbol(lambda X, XI: 1.0, g)
        assert a.values.shape == (4,) * 4
        assert np.all(a.values == 1.0)

    def test_gaussian_is_separable(self):
        g = ss.make_grid(1, 16, 4.0)
        a = ss.sample_symbol(
            lambda X, XI: np.exp(-0.5 * np.sum(X ** 2, -1) - 0.5 * np.sum(XI ** 2, -1)), g)
        fx = np.exp(-0.5 * g.axis_x ** 2)
        fxi = np.exp(-0.5 * g.axis_xi ** 2)
        assert np.allclose(a.values, np.outer(fx, fxi))

    def test_config_shape_and_values(self):
        g = ss.make_grid(2, 8, 3.0)
        f = ss.sample_config(lambda Y: Y[..., 0] + 2j * Y[..., 1], g)
        assert f.values.shape == (8, 8)
        assert f.values[0, 0] == g.axis_x[0] * (1 + 2j)

    def test_shape_guard(self):
        g = ss.make_grid(1, 8, 3.0)
        with pytest.raises(ShapeError):
            ss.SymbolField(g, np.zeros((8,)))
        with pytest.raises(ShapeError):
            ss.ConfigField(g, np.zeros((4,)))


class TestFourierG:
    def test_standard_gaussian_is_self_dual(self):
        g = ss.make_grid(1, 64, 8.0)
        f = ss.sample_config(lambda Y: np.exp(-0.5 * np.sum(Y ** 2, -1)), g)
        F = ss.fourier_g(f, forward=True)
        assert F.space == "gstar"
        assert np.abs(F.values - np.exp(-0.5 * g.axis_xi ** 2)).max() < 1e-10

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(0)
        g = ss.make_grid(2, 16, 5.0)
        f = ss.ConfigField(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        F = ss.fourier_g(f, forward=True)
        back = ss.fourier_g(F, forward=False)
        assert np.abs(back.values - f.values).max() < 1e-12
        assert abs(ss.l2_norm(F) - ss.l2_norm(f)) < 1e-12

    def test_shifted_gaussian_phase(self):
        # f(y) = e^{-(y-c)^2/2} has transform e^{-i c xi} e^{-xi^2/2}
        g = ss.make_grid(1, 64, 8.0)
        c = 0.75
        f = ss.sample_config(lambda Y: np.exp(-0.5 * np.sum((Y - c) ** 2, -1)), g)
        F = ss.fourier_g(f, forward=True)
        target = np.exp(-1j * c * g.axis_xi) * np.exp(-0.5 * g.axis_xi ** 2)
        assert np.abs(F.values - target).max() < 1e-10

    def test_rejects_symbol_input(self):
        g = ss.make_grid(1, 8, 3.0)
        a = ss.sample_symbol(lambda X, XI: 1.0, g)
        with pytest.raises(ShapeError):
            ss.fourier_g(a)


def same_bits_and_layout(got, want):
    # downstream reductions sum in memory order, so the layout is part of
    # the bit-for-bit contract; np.array_equal misses the sign of zero, the
    # bytes do not
    return (np.array_equal(got, want) and got.strides == want.strides
            and got.tobytes(order="A") == want.tobytes(order="A"))


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def centered_dft_of(v, axes, inverse, in_place):
    """centered_dft(v, axes, inverse); in place on a copy of v in its memory
    order, which must come back as the result."""
    if not in_place:
        return ss.centered_dft(v, axes, inverse)
    got = v.copy(order="K")
    assert ss.centered_dft(got, axes, inverse, in_place=True) is got
    return got


class TestCenteredDft:
    @pytest.mark.parametrize("N,ndim", [(2, 5), (8, 3), (12, 3)])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_matches_the_rolled_transform_bit_for_bit(self, N, ndim, inverse, in_place):
        rng = np.random.default_rng(N)
        v = random_complex(rng, (N,) * ndim)
        v[(1,) * ndim] = complex(-0.0, 0.0)
        for axes in ([1], [0, 2], list(range(ndim))):
            want = oracles.centered_dft_rolled(v, axes, inverse)
            assert same_bits_and_layout(centered_dft_of(v, axes, inverse, in_place), want)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_real_and_transposed_inputs(self, inverse, in_place):
        # a table handed over must be complex, so in place takes the
        # transposed input only
        rng = np.random.default_rng(3)
        real = rng.normal(size=(8, 12, 4))
        transposed = np.transpose(random_complex(rng, (4, 8, 12, 2)), (2, 0, 3, 1))
        assert not transposed.flags.c_contiguous
        for v in (transposed,) if in_place else (real, transposed):
            for axes in ([0], [1, 2], range(v.ndim)):
                want = oracles.centered_dft_rolled(v, axes, inverse)
                assert same_bits_and_layout(centered_dft_of(v, axes, inverse, in_place), want)

    def test_symplectic_fourier_is_two_rolled_transforms_and_a_swap(self):
        d = 2
        g = ss.make_grid(d, 8, 4.0)
        a = smooth_symbol(np.random.default_rng(4), g)
        scale = (g.h * g.dxi / (2 * np.pi)) ** d
        for _ in range(2):  # the second pass starts from a transposed field
            v = oracles.centered_dft_rolled(a.values, range(d))
            v = oracles.centered_dft_rolled(v, range(d, 2 * d), inverse=True)
            want = scale * np.transpose(v, (2, 3, 0, 1))
            a = ss.symplectic_fourier(a)
            assert same_bits_and_layout(a.values, want)

    @pytest.mark.parametrize("call", [
        lambda v: ss.centered_dft(v, range(3)),
        lambda v: ss.centered_dft(v, [3, 4, 5], inverse=True),
        lambda v: ss.symplectic_fourier(ss.SymbolField(ss.make_grid(3, 8, 4.0), v)),
    ], ids=["forward", "inverse", "symplectic"])
    def test_transient_memory_is_two_arrays(self, call):
        # one half-swapped copy transformed in place and one copy out; the
        # rolled transform keeps about three
        v = random_complex(np.random.default_rng(5), (8,) * 6)
        call(v)  # warm the FFT plan cache outside the trace
        tracemalloc.start()
        try:
            call(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * v.nbytes

    def test_symplectic_fourier_transient_memory_is_one_array(self):
        # one half-swapped copy, transformed and swapped back in place
        # through one block-sized buffer (2^-6 of the input here); with a
        # second swapped copy out it read 2.0
        v = random_complex(np.random.default_rng(5), (8,) * 6)
        a = ss.SymbolField(ss.make_grid(3, 8, 4.0), v)
        ss.symplectic_fourier(a)  # warm the FFT plan cache outside the trace
        tracemalloc.start()
        try:
            ss.symplectic_fourier(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"PEAK symplectic_fourier input={v.nbytes} peak={peak} ratio={peak / v.nbytes:.3f}")
        assert peak <= 1.1 * v.nbytes

    @pytest.mark.parametrize("inverse", [False, True])
    def test_in_place_transient_memory_is_one_array(self, inverse):
        # the half-swapped copy is swapped back into the table handed over
        v = random_complex(np.random.default_rng(6), (8,) * 6)
        ss.centered_dft(v.copy(), range(3), inverse, in_place=True)  # warm the plan cache
        tracemalloc.start()
        try:
            ss.centered_dft(v, range(3), inverse, in_place=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * v.nbytes

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_fft_order_is_the_transform_between_half_swaps(self, inverse, in_place):
        # on every axis subset of a 6-D table, C-ordered and transposed
        rng = np.random.default_rng(7)
        v = random_complex(rng, (2, 4, 6, 2, 4, 2))
        v[(1,) * 6] = complex(-0.0, 0.0)
        for table in (v, np.transpose(v, (3, 0, 5, 1, 4, 2))):
            for k in range(1, 7):
                for axes in itertools.combinations(range(6), k):
                    want = ss._half_swap(ss.centered_dft(ss._half_swap(table, axes), axes,
                                                         inverse), axes)
                    if in_place:
                        got = table.copy(order="K")
                        assert ss.centered_dft(got, axes, inverse, in_place=True,
                                               fft_order=True) is got
                    else:
                        got = ss.centered_dft(table, axes, inverse, fft_order=True)
                    assert same_bits_and_layout(got, want)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_fft_order_in_place_holds_no_array_besides(self, inverse):
        v = random_complex(np.random.default_rng(6), (8,) * 6)
        ss.centered_dft(v.copy(), range(3), inverse, in_place=True, fft_order=True)
        tracemalloc.start()
        try:
            ss.centered_dft(v, range(3), inverse, in_place=True, fft_order=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * v.nbytes

    @pytest.mark.parametrize("shape", [(8,), (2, 6), (4, 2, 6), (6, 4, 2, 8)])
    def test_half_swap_in_place_matches_the_copy(self, shape):
        v = random_complex(np.random.default_rng(len(shape)), shape)
        want = ss._half_swap(v, range(v.ndim))
        ss._half_swap_in_place(v)
        assert v.tobytes() == want.tobytes()

    def test_odd_length_axis_refused(self):
        v = np.ones((4, 5, 4), dtype=complex)
        with pytest.raises(ShapeError):
            ss.centered_dft(v, [1])
        assert ss.centered_dft(v, [0, 2]).shape == v.shape

    @pytest.mark.parametrize("dtype", [float, np.complex64])
    def test_in_place_refuses_a_table_that_cannot_hold_the_result(self, dtype):
        v = np.ones((4, 4), dtype=dtype)
        with pytest.raises(ShapeError, match="complex array"):
            ss.centered_dft(v, [0], in_place=True)
        assert np.all(v == 1)


class TestSymplecticFourier:
    @pytest.mark.parametrize("dim,N,L", [(1, 64, 8.0), (3, 8, 5.0)])
    def test_involution_on_random_smooth_symbols(self, dim, N, L):
        rng = np.random.default_rng(42)
        g = ss.make_grid(dim, N, L)
        for _ in range(5):
            a = smooth_symbol(rng, g)
            twice = ss.symplectic_fourier(ss.symplectic_fourier(a))
            assert np.abs(twice.values - a.values).max() < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        g = ss.make_grid(1, 32, 6.0)
        a = smooth_symbol(rng, g)
        assert abs(ss.l2_norm(ss.symplectic_fourier(a)) - ss.l2_norm(a)) < 1e-12

    def test_rotation_gaussian_fixed_point(self):
        g = ss.make_grid(1, 64, 8.0)
        a = ss.sample_symbol(
            lambda X, XI: np.exp(-0.5 * (np.sum(X ** 2, -1) + np.sum(XI ** 2, -1))), g)
        Fa = ss.symplectic_fourier(a)
        assert np.abs(Fa.values - a.values).max() < 1e-10

    def test_block_swap_twice_is_bit_exact(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
        swapped = np.transpose(v, (2, 3, 0, 1))
        again = np.transpose(swapped, (2, 3, 0, 1))
        assert np.array_equal(again, v)


class TestNormsAndInner:
    def test_all_ones_cell_volumes(self):
        g = ss.make_grid(1, 2, 1.0)
        f = ss.sample_config(lambda Y: 1.0, g)
        assert np.isclose(ss.l2_norm(f) ** 2, 2 * g.h)
        a = ss.sample_symbol(lambda X, XI: 1.0, g)
        # phase-space cell is h * dxi / (2 pi) = 1/N per axis pair
        assert np.isclose(ss.l2_norm(a) ** 2, 4 * (g.h * g.dxi / (2 * np.pi)))
        assert np.isclose(ss.l2_norm(a) ** 2, 4 / g.points_per_axis)

    def test_gaussian_norm_matches_analytic(self):
        g = ss.make_grid(1, 64, 8.0)
        f = ss.sample_config(lambda Y: np.exp(-0.5 * np.sum(Y ** 2, -1)), g)
        assert abs(ss.l2_norm(f) - np.pi ** 0.25) < 1e-8

    def test_inner_conjugate_symmetry_and_cauchy_schwarz(self):
        rng = np.random.default_rng(3)
        g = ss.make_grid(2, 8, 3.0)
        mk = lambda: ss.ConfigField(g, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        f, h = mk(), mk()
        assert np.isclose(ss.inner(f, h), np.conj(ss.inner(h, f)))
        assert abs(ss.inner(f, h)) <= ss.l2_norm(f) * ss.l2_norm(h) + 1e-12
        assert np.isclose(ss.inner(f, f).real, ss.l2_norm(f) ** 2)

    def test_inner_rejects_kind_mismatch(self):
        g = ss.make_grid(1, 8, 3.0)
        f = ss.sample_config(lambda Y: 1.0, g)
        Fg = ss.fourier_g(f)
        with pytest.raises(ShapeError):
            ss.inner(f, Fg)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_parseval_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        g = ss.make_grid(1, 8, 2.5)
        f = ss.ConfigField(g, rng.normal(size=8) + 1j * rng.normal(size=8))
        assert abs(ss.l2_norm(ss.fourier_g(f)) - ss.l2_norm(f)) < 1e-12


class TestDumpLoad:
    @pytest.mark.parametrize("kind", ["symbol", "config", "config_dual"])
    def test_round_trip(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        g = ss.make_grid(2, 8, 3.0)
        if kind == "symbol":
            field = ss.SymbolField(g, rng.normal(size=(8,) * 4) + 1j * rng.normal(size=(8,) * 4))
        else:
            space = "g" if kind == "config" else "gstar"
            field = ss.ConfigField(g, rng.normal(size=(8, 8)), space=space)
        path = tmp_path / "field.bin"
        ss.dump_field(field, path)
        loaded = ss.load_field(path)
        assert type(loaded) is type(field)
        assert loaded.grid == field.grid
        assert loaded.cell_volume == field.cell_volume
        # storage is complex64, so round-trip holds at single precision
        assert np.abs(loaded.values - field.values).max() < 1e-6

    def test_header_is_json_line(self, tmp_path):
        g = ss.make_grid(1, 4, 2.0)
        field = ss.sample_config(lambda Y: 1.0, g)
        path = tmp_path / "field.bin"
        ss.dump_field(field, path)
        import json

        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["N"] == 4 and header["dim"] == 1 and header["axes"] == ["x1"]
