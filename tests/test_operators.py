import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx

from solwave.grid import PeriodicGrid, SpectralField, band_noise, inner_l2, l2_norm
from solwave.operators import band_split, multiplier_values
from solwave.symbols import whitham

SYM = whitham()


def lu(u):
    return SpectralField.from_coeffs(u.grid, multiplier_values(SYM, u.grid) * u.coeffs)


def deriv(u):
    # d/dx as the evolution's flux applies it, through the grid's ik
    return SpectralField.from_coeffs(u.grid, u.grid.ik * u.coeffs)


def field(seed, grid=None, band=None):
    g = grid or PeriodicGrid(30.0, 128)
    rng = np.random.Generator(np.random.Philox(seed))
    return band_noise(g, band or g.n // 3, rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_multiplier_bound(seed):
    u = field(seed)
    assert l2_norm(lu(u)) <= SYM.m_zero * l2_norm(u) * (1 + 1e-12)


def test_ddx_closed_forms():
    g = PeriodicGrid(12.0, 64)
    k1 = 2 * np.pi / g.period
    s = SpectralField.from_values(g, np.sin(k1 * g.nodes))
    assert deriv(s).values == approx(k1 * np.cos(k1 * g.nodes), abs=1e-13)
    c = SpectralField.from_values(g, np.full(g.n, 1.3))
    assert np.max(np.abs(deriv(c).values)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_ddx_antisymmetry(seed):
    u = field(seed)
    assert inner_l2(u, deriv(u)) == approx(0.0, abs=1e-12)


def test_ddx_zeroes_nyquist():
    g = PeriodicGrid(10.0, 32)
    c = np.zeros(g.n, dtype=complex)
    c[g.n // 2] = 1.0  # the m = -N/2 slot
    u = SpectralField.from_coeffs(g, c)
    assert np.max(np.abs(deriv(u).coeffs)) == 0.0


def test_band_split_partition():
    g = PeriodicGrid(30.0, 256)
    u = field(3, g, band=80)
    u1, u2 = band_split(SYM, u)
    total = u1 + u2
    assert np.max(np.abs(total.coeffs - u.coeffs)) == 0.0
    assert l2_norm(u1) ** 2 + l2_norm(u2) ** 2 == approx(l2_norm(u) ** 2, rel=1e-12)
    assert np.all(np.abs(u1.grid.wavenumbers[np.abs(u1.coeffs) > 0]) <= SYM.k_cut)


def test_band_split_low_field_untouched():
    g = PeriodicGrid(100.0, 128)  # Nyquist ~ 4.02, cutoff 3.997
    u = field(9, g, band=int(SYM.k_cut * g.period / (2 * np.pi)) - 1)
    u1, u2 = band_split(SYM, u)
    assert np.max(np.abs(u2.coeffs)) == 0.0
    assert np.max(np.abs(u1.coeffs - u.coeffs)) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_multiplier_self_adjoint(seed):
    u, v = field(seed), field(seed + 7777)
    lhs = inner_l2(lu(u), v)
    rhs = inner_l2(u, lu(v))
    assert lhs == approx(rhs, abs=1e-10)
