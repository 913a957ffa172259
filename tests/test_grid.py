import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

import solwave
from conftest import noise
from solwave.errors import GridMismatch, ResolutionLoss, TailTooLarge
from solwave.grid import (RESOLVED, PeriodicGrid, SpectralField, aligned,
                          change_points, h1_norm, high_mode_ratio, inner_l2, irfft,
                          l2_norm, rfft, sup_norm, tail_max)
from solwave.longwave import KDV_DECAY, kdv_profile, kdv_soliton


grids = st.tuples(st.sampled_from([16, 64, 128, 1024, 8192]),
                  st.floats(min_value=1.0, max_value=100.0))


def test_grid_construction():
    g = PeriodicGrid(10.0, 32)
    assert g.spacing == approx(10.0 / 32)
    assert g.nodes[0] == approx(-5.0)
    assert g.nodes[16] == approx(0.0)
    assert g.wavenumbers[1] == approx(2 * np.pi / 10.0)
    with pytest.raises(ValueError):
        PeriodicGrid(10.0, 24)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(10.0, 8)   # too few
    with pytest.raises(ValueError):
        PeriodicGrid(-1.0, 32)


@pytest.mark.parametrize("period", [float("nan"), float("inf")])
def test_period_must_be_finite(period):
    # a NaN or infinite period would give a NaN or infinite spacing
    with pytest.raises(ValueError, match="finite and positive"):
        PeriodicGrid(period, 16)


@settings(max_examples=30, deadline=None)
@given(grids, st.integers(min_value=0, max_value=10_000))
def test_roundtrip_and_parseval(gp, seed):
    n, period = gp
    g = PeriodicGrid(period, n)
    u = noise(seed, g, g.n // 3)
    back = g.to_values(u.coeffs)
    assert np.max(np.abs(back - u.values)) <= 1e-12 * max(1.0, np.max(np.abs(u.values)))
    phys = (g.period / g.n) * np.sum(u.values**2)
    spec = np.sum(np.abs(u.coeffs) ** 2)
    assert phys == approx(spec, rel=1e-10)
    # the rfft pair against the complex FFT, on samples with every mode present
    v = np.random.Generator(np.random.Philox(seed)).standard_normal(n)
    c = g.to_coeffs(v)
    ref = np.sqrt(period) / n * (-1.0) ** g.modes * np.fft.fft(v)
    assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(c[1:], np.conj(c[:0:-1]))
    assert c[0].imag == 0.0 and c[n // 2].imag == 0.0
    assert np.max(np.abs(g.to_values(c) - v)) <= 1e-13 * np.max(np.abs(v))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_transform_pair_is_numpy_fft_bit_for_bit():
    # rfft/irfft call numpy's private pocketfft gufuncs; if a numpy release
    # changes them, this fails instead of the package computing something else
    rng = np.random.Generator(np.random.Philox(7))
    for e in range(4, 17):
        n = 2**e
        x = rng.standard_normal(n)
        c = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        for frozen in (False, True):
            x.setflags(write=not frozen)
            c.setflags(write=not frozen)
            assert same_bits(rfft(x), np.fft.rfft(x))
            assert same_bits(irfft(c, n), np.fft.irfft(c, n))
            out_c, out_x = np.empty(n // 2 + 1, complex), np.empty(n)
            assert rfft(x, out=out_c) is out_c and same_bits(out_c, np.fft.rfft(x))
            assert irfft(c, n, out=out_x) is out_x and same_bits(out_x, np.fft.irfft(c, n))
    # the 1/n factor is made once per length: the shortest after the longest
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert same_bits(irfft(c, 16), np.fft.irfft(c, 16))


@pytest.mark.parametrize("n", [16, 1024, 8192])
@pytest.mark.parametrize("dtype", [float, complex])
def test_aligned_copies_onto_a_64_byte_boundary(n, dtype):
    rng = np.random.Generator(np.random.Philox(n))
    for shape in [(n,), (3, n)]:
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal(shape)
        # the source itself 8 bytes off a boundary
        raw = np.empty(a.nbytes + 72, np.uint8)
        start = -raw.ctypes.data % 64 + 8
        src = raw[start:start + a.nbytes].view(dtype).reshape(shape)
        src[...] = a
        b = aligned(src)
        assert b.ctypes.data % 64 == 0 and b.flags.c_contiguous and b.flags.writeable
        assert same_bits(b, a) and not np.shares_memory(b, src)


def test_only_the_grid_module_touches_the_transform_kernels():
    # one transform pair for the whole package: no module calls numpy's real
    # FFTs by name, and only grid.py reaches the kernels behind them
    modules = sorted(Path(solwave.__file__).parent.glob("*.py"))
    assert any(p.name == "grid.py" for p in modules)
    for path in modules:
        text = path.read_text()
        assert not re.search(r"np\.fft\.i?rfft", text), path.name
        if path.name != "grid.py":
            # fftfreq is a frequency table, not a transform
            assert not re.search(r"_pocketfft|\bfft\.(?!fftfreq\b)\w|fft import", text), \
                path.name


def test_cosine_coefficients_are_real():
    g = PeriodicGrid(20.0, 64)
    u = SpectralField.from_values(g, np.cos(2 * np.pi * g.nodes / g.period))
    c = u.coeffs
    assert c[1] == approx(np.sqrt(g.period) / 2, abs=1e-13)
    assert c[-1] == approx(np.sqrt(g.period) / 2, abs=1e-13)
    others = np.delete(np.abs(c), [1, g.n - 1])
    assert np.max(others) < 1e-13


def test_inner_l2_closed_forms():
    g = PeriodicGrid(14.0, 64)
    x = g.nodes
    cos = SpectralField.from_values(g, np.cos(2 * np.pi * x / g.period))
    sin = SpectralField.from_values(g, np.sin(2 * np.pi * x / g.period))
    const = SpectralField.from_values(g, np.full(g.n, 0.7))
    assert inner_l2(cos, cos) == approx(g.period / 2, rel=1e-14)
    assert inner_l2(cos, sin) == approx(0.0, abs=1e-14)
    assert inner_l2(const, const) == approx(0.7**2 * g.period, rel=1e-14)


def test_inner_l2_requires_same_grid():
    u = SpectralField.from_values(PeriodicGrid(10.0, 32), np.zeros(32))
    v = SpectralField.from_values(PeriodicGrid(10.0, 64), np.zeros(64))
    with pytest.raises(GridMismatch):
        inner_l2(u, v)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_inner_l2_matches_spectral_sum(seed):
    g = PeriodicGrid(33.0, 64)
    u, v = noise(seed, g, g.n // 3), noise(seed + 1, g, g.n // 3)
    spectral = float(np.real(np.vdot(u.coeffs, v.coeffs)))
    assert inner_l2(u, v) == approx(spectral, abs=1e-10)


def test_h1_norm():
    g = PeriodicGrid(11.0, 64)
    k1 = 2 * np.pi / g.period
    mode = SpectralField.from_values(g, np.cos(k1 * g.nodes))
    assert h1_norm(mode) ** 2 == approx((1 + k1**2) * l2_norm(mode) ** 2, rel=1e-13)


def test_dealias():
    g = PeriodicGrid(10.0, 128)

    def dealias(u):
        return SpectralField.from_coeffs(g, g.dealias_mask * u.coeffs)

    low = SpectralField.from_values(g, np.cos(2 * np.pi * 5 * g.nodes / g.period))
    assert np.max(np.abs(dealias(low).values - low.values)) < 1e-14
    hi_mode = g.n // 2 - 1
    hi = SpectralField.from_values(g, np.cos(2 * np.pi * hi_mode * g.nodes / g.period))
    assert np.max(np.abs(dealias(hi).values)) < 1e-13
    u = noise(9, g, g.n // 2 - 1)
    once = dealias(u)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)


def test_change_points_pad_and_truncate():
    g = PeriodicGrid(30.0, 64)
    u = noise(5, g, 10)
    up = change_points(u, 256)
    back = change_points(up, 64)
    assert np.max(np.abs(back.values - u.values)) < 1e-12
    wide = noise(6, g, 31)
    with pytest.raises(ResolutionLoss):
        change_points(wide, 32)
    # the Nyquist mode of the coarse grid is a cosine on the fine one
    nyq = SpectralField.from_values(PeriodicGrid(30.0, 16), np.cos(np.pi * np.arange(16)))
    up = change_points(nyq, 32)
    assert np.array_equal(up.coeffs[1:], np.conj(up.coeffs[:0:-1]))
    assert np.max(np.abs(up.coeffs - up.grid.to_coeffs(up.values))) < 1e-14
    assert np.max(np.abs(up.values[::2] - nyq.values)) < 1e-14


def test_tail_max_gate():
    hw = np.arccosh(np.sqrt(2.0)) / KDV_DECAY  # half-width of the sech^2 profile
    g = PeriodicGrid(40 * hw, 512)
    w = kdv_soliton(g)
    assert tail_max(w) < 1e-12
    cos = SpectralField.from_values(g, 0.3 * np.cos(2 * np.pi * g.nodes / g.period))
    assert tail_max(cos) == approx(0.3, rel=1e-2)
    with pytest.raises(TailTooLarge):
        kdv_soliton(PeriodicGrid(8.0, 64))
    # the gate is tail_max <= 1e-12: on 512 points the sampled tail is 8.6e-13
    # at P = 28.5, which passes, and 1.11e-12 at P = 28.25, which is refused
    assert tail_max(kdv_soliton(PeriodicGrid(28.5, 512))) < 1e-12
    g = PeriodicGrid(28.25, 512)
    assert 1e-12 < tail_max(SpectralField.from_values(g, kdv_profile(g.nodes))) < 1.5e-12
    with pytest.raises(TailTooLarge):
        kdv_soliton(g)


def test_high_mode_ratio_is_the_resolution_rule():
    g = PeriodicGrid(40.0, 512)
    smooth = SpectralField.from_values(g, kdv_profile(g.nodes))
    assert high_mode_ratio(smooth) <= RESOLVED
    # 0.3N < 160 <= N/3 tops the 2/3 rule's kept band, and 250 lies above it
    for m in (160, 250):
        spike = smooth + SpectralField.from_values(
            g, 1e-4 * np.cos(2 * np.pi * m * g.nodes / g.period))
        assert high_mode_ratio(spike) > RESOLVED, m
    assert high_mode_ratio(smooth * 0.0) == 0.0


def test_field_arithmetic_and_immutability():
    g = PeriodicGrid(10.0, 32)
    u, v = noise(1, g, g.n // 3), noise(2, g, g.n // 3)
    s = u + v
    assert np.allclose(s.values, u.values + v.values)
    d = (2.0 * u) - v
    assert np.allclose(d.coeffs, 2.0 * u.coeffs - v.coeffs)
    assert sup_norm(u * -1.0) == sup_norm(u)
    with pytest.raises(ValueError):
        u.values[0] = 1.0
    with pytest.raises(ValueError):
        g.h1_weight[0] = 0.0
    # a field has exactly one sample or coefficient per node
    with pytest.raises(ValueError, match="expected 32 samples"):
        SpectralField.from_values(g, np.zeros(31))
    with pytest.raises(ValueError, match="expected 32 coefficients"):
        SpectralField.from_coeffs(g, np.zeros(64, complex))


def deriv(u):
    # d/dx as the evolution's flux applies it, through the grid's ik
    return SpectralField.from_coeffs(u.grid, u.grid.ik * u.coeffs)


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
    u = noise(seed, PeriodicGrid(30.0, 128), 42)
    assert inner_l2(u, deriv(u)) == approx(0.0, abs=1e-12)


def test_ddx_zeroes_nyquist():
    g = PeriodicGrid(10.0, 32)
    c = np.zeros(g.n, dtype=complex)
    c[g.n // 2] = 1.0  # the m = -N/2 slot
    u = SpectralField.from_coeffs(g, c)
    assert np.max(np.abs(deriv(u).coeffs)) == 0.0
