"""Scaling exponents, the long-wave frame change, KdV reference, alignment.

Frozen constants (40-digit arithmetic): crest (3/2)^(2/3) = 1.3103706971044483,
multiplier (2/3)^(1/3) = 0.8735804647362989.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from conftest import noise
from solwave.errors import ExponentWindow, GridMismatch, TailTooLarge
from solwave.functionals import energy, momentum, reduced_problem
from solwave.grid import PeriodicGrid, SpectralField, h1_norm, l2_norm, sup_norm
from solwave.longwave import (exponents, kdv_energy, kdv_soliton, kdv_speed,
                              orbit_distance, scale_down)
from solwave.nonlinearity import quadratic
from solwave.solver import SolveConfig, minimize_reduced

KDV_CREST = 1.3103706971044483
KDV_SPEED = 0.8735804647362989
G = PeriodicGrid(30.0, 128)  # the grid of the noise fields


def test_exponent_examples():
    e = exponents(1, 2.0)
    assert (e.alpha, e.beta, e.gamma) == approx((2 / 3, 1 / 3, 2 / 3))
    e = exponents(1, 3.0)
    assert (e.alpha, e.beta, e.gamma) == approx((1.0, 1.0, 2.0))
    with pytest.raises(ExponentWindow):
        exponents(1, 5.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=2.0, max_value=16.9))
def test_exponent_identities(j, p):
    if not p < 4 * j + 1:
        with pytest.raises(ExponentWindow):
            exponents(j, p)
        return
    e = exponents(j, p)
    # exact identities whose terms grow like 1/(4j + 1 - p): near the window
    # edge they reach 1e4, where one ulp is 1.8e-12, so the tolerance scales
    # with the size of the terms
    big = max(1.0, e.alpha, e.beta)
    assert 2 * e.alpha - e.beta == approx(1.0, abs=1e-12 * big)
    assert (p - 1) * e.alpha == approx(2 * j * e.beta, rel=1e-12, abs=1e-12)
    assert e.gamma == approx(2 * j * e.beta, rel=1e-12, abs=1e-12)


def test_scale_roundtrip_and_supnorm():
    e = exponents(1, 2.0)
    w = noise(5, G, 32)
    mu = 3e-3
    # mu^alpha w(mu^beta x): the same samples on the stretched grid
    u = SpectralField.from_values(PeriodicGrid(w.grid.period * mu**-e.beta, w.grid.n),
                                  mu**e.alpha * w.values)
    back = scale_down(mu, e, u, w.grid.period)
    assert back.grid == w.grid
    assert sup_norm(back) == approx(sup_norm(u) / mu**e.alpha, rel=1e-14)
    assert momentum(back) == approx(momentum(u) / mu, rel=1e-13)
    assert np.max(np.abs(back.values - w.values)) < 1e-10 * sup_norm(w)


def test_scale_down_checks_the_frame():
    e = exponents(1, 2.0)
    w = noise(5, G, 32)
    mu = 3e-3
    u = SpectralField.from_values(PeriodicGrid(w.grid.period * mu**-e.beta, w.grid.n),
                                  mu**e.alpha * w.values)
    # within 1e-9 relative, the frame's period is taken as given
    near = w.grid.period * (1.0 + 5e-10)
    assert scale_down(mu, e, u, near).grid.period == near
    for off in (w.grid.period * (1.0 + 2e-9), 2.0 * w.grid.period, float("nan")):
        with pytest.raises(GridMismatch):
            scale_down(mu, e, u, off)
    for bad_mu in (0.0, -mu, float("nan")):
        with pytest.raises(ValueError, match="mu must be positive"):
            scale_down(bad_mu, e, u, w.grid.period)


def test_kdv_soliton_oracle():
    g = PeriodicGrid(80.0, 1024)
    w = kdv_soliton(g)
    assert w.values[g.n // 2] == approx(KDV_CREST, abs=1e-13)
    assert momentum(w) == approx(1.0, abs=1e-10)
    # stationarity: w''/6 - nu w + w^2 = 0 with the spectral second derivative
    wpp = SpectralField.from_coeffs(g, -(g.wavenumbers**2) * w.coeffs)
    res = wpp.values / 6.0 - kdv_speed() * w.values + w.values**2
    assert np.sqrt(g.period / g.n * np.sum(res**2)) <= 1e-10
    assert kdv_speed() == approx(KDV_SPEED, abs=1e-15)
    with pytest.raises(TailTooLarge):
        kdv_soliton(PeriodicGrid(10.0, 128))


def test_minimize_reduced_recovers_kdv():
    red = minimize_reduced(1, -1.0 / 3.0, quadratic(),
                           SolveConfig(tol_residual=1e-10, period=60.0, points=1024))
    assert abs(red.speed - KDV_SPEED) <= 1e-6
    w = kdv_soliton(red.field.grid)
    d, _ = orbit_distance(red.field, w, s_norm=1.0)
    assert d <= 1e-6
    assert energy(reduced_problem(1, -1.0 / 3.0, quadratic()), red.field) == approx(
        kdv_energy(), abs=1e-8)
    assert red.residual <= 1e-10


def test_orbit_distance_exact_translate():
    u = noise(8, G, 32)
    v = SpectralField.from_coeffs(u.grid, u.coeffs * np.exp(1.7j * u.grid.wavenumbers))
    d, y = orbit_distance(u, v)
    assert d <= 1e-10
    assert y == approx(-1.7, abs=1e-8)


def test_orbit_distance_identical_fields():
    u = noise(9, G, 32)
    d, y = orbit_distance(u, u)
    assert d <= 1e-12
    assert abs(y) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_orbit_distance_bounded_by_plain_norm(seed):
    u, v = noise(seed, G, 32), noise(seed + 31, G, 32)
    d, _ = orbit_distance(u, v)
    assert d <= l2_norm(u - v) * (1 + 1e-12)


@pytest.mark.parametrize("s_norm", [0.0, 1.0])
def test_orbit_distance_is_the_full_spectrum_distance(s_norm):
    # full-band fields, mean and Nyquist mode included, pin the weights of the
    # half-spectrum sums: m = 0 and N/2 once, every other mode for itself and -m
    g = PeriodicGrid(30.0, 64)
    rng = np.random.default_rng(4)
    u, v = (SpectralField.from_values(g, rng.standard_normal(g.n)) for _ in range(2))
    assert u.coeffs[0] != 0 and u.coeffs[g.n // 2] != 0
    d, y = orbit_distance(u, v, s_norm)
    k = g.wavenumbers
    full = np.sum((1.0 + k**2) ** s_norm * np.abs(u.coeffs - v.coeffs * np.exp(1j * k * y)) ** 2)
    assert d == approx(np.sqrt(full), rel=1e-13)


def l2_distances(u, v, shifts):
    """||u - v(. + y)||_0 for each y of ``shifts``, summed over the full spectrum."""
    k = u.grid.wavenumbers
    diff = u.coeffs - v.coeffs * np.exp(1j * np.multiply.outer(shifts, k))
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=-1))


def safeguard_pair(case):
    """Two fields whose correlation, sampled on the nodes, peaks at y = 0 but
    defeats Newton's quadratic model there: grid-scale content puts that
    lattice argmax outside the basin of the correlation's continuous peak."""
    if case == "step_clamp":
        # cos x + cos(7x)/2 against its translate by 0.45 h: the first Newton
        # step is longer than h and is cut to h
        g = PeriodicGrid(2 * np.pi, 16)
        u = SpectralField.from_values(g, np.cos(g.nodes) + 0.5 * np.cos(7 * g.nodes))
        return u, SpectralField.from_coeffs(g, u.coeffs * np.exp(-0.45j * g.spacing
                                                                  * g.wavenumbers))
    # u's coefficients on seven of the modes 1..15, with v = 1 on the same
    # modes, solve an integer linear program: the correlation is concave and
    # rising at 0, h and 2h, steeply enough that each step is cut to h, so the
    # iteration walks 3h > 2h away and falls back to the lattice argmax
    g = PeriodicGrid(2 * np.pi, 32)
    cu = {1: 186, 3: 196 + 125j, 5: 25, 11: -189j, 12: 50j, 14: -113 + 200j, 15: 87 - 113j}
    half_u, half_v = np.zeros(17, complex), np.zeros(17, complex)
    for m, c in cu.items():
        half_u[m], half_v[m] = c, 1.0
    return (SpectralField.from_coeffs(g, g.unfold(half_u)),
            SpectralField.from_coeffs(g, g.unfold(half_v)))


@pytest.mark.parametrize("case", ["step_clamp", "lattice_fallback"])
def test_orbit_distance_newton_safeguards(case):
    # the safeguards keep the answer a distance attained at the reported
    # shift and no worse than the lattice argmax's; a scan of 2^16 shifts
    # finds a smaller one on these unresolved pairs, so orbit_distance is
    # the minimum only when the lattice argmax lies in the peak's basin
    u, v = safeguard_pair(case)
    d, y = orbit_distance(u, v)
    at_y, at_lattice_argmax = l2_distances(u, v, np.array([y, 0.0]))
    assert d == approx(at_y, rel=1e-13)
    assert d <= at_lattice_argmax * (1 + 1e-13)
    scan = l2_distances(u, v, np.linspace(-np.pi, np.pi, 2**16, endpoint=False))
    assert d >= scan.min() - 1e-3 * l2_norm(u)


def test_orbit_distance_sobolev_weight():
    u = noise(10, G, 32)
    v = SpectralField.from_coeffs(u.grid, u.coeffs * np.exp(0.9j * u.grid.wavenumbers))
    d, y = orbit_distance(u, v, s_norm=1.0)
    assert d <= 1e-9 * h1_norm(u)
    assert y == approx(-0.9, abs=1e-8)
