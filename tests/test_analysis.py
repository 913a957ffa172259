import numpy as np
import pytest
from pytest import approx

from conftest import PROB, noise
from solwave.analysis import (TAU, band_split, convergence_rows, convergence_study,
                              reduced_reference, scaling_diagnostics, weighted_norm)
from solwave.functionals import momentum
from solwave.grid import PeriodicGrid, SpectralField, h1_norm, l2_norm, sup_norm
from solwave.longwave import exponents
from solwave.solver import SolveConfig, WaveProfile, continuation_sweep


@pytest.fixture(scope="module")
def mini_sweep():
    return continuation_sweep(PROB, [3e-3, 1e-2], SolveConfig(tol_residual=1e-10))


@pytest.fixture(scope="module")
def reference(mini_sweep):
    return reduced_reference(PROB, mini_sweep)


def test_convergence_study_trends(mini_sweep, reference):
    comps = convergence_study(PROB, mini_sweep, reference)
    assert [c.mu for c in comps] == [3e-3, 1e-2]
    for c in comps:
        assert np.isfinite(c.aligned_distance)
        assert np.isfinite(c.speed_deviation)
        assert np.isfinite(c.energy_deviation)
    # closer to the long-wave limit at the smaller mu
    assert comps[0].aligned_distance < comps[1].aligned_distance
    assert abs(comps[0].speed_deviation) < abs(comps[1].speed_deviation)
    assert abs(comps[0].energy_deviation) < abs(comps[1].energy_deviation)


def test_scaling_diagnostics_values(mini_sweep):
    exps = exponents(1, 2.0)
    prof = mini_sweep[0]
    assert TAU == 0.9
    rec = scaling_diagnostics(PROB, prof)
    u1, u2 = band_split(PROB.symbol, prof.field)
    assert rec.low_band_ratio == approx(
        weighted_norm(u1, prof.mu, 1, exps.beta) ** 2 / prof.mu, rel=1e-12)
    assert rec.sup_ratio == approx(sup_norm(prof.field) / prof.mu**exps.alpha, rel=1e-12)
    expo = 0.9 * exps.beta * 1.0 + 2.0
    assert rec.high_band_ratio == approx(
        h1_norm(u2) ** 2 / prof.mu**expo, rel=1e-12)
    for bad_mu in (0.0, float("nan")):
        with pytest.raises(ValueError, match="mu"):
            weighted_norm(u1, bad_mu, 1, exps.beta)


def test_high_band_floor(mini_sweep):
    # resolved waves: the high band stands far above coefficient round-off
    for prof in mini_sweep:
        rec = scaling_diagnostics(PROB, prof)
        assert rec.high_band_ratio >= 1e6 * rec.high_band_floor
    # a field whose true high band (|k| > k_cut ~ 4) lies below 1e-25 of its
    # norm measures as round-off, within a small factor of the floor
    grid = PeriodicGrid(800.0, 4096)
    field = SpectralField.from_values(grid, 1e-2 / np.cosh(0.1 * grid.nodes) ** 2)
    prof = WaveProfile(field, momentum(field), 0.0, 0.0, 0.0,
                       "whitham", "quadratic", 0)
    rec = scaling_diagnostics(PROB, prof)
    assert 0.3 * rec.high_band_floor <= rec.high_band_ratio <= 10.0 * rec.high_band_floor


def test_weighted_norm_at_tau():
    u = noise(30, PeriodicGrid(30.0, 256), band=80)
    mu, beta = 1e-3, 1.0 / 3.0
    k, c2 = u.grid.wavenumbers, np.abs(u.coeffs) ** 2
    want = np.sum(c2) + mu ** (-4.0 * TAU * beta) * np.sum(k**4 * c2)
    assert weighted_norm(u, mu, 1, beta) ** 2 == approx(want, rel=1e-13)


def test_convergence_rows_schema(mini_sweep, reference):
    comps = convergence_study(PROB, mini_sweep, reference)
    recs = [scaling_diagnostics(PROB, p) for p in mini_sweep]
    rows = convergence_rows(comps, recs)
    assert set(rows[0]) == {"mu", "dist_aligned", "speed_dev", "energy_dev",
                            "shift", "tau_ratio1", "tau_ratio2", "supnorm_ratio"}


def test_band_split_partition():
    sym = PROB.symbol
    u = noise(3, PeriodicGrid(30.0, 256), band=80)
    u1, u2 = band_split(sym, u)
    total = u1 + u2
    assert np.max(np.abs(total.coeffs - u.coeffs)) == 0.0
    assert l2_norm(u1) ** 2 + l2_norm(u2) ** 2 == approx(l2_norm(u) ** 2, rel=1e-12)
    assert np.all(np.abs(u1.grid.wavenumbers[np.abs(u1.coeffs) > 0]) <= sym.k_cut)


def test_band_split_low_field_untouched():
    sym = PROB.symbol
    g = PeriodicGrid(100.0, 128)  # Nyquist ~ 4.02, cutoff 3.997
    u = noise(9, g, band=int(sym.k_cut * g.period / (2 * np.pi)) - 1)
    u1, u2 = band_split(sym, u)
    assert np.max(np.abs(u2.coeffs)) == 0.0
    assert np.max(np.abs(u1.coeffs - u.coeffs)) == 0.0
