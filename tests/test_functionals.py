"""Energy/momentum closed forms, gradient exactness, penalization, reduced energy.

Frozen constant: the reduced energy of the unit-momentum KdV ground state is
-(4/15) (3/2)^(5/3) = -0.5241482788417793 (40-digit quadrature agrees).
"""

import math

import numpy as np
import pytest
from pytest import approx

from conftest import PROB, noise
from solwave.errors import OutOfDomain
from solwave.functionals import (Penalization, Problem, discretize, energy,
                                 energy_gradient, momentum, reduced_problem)
from solwave.grid import PeriodicGrid, SpectralField, h1_norm, inner_l2
from solwave.longwave import exponents, kdv_soliton
from solwave.nonlinearity import nonlinearity_from_name, quadratic, signed_modulus
from solwave.symbols import multiplier_values, whitham

KDV_REDUCED_ENERGY = -0.5241482788417793

KDV = reduced_problem(1, -1.0 / 3.0, quadratic())  # the reduced problem of PROB
G = PeriodicGrid(30.0, 128)  # the grid of the noise fields


def test_problem_computes_its_scaling_once():
    prob = Problem(whitham(), signed_modulus(2.5, 1.0))
    assert prob.scaling == exponents(1, 2.5)
    assert discretize(prob, PeriodicGrid(30.0, 128)).gamma == prob.scaling.gamma
    # not compared: equality and hash are those of (symbol, nonlinearity)
    same = Problem(prob.symbol, prob.nonlinearity)
    object.__setattr__(same, "scaling", None)
    assert same == prob and hash(same) == hash(prob)


def test_momentum_closed_forms():
    g = PeriodicGrid(18.0, 64)
    assert momentum(SpectralField.from_values(g, np.zeros(g.n))) == 0.0
    a = 0.7
    u = SpectralField.from_values(g, a * np.cos(2 * np.pi * g.nodes / g.period))
    assert momentum(u) == approx(a**2 * g.period / 4, rel=1e-13)


def test_momentum_of_kdv_soliton():
    w = kdv_soliton(PeriodicGrid(80.0, 1024))
    assert momentum(w) == approx(1.0, abs=1e-10)


def test_energy_zero_field():
    assert energy(PROB, SpectralField.from_values(PeriodicGrid(10.0, 32), np.zeros(32))) == 0.0


def test_energy_of_cosine():
    # quadratic nonlinearity integrates to zero over a period for a pure mode
    g = PeriodicGrid(22.0, 128)
    a, k1 = 0.3, 2 * np.pi / 22.0
    u = SpectralField.from_values(g, a * np.cos(k1 * g.nodes))
    expected = -PROB.symbol.eval(k1) * a**2 * g.period / 4
    assert energy(PROB, u) == approx(expected, rel=1e-12)


def test_energy_translation_invariant():
    u = noise(12, G, 32)
    e0 = energy(PROB, u)
    for j in (1, 7, 50):
        moved = SpectralField.from_values(u.grid, np.roll(u.values, j))
        assert energy(PROB, moved) == approx(e0, abs=1e-10)


def test_gradient_constant_field():
    g = PeriodicGrid(10.0, 64)
    c = 0.35
    u = SpectralField.from_values(g, np.full(g.n, c))
    grad = energy_gradient(PROB, u)
    assert grad.values == approx(np.full(g.n, -PROB.symbol.m_zero * c - c**2), abs=1e-13)


def test_penalization_shape():
    pen = Penalization(1.0)
    assert pen.rho(0.5) == 0.0
    assert pen.rho(1.0) == pen.rho_prime(1.0) == 0.0  # at t = R^2, where s = 0
    ts = np.linspace(1.01, 3.9, 40)
    vals = [pen.rho(t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert pen.rho(3.999) > 1e2
    with pytest.raises(OutOfDomain):
        pen.rho(4.0)
    with pytest.raises(OutOfDomain):
        pen.rho_prime(4.2)


def test_penalized_equals_plain_inside_ball():
    pen = Penalization(1.0)
    u = noise(3, G, 32, 0.2)
    assert h1_norm(u) ** 2 < 1.0
    eng = discretize(PROB, u.grid, pen)
    assert eng.energy(u.coeffs) == energy(PROB, u)
    assert np.array_equal(eng.gradient(u.coeffs), energy_gradient(PROB, u).coeffs)


def test_penalized_gradient_finite_differences():
    pen = Penalization(0.25)  # small radius so rho is active at test scale
    h = 1e-6
    u = noise(8, G, 32)
    u = u * np.sqrt(0.15 / h1_norm(u) ** 2)
    t = h1_norm(u) ** 2
    assert 0.0625 < t < 0.25  # inside the active band (R^2, (2R)^2)
    v = noise(9, G, 32)
    eng = discretize(PROB, u.grid, pen)
    gp = SpectralField.from_coeffs(u.grid, eng.gradient(u.coeffs))
    fd = (eng.energy((u + h * v).coeffs) - eng.energy((u - h * v).coeffs)) / (2 * h)
    assert fd == approx(inner_l2(gp, v), rel=1e-5)


def test_penalized_energy_is_infinite_outside_the_barrier_domain():
    pen = Penalization(0.25)
    u = noise(8, G, 32)
    u = u * np.sqrt(0.3 / h1_norm(u) ** 2)  # beyond (2R)^2 = 0.25
    eng = discretize(PROB, u.grid, pen)
    assert eng.energy(u.coeffs) == np.inf
    with pytest.raises(OutOfDomain):
        eng.gradient(u.coeffs)


def test_reduced_energy_closed_form():
    assert energy(KDV, SpectralField.from_values(PeriodicGrid(10.0, 32), np.zeros(32))) == 0.0
    w = kdv_soliton(PeriodicGrid(80.0, 1024))
    assert energy(KDV, w) == approx(KDV_REDUCED_ENERGY, abs=1e-12)


def test_reduced_energy_matches_direct_integrand():
    # same value as int( w'^2/12 - w^3/3 ) evaluated by spectral derivative
    # plus node quadrature
    g = PeriodicGrid(60.0, 512)
    w = noise(5, g, 128, 0.8)
    wp = SpectralField.from_coeffs(g, g.ik * w.coeffs)
    w_dealiased = g.to_values(g.dealias_mask * w.coeffs)
    direct = (inner_l2(wp, wp) / 12.0
              - (g.period / g.n) * float(np.sum(w_dealiased ** 3)) / 3.0)
    assert energy(KDV, w) == approx(direct, rel=1e-10)


@pytest.mark.parametrize("j_star, d2j_star", [(1, -1.0 / 3.0), (2, -24.0)])
def test_reduced_engine_holds_the_leading_taylor_term(j_star, d2j_star):
    grid = PeriodicGrid(40.0, 256)
    eng = discretize(reduced_problem(j_star, d2j_star, quadratic()), grid)
    k = grid.wavenumbers
    want = d2j_star * k ** (2 * j_star) / math.factorial(2 * j_star)
    assert eng.mvals.tobytes() == want.tobytes()


def test_reduced_functional_drops_the_remainder():
    # the reduced problem keeps n_p alone: x^2 + 0.5 x^3 reduces to x^2
    u = noise(23, G, 32, 0.5)
    poly = nonlinearity_from_name("poly:1,0.5")
    red = reduced_problem(1, -1.0 / 3.0, poly)
    assert energy(red, u) == energy(KDV, u)
    got, want = (energy_gradient(prob, u).coeffs for prob in (red, KDV))
    assert got.tobytes() == want.tobytes()


def test_amplitude_scaling_of_energy_parts():
    # under u -> sqrt(a) u the multiplier part -1/2 <u, Lu> scales by a, the
    # cubic part by a^(3/2) (quadratic nonlinearity)
    u = noise(40, G, 32, 0.5)
    a = 2.7
    quad = -0.5 * float(np.sum(multiplier_values(PROB.symbol, u.grid) * np.abs(u.coeffs) ** 2))
    cubic = energy(PROB, u) - quad
    assert energy(PROB, np.sqrt(a) * u) == approx(a * quad + a**1.5 * cubic, rel=1e-12)


def test_modulus_problem_assembles():
    Problem(whitham(), signed_modulus(2.5, -1.0))
