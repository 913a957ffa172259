"""Constrained minimizer, fixed-point oracle, and continuation.

Quick solves run at mu around 3e-3 where the automatic grids are small;
the acceptance suite exercises the production mu range.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from conftest import PROB
from solwave.errors import (ConfigError, MaxIterations, MuTooLarge, NoConvergence,
                            SubcriticalSpeed)
from solwave.functionals import Penalization, Problem, discretize, momentum, reduced_problem
from solwave.grid import PeriodicGrid, SpectralField, l2_norm
from solwave.longwave import exponents, kdv_speed, orbit_distance
from solwave.nonlinearity import (nonlinearity_from_name, odd_power, polynomial,
                                  quadratic, signed_modulus)
from solwave.solver import (MAX_POINTS, SolveConfig, continuation_sweep,
                            default_grid, kdv_scaled_seed, minimize_constrained,
                            _finish, minimize_reduced, petviashvili, renormalize,
                            sweep_rows)
from solwave.symbols import symbol_from_name, whitham

EXPS = exponents(1, 2.0)


def test_one_gate_certifies_the_speed(wave):
    # _finish, which every solve ends in, refuses nu <= m(0) before the
    # resolution rule, so every wave it returns is supercritical
    eng = discretize(PROB, wave.field.grid)
    unresolved = wave.field.coeffs.copy()
    unresolved[wave.field.grid.n // 2] = 1.0
    with pytest.raises(MuTooLarge):
        _finish(PROB, eng, wave.mu, unresolved, 1.0, 0.0, 0)
    done = _finish(PROB, eng, wave.mu, wave.field.coeffs, wave.speed, wave.residual, 0)
    assert done.speed == wave.speed > PROB.symbol.m_zero
    assert (done.symbol, done.nonlinearity) == ("whitham", "quadratic")
    # the reduced problem's gate reads its m(0) = 0 off the same problem
    red = reduced_problem(1, -1.0 / 3.0, quadratic())
    eng = discretize(red, wave.field.grid)
    for nu in (0.0, -1e-3):
        with pytest.raises(MuTooLarge, match=r"m\(0\) = 0\)"):
            _finish(red, eng, 1.0, unresolved, nu, 0.0, 0)


def test_reduced_solve_runs_the_exponent_rule_once(monkeypatch):
    # the reduced Problem computes its scaling once, for its grid and its engine
    calls = []

    def counted(*args):
        calls.append(args)
        return exponents(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "solwave" and getattr(module, "exponents", None) is exponents:
            monkeypatch.setattr(module, "exponents", counted)
    minimize_reduced(1, -1.0 / 3.0, quadratic(), SolveConfig(tol_residual=1e-8))
    assert calls == [(1, 2.0)]


def test_speed_close_to_long_wave_law(wave):
    predicted = 1.0 + wave.mu ** (2.0 / 3.0) * kdv_speed()
    assert abs(wave.speed - predicted) / (predicted - 1.0) < 0.05


def test_travelling_wave_equation_nodewise(wave):
    # nu u = Lu + n(u) pointwise; the aliasing difference of the plain square
    # is below the solver tolerance for a resolved wave
    u = wave.field
    mvals = PROB.symbol.eval(u.grid.wavenumbers)
    lu = u.grid.to_values(mvals * u.coeffs)
    res = wave.speed * u.values - lu - PROB.nonlinearity.n(u.values)
    l2 = np.sqrt(u.grid.period / u.grid.n * np.sum(res**2))
    assert l2 <= 10 * wave.residual


def test_multiplier_consistency_at_crest(wave):
    u = wave.field
    j = int(np.argmax(np.abs(u.values)))
    mvals = PROB.symbol.eval(u.grid.wavenumbers)
    lu = u.grid.to_values(mvals * u.coeffs)
    ratio = (lu[j] + PROB.nonlinearity.n(u.values[j])) / u.values[j]
    assert abs(ratio - wave.speed) <= 1e-10 / abs(u.values[j])


def test_descent_is_monotone():
    # energies along the accepted iterates never increase beyond round-off
    cfg = SolveConfig(mu=3e-3, tol_residual=1e-9)
    grid = default_grid(cfg, PROB.symbol.k_cut, EXPS)
    eng = discretize(PROB, grid)
    seed = kdv_scaled_seed(grid, cfg.mu, EXPS)
    from solwave.solver import _descend
    *_, history = _descend(eng, cfg, seed.coeffs)
    es = np.array(history["energies"])
    assert len(es) > 10
    assert np.all(np.diff(es) <= 1e-14 * np.abs(es[:-1]))


def test_descent_transforms_per_iteration(monkeypatch):
    # one rfft per iteration, in the gradient, and one irfft per energy
    # evaluation: the accepted trial's samples feed the next gradient
    import solwave.grid
    from solwave.functionals import DiscreteFunctional
    calls = {"rfft": 0, "irfft": 0, "energy": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solwave.grid, "rfft", counted("rfft", solwave.grid.rfft))
    monkeypatch.setattr(solwave.grid, "irfft", counted("irfft", solwave.grid.irfft))
    monkeypatch.setattr(DiscreteFunctional, "energy",
                        counted("energy", DiscreteFunctional.energy))
    its = minimize_constrained(PROB, SolveConfig(mu=1e-3)).iterations
    assert its > 3
    # outside the descent: the seed's and the centred wave's samples are
    # transformed, and the finished coefficients are sampled once
    assert calls["rfft"] == (its + 1) + 2
    assert calls["irfft"] == calls["energy"] + 1


@pytest.mark.parametrize("symbol, nl, mu, pen", [
    ("gaussian", quadratic(), 1e-3, None),
    ("rational:1", quadratic(), 1e-3, None),
    ("whitham", odd_power(3, 1.0), 0.1, None),
    ("whitham", signed_modulus(2.5, 1.0), 1e-2, None),
    ("whitham", polynomial({2: 1.0, 3: 0.5}), 1e-3, None),
    ("whitham", quadratic(), 1e-2, Penalization(1.0)),
])
def test_preconditioned_cold_solve(symbol, nl, mu, pen):
    # every symbol, nonlinearity kind and the penalized functional converge
    # from the long-wave seed; the iteration bound guards the preconditioner,
    # without which these cases take 238-2260 iterations
    prob = Problem(symbol_from_name(symbol), nl)
    wave = minimize_constrained(prob, SolveConfig(mu=mu, tol_residual=1e-10,
                                                  penalization=pen))
    assert wave.residual <= 1e-10 and wave.speed > prob.symbol.m_zero
    assert momentum(wave.field) == approx(mu, rel=1e-12)
    assert wave.iterations < 100


@pytest.mark.parametrize("pos, neg", [("quadratic", "poly:-1"),
                                      ("modulus:2.5,1", "modulus:2.5,-1"),
                                      ("poly:1,0.5", "poly:-1,0.5")])
def test_wave_sign_follows_the_nonlinearity(pos, neg):
    # n(u) -> -n(-u) maps each wave u to -u: every seed takes the sign of c_p,
    # so the negated problem runs on exactly negated iterates
    cfg = SolveConfig(mu=1e-3, period=800.0, points=1024, tol_residual=1e-11)
    nls = [nonlinearity_from_name(name) for name in (pos, neg)]
    solves = [lambda nl: minimize_constrained(Problem(whitham(), nl), cfg),
              lambda nl: minimize_reduced(1, -1.0 / 3.0, nl, SolveConfig(tol_residual=1e-10))]
    if not nls[0].remainder:
        solves.append(lambda nl: petviashvili(Problem(whitham(), nl), 1.0088, cfg))
    for solve in solves:
        a, b = (solve(nl) for nl in nls)
        assert np.array_equal(b.field.values, -a.field.values)
        assert (b.speed, b.mu, b.iterations) == (a.speed, a.mu, a.iterations)


def test_iterations_do_not_grow_as_mu_shrinks():
    # the spectral gap nu - m(0) ~ mu^(2/3) no longer sets the rate
    its = {mu: minimize_constrained(PROB, SolveConfig(mu=mu, tol_residual=1e-10)).iterations
           for mu in (1e-4, 1e-2)}
    assert its[1e-4] <= its[1e-2]


def test_constraint_exact_after_renormalize():
    cfg = SolveConfig(mu=2e-3)
    grid = default_grid(cfg, PROB.symbol.k_cut, EXPS)
    seed = kdv_scaled_seed(grid, 1e-3, EXPS)  # wrong momentum on purpose
    u = renormalize(seed, cfg.mu)
    assert momentum(u) == approx(cfg.mu, rel=1e-14)
    with pytest.raises(ValueError, match="zero field"):
        renormalize(0.0 * seed, cfg.mu)


def test_max_iter_carries_history():
    with pytest.raises(MaxIterations) as err:
        minimize_constrained(PROB, SolveConfig(mu=3e-3, max_iter=5))
    assert len(err.value.info["history"]) == 5


def test_petviashvili_self_consistency():
    cfg = SolveConfig(mu=1e-3, tol_residual=1e-10)
    pet = petviashvili(PROB, 1.01, cfg)
    assert pet.residual <= 1e-10
    assert pet.speed == 1.01
    # with no guess, the seed's momentum inverts nu = m(0) + kdv_speed() mu^gamma,
    # and the wave stays on that momentum's automatic grid
    mu_lw = ((1.01 - PROB.symbol.m_zero) / kdv_speed()) ** (1.0 / EXPS.gamma)
    assert pet.field.grid == default_grid(replace(cfg, mu=mu_lw), PROB.symbol.k_cut, EXPS)
    assert pet.mu == approx(mu_lw, rel=0.02)
    # at p = 2.5 too, where the stabilizer exponent p/(p-1) is not 2: with no
    # guess, at the descent's speed and on its grid, the fixed point is the
    # descent's wave (measured: relative orbit distance 1.4e-9, Q/mu - 1 4.8e-10)
    prob = Problem(whitham(), signed_modulus(2.5, 1.0))
    wave = minimize_constrained(prob, SolveConfig(mu=1e-2, tol_residual=1e-12))
    g = wave.field.grid
    pet = petviashvili(prob, wave.speed, SolveConfig(period=g.period, points=g.n,
                                                     tol_residual=1e-12))
    assert orbit_distance(wave.field, pet.field)[0] <= 1e-8 * l2_norm(wave.field)
    assert pet.mu == approx(1e-2, rel=1e-8)


def test_petviashvili_fixed_point_invariance(wave):
    cfg = SolveConfig(mu=wave.mu, period=wave.field.grid.period,
                      points=wave.field.grid.n, tol_residual=1e-10)
    pet = petviashvili(PROB, wave.speed, cfg, guess=wave.field)
    assert pet.iterations <= 3
    d, _ = orbit_distance(wave.field, pet.field)
    assert d <= 1e-8


def test_petviashvili_subcritical_raises(wave):
    # a NaN speed is refused as not above m(0), with a guess or without
    for nu, guess in ((0.9, None), (math.nan, None), (math.nan, wave.field)):
        with pytest.raises(SubcriticalSpeed):
            petviashvili(PROB, nu, SolveConfig(mu=1e-3), guess=guess)


def test_continuation_sweep_table():
    profiles = continuation_sweep(PROB, [1e-3, 2e-3, 4e-3],
                                  SolveConfig(tol_residual=1e-10))
    assert all(p.speed > PROB.symbol.m_zero for p in profiles)
    energies = {p.mu: p.energy for p in profiles}
    vals = [energies[m] for m in (1e-3, 2e-3, 4e-3)]
    assert vals[0] > vals[1] > vals[2]  # infimum curve decreasing in mu
    # subadditivity and subhomogeneity on the in-table pairs
    assert energies[2e-3] < 2 * energies[1e-3]
    assert energies[4e-3] < 2 * energies[2e-3]
    assert energies[4e-3] < 4 * energies[1e-3]
    rows = sweep_rows(profiles)
    assert [r["mu"] for r in rows] == [1e-3, 2e-3, 4e-3]
    assert all(r["tail"] < 1e-10 for r in rows)


def test_sweep_input_validation():
    # the CLI's rule: a zero or negative mu fails on the list, not on one solve
    for mus in ([], [1e-3, 1e-4], [0.0], [-1e-3, 1e-3], [1e-3, 1e-3]):
        with pytest.raises(ConfigError) as err:
            continuation_sweep(PROB, mus, SolveConfig())
        assert err.value.info["field"] == "sweep.mu_list", mus


def test_sweep_refuses_non_finite_mu_before_any_solve(monkeypatch):
    def solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr("solwave.solver.minimize_constrained", solve)
    for mus in ([1e-2, math.nan, 1e-3], [math.nan], [1e-3, math.nan], [1e-3, math.inf]):
        with pytest.raises(ConfigError) as err:
            continuation_sweep(PROB, mus, SolveConfig())
        assert err.value.info["field"] == "sweep.mu_list"


def test_solve_config_validation():
    with pytest.raises(ConfigError):
        SolveConfig(mu=-1.0)
    with pytest.raises(ConfigError):
        SolveConfig(tol_residual=0.0)
    # NaN and infinities fail closed, and each error names its config field
    for field, value in [
            ("solver.mu", math.nan), ("solver.mu", math.inf), ("solver.mu", 0.0),
            ("solver.tol_residual", math.nan), ("solver.tol_residual", math.inf),
            ("solver.max_iter", 0), ("solver.max_iter", -3),
            ("grid.period", math.nan), ("grid.period", math.inf), ("grid.period", -5.0),
            ("grid.points", 1000)]:
        with pytest.raises(ConfigError) as err:
            SolveConfig(**{field.split(".")[1]: value})
        assert err.value.info["field"] == field
    # an explicit grid is bounded before anything is allocated
    assert SolveConfig(points=MAX_POINTS).points == MAX_POINTS == 2**20
    with pytest.raises(ConfigError) as err:
        SolveConfig(points=2**21)
    assert err.value.info["field"] == "grid.points"


def test_speed_gap_below_round_off_is_refused():
    # configs/stability.json's grid at mu = 1e-30: the long-wave gap 8.7e-21 is
    # below round-off of m(0) = 1, so no speed is representable apart from it,
    # and the preconditioner 1/(c_ref - m) would divide by zero at k = 0
    with pytest.raises(ConfigError) as err:
        minimize_constrained(PROB, SolveConfig(mu=1e-30, period=800.0, points=1024))
    assert (err.value.info["field"], err.value.info["value"]) == ("solver.mu", 1e-30)


def test_petviashvili_rejects_a_remainder():
    with pytest.raises(ConfigError) as err:
        petviashvili(Problem(whitham(), polynomial({2: 1.0, 3: 0.5})), 1.01, SolveConfig())
    assert err.value.info["field"] == "problem.nonlinearity"


@pytest.mark.parametrize("case", ["degenerate", "negative", "max_iter"])
def test_petviashvili_failures_carry_iterations_and_residual(case):
    # as every descent failure does: the iterations run and the last residual
    grid = PeriodicGrid(200.0, 256)
    bump = np.exp(-0.5 * (grid.nodes / 10.0) ** 2)
    guess, max_iter = {  # a NaN guess, a depression wave for n = u^2, one step
        "degenerate": (SpectralField.from_values(grid, np.nan * bump), 5),
        "negative": (SpectralField.from_values(grid, -0.01 * bump), 5),
        "max_iter": (None, 1)}[case]
    with pytest.raises(NoConvergence) as err:
        petviashvili(PROB, 1.01, SolveConfig(mu=1e-3, max_iter=max_iter), guess=guess)
    info = err.value.info
    assert info["iterations"] == (1 if case == "max_iter" else 0)
    assert (math.isnan if case == "degenerate" else math.isfinite)(info["residual"])


def test_seed_file_roundtrip(tmp_path, wave):
    # a stored field warm-starts a solve on its own grid
    from solwave.fileio import read_field_csv, write_field_csv
    path = tmp_path / "seed.csv"
    write_field_csv(path, wave.field)
    cfg = SolveConfig(mu=wave.mu, tol_residual=1e-10)
    prof = minimize_constrained(PROB, cfg, guess=read_field_csv(path))
    assert prof.field.grid == wave.field.grid
    assert prof.iterations <= wave.iterations


def test_ball_exit_with_tiny_penalization_radius():
    from solwave.errors import BallExit
    from solwave.functionals import Penalization
    cfg = SolveConfig(mu=3e-3, penalization=Penalization(1e-3))
    with pytest.raises(BallExit):
        minimize_constrained(PROB, cfg)
