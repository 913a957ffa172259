"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured numbers (run with -s or -v to see them).

Closed-form anchors (40-digit arithmetic):
    unit-momentum ground state  w(x) = (3/2)^(2/3) sech^2((3/2)^(1/3) x)
    its multiplier              (2/3)^(1/3)  = 0.8735804647362989
    its reduced energy          -(4/15)(3/2)^(5/3) = -0.5241482788417793
"""

import numpy as np
import pytest

from solwave.analysis import convergence_study, scaling_diagnostics
from solwave.evolution import (EvolutionConfig, evolve, perturbation,
                               stability_experiment, travel_test)
from solwave.functionals import (Penalization, Problem, energy,
                                 energy_gradient, momentum, reduced_problem)
from solwave.grid import (PeriodicGrid, SpectralField, band_noise, h1_norm, inner_l2,
                          l2_norm, tail_max)
from solwave.longwave import (exponents, kdv_energy, kdv_soliton, kdv_speed,
                              orbit_distance)
from solwave.nonlinearity import quadratic
from solwave.solver import (SolveConfig, WaveProfile, continuation_sweep,
                            minimize_constrained, minimize_reduced,
                            petviashvili)
from solwave.symbols import whitham

NU_LW = (2.0 / 3.0) ** (1.0 / 3.0)
I_LW = -(4.0 / 15.0) * 1.5 ** (5.0 / 3.0)

SWEEP_MUS = [1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 1e-3, 3e-3, 1e-2]
LAW_MUS = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]  # the subset the laws are read on


def check(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def prob():
    return Problem(whitham(), quadratic())


@pytest.fixture(scope="module")
def reduced_min():
    return minimize_reduced(1, -1.0 / 3.0, quadratic(),
                            SolveConfig(tol_residual=1e-10))


@pytest.fixture(scope="module")
def wave_1e3(prob):
    return minimize_constrained(prob, SolveConfig(mu=1e-3, tol_residual=1e-12))


@pytest.fixture(scope="module")
def wave_1e4(prob):
    return minimize_constrained(prob, SolveConfig(mu=1e-4, tol_residual=1e-12))


@pytest.fixture(scope="module")
def wave_low(prob):
    # evolution-criteria grid: period 800, 1024 points
    return minimize_constrained(
        prob, SolveConfig(mu=1e-3, tol_residual=1e-12, period=800.0, points=1024))


@pytest.fixture(scope="module")
def sweep(prob):
    return continuation_sweep(prob, SWEEP_MUS, SolveConfig(tol_residual=1e-9))


@pytest.fixture(scope="module")
def law_rows(sweep):
    by_mu = {p.mu: p for p in sweep}
    return [by_mu[m] for m in LAW_MUS]


def test_criterion_01_kdv_oracle():
    g = PeriodicGrid(80.0, 2048)
    w = kdv_soliton(g)
    q_err = abs(momentum(w) - 1.0)
    wpp = SpectralField.from_coeffs(g, -(g.wavenumbers**2) * w.coeffs)
    res = wpp.values / 6.0 - kdv_speed() * w.values + w.values**2
    el = float(np.sqrt(g.period / g.n * np.sum(res**2)))
    e_err = abs(energy(reduced_problem(1, -1.0 / 3.0, quadratic()), w) - I_LW)
    ok = q_err <= 1e-10 and el <= 1e-10 and e_err <= 1e-8
    check(1, "KdV oracle exactness", ok,
          f"|Q-1|={q_err:.2e}, EL residual={el:.2e}, |E-I_lw|={e_err:.2e}")


def test_criterion_02_reduced_minimizer(reduced_min):
    w = kdv_soliton(reduced_min.field.grid)
    d, _ = orbit_distance(reduced_min.field, w, s_norm=1.0)
    nu_err = abs(reduced_min.speed - NU_LW)
    ok = nu_err <= 1e-6 and d <= 1e-6
    check(2, "reduced minimizer recovery", ok,
          f"|nu-(2/3)^(1/3)|={nu_err:.2e}, aligned H1 dist={d:.2e}, "
          f"iterations={reduced_min.iterations}")


def test_criterion_03_solitary_wave_solve(wave_1e3):
    p = wave_1e3
    tail = tail_max(p.field)
    ok = p.residual <= 1e-9 and p.speed > 1.0 and tail < 1e-10
    check(3, "solitary-wave solve at mu=1e-3", ok,
          f"residual={p.residual:.2e}, nu={p.speed:.8f}, tail={tail:.2e}")


def test_criterion_04_oracle_equivalence(prob, wave_1e3, wave_1e4):
    dists = {}
    for p in (wave_1e4, wave_1e3):
        cfg = SolveConfig(mu=p.mu, period=p.field.grid.period,
                          points=p.field.grid.n, tol_residual=1e-12)
        pet = petviashvili(prob, p.speed, cfg)
        d, _ = orbit_distance(p.field, pet.field)
        dists[p.mu] = d
    ok = all(d <= 1e-7 for d in dists.values())
    check(4, "fixed-point oracle equivalence", ok,
          ", ".join(f"mu={m:.0e}: dist={d:.2e}" for m, d in dists.items()))


def test_criterion_05_speed_law(law_rows):
    devs = [abs((p.speed - 1.0) / p.mu ** (2.0 / 3.0) - NU_LW) for p in law_rows]
    decreasing = all(a < b for a, b in zip(devs, devs[1:]))
    small = devs[0] <= 0.05 * NU_LW
    check(5, "speed law", decreasing and small,
          "deviations " + ", ".join(f"{d:.3e}" for d in devs)
          + f"; bound at mu=1e-4: {devs[0]:.3e} <= {0.05 * NU_LW:.3e}")


def test_criterion_06_energy_law(law_rows):
    devs = [abs((p.energy + p.mu) / p.mu ** (5.0 / 3.0) - I_LW) / abs(I_LW)
            for p in law_rows]
    decreasing = all(a < b for a, b in zip(devs, devs[1:]))
    small = devs[0] <= 0.05
    check(6, "energy law", decreasing and small,
          "relative deviations " + ", ".join(f"{d:.3e}" for d in devs))


def test_criterion_07_profile_convergence(prob, law_rows):
    n_ref = max(p.field.grid.n for p in law_rows)
    exps = exponents(1, 2.0)
    scaled_period = law_rows[0].field.grid.period * law_rows[0].mu**exps.beta
    ref_grid = PeriodicGrid(scaled_period, n_ref)
    reference = WaveProfile(field=kdv_soliton(ref_grid), mu=1.0,
                            speed=kdv_speed(), residual=0.0, energy=kdv_energy(),
                            symbol="whitham", nonlinearity="quadratic",
                            iterations=0)
    comps = convergence_study(prob, law_rows, reference)
    dists = [c.aligned_distance for c in comps]
    decreasing = all(a < b for a, b in zip(dists, dists[1:]))
    small = dists[0] <= 0.05
    check(7, "profile convergence to the KdV ground state", decreasing and small,
          "aligned H1 distances " + ", ".join(f"{d:.3e}" for d in dists))


def test_criterion_08_subadditivity(sweep):
    mus = [p.mu for p in sweep]
    I = {p.mu: p.energy for p in sweep}
    tol = 1e-14  # comparisons far above this; guards degenerate ties
    sub_pairs, hom_pairs, violations = 0, 0, []
    for i, m1 in enumerate(mus):
        for m2 in mus[i:]:
            target = m1 + m2
            match = [m for m in mus if abs(m - target) <= 1e-12 * target]
            if match:
                sub_pairs += 1
                if not I[match[0]] < I[m1] + I[m2] - tol:
                    violations.append(f"I({match[0]:g}) >= I({m1:g})+I({m2:g})")
    for m1 in mus:
        for m2 in mus:
            if m2 > m1:
                hom_pairs += 1
                a = m2 / m1
                if not I[m2] < a * I[m1] - tol:
                    violations.append(f"I({m2:g}) >= {a:g} I({m1:g})")
    ok = sub_pairs >= 5 and hom_pairs >= 10 and not violations
    check(8, "subadditivity and subhomogeneity", ok,
          f"{sub_pairs} sum pairs, {hom_pairs} scaling pairs, "
          f"violations: {violations or 'none'}")


def test_criterion_09_gradient_correctness(prob):
    h = 1e-5
    g = PeriodicGrid(30.0, 128)
    red = reduced_problem(1, -1 / 3, quadratic())
    worst_full, worst_red = 0.0, 0.0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed))
        u = band_noise(g, g.n // 4, rng) * 0.5
        v = band_noise(g, g.n // 4, rng)
        fd = (energy(prob, u + h * v) - energy(prob, u - h * v)) / (2 * h)
        an = inner_l2(energy_gradient(prob, u), v)
        worst_full = max(worst_full, abs(fd - an) / max(abs(an), 1e-12))
        fd = (energy(red, u + h * v) - energy(red, u - h * v)) / (2 * h)
        an = inner_l2(energy_gradient(red, u), v)
        worst_red = max(worst_red, abs(fd - an) / max(abs(an), 1e-12))
    ok = worst_full <= 1e-6 and worst_red <= 1e-6
    check(9, "gradient correctness on 100 random fields", ok,
          f"worst relative error: full={worst_full:.2e}, reduced={worst_red:.2e}")


def test_criterion_10_conservation(prob, wave_low):
    trace = evolve(prob, wave_low.field,
                   EvolutionConfig(dt=0.02, t_final=100.0, stride=250))
    q = float(np.max(np.abs(trace.q_drift)))
    e = float(np.max(np.abs(trace.e_drift)))
    g = wave_low.field.grid
    lin = evolve(whitham(), wave_low.field,
                 EvolutionConfig(dt=0.01, t_final=10.0, stride=500))
    lam = -g.ik * whitham().eval(g.wavenumbers)
    exact = SpectralField.from_coeffs(g, wave_low.field.coeffs * np.exp(lam * 10.0))
    lin_err = l2_norm(lin.final - exact) / l2_norm(exact)
    ok = q <= 1e-10 and e <= 1e-8 and lin_err <= 1e-12
    check(10, "conservation over T=100 at N=1024", ok,
          f"Q drift={q:.2e}, E drift={e:.2e}, linear-flow error={lin_err:.2e}")


def test_criterion_11_travelling(prob, wave_low):
    rep = travel_test(prob, wave_low,
                      EvolutionConfig(dt=0.01, t_final=20.0, stride=100))
    ok = rep.shape_error <= 1e-6 and rep.speed_error <= 1e-6
    check(11, "travelling verification", ok,
          f"shape error={rep.shape_error:.2e}, speed error={rep.speed_error:.2e}")


def test_criterion_12_stability(prob, wave_low):
    cfg = EvolutionConfig(dt=0.02, t_final=100.0, stride=100)
    maxes, ratios = [], []
    for i, scale in enumerate((0.005, 0.01, 0.02)):
        pert = perturbation(wave_low.field.grid, l2_norm(wave_low.field),
                            scale, seed=20260811 + i)
        rep = stability_experiment(prob, wave_low, pert, cfg)
        maxes.append(rep.max_dist)
        ratios.append(rep.ratio)
    bounded = all(r <= 5.0 for r in ratios)
    monotone = maxes[0] <= maxes[1] <= maxes[2]
    check(12, "conditional energetic stability", bounded and monotone,
          f"ratios={[f'{r:.2f}' for r in ratios]}, "
          f"max distances={[f'{m:.2e}' for m in maxes]}")


def test_criterion_13_penalization_fidelity(prob, wave_low):
    pen = Penalization()
    cfg = SolveConfig(mu=1e-3, tol_residual=1e-12, period=800.0, points=1024,
                      penalization=pen)
    pwave = minimize_constrained(prob, cfg)
    d, _ = orbit_distance(wave_low.field, pwave.field)
    rho = pen.rho(h1_norm(pwave.field) ** 2)
    ok = d <= 1e-7 and rho == 0.0
    check(13, "penalization fidelity", ok,
          f"orbit distance={d:.2e}, rho at solution={rho:g}")


def test_criterion_14_scaling_diagnostics(prob, sweep):
    # Low band and sup norm are two-sided O(1): within x3 of their mu=1e-3
    # values.  The high band is bounded above only, ||u2||_1^2 <= C
    # mu^(tau beta (p-1) + p): C is read off the largest mu, whose high band
    # must be resolved (10x above its round-off floor), and no mu may exceed
    # 3C, by its measured ratio or by the floor that ratio cannot go below.
    records = [scaling_diagnostics(prob, p) for p in sweep]
    base = next(r for r in records if r.mu == 1e-3)
    names = ("low-band", "sup-norm")
    ratios = {n: [] for n in names}
    for r in records:
        ratios["low-band"].append(r.low_band_ratio / base.low_band_ratio)
        ratios["sup-norm"].append(r.sup_ratio / base.sup_ratio)
    stable = {n: all(1.0 / 3.0 <= v <= 3.0 for v in vals)
              for n, vals in ratios.items()}
    top = max(records, key=lambda r: r.mu)
    c_high = top.high_band_ratio
    resolved = c_high >= 10.0 * top.high_band_floor
    bounded = all(max(r.high_band_ratio, r.high_band_floor) <= 3.0 * c_high
                  for r in records)
    stable["high-band"] = resolved and bounded
    detail = "; ".join(
        f"{n}: x{min(v):.2e}..x{max(v):.2e} ({'ok' if stable[n] else 'UNSTABLE'})"
        for n, v in ratios.items())
    detail += (
        f"; high-band <= 3C, C={c_high:.3e} at mu={top.mu:g}"
        f" ({'resolved' if resolved else 'UNRESOLVED'},"
        f" {'ok' if bounded else 'EXCEEDED'}): "
        + ", ".join(f"mu={r.mu:g} {r.high_band_ratio:.2e}/floor {r.high_band_floor:.2e}"
                    for r in records))
    check(14, "scaling diagnostics: low band and sup norm within factor 3, "
          "high band bounded", all(stable.values()), detail)
