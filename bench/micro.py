"""Layer microbenchmarks at N = 1024, 4096 and 8192.

Each layer is timed through its public entry point on a realistic field:
the long-wave seed of the solve at that size, dealiased as the descent sees
it (its tails carry round-off of both signs, which matters for the
primitive's ``x ** 3.0``).  Every timing is warmed up first and reported as
the median over batches, in microseconds per call.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from solwave import errors, evolution, functionals, longwave, solver
from solwave.grid import SpectralField

# (period, mu) of the grid each size stands for: the stability grid at 1024,
# and the automatic solve grids near mu = 1e-3 and 1e-4 at 4096 and 8192
SIZES = {1024: (800.0, 1e-3), 4096: (None, 1e-3), 8192: (None, 1e-4)}


def per_call_us(fn, budget_s: float = 0.06, batches: int = 5) -> float:
    fn()
    t0 = perf_counter()
    fn()
    once = max(perf_counter() - t0, 1e-7)
    calls = max(1, int(budget_s / batches / once))
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def _iterations_us(prob, cfg, lo: int = 5, hi: int = 25) -> float:
    """Cost of one descent iteration, as the difference of two capped solves
    so that grid and seed construction cancel."""

    def capped(k):
        def run():
            try:
                solver.minimize_constrained(prob, solver.SolveConfig(
                    mu=cfg.mu, period=cfg.period, points=cfg.points,
                    tol_residual=1e-14, max_iter=k))
            except errors.MaxIterations:
                pass
        return run

    t_lo = per_call_us(capped(lo), budget_s=0.1, batches=3)
    t_hi = per_call_us(capped(hi), budget_s=0.3, batches=3)
    return (t_hi - t_lo) / (hi - lo)


def _steps_us(prob, u0: SpectralField, lo: int = 20, hi: int = 80) -> float:
    """Cost of one IFRK4 step, from two runs differing only in length."""

    def run(k):
        cfg = evolution.EvolutionConfig(dt=0.02, t_final=0.02 * k, stride=10**9)
        return lambda: evolution.evolve(prob, u0, cfg)

    t_lo = per_call_us(run(lo), budget_s=0.1, batches=3)
    t_hi = per_call_us(run(hi), budget_s=0.3, batches=3)
    return (t_hi - t_lo) / (hi - lo)


def layer_timings(prob) -> dict[str, float]:
    exps = longwave.exponents(prob.symbol.j_star, prob.nonlinearity.p)
    out = {}
    for n, (period, mu) in SIZES.items():
        cfg = solver.SolveConfig(mu=mu, period=period, points=n)
        grid = solver.default_grid(cfg, prob.symbol.k_cut, exps)
        cfg = solver.SolveConfig(mu=mu, period=grid.period, points=n)
        u = solver.kdv_scaled_seed(grid, mu, exps)
        eng = functionals.discretize(prob, grid)
        c = u.coeffs
        v = eng.values_dealiased(c)
        shifted = SpectralField.from_coeffs(
            grid, c * np.exp(1j * grid.wavenumbers * 0.37 * grid.spacing))
        nl = prob.nonlinearity
        tag = f"N{n}"
        out[f"grid.fft_pair_us.{tag}"] = per_call_us(
            lambda: grid.to_values(grid.to_coeffs(v)))
        out[f"functionals.energy_us.{tag}"] = per_call_us(lambda: eng.energy(c))
        out[f"functionals.gradient_us.{tag}"] = per_call_us(lambda: eng.gradient(c))
        out[f"nonlinearity.primitive_us.{tag}"] = per_call_us(lambda: nl.primitive(v))
        out[f"nonlinearity.n_us.{tag}"] = per_call_us(lambda: nl.n(v))
        out[f"longwave.orbit_distance_us.{tag}"] = per_call_us(
            lambda: longwave.orbit_distance(u, shifted))
        out[f"evolution.us_per_step.{tag}"] = _steps_us(prob, u)
        out[f"solver.us_per_iter.{tag}"] = _iterations_us(prob, cfg)
    return out

