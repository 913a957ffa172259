"""Time integration of u_t + (Lu + n(u))_x = 0 with conservation monitoring.

The multiplier part is integrated exactly through the factor
exp(-i k m(k) t) (IFRK4); only the dealiased nonlinear flux sees the
Runge-Kutta error.  The energy and momentum drifts recorded along the run
are the time stepping's honesty meter: both are conserved by the equation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Blowup, ConfigError, ResolutionLoss
from .functionals import Problem, discretize
from .grid import RESOLVED, PeriodicGrid, SpectralField, band_noise, high_mode_ratio, l2_norm
from .longwave import orbit_distance
from .solver import WaveProfile, renormalize
from .symbols import DispersionSymbol, multiplier_values

_BLOWUP_FACTOR = 1e3  # growth of sup |u| over its initial value that is blow-up
MAX_PERTURBATION = 0.1  # largest perturbation of a stability run, relative in L2


@dataclass
class EvolutionConfig:
    dt: float = 0.01
    t_final: float = 10.0
    stride: int = 10              # record every stride steps

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError("dt must be finite and positive", field="evolution.dt",
                              value=self.dt)
        if not (math.isfinite(self.t_final) and self.t_final != 0):
            raise ConfigError("t_final must be finite and nonzero", field="evolution.t_final",
                              value=self.t_final)
        if (not isinstance(self.stride, (int, np.integer)) or isinstance(self.stride, bool)
                or self.stride < 1):
            raise ConfigError("stride must be an integer >= 1", field="evolution.stride",
                              value=self.stride)
        steps = abs(self.t_final) / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ConfigError(f"t_final = {self.t_final:g} is not a whole number of "
                              f"steps of dt = {self.dt:g}", field="evolution.t_final",
                              value=self.t_final)


@dataclass
class EvolutionTrace:
    times: np.ndarray
    e_drift: np.ndarray           # (E(t) - E(0)) / |E(0)|
    q_drift: np.ndarray           # (Q(t) - Q(0)) / Q(0)
    orbit_dist: np.ndarray        # L2 distance to the reference over translates
    shifts: np.ndarray            # minimizing translation per sample
    final: SpectralField

    def rows(self) -> list[dict]:
        """The rows of trace.csv; their keys are its header."""
        return [{"t": float(t), "E_drift": float(e), "Q_drift": float(q),
                 "orbit_dist": float(d), "shift": float(y)}
                for t, e, q, d, y in zip(self.times, self.e_drift, self.q_drift,
                                         self.orbit_dist, self.shifts)]


def evolve(system, u0: SpectralField, cfg: EvolutionConfig,
           reference: SpectralField | None = None) -> EvolutionTrace:
    """Integrate from u0 over [0, t_final] (negative horizons run backward).

    ``system`` is a Problem, or a bare DispersionSymbol for the purely
    dispersive flow.  When ``reference`` is given, the orbit L2 distance to it
    (minimum over translates) is recorded at every sample.  Every sample, the
    one at t = 0 included, must be finite, within the blow-up factor of the
    initial sup |u|, and resolved by the grid's rule (``high_mode_ratio``).
    """
    grid = u0.grid
    half = grid.n // 2 + 1
    if isinstance(system, Problem):
        eng = discretize(system, grid)
        mvals, energy_of, f = eng.mvals, eng.energy, eng.flux()
        # the multiplier part is integrated exactly, so this bound only flags
        # a possibly under-resolved nonlinear flux
        adv = float(np.max(np.abs(system.nonlinearity.n_prime(u0.values))))
        bound = 0.5 * grid.spacing / (system.symbol.m_zero + adv)
        if cfg.dt > bound:
            warnings.warn(f"dt = {cfg.dt:g} exceeds the advisory advective bound "
                          f"{bound:.3g}", RuntimeWarning, stacklevel=2)
    elif isinstance(system, DispersionSymbol):
        # the purely dispersive flow is exact for every dt: no advisory
        mvals, f = multiplier_values(system, grid), None

        def energy_of(full):
            return -0.5 * float(np.sum(mvals * np.abs(full) ** 2))
    else:
        raise TypeError("system must be a Problem or a DispersionSymbol")
    lam = -grid.ik[:half] * mvals[:half]
    dt = math.copysign(cfg.dt, cfg.t_final)
    n_steps = round(abs(cfg.t_final) / cfg.dt)  # whole, at least 1: see EvolutionConfig

    c = u0.coeffs[:half].copy()
    c_full = grid.unfold(c)
    sup0 = float(np.max(np.abs(u0.values)))
    e0, q0 = energy_of(c_full), 0.5 * float(np.sum(np.abs(c_full) ** 2))
    e_den = max(abs(e0), np.finfo(float).tiny)

    times, e_dr, q_dr, dists, shifts = [], [], [], [], []

    def record(step):
        u = SpectralField.from_coeffs(grid, grid.unfold(c))
        times.append(step * dt)
        e_dr.append((energy_of(u.coeffs) - e0) / e_den)
        q_dr.append((0.5 * float(np.sum(np.abs(u.coeffs) ** 2)) - q0) / q0 if q0 else 0.0)
        d, y = orbit_distance(u, reference) if reference is not None else (0.0, 0.0)
        dists.append(d)
        shifts.append(y)
        sup = float(np.max(np.abs(u.values)))
        # a field that is no longer finite says the step failed, not the model
        if not np.isfinite(sup):
            raise ResolutionLoss(f"sup |u| = {sup} at t = {step * dt:g}: the time "
                                 "step does not resolve the flux", t=step * dt,
                                 trace=_pack(u))
        if sup > _BLOWUP_FACTOR * max(sup0, np.finfo(float).tiny):
            raise Blowup(f"sup |u| = {sup:.3e} at t = {step * dt:g} "
                         f"(initial {sup0:.3e})", t=step * dt, trace=_pack(u))
        ratio = high_mode_ratio(u)
        if ratio > RESOLVED:
            raise ResolutionLoss(f"{ratio:.2e} of the peak coefficient above |m| = 0.3N "
                                 f"at t = {step * dt:g}; refine the grid", t=step * dt,
                                 ratio=ratio, trace=_pack(u))
        return u

    def _pack(final):
        return EvolutionTrace(np.array(times), np.array(e_dr), np.array(q_dr),
                              np.array(dists), np.array(shifts), final)

    # every step advances c in place through work arrays made once per call
    e_half = np.exp(0.5 * dt * lam)
    e_full = np.exp(dt * lam)
    e_half2, h2, h6 = 2.0 * e_half, 0.5 * dt, dt / 6.0
    f1, f2, f3, f4, s, ec = (np.empty_like(c) for _ in range(6))
    # the operands keep their order in the formula: numpy's complex product
    # is not bitwise commutative, and in this order the step is bit for bit
    # the plain out-of-place one
    mul, add = np.multiply, np.add

    def step_once(c):
        if f is None:
            mul(e_full, c, out=c)
            return
        f(c, f1)
        mul(h2, f1, out=s)                # a = e_half (c + dt/2 f1)
        add(c, s, out=s)
        mul(e_half, s, out=s)
        f(s, f2)
        mul(e_half, c, out=s)             # b = e_half c + dt/2 f2
        mul(h2, f2, out=f4)
        add(s, f4, out=s)
        f(s, f3)
        mul(e_full, c, out=ec)            # cc = e_full c + dt e_half f3
        mul(e_half, f3, out=s)
        mul(dt, s, out=s)
        add(ec, s, out=s)
        f(s, f4)
        mul(e_full, f1, out=f1)  # e_full c + dt/6 (e_full f1 + 2 e_half (f2 + f3) + f4)
        add(f2, f3, out=s)
        mul(e_half2, s, out=s)
        add(f1, s, out=f1)
        add(f1, f4, out=f1)
        mul(h6, f1, out=f1)
        add(ec, f1, out=c)

    u = record(0)
    for step in range(1, n_steps + 1):
        step_once(c)
        if step % cfg.stride == 0 or step == n_steps:
            u = record(step)
    return _pack(u)


@dataclass
class TravelReport:
    shape_error: float            # max aligned L2 distance to the initial profile
    measured_speed: float         # from a linear fit of the alignment shifts
    speed_error: float            # |measured - nu|
    trace: EvolutionTrace


def travel_test(prob: Problem, profile: WaveProfile, cfg: EvolutionConfig) -> TravelReport:
    """Evolve a computed wave and verify it translates rigidly at its speed."""
    u0 = profile.field
    trace = evolve(prob, u0, cfg, reference=u0)
    ts = trace.times
    ys = _unwrap(trace.shifts, u0.grid.period)
    # u(t) matches u0(. + y) with y = -nu t, so the fitted slope is -speed
    slope = float(np.polyfit(ts, ys, 1)[0]) if len(ts) > 1 else 0.0
    measured = -slope
    return TravelReport(shape_error=float(np.max(trace.orbit_dist)),
                        measured_speed=measured,
                        speed_error=abs(measured - profile.speed),
                        trace=trace)


def _unwrap(shifts: np.ndarray, period: float) -> np.ndarray:
    out = np.array(shifts, dtype=float)
    for i in range(1, len(out)):
        jump = out[i] - out[i - 1]
        out[i] -= period * round(jump / period)
    return out


def perturbation(grid: PeriodicGrid, profile_norm: float, rel_size: float,
                 seed: int, band: int = 32) -> SpectralField:
    """Band-limited random field with ||p||_0 = rel_size * profile_norm.

    Uses the counter-based Philox generator: the stream is reproducible from
    the 64-bit seed alone.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    return band_noise(grid, band, rng) * (rel_size * profile_norm)


@dataclass
class StabilityReport:
    initial_dist: float
    max_dist: float
    ratio: float
    trace: EvolutionTrace


def stability_experiment(prob: Problem, profile: WaveProfile,
                         pert: SpectralField, cfg: EvolutionConfig) -> StabilityReport:
    """Perturb, renormalize back to Q = mu, evolve, track the orbit distance.

    The momentum rescaling keeps the comparison on the constraint sphere where
    the minimizer set lives; the summary ratio max/initial is the stability
    observable.
    """
    base = profile.field
    if l2_norm(base) == 0:
        raise ConfigError("the profile is the zero field", field="profile")
    if l2_norm(pert) > MAX_PERTURBATION * l2_norm(base):
        raise ConfigError(f"perturbation exceeds {MAX_PERTURBATION:g} of the profile in L2",
                          field="perturbation")
    u0 = renormalize(base + pert, profile.mu)
    trace = evolve(prob, u0, cfg, reference=base)
    d0 = float(trace.orbit_dist[0])
    dmax = float(np.max(trace.orbit_dist))
    ratio = dmax / d0 if d0 > 0 else math.nan
    return StabilityReport(initial_dist=d0, max_dist=dmax, ratio=ratio, trace=trace)
