"""Time integration of u_t + (Lu + n(u))_x = 0 with conservation monitoring.

The multiplier part is integrated exactly through the factor
exp(-i k m(k) t) (IFRK4); only the dealiased nonlinear flux sees the
Runge-Kutta error.  The energy and momentum drifts recorded along the run
are the time stepping's honesty meter: both are conserved by the equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import Blowup, ConfigError, ResolutionLoss
from .functionals import Problem, discretize, momentum, quadratic_energy
from .grid import (RESOLVED, PeriodicGrid, SpectralField, aligned, band_noise,
                   high_mode_ratio, irfft, l2_norm, rfft, sup_norm)
from .longwave import orbit_distance
from .solver import WaveProfile, renormalize
from .symbols import DispersionSymbol, multiplier_values

_BLOWUP_FACTOR = 1e3  # growth of sup |u| over its initial value that is blow-up
MAX_PERTURBATION = 0.1  # largest perturbation of a stability run, relative in L2


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 0.01
    t_final: float = 20.0
    stride: int = 50              # record every stride steps

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


class Stepper:
    """IFRK4 at one time step ``dt`` (negative runs backward) of ``system``'s
    flow: a Problem's, or a bare DispersionSymbol's, whose zero flux makes the
    step exact for every dt.  ``energy`` is the flow's conserved energy of
    FFT-order coefficients.

    ``c`` is a real field's half spectrum m = 0..N/2, or a (K, N/2+1) stack of
    them whose rows step bit for bit as alone.  Every constant and work buffer
    is made here, on a 64-byte boundary (``aligned``) and in ``c``'s shape, as
    numpy's loop for an operand broadcast over rows allocates on every call;
    with every output positional, a step allocates nothing but a polynomial
    remainder's terms.
    """

    def __init__(self, system, grid: PeriodicGrid, dt: float, c: np.ndarray):
        half = grid.n // 2 + 1

        def const(a):
            return aligned(np.broadcast_to(a, c.shape))

        if isinstance(system, Problem):
            eng = discretize(system, grid)
            mvals, self.energy = eng.mvals, eng.energy
            self._n, self._nodewise = grid.n, system.nonlinearity.nodewise
            # the node phase, scale, mask and -ik folded into two constants,
            # cast here rather than by np.multiply on every evaluation: same bits
            phase = grid.dealias_mask[:half] * grid.node_phase
            self._to_vals = const((phase * grid.scale).astype(complex))
            self._to_flux = const(-grid.ik[:half] * phase / grid.scale)
            rows = c.shape[:-1] + (grid.n,)
            self._vals, self._nvals = aligned(np.empty(rows)), aligned(np.empty(rows))
        elif isinstance(system, DispersionSymbol):
            mvals = multiplier_values(system, grid)
            self.energy, self._nodewise = partial(quadratic_energy, mvals), None
        else:
            raise TypeError("system must be a Problem or a DispersionSymbol")
        lam = -grid.ik[:half] * mvals[:half]
        e_half = np.exp(0.5 * dt * lam)
        self._factors = tuple(map(const, (e_half, np.exp(dt * lam), 2.0 * e_half,
                                          complex(0.5 * dt), complex(dt / 6.0), complex(dt))))
        self._work = tuple(aligned(np.empty(c.shape, complex)) for _ in range(6))

    def flux(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """-ik mask to_coeffs(n(to_values(c mask))) at m >= 0 into ``out``, which
        holds the spectrum on the way; ``c`` is only read and may not be ``out``."""
        if self._nodewise is None:
            out.fill(0.0)
            return out
        mul = np.multiply
        irfft(mul(c, self._to_vals, out), self._n, self._vals)
        rfft(self._nodewise(self._vals, self._nvals), out)
        return mul(self._to_flux, out, out)

    def step(self, c: np.ndarray):
        """Advance ``c`` by one step, in place."""
        f, mul, add = self.flux, np.multiply, np.add
        e_half, e_full, e_half2, h2, h6, hf = self._factors
        f1, f2, f3, f4, s, ec = self._work
        # the operands keep their order in the formula: numpy's complex product
        # is not bitwise commutative, and in this order the step is bit for bit
        # the plain out-of-place one
        f(c, f1)
        mul(h2, f1, s)                    # a = e_half (c + dt/2 f1)
        add(c, s, s)
        mul(e_half, s, s)
        f(s, f2)
        mul(e_half, c, s)                 # b = e_half c + dt/2 f2
        mul(h2, f2, f4)
        add(s, f4, s)
        f(s, f3)
        mul(e_full, c, ec)                # cc = e_full c + dt e_half f3
        mul(e_half, f3, s)
        mul(hf, s, s)
        add(ec, s, s)
        f(s, f4)
        mul(e_full, f1, f1)  # e_full c + dt/6 (e_full f1 + 2 e_half (f2 + f3) + f4)
        add(f2, f3, s)
        mul(e_half2, s, s)
        add(f1, s, f1)
        add(f1, f4, f1)
        mul(h6, f1, f1)
        add(ec, f1, c)


def evolve(system, u0: SpectralField, cfg: EvolutionConfig,
           reference: SpectralField | None = None) -> EvolutionTrace:
    """Integrate from u0 over [0, t_final] (negative horizons run backward).

    ``system`` is a Problem or a bare DispersionSymbol, as for ``Stepper``.
    When ``reference`` is given, the orbit L2 distance to it (minimum over
    translates) is recorded at every sample.  Every sample, the one at t = 0
    included, must be finite, within the blow-up factor of the initial sup
    |u|, and resolved by the grid's rule (``high_mode_ratio``).
    """
    grid = u0.grid
    dt = math.copysign(cfg.dt, cfg.t_final)
    n_steps = round(abs(cfg.t_final) / cfg.dt)  # whole, at least 1: see EvolutionConfig
    c = aligned(u0.coeffs[:grid.n // 2 + 1])
    stepper = Stepper(system, grid, dt, c)
    sup0 = sup_norm(u0)
    times, es, qs, dists, shifts = [], [], [], [], []

    def record(step):
        u = SpectralField.from_coeffs(grid, grid.unfold(c))
        t = step * dt + 0.0  # + 0.0 turns the -0 of a backward run's start into 0
        times.append(t)
        es.append(stepper.energy(u.coeffs))
        qs.append(momentum(u))
        d, y = orbit_distance(u, reference) if reference is not None else (0.0, 0.0)
        dists.append(d)
        shifts.append(y)
        sup = sup_norm(u)
        # a field that is no longer finite says the step failed, not the model
        if not np.isfinite(sup):
            raise ResolutionLoss(f"sup |u| = {sup} at t = {t:g}: the time "
                                 "step does not resolve the flux", t=t,
                                 trace=_pack(u))
        if sup > _BLOWUP_FACTOR * max(sup0, np.finfo(float).tiny):
            raise Blowup(f"sup |u| = {sup:.3e} at t = {t:g} "
                         f"(initial {sup0:.3e})", t=t, trace=_pack(u))
        ratio = high_mode_ratio(u)
        if not ratio <= RESOLVED:  # also true on NaN
            raise ResolutionLoss(f"{ratio:.2e} of the peak coefficient above |m| = 0.3N "
                                 f"at t = {t:g}; refine the grid", t=t,
                                 ratio=ratio, trace=_pack(u))
        return u

    def _pack(final):  # E and Q drift against the first sample, at t = 0
        e, q = np.array(es), np.array(qs)
        return EvolutionTrace(np.array(times), (e - e[0]) / max(abs(e[0]), np.finfo(float).tiny),
                              (q - q[0]) / q[0] if q[0] else np.zeros_like(q),
                              np.array(dists), np.array(shifts), final)

    u = record(0)
    for start in range(0, n_steps, cfg.stride):  # a record every stride steps and at the last
        end = min(start + cfg.stride, n_steps)
        for _ in range(start, end):
            stepper.step(c)
        u = record(end)
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
    # u(t) matches u0(. + y) with y = -nu t, so the fitted slope is -speed
    measured = -float(np.polyfit(trace.times, _unwrap(trace.shifts, u0.grid.period), 1)[0])
    return TravelReport(shape_error=float(np.max(trace.orbit_dist)),
                        measured_speed=measured,
                        speed_error=abs(measured - profile.speed),
                        trace=trace)


def _unwrap(shifts: np.ndarray, period: float) -> np.ndarray:
    out = np.array(shifts, dtype=float)
    for i in range(1, len(out)):
        out[i] -= period * round((out[i] - out[i - 1]) / period)
    return out


def perturbation(grid: PeriodicGrid, profile_norm: float, rel_size: float,
                 seed: int, band: int = 32) -> SpectralField:
    """Band-limited random field with ||p||_0 = rel_size * profile_norm.

    Uses the counter-based Philox generator: the stream is reproducible from
    the 64-bit seed alone.  A size that is negative or not finite is refused.
    """
    size = rel_size * profile_norm
    if not 0 <= size < math.inf:  # true on NaN
        raise ConfigError(f"perturbation size must be finite and nonnegative, got {size!r}",
                          field="perturbation", value=size)
    rng = np.random.Generator(np.random.Philox(seed))
    return band_noise(grid, band, rng) * size


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
    if not l2_norm(pert) <= MAX_PERTURBATION * l2_norm(base):  # true on NaN
        raise ConfigError(f"perturbation is not finite or exceeds {MAX_PERTURBATION:g} "
                          "of the profile in L2", field="perturbation")
    u0 = renormalize(base + pert, profile.mu)
    trace = evolve(prob, u0, cfg, reference=base)
    d0 = float(trace.orbit_dist[0])
    dmax = float(np.max(trace.orbit_dist))
    ratio = dmax / d0 if d0 > 0 else math.nan
    return StabilityReport(initial_dist=d0, max_dist=dmax, ratio=ratio, trace=trace)
