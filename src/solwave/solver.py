"""Constrained minimization of the wave energy at fixed momentum.

The minimizer runs preconditioned projected gradient descent on Q(u) = mu:
the multiplier estimate nu = -<g, u>/(2 mu) makes the residual g + nu u
tangent, (c_ref - L)^-1 preconditions it, a backtracking line search with
exact renormalization to Q = mu accepts the step, and descent stops when the
residual drops below tolerance.  An independent Petviashvili fixed-point
iteration at given speed serves as a cross-check oracle: the two methods
meet on the same discrete travelling-wave equation from different sides.
The reduced long-wave problem is a ``Problem`` too: both minimizers take one
path (discretize, descend, ``_finish``), and ``_finish`` ends all three solvers
with ``certify``, which also gates every wave ``fileio.read_profile`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BallExit, ConfigError, MaxIterations, MuTooLarge,
                     NoConvergence, ResolutionLoss, SubcriticalSpeed)
from .functionals import (DiscreteFunctional, Penalization, Problem, discretize,
                          reduced_problem)
from .grid import (RESOLVED, PeriodicGrid, SpectralField, change_points, high_mode_ratio,
                   l2_norm, tail_max)
from .longwave import ScalingExponents, kdv_profile, kdv_speed
from .nonlinearity import Nonlinearity

_LEDGE = 1e-15         # roundoff slack for the descent test near the floor of E
_STEP_INIT = 1.0       # first trial step of the line search
_STEP_SHRINK = 0.5     # backtracking factor
_ARMIJO = 1e-4         # sufficient-decrease fraction of the slope
_STEP_GROW = 2.0       # the next trial step is min(_STEP_GROW t, _STEP_MAX)
_STEP_MAX = 64.0
_PERIOD_SCALE = 80.0   # automatic period is _PERIOD_SCALE mu^-beta
_MIN_PERIOD = 64.0
_NYQUIST_FACTOR = 2.2  # times the band-split cutoff
_SEED_BAND = 45.0      # scaled Nyquist demand of the seed spectrum
MAX_POINTS = 2**20     # largest grid a solve may ask for
_SPEED_ULPS = 1e3      # least long-wave speed gap nu_lw mu^gamma, in ulps eps m(0)


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for one constrained solve.

    ``period``/``points`` override the automatic grid; otherwise the period
    scales like mu^-beta so the wave occupies a fixed fraction of it, and the
    point count keeps the Nyquist wavenumber beyond both the band-split cutoff
    and the seed's spectral support.
    """

    mu: float = 1e-3
    period: float | None = None
    points: int | None = None
    tol_residual: float = 1e-9
    max_iter: int = 50_000
    penalization: Penalization | None = None

    def __post_init__(self):
        for name, ok, need in (  # every test is false on NaN
                ("solver.mu", 0 < self.mu < math.inf, "finite and positive"),
                ("solver.tol_residual", 0 < self.tol_residual < math.inf,
                 "finite and positive"),
                ("solver.max_iter", self.max_iter >= 1, "at least 1"),
                ("grid.period", self.period is None or 0 < self.period < math.inf,
                 "finite and positive"),
                ("grid.points", self.points is None
                 or (self.points >= 16 and self.points & (self.points - 1) == 0),
                 "a power of two, at least 16")):
            if not ok:
                raise ConfigError(f"{name} must be {need}", field=name)
        if self.points is not None and self.points > MAX_POINTS:
            raise ConfigError(f"points = {self.points} exceeds {MAX_POINTS}",
                              field="grid.points", value=self.points)


@dataclass(frozen=True)
class WaveProfile:
    """A computed travelling wave and its certificate numbers."""

    field: SpectralField
    mu: float
    speed: float
    residual: float
    energy: float
    symbol: str
    nonlinearity: str
    iterations: int


def next_pow2(x: float) -> int:
    return 1 << max(4, math.ceil(math.log2(max(x, 16))))


def default_grid(cfg: SolveConfig, k_cut: float, exps: ScalingExponents) -> PeriodicGrid:
    try:
        period = cfg.period or max(_MIN_PERIOD, _PERIOD_SCALE * cfg.mu ** (-exps.beta))
        k_need = max(_NYQUIST_FACTOR * k_cut, _SEED_BAND * cfg.mu**exps.beta)
    except OverflowError:
        raise ConfigError(f"mu = {cfg.mu:g}: mu^(+-{exps.beta:g}) overflows",
                          field="solver.mu", value=cfg.mu) from None
    need = cfg.points or max(256, period * k_need / math.pi)
    if not (need <= MAX_POINTS and period < math.inf):  # also false on NaN
        raise ConfigError(f"mu = {cfg.mu:g} needs {need:.3g} points on a period of "
                          f"{period:.3g}; at most {MAX_POINTS} on a finite one",
                          field="grid.points", value=need)
    return PeriodicGrid(period, next_pow2(need))


def kdv_scaled_seed(grid: PeriodicGrid, mu: float, exps: ScalingExponents) -> SpectralField:
    """mu^alpha w_kdv(mu^beta x): the long-wave seed on the solve grid."""
    y = mu**exps.beta * grid.nodes
    return SpectralField.from_values(grid, mu**exps.alpha * kdv_profile(y))


def _long_wave_seed(prob: Problem, cfg: SolveConfig) -> SpectralField:
    """The KdV-scaled seed at cfg.mu on the automatic grid, signed like c_p:
    n(u) -> -n(-u) flips that sign and maps each wave u to -u."""
    grid = default_grid(cfg, prob.symbol.k_cut, prob.scaling)
    return kdv_scaled_seed(grid, cfg.mu, prob.scaling) * math.copysign(1.0, prob.nonlinearity.cp)


def renormalize(u: SpectralField, mu: float) -> SpectralField:
    """Rescale to Q = mu exactly (Q = ||u||_0^2 / 2)."""
    nrm = l2_norm(u)
    if nrm == 0:
        raise ValueError("cannot renormalize the zero field")
    return u * (math.sqrt(2.0 * mu) / nrm)


def center(u: SpectralField) -> SpectralField:
    """Cyclic shift putting the node of max |u| at x = 0."""
    j = int(np.argmax(np.abs(u.values)))
    return SpectralField.from_values(u.grid, np.roll(u.values, u.grid.n // 2 - j))


def _vdot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _descend(eng: DiscreteFunctional, cfg: SolveConfig,
             c0: np.ndarray) -> tuple[np.ndarray, float, float, int, dict]:
    """Preconditioned projected-gradient core on coefficient arrays, on Q = cfg.mu.

    The preconditioner (c_ref - L)^-1 takes c_ref = m(0) + nu_lw mu^gamma from
    the long-wave speed law (accelerated imaginary-time evolution): it is
    positive definite, and the rate no longer degrades with the gap nu - m(0).
    It refuses a gap within _SPEED_ULPS ulps of m(0), where no speed is apart from m(0).

    Returns (coeffs, nu, residual, iterations, history) with history holding
    the residual and the accepted energy per iteration.  The line search
    accepts on sufficient decrease with a round-off ledge so descent can
    continue once E differences reach machine precision.  An iteration costs
    one rfft, in the gradient, and one irfft per line-search trial: the
    accepted trial's dealiased samples feed the next gradient.
    """
    mu, m_top = cfg.mu, np.max(eng.mvals)
    try:
        gap = kdv_speed() * mu ** eng.gamma
    except OverflowError:
        raise ConfigError(f"mu = {mu:g}: mu^{eng.gamma:g} overflows", field="solver.mu",
                          value=mu) from None
    if not gap > _SPEED_ULPS * np.finfo(float).eps * m_top:
        raise ConfigError(f"mu = {mu:g}: the long-wave speed gap {gap:.3g} is within "
                          f"{_SPEED_ULPS:g} ulps of m(0)", field="solver.mu", value=mu)
    scale = math.sqrt(2.0 * mu)
    c = c0 * (scale / np.sqrt(np.sum(np.abs(c0) ** 2)))
    if eng.pen is not None and (t := eng.grid.h1_sum(c)) >= eng.pen.limit:
        raise BallExit(f"initial iterate has ||u||_H1^2 = {t:.3e}, "
                       f"outside the barrier domain (2R)^2 = {eng.pen.limit:.3e}")
    c_ref = m_top + gap
    precond = 1.0 / (c_ref - eng.mvals)
    neg_precond = (-precond).astype(complex)  # cast once, not per product
    two_mu = 2.0 * mu
    step = _STEP_INIT
    history: dict = {"residuals": [], "energies": []}
    v = eng.values_dealiased(c)
    e0 = eng.energy(c, v)
    for it in range(cfg.max_iter):
        g = eng.gradient(c, v)
        nu = -_vdot(g, c) / two_mu
        r = g + nu * c
        res = float(np.sqrt(np.sum(np.abs(r) ** 2)))
        history["residuals"].append(res)
        # a residual that is no longer finite says the iteration failed, not the model
        if not math.isfinite(res):
            raise NoConvergence(f"residual {res:.3e} at iteration {it}: the descent "
                                "left the range of doubles", residual=res,
                                iterations=it, history=history["residuals"])
        if res <= cfg.tol_residual:
            return c, nu, res, it, history
        d = neg_precond * r
        d -= (_vdot(d, c) / two_mu) * c
        slope = _vdot(r, d)  # strictly negative for a descent direction
        # explicit-descent stability bound: steps beyond 2/lam_max amplify the
        # stiffest mode, and near convergence the energy test cannot see that
        lam_max = float(np.max(precond * (nu - eng.mvals)))
        cap = 1.7 / lam_max if lam_max > 0 else _STEP_INIT
        t = min(step, cap)
        while t > 1e-18:
            trial = c + t * d
            trial *= scale / np.sqrt(np.sum(np.abs(trial) ** 2))
            v_trial = eng.values_dealiased(trial)
            e1 = eng.energy(trial, v_trial)
            if e1 <= e0 + _ARMIJO * t * slope + _LEDGE * abs(e0):
                break
            t *= _STEP_SHRINK
        else:
            raise MuTooLarge(
                f"line search collapsed at residual {res:.3e}; no minimizer "
                f"in reach at mu = {mu:g}", residual=res, iterations=it,
                history=history["residuals"])
        c, v, e0 = trial, v_trial, e1  # the next gradient reuses the samples
        history["energies"].append(e1)
        step = min(t * _STEP_GROW, _STEP_MAX)
    raise MaxIterations(
        f"residual {history['residuals'][-1]:.3e} after {cfg.max_iter} "
        f"iterations (tol {cfg.tol_residual:g})", iterations=cfg.max_iter,
        residual=history["residuals"][-1], history=history["residuals"])


def certify(prob: Problem, u: SpectralField, nu: float, mu: float) -> SpectralField:
    """``u``, once its speed exceeds m(0) (MU_TOO_LARGE otherwise) and its grid
    resolves it (RESOLUTION_LOSS otherwise); both tests fail on NaN."""
    if not nu > prob.symbol.m_zero:
        raise MuTooLarge(f"nu = {nu!r} is subcritical (m(0) = {prob.symbol.m_zero:.17g})",
                         nu=nu)
    ratio = high_mode_ratio(u)
    if not ratio <= RESOLVED:
        raise ResolutionLoss(f"mu = {mu:g}: {ratio:.2e} of the peak coefficient above "
                             f"|m| = 0.3N on N = {u.grid.n}", mu=mu, ratio=ratio)
    return u


def _finish(prob: Problem, eng: DiscreteFunctional, mu: float, c: np.ndarray,
            nu: float, res: float, its: int) -> WaveProfile:
    """The certified wave of ``prob``, centred."""
    u = center(certify(prob, SpectralField.from_coeffs(eng.grid, c), nu, mu))
    return WaveProfile(field=u, mu=mu, speed=nu, residual=res,
                       energy=eng.energy(u.coeffs), symbol=prob.symbol.name,
                       nonlinearity=prob.nonlinearity.name, iterations=its)


def _minimize(prob: Problem, cfg: SolveConfig, guess: SpectralField) -> WaveProfile:
    """Descend from ``guess`` on Q = cfg.mu and certify the result."""
    eng = discretize(prob, guess.grid, cfg.penalization)
    c, nu, res, its, _ = _descend(eng, cfg, guess.coeffs)
    return _finish(prob, eng, cfg.mu, c, nu, res, its)


def minimize_constrained(prob: Problem, cfg: SolveConfig,
                         guess: SpectralField | None = None) -> WaveProfile:
    """Minimize the energy over Q = mu; returns the wave with its speed.

    Without a guess the seed is the long-wave one.
    Raises MU_TOO_LARGE when the line search collapses or the converged
    multiplier does not exceed m(0): both say the small-momentum regime,
    where the constrained minimizer exists, has been left.
    """
    return _minimize(prob, cfg, _long_wave_seed(prob, cfg) if guess is None else guess)


def minimize_reduced(j_star: int, d2j_star: float, nl: Nonlinearity,
                     cfg: SolveConfig) -> WaveProfile:
    """Ground state of the reduced long-wave problem on Q = 1, unpenalized.

    The descent's preconditioner, here (nu_lw - L)^-1, tames the unbounded
    polynomial multiplier; stationary points are unchanged.
    """
    prob = reduced_problem(j_star, d2j_star, nl)
    cfg = replace(cfg, mu=1.0, penalization=None)
    grid = default_grid(cfg, prob.symbol.k_cut, prob.scaling)
    # generic unit-width bump: the descent must find the ground state itself
    guess = SpectralField.from_values(grid, math.copysign(1.0, nl.cp)
                                      * np.exp(-0.5 * grid.nodes**2))
    return _minimize(prob, cfg, guess)


def petviashvili(prob: Problem, nu: float, cfg: SolveConfig,
                 guess: SpectralField | None = None) -> WaveProfile:
    """Stabilized fixed point u -> S^gamma (nu - L)^(-1) n(u) at fixed speed,
    stopped at ``cfg.tol_residual`` or after ``cfg.max_iter`` steps.

    Independent of the minimizer: the momentum of the result is whatever the
    travelling wave at this speed carries.  Requires a leading-homogeneous
    nonlinearity (the stabilizer exponent is gamma = p/(p-1)).
    """
    if not nu > prob.symbol.m_zero:
        raise SubcriticalSpeed(f"nu = {nu:g} does not exceed m(0) = {prob.symbol.m_zero:g}")
    if prob.nonlinearity.remainder:
        raise ConfigError("fixed-point oracle needs a homogeneous nonlinearity",
                          field="problem.nonlinearity")
    if guess is None:
        # seed momentum from the long-wave speed relation nu = m(0) + nu_lw mu^gamma
        mu_guess = ((nu - prob.symbol.m_zero) / kdv_speed()) ** (1.0 / prob.scaling.gamma)
        guess = _long_wave_seed(prob, replace(cfg, mu=max(mu_guess, 1e-12)))
    eng = discretize(prob, guess.grid)
    gamma = prob.nonlinearity.p / (prob.nonlinearity.p - 1.0)
    denom_m = nu - eng.mvals
    c = guess.coeffs.copy()
    for it in range(cfg.max_iter):
        nc = eng.nonlinear_coeffs(c)
        r = denom_m * c - nc
        res = float(np.sqrt(np.sum(np.abs(r) ** 2)))
        if res <= cfg.tol_residual:
            mu = 0.5 * float(np.sum(np.abs(c) ** 2))
            return _finish(prob, eng, mu, c, nu, res, it)
        num = float(np.sum(denom_m * np.abs(c) ** 2))
        den = _vdot(c, nc)
        if not np.isfinite(den) or den == 0.0:
            raise NoConvergence("fixed-point stabilizer degenerated",
                                iterations=it, residual=res)
        s = num / den
        if not np.isfinite(s) or s <= 0:
            raise NoConvergence(f"stabilizer S = {s:g} at iteration {it}",
                                iterations=it, residual=res)
        c = s**gamma * nc / denom_m
    raise NoConvergence(f"residual {res:.3e} after {cfg.max_iter} fixed-point steps",
                        iterations=cfg.max_iter, residual=res)


def check_mu_list(mu_list: list[float]):
    """Refuse a mu list unless nonempty, strictly ascending, finite and positive (NaN fails)."""
    if not (mu_list and all(0 < a < b for a, b in zip(mu_list, [*mu_list[1:], math.inf]))):
        raise ConfigError("sweep.mu_list must be a nonempty, strictly ascending list of "
                          f"finite positive numbers, got {mu_list!r}", field="sweep.mu_list")


def continuation_sweep(prob: Problem, mu_list: list[float],
                       base_cfg: SolveConfig) -> list[WaveProfile]:
    """Solve an ascending mu family, warm-starting each solve after the
    first from the previous wave rescaled through the long-wave frame (an
    exact relabeling on the automatically chosen grids)."""
    check_mu_list(mu_list)
    profiles: list[WaveProfile] = []
    for mu in mu_list:
        cfg = replace(base_cfg, mu=mu)
        guess = None
        if profiles:
            prev = profiles[-1]
            grid = default_grid(cfg, prob.symbol.k_cut, prob.scaling)
            carried = SpectralField.from_values(
                PeriodicGrid(grid.period, prev.field.grid.n),
                (mu / prev.mu)**prob.scaling.alpha * prev.field.values)
            guess = change_points(carried, grid.n, drop_tol=1e-6)
        profiles.append(minimize_constrained(prob, cfg, guess))
    return profiles


def sweep_rows(profiles: list[WaveProfile]) -> list[dict]:
    """The rows of sweep.csv; their keys are its header."""
    return [{"mu": p.mu, "P": p.field.grid.period, "N": p.field.grid.n, "nu": p.speed,
             "energy": p.energy, "residual": p.residual, "tail": tail_max(p.field),
             "iters": p.iterations} for p in profiles]
