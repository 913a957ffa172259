"""Long-wave convergence laws and scaling diagnostics over a solve sweep.

The long-wave frame of a sweep is its first wave's period times mu^beta, on
the most points of any wave; the reduced ground state is computed there.
For each wave at momentum mu the scaled profile mu^-alpha u(mu^-beta .) is
aligned against that reference, and the deviations of speed and energy from
their leading-order laws

    nu  = m(0) + nu_r mu^gamma + o(mu^gamma)
    I   = -m(0) mu + I_r mu^(1+gamma) + o(mu^(1+gamma))

are recorded, with ``Problem.scaling``'s gamma.  The trends towards zero as mu
decreases are the checkable content; the remainders carry unknown constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import Problem
from .grid import SpectralField, change_points, h1_norm, l2_norm, sup_norm
from .longwave import orbit_distance, scale_down
from .solver import SolveConfig, WaveProfile, minimize_reduced
from .symbols import DispersionSymbol

TAU = 0.9  # the weight exponent tau < 1 of the scaling diagnostics' norms


@dataclass(frozen=True)
class LongWaveComparison:
    mu: float
    aligned_distance: float    # H^(j_star) distance of the scaled wave to the reference
    speed_deviation: float     # (nu - m(0))/mu^gamma - nu_reference
    energy_deviation: float    # (I_mu + m(0) mu)/mu^(1+gamma) - I_reference
    shift: float
    scaled: SpectralField      # mu^-alpha u(mu^-beta x) in the reference's frame


@dataclass(frozen=True)
class ScalingRecord:
    mu: float
    low_band_ratio: float      # |||u1|||^2_{tau,mu} / mu; two-sided O(1)
    high_band_ratio: float     # ||u2||_1^2 / mu^(tau beta (p-1) + p); bounded above
    sup_ratio: float           # ||u||_inf / mu^alpha; two-sided O(1)
    high_band_floor: float     # high_band_ratio of coefficient round-off alone:
                               # eps^2 ||u||_0^2 sum_{|k|>k_cut} (1+k^2) / N, same scaling


def reduced_reference(prob: Problem, profiles: list[WaveProfile]) -> WaveProfile:
    """Ground state of the reduced problem in the long-wave frame of a sweep:
    the first wave's period times mu^beta, on the most points of any wave."""
    sym = prob.symbol
    period = profiles[0].field.grid.period * profiles[0].mu**prob.scaling.beta
    points = max(p.field.grid.n for p in profiles)
    return minimize_reduced(sym.j_star, sym.d2j_star, prob.nonlinearity,
                            SolveConfig(tol_residual=1e-10, period=period, points=points))


def convergence_study(prob: Problem, profiles: list[WaveProfile],
                      reference: WaveProfile) -> list[LongWaveComparison]:
    """Compare each sweep wave, scaled to the unit-momentum frame, against the
    reduced ground state.  Profiles must come from one problem, ascending mu."""
    sym, exps = prob.symbol, prob.scaling
    ref = reference
    out = []
    for prof in profiles:
        w = scale_down(prof.mu, exps, prof.field, ref.field.grid.period)
        n = max(w.grid.n, ref.field.grid.n)
        wn = change_points(w, n)
        rn = change_points(ref.field, n)
        d, y = orbit_distance(wn, rn, s_norm=float(sym.j_star))
        speed_dev = (prof.speed - sym.m_zero) / prof.mu**exps.gamma - ref.speed
        energy_dev = ((prof.energy + sym.m_zero * prof.mu) / prof.mu ** (1.0 + exps.gamma)
                      - ref.energy)
        out.append(LongWaveComparison(prof.mu, d, speed_dev, energy_dev, y, w))
    return out


def band_split(sym: DispersionSymbol, u: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Sharp split at k_cut: (low band, high band), summing to u exactly."""
    low = np.abs(u.grid.wavenumbers) <= sym.k_cut
    u1 = SpectralField.from_coeffs(u.grid, np.where(low, u.coeffs, 0.0))
    u2 = SpectralField.from_coeffs(u.grid, np.where(low, 0.0, u.coeffs))
    return u1, u2


def weighted_norm(u: SpectralField, mu: float, j_star: int, beta: float) -> float:
    """|||u|||_{tau,mu} = sqrt( int u^2 + mu^(-4 j_star tau beta) int (u^(2 j_star))^2 )
    at tau = TAU."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    k = u.grid.wavenumbers
    c2 = np.abs(u.coeffs) ** 2
    deriv = float(np.sum(k ** (4 * j_star) * c2))
    return float(np.sqrt(np.sum(c2) + mu ** (-4.0 * j_star * TAU * beta) * deriv))


def scaling_diagnostics(prob: Problem, prof: WaveProfile) -> ScalingRecord:
    """Band-split scaling ratios of a wave of the long-wave family, at tau = TAU.

    The low-band and sup-norm ratios stay within constant factors of 1 as mu
    decreases; the high-band ratio has only an upper bound, independent of mu.
    A double-precision spectrum puts about eps ||u||_0 / sqrt(N) of round-off
    in every coefficient, so the high band cannot be measured below
    `high_band_floor`; a ratio near that floor is noise.  Recorded, not
    asserted: the constants are free."""
    sym, mu = prob.symbol, prof.mu
    p, exps = prob.nonlinearity.p, prob.scaling
    u1, u2 = band_split(sym, prof.field)
    scale = mu ** (TAU * exps.beta * (p - 1.0) + p)
    low = weighted_norm(u1, mu, sym.j_star, exps.beta) ** 2 / mu
    high = h1_norm(u2) ** 2 / scale
    sup = sup_norm(prof.field) / mu**exps.alpha
    g = prof.field.grid
    floor = float((np.finfo(float).eps * l2_norm(prof.field)) ** 2
                  * np.sum(g.h1_weight[np.abs(g.wavenumbers) > sym.k_cut]) / g.n / scale)
    return ScalingRecord(mu, low, high, sup, floor)


def convergence_rows(comparisons: list[LongWaveComparison],
                     records: list[ScalingRecord]) -> list[dict]:
    """The rows of convergence.csv; their keys are its header."""
    return [{"mu": c.mu, "dist_aligned": c.aligned_distance,
             "speed_dev": c.speed_deviation, "energy_dev": c.energy_deviation,
             "shift": c.shift, "tau_ratio1": r.low_band_ratio,
             "tau_ratio2": r.high_band_ratio, "supnorm_ratio": r.sup_ratio}
            for c, r in zip(comparisons, records)]
