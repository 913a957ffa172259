"""Long-wave scaling, KdV reference objects, and translation-invariant distance.

The substitution u(x) = mu^alpha w(mu^beta x) with 2 alpha - beta = 1 maps the
unit-momentum frame onto momentum mu.  On matched grids (same point count,
periods in ratio mu^-beta) the map is an exact relabeling of samples, so the
constraint transforms without quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExponentWindow, GridMismatch, TailTooLarge
from .grid import PeriodicGrid, SpectralField, irfft, require_same_grid, tail_max

KDV_AMPLITUDE = 1.5 ** (2.0 / 3.0)
KDV_DECAY = 1.5 ** (1.0 / 3.0)
_KDV_TAIL_TOL = 1e-12  # largest tail_max of a sampled ground state


@dataclass(frozen=True)
class ScalingExponents:
    """alpha (amplitude), beta (stretch), gamma (speed correction) with
    2 alpha - beta = 1 and (p - 1) alpha = 2 j_star beta = gamma."""

    alpha: float
    beta: float
    gamma: float


def exponents(j_star: int, p: float) -> ScalingExponents:
    if not 2.0 <= p < 4.0 * j_star + 1.0:
        raise ExponentWindow(f"p = {p:g} outside [2, {4 * j_star + 1}) for j_star = {j_star}",
                             field="problem.nonlinearity", value=p)
    denom = 4.0 * j_star + 1.0 - p
    alpha = 2.0 * j_star / denom
    beta = (p - 1.0) / denom
    return ScalingExponents(alpha, beta, 2.0 * j_star * beta)


def scale_down(mu: float, exps: ScalingExponents, u: SpectralField,
               period: float) -> SpectralField:
    """mu^-alpha u(mu^-beta x) on the long-wave frame's grid (``period``, same N).

    Q(scale_down(u)) = Q(u)/mu exactly.  The frame check: u's period times
    mu^beta must lie within 1e-9 relative of ``period`` (GridMismatch
    otherwise), and the result takes ``period`` exactly, so that every wave
    of a sweep lands on the frame's one grid.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    scaled = u.grid.period * mu**exps.beta
    if not abs(scaled - period) <= 1e-9 * period:
        raise GridMismatch(f"scaled period {scaled:g} is not the long-wave frame's "
                           f"{period:g}: sweep and reference must share one frame")
    grid = PeriodicGrid(period, u.grid.n)
    return SpectralField.from_values(grid, mu ** (-exps.alpha) * u.values)


def kdv_profile(x: np.ndarray) -> np.ndarray:
    """(3/2)^(2/3) sech^2((3/2)^(1/3) x): the unit-momentum KdV ground state."""
    return KDV_AMPLITUDE / np.cosh(KDV_DECAY * x) ** 2


def kdv_soliton(grid: PeriodicGrid) -> SpectralField:
    """KdV ground state sampled on the grid; the period must contain its decay."""
    w = SpectralField.from_values(grid, kdv_profile(grid.nodes))
    t = tail_max(w)
    if t > _KDV_TAIL_TOL:
        raise TailTooLarge(f"period {grid.period:g} too small: tail {t:.2e}")
    return w


def kdv_speed() -> float:
    """Multiplier of the unit-momentum KdV ground state, (2/3)^(1/3)."""
    return (2.0 / 3.0) ** (1.0 / 3.0)


def kdv_energy() -> float:
    """Reduced energy of the KdV ground state, -(4/15) (3/2)^(5/3)."""
    return -(4.0 / 15.0) * 1.5 ** (5.0 / 3.0)


def orbit_distance(u: SpectralField, v: SpectralField,
                   s_norm: float = 0.0) -> tuple[float, float]:
    """min over y of ||u - v(. + y)||_{H^s} and the minimizing y.

    The correlation is scanned on the node lattice spectrally, then the shift
    is refined by minimizing the distance itself, so exact translates come out
    at round-off rather than at the cancellation floor of the correlation form.
    The domain is fields that meet the resolution rule (``high_mode_ratio``):
    with grid-scale content the lattice peak may miss the continuous one's basin.
    """
    require_same_grid(u, v)
    g = u.grid
    # the fields are real, so each sum over the N modes is a real sum over the
    # half spectrum m = 0..N/2 in which the modes 1 <= m < N/2 stand for -m too
    half = g.n // 2 + 1
    k = g.wavenumbers[:half]
    w = g.h1_weight[:half] ** s_norm
    uc, vc = u.coeffs[:half], v.coeffs[:half]
    z = w * uc * np.conj(vc)
    # corr[l] = sum_m z_m exp(-2 pi i m l / N) over all N modes, real since
    # z_-m = conj(z_m)
    corr = g.n * irfft(np.conj(z), g.n)
    l0 = int(np.argmax(corr))
    y0 = l0 * g.spacing
    w[1:-1] *= 2.0
    z[1:-1] *= 2.0
    # formed once per call: -1j * k * y groups as (-1j * k) * y, so hoisting
    # the factor out of the iterations changes no bit
    mik, ik = -1j * k, 1j * k
    z1, z2 = mik * z, -(k**2) * z

    def dist_at(y: float) -> float:
        d = uc - vc * np.exp(ik * y)
        return float(np.sqrt(np.sum(w * np.abs(d) ** 2)))

    # Newton on the correlation derivative: the correlation is a band-limited
    # trigonometric polynomial, concave at its peak, so this polishes the
    # lattice argmax to round-off in a few steps
    delta = 0.0
    for _ in range(60):
        phase = np.exp(mik * (y0 + delta))
        c1 = float(np.real(np.sum(z1 * phase)))
        c2 = float(np.real(np.sum(z2 * phase)))
        if not np.isfinite(c1) or c2 >= 0:
            break
        upd = -c1 / c2
        if abs(upd) > g.spacing:
            upd = np.copysign(g.spacing, upd)
        delta += upd
        if abs(delta) > 2 * g.spacing:  # safeguard: lattice argmax was sharper
            delta = 0.0
            break
        if abs(upd) < 1e-16 * max(1.0, abs(y0)):
            break
    y = y0 + delta
    best = min((dist_at(y), y), (dist_at(y0), y0))
    d, y = best
    # report the shift in (-P/2, P/2]
    y = y - g.period * round(y / g.period)
    return d, y
