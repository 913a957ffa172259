"""Energy, momentum, gradients, the flow's flux, penalization, and the reduced long-wave energy.

Sign conventions: E(u) = -1/2 <u, Lu> - int N(u) and Q(u) = 1/2 int u^2, so
the constrained stationarity condition E'(u) + nu u = 0 is the travelling-wave
equation nu u = Lu + n(u) with the speed nu as multiplier.

The nonlinear integrand is evaluated nodewise on the dealiased field and the
result of n(.) is dealiased again, which makes the discrete gradient exact for
the discrete energy (quadratic and cubic products alias at high modes
otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OutOfDomain
from .grid import PeriodicGrid, SpectralField, inner_l2, irfft, rfft  # inner_l2 is re-exported
from .longwave import exponents
from .nonlinearity import Nonlinearity
from .symbols import DispersionSymbol, multiplier_values


@dataclass(frozen=True)
class Problem:
    """A dispersive model: multiplier, nonlinearity, and admissible ball radius."""

    symbol: DispersionSymbol
    nonlinearity: Nonlinearity
    ball_radius: float = 1.0

    def __post_init__(self):
        if not 0 < self.ball_radius < math.inf:  # false on NaN
            raise ConfigError("ball_radius must be finite and positive",
                              field="problem.ball_radius")
        # raises ExponentWindow outside 2 <= p < 4 j_star + 1
        exponents(self.symbol.j_star, self.nonlinearity.p)


@dataclass(frozen=True)
class Penalization:
    """Barrier rho on t = ||u||_{H^1}^2: zero for t <= R^2, smooth, increasing,
    divergent as t -> (2R)^2.  Shape: s -> exp(-1/s)/(1-s) on the rescaled
    coordinate s = (t - R^2)/(3 R^2)."""

    radius: float = 1.0

    def _s(self, t: float) -> float:
        r2 = self.radius**2
        return (t - r2) / (3.0 * r2)

    def rho(self, t: float) -> float:
        if t >= (2.0 * self.radius) ** 2:
            raise OutOfDomain(f"||u||_H1^2 = {t:g} outside [0, (2R)^2)")
        s = self._s(t)
        if s <= 0.0:
            return 0.0
        return math.exp(-1.0 / s) / (1.0 - s)

    def rho_prime(self, t: float) -> float:
        if t >= (2.0 * self.radius) ** 2:
            raise OutOfDomain(f"||u||_H1^2 = {t:g} outside [0, (2R)^2)")
        s = self._s(t)
        if s <= 0.0:
            return 0.0
        g = math.exp(-1.0 / s)
        return (g / s**2 / (1.0 - s) + g / (1.0 - s) ** 2) / (3.0 * self.radius**2)


class DiscreteFunctional:
    """Energy/gradient engine for one (multiplier values, nonlinearity, grid)
    triple, working directly on coefficient arrays.  Shared by the public
    functional evaluations, the minimizer, the fixed-point iteration and the
    time stepper.  ``j_star`` (the order of m at 0) fixes the minimizer's
    long-wave scaling."""

    def __init__(self, grid: PeriodicGrid, mvals: np.ndarray, nl: Nonlinearity,
                 j_star: int, penalization: Penalization | None = None):
        self.grid = grid
        self.mvals = np.asarray(mvals, dtype=float)
        self.nl = nl
        self.j_star = j_star
        self.pen = penalization
        # real factors of complex products, cast once as numpy would per call
        self.mask = grid.dealias_mask.astype(complex)
        self.neg_mvals = (-self.mvals).astype(complex)
        self.h1_weight = 1.0 + grid.wavenumbers**2
        self.quad_weight = grid.period / grid.n

    def values_dealiased(self, c: np.ndarray) -> np.ndarray:
        return self.grid.to_values(c * self.mask)

    def h1_sq(self, c: np.ndarray) -> float:
        return float(np.sum(self.h1_weight * np.abs(c) ** 2))

    # ``v``, when given, is values_dealiased(c), which the caller already holds;
    # a penalized energy is +inf outside the barrier domain (2R)^2
    def energy(self, c: np.ndarray, v: np.ndarray | None = None) -> float:
        quad = -0.5 * float(np.sum(self.mvals * np.abs(c) ** 2))
        if v is None:
            v = self.values_dealiased(c)
        e = quad - self.quad_weight * float(np.sum(self.nl.primitive(v)))
        if self.pen is not None:
            t = self.h1_sq(c)
            if t >= (2.0 * self.pen.radius) ** 2:
                return math.inf
            e += self.pen.rho(t)
        return e

    def gradient(self, c: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        if v is None:
            v = self.values_dealiased(c)
        g = self.neg_mvals * c - self.mask * self.grid.to_coeffs(self.nl.n(v))
        if self.pen is not None:
            g = g + (2.0 * self.pen.rho_prime(self.h1_sq(c))) * self.h1_weight * c
        return g

    def nonlinear_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Dealiased coefficients of n(u); the discrete travelling-wave
        equation solved here is nu*c = m*c + nonlinear_coeffs(c)."""
        return self.mask * self.grid.to_coeffs(self.nl.n(self.values_dealiased(c)))

    def flux(self):
        """The flow's nonlinear flux on the half spectrum m = 0..N/2 of a real field.

        f(c, out) writes -ik mask to_coeffs(n(to_values(c mask))) at m >= 0
        into ``out`` and returns it; ``c`` is only read and may not be ``out``.
        The node phase, scale, mask and -ik are folded into two constant arrays
        once per call of ``flux``, so one irfft and one rfft remain per
        evaluation, both into work buffers that belong to this f.  The grid
        module's ``irfft``/``rfft`` are numpy.fft's bit for bit, without its
        Python wrappers' cost at each of the eight flux transforms of a step.
        """
        grid, nl = self.grid, self.nl
        n, half = grid.n, grid.n // 2 + 1
        phase = grid.dealias_mask[:half] * grid.node_phase
        to_vals, to_flux = phase * grid.scale, -grid.ik[:half] * phase / grid.scale
        spec, vals = np.empty(half, complex), np.empty(n)

        def f(c, out):
            irfft(np.multiply(c, to_vals, out=spec), n, out=vals)
            rfft(nl.n(vals), out=out)
            return np.multiply(to_flux, out, out=out)

        return f


def discretize(prob: Problem, grid: PeriodicGrid,
               penalization: Penalization | None = None) -> DiscreteFunctional:
    return DiscreteFunctional(grid, multiplier_values(prob.symbol, grid),
                              prob.nonlinearity, prob.symbol.j_star, penalization)


def reduced_multiplier(j_star: int, d2j_star: float, grid: PeriodicGrid) -> np.ndarray:
    """Polynomial stand-in d2j_star k^(2 j_star)/(2 j_star)! whose energy is the
    reduced long-wave functional."""
    k = grid.wavenumbers
    return d2j_star * k ** (2 * j_star) / math.factorial(2 * j_star)


def discretize_reduced(j_star: int, d2j_star: float, nl: Nonlinearity,
                       grid: PeriodicGrid) -> DiscreteFunctional:
    """Engine for the reduced problem: the polynomial multiplier and the
    leading part of the nonlinearity."""
    lead = Nonlinearity(nl.name + ":leading", nl.p, nl.cp, nl.kind)
    return DiscreteFunctional(grid, reduced_multiplier(j_star, d2j_star, grid),
                              lead, j_star)


# public evaluations ----------------------------------------------------------


def momentum(u: SpectralField) -> float:
    """Q(u) = 1/2 int u^2 over one period."""
    return 0.5 * float(np.sum(np.abs(u.coeffs) ** 2))


def energy(prob: Problem, u: SpectralField) -> float:
    return discretize(prob, u.grid).energy(u.coeffs)


def energy_gradient(prob: Problem, u: SpectralField) -> SpectralField:
    return SpectralField.from_coeffs(u.grid, discretize(prob, u.grid).gradient(u.coeffs))


def reduced_energy(j_star: int, d2j_star: float, nl: Nonlinearity,
                   w: SpectralField) -> float:
    """-int( m^(2j*)(0)/(2 (2j*)!) (w^(j*))^2 + N_(p+1)(w) ), evaluated spectrally."""
    return discretize_reduced(j_star, d2j_star, nl, w.grid).energy(w.coeffs)


def reduced_gradient(j_star: int, d2j_star: float, nl: Nonlinearity,
                     w: SpectralField) -> SpectralField:
    eng = discretize_reduced(j_star, d2j_star, nl, w.grid)
    return SpectralField.from_coeffs(w.grid, eng.gradient(w.coeffs))

