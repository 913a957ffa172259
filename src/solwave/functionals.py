"""Energy, momentum, gradients, penalization, and the reduced problem.

Sign conventions: E(u) = -1/2 <u, Lu> - int N(u) and Q(u) = 1/2 int u^2, so
the constrained stationarity condition E'(u) + nu u = 0 is the travelling-wave
equation nu u = Lu + n(u) with the speed nu as multiplier.

The nonlinear integrand is evaluated nodewise on the dealiased field and the
result of n(.) is dealiased again, which makes the discrete gradient exact for
the discrete energy (quadratic and cubic products alias at high modes
otherwise).

The reduced long-wave problem is the ``Problem`` that ``reduced_problem``
builds, so ``discretize`` is the one discretizer of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomain
from .grid import PeriodicGrid, SpectralField
from .longwave import ScalingExponents, exponents
from .nonlinearity import Nonlinearity
from .symbols import DispersionSymbol, LongWaveSymbol, multiplier_values


@dataclass(frozen=True)
class Problem:
    """A dispersive model: its multiplier and its nonlinearity.  ``scaling``
    holds its long-wave exponents, computed once from (j_star, p) for the
    solver, its engine and the analysis, and is not compared.  The reduced
    long-wave model is one too (``reduced_problem``), so ``energy`` and
    ``energy_gradient`` evaluate both."""

    symbol: DispersionSymbol | LongWaveSymbol
    nonlinearity: Nonlinearity
    scaling: ScalingExponents = field(init=False, compare=False)

    def __post_init__(self):
        # raises ExponentWindow outside 2 <= p < 4 j_star + 1
        object.__setattr__(self, "scaling", exponents(self.symbol.j_star, self.nonlinearity.p))


@dataclass(frozen=True)
class Penalization:
    """Barrier rho on t = ||u||_{H^1}^2: zero for t <= R^2, smooth, increasing,
    divergent as t -> (2R)^2.  Shape: s -> exp(-1/s)/(1-s) on the rescaled
    coordinate s = (t - R^2)/(3 R^2)."""

    radius: float = 1.0

    @property
    def limit(self) -> float:
        """(2R)^2: the barrier's domain is ||u||_H1^2 < limit."""
        return (2.0 * self.radius) ** 2

    def _s(self, t: float) -> float:
        if t >= self.limit:
            raise OutOfDomain(f"||u||_H1^2 = {t:g} outside [0, (2R)^2)")
        r2 = self.radius**2
        return (t - r2) / (3.0 * r2)

    def rho(self, t: float) -> float:
        s = self._s(t)
        if s <= 0.0:
            return 0.0
        return math.exp(-1.0 / s) / (1.0 - s)

    def rho_prime(self, t: float) -> float:
        s = self._s(t)
        if s <= 0.0:
            return 0.0
        g = math.exp(-1.0 / s)
        return (g / s**2 / (1.0 - s) + g / (1.0 - s) ** 2) / (3.0 * self.radius**2)


class DiscreteFunctional:
    """Energy/gradient engine of one problem on one grid, working directly on
    coefficient arrays; ``discretize`` is its public name.  Shared by the
    public functional evaluations, the minimizer, the fixed-point iteration
    and the time stepper's records.  ``gamma``, the problem's long-wave speed exponent,
    sets the minimizer's preconditioner shift."""

    def __init__(self, prob: Problem, grid: PeriodicGrid,
                 penalization: Penalization | None = None):
        self.grid = grid
        self.mvals = multiplier_values(prob.symbol, grid)
        self.nl = prob.nonlinearity
        self.gamma = prob.scaling.gamma
        self.pen = penalization
        # real factors of complex products, cast once as numpy would per call
        self.mask = grid.dealias_mask.astype(complex)
        self.neg_mvals = (-self.mvals).astype(complex)

    def values_dealiased(self, c: np.ndarray) -> np.ndarray:
        return self.grid.to_values(c * self.mask)

    # ``v``, when given, is values_dealiased(c), which the caller already holds;
    # a penalized energy is +inf outside the barrier domain (2R)^2
    def energy(self, c: np.ndarray, v: np.ndarray | None = None) -> float:
        if v is None:
            v = self.values_dealiased(c)
        e = (quadratic_energy(self.mvals, c)
             - self.grid.spacing * float(np.sum(self.nl.primitive(v))))
        if self.pen is not None:
            t = self.grid.h1_sum(c)
            if t >= self.pen.limit:
                return math.inf
            e += self.pen.rho(t)
        return e

    def gradient(self, c: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        g = self.neg_mvals * c - self.nonlinear_coeffs(c, v)
        if self.pen is not None:
            g = g + (2.0 * self.pen.rho_prime(self.grid.h1_sum(c))) * self.grid.h1_weight * c
        return g

    def nonlinear_coeffs(self, c: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        """Dealiased coefficients of n(u); the discrete travelling-wave
        equation solved here is nu*c = m*c + nonlinear_coeffs(c)."""
        v = self.values_dealiased(c) if v is None else v
        return self.mask * self.grid.to_coeffs(self.nl.n(v))


discretize = DiscreteFunctional


def reduced_problem(j_star: int, d2j_star: float, nl: Nonlinearity) -> Problem:
    """The reduced long-wave problem: the multiplier's leading Taylor term,
    with m(0) = 0, and the leading part of the nonlinearity.  Its ``energy`` is
    -int( m^(2j*)(0)/(2 (2j*)!) (w^(j*))^2 + N_(p+1)(w) ), evaluated spectrally."""
    return Problem(LongWaveSymbol(j_star, d2j_star), nl.leading())


# public evaluations ----------------------------------------------------------


def quadratic_energy(mvals: np.ndarray, c: np.ndarray) -> float:
    """-1/2 <u, Lu> from the coefficients ``c`` of u and the multiplier ``mvals``
    on their grid: the dispersive part of E, and all of the linear flow's."""
    return -0.5 * float(np.sum(mvals * np.abs(c) ** 2))


def momentum(u: SpectralField) -> float:
    """Q(u) = 1/2 int u^2 over one period."""
    return 0.5 * float(np.sum(np.abs(u.coeffs) ** 2))


def energy(prob: Problem, u: SpectralField) -> float:
    return discretize(prob, u.grid).energy(u.coeffs)


def energy_gradient(prob: Problem, u: SpectralField) -> SpectralField:
    return SpectralField.from_coeffs(u.grid, discretize(prob, u.grid).gradient(u.coeffs))
