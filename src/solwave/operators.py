"""Multiplier operators on spectral fields: they act diagonally in frequency."""

from __future__ import annotations

import numpy as np

from .grid import SpectralField
from .symbols import DispersionSymbol


def multiplier_values(sym: DispersionSymbol, grid) -> np.ndarray:
    """m(k) sampled on the grid's wavenumbers (FFT order)."""
    return np.asarray(sym.eval(grid.wavenumbers), dtype=float)


def band_split(sym: DispersionSymbol, u: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Sharp split at k_cut: (low band, high band), summing to u exactly."""
    low = np.abs(u.grid.wavenumbers) <= sym.k_cut
    u1 = SpectralField.from_coeffs(u.grid, np.where(low, u.coeffs, 0.0))
    u2 = SpectralField.from_coeffs(u.grid, np.where(low, 0.0, u.coeffs))
    return u1, u2
