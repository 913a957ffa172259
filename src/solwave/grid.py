"""Uniform periodic grids with paired physical/spectral representations.

The Fourier convention is unitary in L2 over one period,

    u(x) = P**-0.5 * sum_m c_m exp(2j*pi*m*x/P),

so sum_m |c_m|**2 equals the squared L2 norm over the period and
closed-form integrals of band-limited fields are reproduced to round-off.
Fields are real, so one rfft/irfft pair on the half spectrum m = 0..N/2
carries them: c_m = (-1)^m rfft(u)_m / scale with scale = N/sqrt(P), where
the exact phase (-1)^m absorbs the node offset -P/2 so that c_m are
coefficients about x, not about the array index.  Full coefficient arrays
are mirrored back to FFT order (``unfold``).

``rfft`` and ``irfft`` below are the package's one transform pair.  They call
the two pocketfft gufuncs that ``numpy.fft.rfft``/``irfft`` wrap,
``rfft_n_even`` and ``irfft``, with the normalisation factors the wrappers
pass (1 forward, 1/n backward), so each result is bit for bit numpy's.  They
skip the wrappers' argument handling, a quarter to a third of a call at
N = 1024, which the time step pays at each of its eight transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import GridMismatch, ResolutionLoss


def rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``numpy.fft.rfft(x)`` of a real float array of even length n, into ``out``
    (n//2 + 1 complex) when given."""
    if out is None:
        out = np.empty(x.shape[-1] // 2 + 1, complex)
    return _pocketfft.rfft_n_even(x, 1.0, out=out)


def irfft(c: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``numpy.fft.irfft(c, n)`` of a complex array of n//2 + 1 entries, into
    ``out`` (n real) when given."""
    if out is None:
        out = np.empty(n)
    return _pocketfft.irfft(c, 1.0 / n, out=out)


@dataclass(frozen=True)
class PeriodicGrid:
    """Nodes x_j = -P/2 + j*P/N, wavenumbers k_m = 2*pi*m/P, m in [-N/2, N/2)."""

    period: float
    n: int

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        n = self.n
        if n < 16 or n & (n - 1):
            raise ValueError("n must be a power of two, at least 16")

    @property
    def spacing(self) -> float:
        return self.period / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        x = -0.5 * self.period + self.spacing * np.arange(self.n)
        x.setflags(write=False)
        return x

    @cached_property
    def modes(self) -> np.ndarray:
        m = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        m.setflags(write=False)
        return m

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        k = (2.0 * np.pi / self.period) * self.modes
        k.setflags(write=False)
        return k

    @property
    def scale(self) -> float:
        return self.n / np.sqrt(self.period)

    @cached_property
    def node_phase(self) -> np.ndarray:
        # exp(-i k_m x_0) with x_0 = -P/2 is exactly (-1)^m, on m = 0..N/2
        p = 1.0 - 2.0 * (np.arange(self.n // 2 + 1) % 2)
        p.setflags(write=False)
        return p

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        # 2/3 rule: keep |m| <= N/3
        mask = (np.abs(self.modes) <= self.n // 3).astype(float)
        mask.setflags(write=False)
        return mask

    @cached_property
    def ik(self) -> np.ndarray:
        # Nyquist mode of an odd multiplier breaks realness, zero it
        v = 1j * self.wavenumbers.copy()
        v[self.modes == -self.n // 2] = 0.0
        v.setflags(write=False)
        return v

    def unfold(self, half: np.ndarray) -> np.ndarray:
        """FFT-order coefficients of the real field whose half spectrum is ``half``."""
        return np.concatenate((half, np.conj(half[self.n // 2 - 1:0:-1])))

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self.unfold(rfft(values) * (self.node_phase / self.scale))

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return irfft(coeffs[:self.n // 2 + 1] * (self.scale * self.node_phase), self.n)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpectralField:
    """Real periodic field with samples and Fourier coefficients kept in sync."""

    grid: PeriodicGrid
    values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, grid: PeriodicGrid, values) -> "SpectralField":
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} samples, got {v.shape}")
        return cls(grid, _frozen(v.copy()), _frozen(grid.to_coeffs(v)))

    @classmethod
    def from_coeffs(cls, grid: PeriodicGrid, coeffs) -> "SpectralField":
        """``coeffs`` in FFT order must be those of a real field, c_-m = conj(c_m):
        the samples are computed from the half spectrum m = 0..N/2 alone."""
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} coefficients, got {c.shape}")
        return cls(grid, _frozen(grid.to_values(c)), _frozen(c.copy()))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        require_same_grid(self, other)
        return SpectralField(self.grid, _frozen(self.values + other.values),
                             _frozen(self.coeffs + other.coeffs))

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        require_same_grid(self, other)
        return SpectralField(self.grid, _frozen(self.values - other.values),
                             _frozen(self.coeffs - other.coeffs))

    def __mul__(self, a: float) -> "SpectralField":
        a = float(a)
        return SpectralField(self.grid, _frozen(a * self.values), _frozen(a * self.coeffs))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * -1.0


def require_same_grid(u: SpectralField, v: SpectralField):
    if u.grid != v.grid:
        raise GridMismatch(f"grids differ: {u.grid} vs {v.grid}")


def inner_l2(u: SpectralField, v: SpectralField) -> float:
    """(P/N) sum_j u_j v_j; trapezoid is exact for band-limited integrands."""
    require_same_grid(u, v)
    g = u.grid
    return float((g.period / g.n) * np.dot(u.values, v.values))


def l2_norm(u: SpectralField) -> float:
    return float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2)))


def sobolev_norm(u: SpectralField, s: float) -> float:
    """Discrete H^s norm, sqrt(sum (1+k^2)^s |c|^2)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    w = (1.0 + u.grid.wavenumbers**2) ** s
    return float(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2)))


def sup_norm(u: SpectralField) -> float:
    return float(np.max(np.abs(u.values)))


def tail_max(u: SpectralField) -> float:
    """max |u| over the outer tenth of the period (|x| >= 0.45 P).

    Gate for treating the periodic field as a line-solitary surrogate.
    """
    mask = np.abs(u.grid.nodes) >= 0.45 * u.grid.period
    return float(np.max(np.abs(u.values[mask])))


RESOLVED = 1e-6  # largest high_mode_ratio of a field its grid resolves


def high_mode_ratio(u: SpectralField) -> float:
    """max |c_m| over |m| > 0.3 N relative to max |c_m|; 0.0 for the zero field.

    The band holds the top of the 2/3 rule's kept band |m| <= N/3 and the
    modes above it: the one resolution rule, which every solved wave and
    every sample of a run must meet with a ratio of at most ``RESOLVED``.
    """
    a = np.abs(u.coeffs)
    peak, high = float(np.max(a)), float(np.max(a[np.abs(u.grid.modes) > 0.3 * u.grid.n]))
    return high / peak if peak > 0 else 0.0


def change_points(u: SpectralField, n: int, drop_tol: float = 1e-8) -> SpectralField:
    """Re-express on the same period with n points, padding or truncating modes.

    Truncation is gated: the dropped coefficient energy must stay below
    ``drop_tol`` relative to the total.
    """
    g = u.grid
    if n == g.n:
        return u
    target = PeriodicGrid(g.period, n)
    keep = np.abs(g.modes) < n // 2  # every mode when padding
    dropped = float(np.sqrt(np.sum(np.abs(u.coeffs[~keep]) ** 2)))
    total = float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2)))
    if total > 0 and dropped > drop_tol * total:
        raise ResolutionLoss(f"truncation would drop {dropped / total:.2e} of the field")
    c = np.zeros(n, dtype=complex)
    c[g.modes[keep] % n] = u.coeffs[keep]
    if n > g.n:  # the old Nyquist mode is a cosine: half of it on each of +-N0/2
        c[g.n // 2] = c[-(g.n // 2)] = 0.5 * u.coeffs[g.n // 2]
    return SpectralField.from_coeffs(target, c)


def band_noise(grid: PeriodicGrid, band: int, rng: np.random.Generator) -> SpectralField:
    """Random real field with modes |m| <= band, normalized to unit L2 norm."""
    band = min(band, grid.n // 2 - 1)
    c = np.zeros(grid.n, dtype=complex)
    re = rng.standard_normal(band)
    im = rng.standard_normal(band)
    for m in range(1, band + 1):
        c[m] = re[m - 1] + 1j * im[m - 1]
        c[-m] = np.conj(c[m])
    c[0] = rng.standard_normal()
    u = SpectralField.from_coeffs(grid, c)
    return u * (1.0 / l2_norm(u))
