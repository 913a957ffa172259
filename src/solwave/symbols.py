"""Dispersion multipliers m(k): bundled families, Taylor data, validation.

A multiplier must be even, smooth, decaying (negative order), with a strict
positive global maximum at k = 0 and leading even Taylor term
m(0) + d2j_star * k**(2*j_star) / (2*j_star)!.  m(0) is ``eval(0)``, read
off the multiplier and not declared beside it.  A symbol's name identifies its
multiplier, so symbols compare and hash by name and Taylor data; names are
read by ``nonlinearity.from_spec``.  ``LongWaveSymbol``, with m(0) = 0, is
that leading term alone (its one copy): the reduced problem's multiplier.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .errors import SymbolViolation
from .nonlinearity import from_spec, spec_name


@dataclass(frozen=True)
class DispersionSymbol:
    name: str
    eval: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    j_star: int                 # first non-vanishing even derivative is 2*j_star
    d2j_star: float             # m^(2 j_star)(0), finite and strictly negative
    k_cut: float                # m(k) <= m_zero/2 for |k| >= k_cut, finite and positive
    m_zero: float = field(init=False)  # eval(0), finite and positive

    def __post_init__(self):
        m_zero = float(self.eval(0.0))
        if not 0 < m_zero < math.inf:  # false on NaN
            raise ValueError(f"m(0) = {m_zero!r} must be finite and positive")
        object.__setattr__(self, "m_zero", m_zero)
        if not -math.inf < self.d2j_star < 0:  # false on NaN
            raise ValueError("leading Taylor coefficient must be finite and negative")
        if self.j_star < 1:
            raise ValueError("j_star must be a positive integer")
        if not 0 < self.k_cut < math.inf:  # false on NaN
            raise ValueError(f"cut-off wavenumber {self.k_cut!r} must be finite and positive")


@dataclass(frozen=True)
class LongWaveSymbol:
    """d2j_star k^(2 j_star)/(2 j_star)!: unbounded, so not a DispersionSymbol."""

    j_star: int
    d2j_star: float
    m_zero: ClassVar[float] = 0.0
    k_cut: ClassVar[float] = 0.0

    @property
    def name(self) -> str:
        return f"reduced(j*={self.j_star}, m2j={self.d2j_star:g})"

    def eval(self, k):
        j2 = 2 * self.j_star
        return self.d2j_star * np.asarray(k, dtype=float) ** j2 / math.factorial(j2)


_CUTOFF_SAMPLES = 10_000  # uniform samples of [0, _CUTOFF_K_MAX] before the bisection
_CUTOFF_K_MAX = 100.0


def cutoff_wavenumber(eval_m) -> float:
    """Smallest k beyond which m stays at or below m(0)/2: sample, then
    bisect the last crossing until the bracket holds two adjacent doubles
    and return its upper end, where m <= m(0)/2.

    Its domain is the bundled symbols' multipliers: m(0) > 0, and m falls
    below m(0)/2 for the last time inside the scan, before k = 100."""
    m_zero = float(eval_m(0.0))
    ks = np.linspace(0.0, _CUTOFF_K_MAX, _CUTOFF_SAMPLES)
    i = int(np.nonzero(np.asarray(eval_m(ks), dtype=float) > 0.5 * m_zero)[0][-1])
    lo, hi = float(ks[i]), float(ks[i + 1])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if float(eval_m(mid)) > 0.5 * m_zero:
            lo = mid
        else:
            hi = mid
    return hi


# each bundled symbol's cut-off is scanned once per process
_bundled_cutoff = functools.cache(cutoff_wavenumber)


def _whitham_eval(k):
    k = np.asarray(k, dtype=float)
    out = np.empty_like(k)
    small = np.abs(k) < 1e-2
    ks = k[small]
    # Maclaurin series of tanh(k)/k through k^6, then the square root;
    # avoids 0/0 and keeps full double accuracy below the switch radius
    t = 1.0 - ks**2 / 3.0 + (2.0 / 15.0) * ks**4 - (17.0 / 315.0) * ks**6
    out[small] = np.sqrt(t)
    kb = k[~small]
    out[~small] = np.sqrt(np.tanh(kb) / kb)
    if out.ndim == 0:
        return float(out)
    return out


def whitham() -> DispersionSymbol:
    """sqrt(tanh(k)/k): the water-wave phase speed in scaled units."""
    return DispersionSymbol(
        name="whitham",
        eval=_whitham_eval,
        j_star=1,
        d2j_star=-1.0 / 3.0,
        k_cut=_bundled_cutoff(_whitham_eval),
    )


def _gaussian_eval(k):
    k = np.asarray(k, dtype=float)
    return np.exp(-(k**2))


def gaussian() -> DispersionSymbol:
    return DispersionSymbol("gaussian", _gaussian_eval, 1, -2.0,
                            _bundled_cutoff(_gaussian_eval))


def rational(s: float) -> DispersionSymbol:
    """(1 + k^2)^(-s) for finite s > 0 whose cut-off sqrt(2^(1/s) - 1) is finite."""
    if not 0 < 2.0 * s < math.inf:  # false on NaN; m''(0) = -2s
        raise ValueError(f"rational symbol needs finite s > 0, got {s!r}")
    try:
        k_cut = math.sqrt(2.0 ** (1.0 / s) - 1.0)
    except OverflowError:
        raise ValueError(f"rational:{s!r} has no finite cut-off wavenumber")

    def m(k):
        k = np.asarray(k, dtype=float)
        return (1.0 + k**2) ** (-s)

    return DispersionSymbol(spec_name("rational", s), m, 1, -2.0 * s, k_cut)


SYMBOLS = {"whitham": whitham, "gaussian": gaussian, "rational": rational}


def symbol_from_name(name: str) -> DispersionSymbol:
    return from_spec(name, SYMBOLS, "problem.symbol")


def taylor_remainder(sym: DispersionSymbol, k) -> float | np.ndarray:
    """m(k) minus its leading even Taylor polynomial at 0."""
    k = np.asarray(k, dtype=float)
    r = sym.eval(k) - sym.m_zero - LongWaveSymbol(sym.j_star, sym.d2j_star).eval(k)
    if r.ndim == 0:
        return float(r)
    return r


def multiplier_values(sym: DispersionSymbol | LongWaveSymbol, grid) -> np.ndarray:
    """m(k) sampled on the grid's wavenumbers (FFT order)."""
    return np.asarray(sym.eval(grid.wavenumbers), dtype=float)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_k: float
    detail: str


@dataclass(frozen=True)
class SymbolReport:
    symbol: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def raise_if_failed(self):
        for c in self.checks:
            if not c.passed:
                raise SymbolViolation(
                    f"{c.name} at k = {c.worst_k:.6g}: {c.detail}",
                    check=c.name, k=c.worst_k)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append(f"{status:4s}  {c.name:22s} {c.detail}")
        return out


def _fd_even_derivative(eval_m, order: int, step: float) -> float:
    """Central finite difference of even order at k = 0."""
    acc = 0.0
    for i in range(order + 1):
        acc += (-1) ** i * math.comb(order, i) * float(eval_m((order / 2 - i) * step))
    return acc / step**order


def validate_symbol(sym: DispersionSymbol) -> SymbolReport:
    """Evaluate the multiplier invariants on 10,000 uniform samples of [-100, 100],
    and CUTOFF also beyond a k_cut that lies past them."""
    ks = np.linspace(-100.0, 100.0, 10_000)
    vals = np.asarray(sym.eval(ks), dtype=float)
    checks = []

    # evenness
    diff = np.abs(vals - vals[::-1])
    i = int(np.argmax(diff))
    checks.append(CheckResult("NOT_EVEN", bool(diff[i] <= 1e-12), float(ks[i]),
                              f"max |m(k)-m(-k)| = {diff[i]:.3e}"))

    # strict positive global maximum at 0
    interior = np.abs(ks) > 1e-14
    excess = vals[interior] - sym.m_zero
    j = int(np.argmax(excess))
    worst = float(ks[interior][j])
    checks.append(CheckResult("NO_STRICT_MAX", bool(excess[j] < 0), worst,
                              f"max m(k)-m(0) off origin = {excess[j]:.3e}"))

    # declared Taylor data vs finite differences (analytic derivatives of
    # order 2 j_star are ill-conditioned to estimate, so this is a coarse check)
    fd = _fd_even_derivative(sym.eval, 2 * sym.j_star, 1e-3)
    rel = abs(fd - sym.d2j_star) / abs(sym.d2j_star)
    checks.append(CheckResult("TAYLOR_MISMATCH", bool(rel <= 1e-4), 0.0,
                              f"fd {fd:.8g} vs declared {sym.d2j_star:.8g} (rel {rel:.2e})"))

    # remainder r(k) = O(k^(2 j_star + 2)) near zero: the sampled ratio must
    # be bounded on 0 < |k| <= 1
    kn = ks[(np.abs(ks) > 1e-6) & (np.abs(ks) <= 1.0)]
    ratio = np.abs(taylor_remainder(sym, kn)) / np.abs(kn) ** (2 * sym.j_star + 2)
    jr = int(np.argmax(ratio))
    checks.append(CheckResult("TAYLOR_REMAINDER", bool(np.isfinite(ratio[jr])), float(kn[jr]),
                              f"sup |r|/k^(2j*+2) = {ratio[jr]:.3e}"))

    # cutoff: m <= m(0)/2 beyond k_cut; a k_cut past the samples above gets
    # its own, 10,000 geometric ones from k_cut to 100 k_cut on either side
    beyond = np.abs(ks) >= sym.k_cut
    kb, vb = ks[beyond], vals[beyond]
    if not beyond.any():
        far = np.geomspace(sym.k_cut, 100.0 * sym.k_cut, 5_000)
        kb = np.concatenate((-far[::-1], far))
        with np.errstate(over="ignore"):  # a decaying m(k) overflows towards 0
            vb = np.asarray(sym.eval(kb), dtype=float)
    vb = vb - 0.5 * sym.m_zero
    jb = int(np.argmax(vb))
    checks.append(CheckResult("CUTOFF", bool(vb[jb] <= 1e-12), float(kb[jb]),
                              f"max m(k)-m(0)/2 beyond k_cut = {vb[jb]:.3e}"))

    return SymbolReport(sym.name, tuple(checks))
