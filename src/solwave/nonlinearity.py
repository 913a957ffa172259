"""Nonlinearities n = n_p + n_r with primitives.

The leading part n_p is c_p |x|^p (SIGNED_MODULUS), c_p x^p for odd
integer p > 0 with c_p > 0 (ODD_POWER), or c_p x^p for even integer p
(PURE_POWER; the quadratic case n(u) = u^2 lives here).  The optional
remainder must vanish faster, n_r = O(|x|^(p+delta)) near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError


def _ipow(x, n: int, out=None):
    """x**n (n >= 1) by repeated np.square, into ``out`` when given and n >= 2:
    a float exponent other than 2 takes libm's pow, some 70 times slower on
    negative bases."""
    if n == 1:
        return x
    half = np.square(_ipow(x, n // 2, out), out=out)
    return np.multiply(x, half, out=out) if n % 2 else half


class Kind(Enum):
    SIGNED_MODULUS = "modulus"
    ODD_POWER = "oddpower"
    PURE_POWER = "power"


@dataclass(frozen=True)
class Remainder:
    """Higher-order part n_r with growth exponent delta, its primitive
    vanishing at 0, and its derivative."""

    func: Callable
    delta: float
    primitive: Callable
    prime: Callable


def _nodewise(kind: Kind, p: float, cp: float, remainder: Remainder | None) -> Callable:
    """x, out -> n(x) of a float array, into ``out`` when it is not None.
    The products and their order do not depend on ``out``, so each value is
    the same bit for bit, buffered or not."""
    if kind is Kind.SIGNED_MODULUS:
        def power(x, out):
            v = np.abs(x, out=out)
            v **= p  # in place on an array, with numpy's fast path for p = 2
            return v
    elif p == 2:
        power = np.square
    else:
        def power(x, out):
            return _ipow(x, int(p), out)
    if cp == 1.0:  # 1.0 * v == v bit for bit, so the quadratic skips a pass
        lead = power
    else:
        def lead(x, out):
            return np.multiply(cp, power(x, out), out=out)
    if remainder is None:
        return lead
    rem = remainder.func

    def full(x, out):
        return np.add(lead(x, out), rem(x), out=out)

    return full


@dataclass(frozen=True)
class Nonlinearity:
    name: str
    p: float
    cp: float
    kind: Kind
    remainder: Remainder | None = None
    # x, out -> n(x) of a float array, into ``out`` when it is not None: the
    # one evaluation behind ``n``, composed once here so that a caller with a
    # buffer (the flow's flux) pays no Python frames; for ``quadratic()`` it
    # is np.square itself
    nodewise: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cp == 0:
            raise ValueError("leading coefficient must be nonzero")
        if self.p < 2:
            raise ValueError("leading exponent must be at least 2")
        if self.kind is Kind.ODD_POWER:
            if self.p != int(self.p) or int(self.p) % 2 == 0:
                raise ValueError("ODD_POWER needs an odd integer exponent")
            if self.cp <= 0:
                raise ValueError("ODD_POWER needs a positive leading coefficient")
        if self.kind is Kind.PURE_POWER and (self.p != int(self.p) or int(self.p) % 2):
            raise ValueError("PURE_POWER needs an even integer exponent")
        object.__setattr__(self, "nodewise",
                           _nodewise(self.kind, self.p, self.cp, self.remainder))

    # leading part ----------------------------------------------------------

    def _times_cp(self, v):
        # 1.0 * v == v bit for bit
        return v if self.cp == 1.0 else self.cp * v

    def leading_prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind is Kind.SIGNED_MODULUS:
            return self.cp * self.p * x * np.abs(x) ** (self.p - 2.0)
        return self.cp * self.p * _ipow(x, int(self.p) - 1)

    def leading_primitive(self, x):
        """N_(p+1): the primitive of the leading part vanishing at 0."""
        x = np.asarray(x, dtype=float)
        if self.kind is Kind.SIGNED_MODULUS:
            return self._times_cp(x) * np.abs(x) ** self.p / (self.p + 1.0)
        return self._times_cp(_ipow(x, int(self.p) + 1)) / (self.p + 1.0)

    # full nonlinearity ------------------------------------------------------

    def n(self, x, out=None):
        """n(x); into ``out`` (a float array of x's shape, not x itself) when
        given, and then ``out`` is returned."""
        return self.nodewise(np.asarray(x, dtype=float), out)

    def n_prime(self, x):
        out = self.leading_prime(x)
        if self.remainder is not None:
            out = out + self.remainder.prime(np.asarray(x, dtype=float))
        return out

    def primitive(self, x):
        """N(x) = int_0^x n, vanishing at the origin."""
        out = self.leading_primitive(x)
        if self.remainder is not None:
            out = out + self.remainder.primitive(np.asarray(x, dtype=float))
        return out


# bundled constructors -------------------------------------------------------


def quadratic() -> Nonlinearity:
    """n(u) = u^2, matching the advective form 2 u u_x = (u^2)_x."""
    return Nonlinearity("quadratic", 2.0, 1.0, Kind.PURE_POWER)


def signed_modulus(p: float, cp: float) -> Nonlinearity:
    return Nonlinearity(f"modulus:{p:g},{cp:g}", float(p), float(cp), Kind.SIGNED_MODULUS)


def odd_power(p: int, cp: float) -> Nonlinearity:
    return Nonlinearity(f"oddpower:{p:g},{cp:g}", float(p), float(cp), Kind.ODD_POWER)


def polynomial(coeffs: dict[int, float]) -> Nonlinearity:
    """n(x) = sum_d coeffs[d] x^d with the lowest degree as the leading part.

    Degrees below 2 are rejected (n must vanish to second order at 0).
    """
    degs = sorted(d for d, c in coeffs.items() if c != 0.0)
    if not degs:
        raise ValueError("all coefficients vanish")
    if degs[0] < 2:
        raise ValueError("polynomial nonlinearity needs degree >= 2 terms only")
    p = degs[0]
    cp = coeffs[p]
    kind = Kind.PURE_POWER if p % 2 == 0 else Kind.ODD_POWER
    remainder = None
    if len(degs) > 1:
        # Horner evaluation: x**d with integer d takes libm's slow pow on
        # negative bases
        c = np.zeros(degs[-1] + 1)
        for d in degs[1:]:
            c[d] = coeffs[d]
        rem, prim, prime = (partial(P.polyval, c=a)
                            for a in (c, P.polyint(c), P.polyder(c)))
        remainder = Remainder(rem, float(degs[1] - p), prim, prime)
    name = "poly:" + ",".join(f"{coeffs.get(d, 0.0):g}" for d in range(2, degs[-1] + 1))
    return Nonlinearity(name, float(p), float(cp), kind, remainder)


def nonlinearity_from_name(name: str) -> Nonlinearity:
    if name == "quadratic":
        return quadratic()
    try:
        if name.startswith("modulus:"):
            p, cp = (float(v) for v in name.split(":", 1)[1].split(","))
            return signed_modulus(p, cp)
        if name.startswith("oddpower:"):
            p, cp = (float(v) for v in name.split(":", 1)[1].split(","))
            return odd_power(int(p), cp)
        if name.startswith("poly:"):
            cs = [float(v) for v in name.split(":", 1)[1].split(",")]
            return polynomial({d + 2: c for d, c in enumerate(cs)})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad nonlinearity spec {name!r}: {exc}",
                          field="problem.nonlinearity")
    raise ConfigError(f"unknown nonlinearity {name!r}", field="problem.nonlinearity")
