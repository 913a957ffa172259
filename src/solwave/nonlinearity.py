"""Nonlinearities n = n_p + n_r with primitives, and the one grammar of a
problem's names.

The leading part n_p is c_p |x|^p (``modulus``) or c_p x^p for an integer
p >= 2, which needs c_p > 0 when p is odd; the quadratic case n(u) = u^2 is
the latter with p = 2, c_p = 1.  The optional remainder n_r is a polynomial,
held as its coefficients by degree, that vanishes faster: its lowest degree
exceeds p, and the gap between the two is its growth exponent delta,
n_r = O(|x|^(p+delta)) near zero.  Exponents and coefficients are finite.  A
nonlinearity is its name and these numbers, and compares by them.

Nonlinearities and symbols are named ``kind`` or ``kind:v1,v2,...``:
``spec_name`` writes a name and ``from_spec`` reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import ConfigError


def spec_name(kind: str, *values: float) -> str:
    """``kind:v1,v2,...``, each value written ``{:g}`` where that reads back
    as the value and as its shortest ``repr`` otherwise: a problem's name
    rebuilds the problem it names."""
    return kind + ":" + ",".join(
        f"{v:g}" if float(f"{v:g}") == v else repr(float(v)) for v in values)


def from_spec(name: str, families: dict[str, Callable], field: str):
    """``families[kind](v1, v2, ...)`` for a ``name`` written ``kind`` or
    ``kind:v1,v2,...``.  An unknown kind, a value that is not a number, and
    values the constructor refuses (a ValueError or TypeError) are a
    ConfigError on ``field``."""
    kind, colon, values = name.partition(":")
    if kind not in families:
        raise ConfigError(f"{name!r} names no known kind; {field} takes one of "
                          f"{', '.join(families)}", field=field)
    try:
        return families[kind](*([float(v) for v in values.split(",")] if colon else []))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {field} {name!r}: {exc}", field=field)


def _ipow(x, n: int, out=None):
    """x**n (n >= 1) by repeated np.square, into ``out`` when given and n >= 2:
    a float exponent other than 2 takes libm's pow, some 70 times slower on
    negative bases."""
    if n == 1:
        return x
    half = np.square(_ipow(x, n // 2, out), out=out)
    return np.multiply(x, half, out=out) if n % 2 else half


@dataclass(frozen=True)
class Nonlinearity:
    name: str
    p: float
    cp: float
    modulus: bool               # c_p |x|^p; otherwise c_p x^p for an integer p
    remainder: tuple[float, ...] = ()  # n_r's coefficients by degree
    # x, out -> n(x) of a float array, into ``out`` when it is not None: the
    # one evaluation behind ``n``, composed once here so that a caller with a
    # buffer (the flow's flux) pays no Python frames; for ``quadratic()`` it
    # is np.square itself.  The products and their order do not depend on
    # ``out``, so each value is the same bit for bit, buffered or not.
    nodewise: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, cp, rem = self.p, self.cp, self.remainder
        if not (math.isfinite(p) and math.isfinite(cp)):
            raise ValueError("leading exponent and coefficient must be finite")
        if cp == 0:
            raise ValueError("leading coefficient must be nonzero")
        if p < 2:
            raise ValueError("leading exponent must be at least 2")
        if not self.modulus and (p != int(p) or p % 2 and cp <= 0):
            raise ValueError("a power without modulus needs an integer exponent, "
                             "and a positive leading coefficient when it is odd")
        if not all(map(math.isfinite, rem)) or any(rem[:int(p) + 1]):
            raise ValueError("remainder coefficients must be finite and vanish "
                             "at every degree up to the leading exponent")
        if self.modulus:
            def power(x, out):
                v = np.abs(x, out=out)
                v **= p  # in place on an array, with numpy's fast path for p = 2
                return v
        else:
            k = int(p)
            if k == 2:
                power = np.square
            else:
                def power(x, out):
                    return _ipow(x, k, out)
        if cp == 1.0:  # 1.0 * v == v bit for bit, so the quadratic skips a pass
            n = power
        else:
            def n(x, out):
                return np.multiply(cp, power(x, out), out=out)
        if rem:  # by Horner's rule, highest degree first
            lead, r = n, partial(np.polyval, np.array(rem[::-1]))

            def n(x, out):
                return np.add(lead(x, out), r(x), out=out)
        object.__setattr__(self, "nodewise", n)

    @cached_property
    def _remainder_primitive(self) -> Callable:
        """n_r's primitive by Horner's rule, as n_r is: x**d with integer d
        takes libm's slow pow on negative bases."""
        integral = [r / (d + 1) for d, r in enumerate(self.remainder)]
        return partial(np.polyval, np.array(integral[::-1] + [0.0]))

    def leading(self) -> Nonlinearity:
        """n_p alone, the nonlinearity of the reduced long-wave functional,
        named as the grammar reads it back."""
        if not self.remainder:
            return self
        return (signed_modulus(self.p, self.cp) if self.modulus
                else polynomial({int(self.p): self.cp}))

    def n(self, x):
        return self.nodewise(np.asarray(x, dtype=float), None)

    def primitive(self, x):
        """N(x) = int_0^x n, vanishing at the origin."""
        x = np.asarray(x, dtype=float)
        p, cp = self.p, self.cp
        if self.modulus:  # 1.0 * x == x bit for bit
            v = (x if cp == 1.0 else cp * x) * np.abs(x) ** p / (p + 1.0)
        else:
            v = _ipow(x, int(p) + 1)
            v = (v if cp == 1.0 else cp * v) / (p + 1.0)
        return v + self._remainder_primitive(x) if self.remainder else v


# bundled constructors -------------------------------------------------------


def quadratic() -> Nonlinearity:
    """n(u) = u^2, matching the advective form 2 u u_x = (u^2)_x."""
    return Nonlinearity("quadratic", 2.0, 1.0, False)


def signed_modulus(p: float, cp: float) -> Nonlinearity:
    return Nonlinearity(spec_name("modulus", p, cp), float(p), float(cp), True)


def odd_power(p: float, cp: float) -> Nonlinearity:
    if p % 2 != 1:  # false on an even, fractional or non-finite p
        raise ValueError(f"odd power needs an odd integer exponent, got {p!r}")
    return Nonlinearity(spec_name("oddpower", p, cp), float(p), float(cp), False)


def polynomial(coeffs: dict[int, float]) -> Nonlinearity:
    """n(x) = sum_d coeffs[d] x^d: the lowest degree is the leading part and
    the others the remainder.

    ``Nonlinearity`` rejects a lowest degree below 2 (n must vanish to second
    order at 0) and non-finite coefficients.
    """
    degs = sorted(d for d, c in coeffs.items() if c != 0.0)
    if not degs:
        raise ValueError("all coefficients vanish")
    p, rest = degs[0], degs[1:]
    remainder = tuple(float(coeffs[d]) if d in rest else 0.0
                      for d in range(degs[-1] + 1)) if rest else ()
    name = spec_name("poly", *(coeffs.get(d, 0.0) for d in range(2, degs[-1] + 1)))
    return Nonlinearity(name, float(p), float(coeffs[p]), False, remainder)


NONLINEARITIES = {"quadratic": quadratic, "modulus": signed_modulus, "oddpower": odd_power,
                  "poly": lambda *cs: polynomial(dict(enumerate(cs, 2)))}


def nonlinearity_from_name(name: str) -> Nonlinearity:
    return from_spec(name, NONLINEARITIES, "problem.nonlinearity")
