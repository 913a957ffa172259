from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from pytest import approx

from solwave.errors import ConfigError, ExponentWindow
from solwave.functionals import Problem
from solwave.nonlinearity import (Nonlinearity, nonlinearity_from_name, odd_power,
                                  polynomial, quadratic, signed_modulus)
from solwave.symbols import symbol_from_name, whitham

NAN, INF = float("nan"), float("inf")


def growth_exponent(nl):
    """delta of n_r = O(|x|^(p+delta)): the remainder's lowest degree minus p."""
    return next(d for d, c in enumerate(nl.remainder) if c) - nl.p


def test_quadratic_values():
    nl = quadratic()
    assert nl.n(0.5) == approx(0.25)
    assert nl.primitive(0.5) == approx(0.5**3 / 3.0)
    assert nl.n(0.0) == 0.0


def test_signed_modulus_negative_coefficient():
    nl = signed_modulus(2.0, -1.0)
    assert nl.n(-0.5) == approx(-0.25)
    assert nl.primitive(-0.5) == approx(+0.5**3 / 3.0)
    assert nl.n(0.5) == approx(-0.25)


def test_polynomial_with_remainder():
    nl = polynomial({2: 1.0, 4: 1.0})
    assert nl.p == 2.0
    assert nl.remainder == (0.0, 0.0, 0.0, 0.0, 1.0) and growth_exponent(nl) == 2.0
    assert nl.n(0.3) == approx(0.3**2 + 0.3**4)
    assert nl.primitive(0.3) == approx(0.3**3 / 3 + 0.3**5 / 5)
    # remainder terms of every parity, on negative arguments where no two
    # terms cancel
    nl = polynomial({2: 1.0, 3: -0.5, 4: 1.0})
    xs = -np.geomspace(1e-3, 2.0, 40)
    assert nl.n(xs) == approx(xs**2 - 0.5 * xs**3 + xs**4, rel=1e-14, abs=0)
    assert nl.primitive(xs) == approx(xs**3 / 3 - xs**4 / 8 + xs**5 / 5, rel=1e-14, abs=0)


@pytest.mark.parametrize("nl", [quadratic(), polynomial({2: 1.0, 3: -0.5}),
                                signed_modulus(2.5, 1.0), odd_power(3, 2.0)])
def test_primitive_consistent_with_derivative(nl):
    h = 1e-5
    xs = np.linspace(-1.0, 1.0, 41)
    fd = (nl.primitive(xs + h) - nl.primitive(xs - h)) / (2 * h)
    # relative to the derivative scale on the window (pointwise-relative is
    # ill-posed at the double zero of n)
    scale = max(np.max(np.abs(nl.n(xs))), 1.0) * 1e-2
    denom = np.maximum(np.abs(nl.n(xs)), scale)
    assert np.max(np.abs(fd - nl.n(xs)) / denom) < 1e-8


@pytest.mark.parametrize("nl", [quadratic(), polynomial({4: 0.5}), odd_power(3, 2.0),
                                odd_power(5, 1.0), signed_modulus(2.5, -1.5),
                                signed_modulus(3.0, 1.0)])
def test_leading_part_matches_closed_form(nl):
    # integer powers are formed by multiplication; they must agree with the
    # closed forms, negative arguments included, to a few ulp
    xs = np.concatenate([-np.geomspace(1e-3, 2.0, 40), np.geomspace(1e-3, 2.0, 40)])
    p, cp = nl.p, nl.cp
    if nl.modulus:
        lead = [cp * abs(x) ** p for x in xs]
        prim = [cp * x * abs(x) ** p / (p + 1.0) for x in xs]
    else:
        lead = [cp * x**p for x in xs]
        prim = [cp * x ** (p + 1.0) / (p + 1.0) for x in xs]
    assert nl.n(xs) == approx(lead, rel=1e-15, abs=0)  # no case has a remainder
    assert nl.primitive(xs) == approx(prim, rel=1e-15, abs=0)


def test_exponent_window_checked_at_assembly():
    with pytest.raises(ExponentWindow):
        Problem(whitham(), odd_power(5, 1.0))
    Problem(whitham(), odd_power(3, 1.0))  # p = 3 < 5 is fine


def test_construction_rejections():
    with pytest.raises(ValueError):
        Nonlinearity("x", 2.0, 0.0, False)
    with pytest.raises(ValueError):
        Nonlinearity("x", 3.0, -1.0, False)  # odd power needs cp > 0
    with pytest.raises(ValueError):
        Nonlinearity("x", 2.5, 1.0, False)  # integer only without the modulus
    with pytest.raises(ValueError):
        Nonlinearity("x", 1.5, 1.0, True)  # p >= 2
    with pytest.raises(ValueError):
        polynomial({1: 1.0, 2: 1.0})
    with pytest.raises(ValueError, match="all coefficients vanish"):
        polynomial({2: 0.0})
    for p in (4, 3.5):  # an odd power's exponent is an odd integer
        with pytest.raises(ValueError):
            odd_power(p, 1.0)
    for p, cp in ((2.5, NAN), (2.5, INF), (NAN, 1.0), (INF, 1.0)):
        with pytest.raises(ValueError):
            Nonlinearity("x", p, cp, True)
    for coeffs in ({2: NAN}, {2: 1.0, 3: NAN}, {2: 1.0, 3: INF}, {2: 1.0, 4: -INF}):
        with pytest.raises(ValueError):
            polynomial(coeffs)
    # a remainder vanishes faster than the leading part, with finite coefficients
    for p, modulus, rem in ((2.0, False, (0.0, 0.0, 1.0)), (2.5, True, (0.0, 0.0, 1.0)),
                            (2.0, False, (0.0, 1.0)), (2.0, False, (0.0, 0.0, 0.0, NAN))):
        with pytest.raises(ValueError):
            Nonlinearity("x", p, 1.0, modulus, rem)
    assert Nonlinearity("x", 2.5, 1.0, True, (0.0, 0.0, 0.0, 1.0)).n(1.0) == 2.0



def test_euler_identity_homogeneous():
    # (p+1) N(x) = x n(x) exactly for a homogeneous leading part
    nl = quadratic()
    xs = np.linspace(-1, 1, 21)
    assert 3.0 * nl.primitive(xs) == approx(xs * nl.n(xs), abs=1e-15)


def test_euler_identity_with_remainder():
    # (p+1) N(x) - x n(x) = O(|x|^(p+delta+1)) for n = x^2 + x^4
    nl = polynomial({2: 1.0, 4: 1.0})
    xs = np.linspace(1e-3, 1.0, 100)
    lhs = np.abs(3.0 * nl.primitive(xs) - xs * nl.n(xs))
    ratio = lhs / xs ** (nl.p + growth_exponent(nl) + 1.0)
    assert np.all(np.isfinite(ratio))
    assert ratio.max() < 1.0  # exact value 2/5 x^5 over x^5


def test_remainder_growth_bound():
    nl = polynomial({2: 1.0, 4: 1.0})
    xs = np.linspace(1e-3, 1.0, 200)
    n_r = P.polyval(xs, nl.remainder)
    assert np.max(np.abs(n_r) / xs ** (nl.p + growth_exponent(nl))) <= 1.0 + 1e-12


def test_names_roundtrip():
    assert nonlinearity_from_name("quadratic").name == "quadratic"
    nl = nonlinearity_from_name("modulus:2.5,-1.0")
    assert nl.modulus and nl.p == 2.5 and nl.cp == -1.0
    nl = nonlinearity_from_name("oddpower:3,2.0")
    assert not nl.modulus and nl.p == 3.0 and nl.name == "oddpower:3,2"
    nl = nonlinearity_from_name("poly:1,0,1")
    assert nl.n(0.3) == approx(0.3**2 + 0.3**4)
    # {:g} where it reads back, the shortest repr where it does not: a name
    # rebuilds the problem it names
    for name in ("modulus:2.5,1.0000001", "poly:1,0.12345678", "modulus:2.5,1",
                 "oddpower:3,2", "poly:1,0,1", "poly:1e-20,3"):
        assert nonlinearity_from_name(name).name == name
    nl = signed_modulus(2.5, 1.0000001)
    assert Problem(whitham(), nonlinearity_from_name(nl.name)) == Problem(whitham(), nl)
    with pytest.raises(ConfigError):
        nonlinearity_from_name("nosuch")
    # a constructor's refusal, of a value or of their number, is a ConfigError
    for bad in ("modulus:a,b", "modulus:2.5", "quadratic:1", "poly:", "oddpower:4,1"):
        with pytest.raises(ConfigError) as err:
            nonlinearity_from_name(bad)
        assert err.value.info["field"] == "problem.nonlinearity"


SYMBOL_NAMES = ("whitham", "gaussian", "rational:1.5", "rational:1.0000001")
NONLINEARITY_NAMES = ("quadratic", "poly:1,0.5", "poly:0,1,0.3", "modulus:2.5,-1",
                      "oddpower:3,1")


@pytest.mark.parametrize("symbol", SYMBOL_NAMES)
@pytest.mark.parametrize("nonlinearity", NONLINEARITY_NAMES)
def test_problems_from_one_name_are_equal(symbol, nonlinearity):
    # a model is its name and its numbers
    a, b = (Problem(symbol_from_name(symbol), nonlinearity_from_name(nonlinearity))
            for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NONLINEARITY_NAMES)
def test_leading_part_reads_back_from_its_name(name):
    nl = nonlinearity_from_name(name)
    lead = nl.leading()
    assert nonlinearity_from_name(lead.name) == lead
    assert (lead.p, lead.cp, lead.modulus, lead.remainder) == (nl.p, nl.cp, nl.modulus, ())
    assert (lead is nl) == (not nl.remainder)
    # n_p evaluates as the nonlinearity with its remainder dropped, bit for bit
    x = np.linspace(-2.0, 2.0, 101)
    dropped = replace(nl, name="dropped", remainder=())
    assert lead.nodewise(x, None).tobytes() == dropped.nodewise(x, None).tobytes()


def test_leading_part_of_a_modulus_with_remainder():
    nl = Nonlinearity("built", 2.5, -1.0, True, (0.0, 0.0, 0.0, 0.5))
    assert nl.leading() == signed_modulus(2.5, -1.0)


@pytest.mark.parametrize("names", [
    (("rational:1.5", "quadratic"), ("rational:1.5000001", "quadratic")),
    (("whitham", "poly:1,0.5"), ("whitham", "poly:1,0.6")),
    (("whitham", "poly:0,1,0.3"), ("whitham", "poly:0,1,0.3,0.1")),
    (("gaussian", "modulus:2.5,-1"), ("gaussian", "modulus:2.5,-1.5")),
    (("whitham", "oddpower:3,1"), ("whitham", "oddpower:3,2"))])
def test_problems_from_names_differing_in_a_coefficient_differ(names):
    a, b = (Problem(symbol_from_name(s), nonlinearity_from_name(n)) for s, n in names)
    assert a != b


def _old_ipow(x, n):
    # squaring with ** 2.0, as the exact reference for np.square
    if n == 1:
        return x
    half = _old_ipow(x, n // 2) ** 2.0
    return x * half if n % 2 else half


def _power_chain(nl, x):
    """n and N written out as evaluated with ** 2.0 squaring."""
    cp, p = nl.cp, nl.p
    if nl.modulus:
        n = cp * np.abs(x) ** p
        prim = cp * x * np.abs(x) ** p / (p + 1.0)
    else:
        n = cp * _old_ipow(x, int(p))
        prim = cp * _old_ipow(x, int(p) + 1) / (p + 1.0)
    if nl.remainder:  # by Horner's rule, from the coefficients
        c = np.array(nl.remainder)
        n = n + P.polyval(x, c)
        prim = prim + P.polyval(x, P.polyint(c))
    return n, prim


@pytest.mark.parametrize("nl", [
    quadratic(), odd_power(3, 1.5), polynomial({2: 1.0, 3: 0.5}), signed_modulus(2.5, 1.0),
    signed_modulus(2.5, -1.0), Nonlinearity("built", 2.5, 1.5, True, (0.0, 0.0, 0.0, 0.5))])
def test_evaluations_bit_identical_to_power_chain(nl):
    x = np.concatenate([np.random.default_rng(9).standard_normal(997) * 2.0,
                        [0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200]])
    with np.errstate(over="ignore", invalid="ignore"):  # +-1e200 overflows alike
        got = nl.n(x), nl.primitive(x)
        want = _power_chain(nl, x)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", ["quadratic", "oddpower:3,1", "modulus:2.5,-1",
                                  "poly:1,0.5"])
def test_buffered_evaluation_is_bit_identical(name):
    nl = nonlinearity_from_name(name)
    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate([np.random.default_rng(4).standard_normal(500) * 3.0,
                        [-2.5, -1.0, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310,
                         np.inf, -np.inf, np.nan]])
    buf = np.empty_like(x)
    with np.errstate(all="ignore"):
        want = nl.n(x)
        got = nl.nodewise(x, buf)  # as the flux calls it
    assert got is buf
    assert got.tobytes() == want.tobytes()
