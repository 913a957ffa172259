"""Multiplier families and their validation.

Frozen numbers come from 40-digit evaluation of the closed forms:
sqrt(tanh(k)/k) at 2*pi, the root of tanh(k)/k = 1/4, and the Maclaurin
remainder sqrt(tanh(k)/k) - 1 + k^2/6 at k = 0.1.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from conftest import noise
from solwave.errors import SymbolViolation
from solwave.grid import PeriodicGrid, SpectralField, inner_l2, l2_norm
from solwave.symbols import (DispersionSymbol, LongWaveSymbol, _bundled_cutoff,
                             cutoff_wavenumber, gaussian, multiplier_values, rational,
                             symbol_from_name, taylor_remainder, validate_symbol, whitham)

M_AT_2PI = 0.3989408891555464
K_CUT = 3.997302692060433
R_AT_01 = 5.259654816239375e-06
WHITHAM = whitham()


def test_whitham_taylor_data():
    sym = whitham()
    assert sym.eval(0.0) == 1.0
    assert sym.m_zero == 1.0
    assert sym.j_star == 1
    assert sym.d2j_star == -1.0 / 3.0


def test_whitham_at_2pi():
    assert whitham().eval(2 * np.pi) == approx(M_AT_2PI, abs=1e-14)


def test_whitham_cutoff():
    sym = whitham()
    assert sym.k_cut == approx(K_CUT, abs=1e-9)
    # minimal on the sample grid: the multiplier still exceeds m(0)/2 just below
    ks = np.linspace(sym.k_cut - 0.1, sym.k_cut - 1e-6, 50)
    assert np.any(sym.eval(ks) > 0.5)
    assert np.all(sym.eval(np.linspace(sym.k_cut, 100.0, 1000)) <= 0.5)


def test_cutoff_is_first_double_at_half_height():
    # the bracket is bisected to adjacent doubles; 3.9973026920604333 is the
    # value a Brent root finder at xtol 1e-12 returned on the same bracket
    w, g = whitham(), gaussian()
    assert w.k_cut == approx(3.9973026920604333, abs=1e-12)
    assert abs(g.k_cut - math.sqrt(math.log(2.0))) <= 2 * np.spacing(g.k_cut)
    for sym in (w, g):
        assert sym.eval(sym.k_cut) <= sym.m_zero / 2 < sym.eval(sym.k_cut - 1e-12)
        assert sym.eval(np.nextafter(sym.k_cut, 0.0)) > sym.m_zero / 2


def test_bundled_cutoff_is_scanned_once():
    # the cached value is the double a fresh scan gives
    w, g = whitham(), gaussian()
    assert w.k_cut == cutoff_wavenumber(w.eval)
    assert g.k_cut == cutoff_wavenumber(g.eval) == 0.8325546111576978
    misses = _bundled_cutoff.cache_info().misses
    assert whitham().k_cut == w.k_cut and gaussian().k_cut == g.k_cut
    assert _bundled_cutoff.cache_info().misses == misses


def test_series_and_direct_branch_agree_at_switch():
    sym = whitham()
    for k in (0.009, 0.0099, 0.0101, 0.011):
        direct = np.sqrt(np.tanh(k) / k)
        assert sym.eval(k) == approx(direct, abs=1e-12)


def test_remainder_at_origin():
    assert taylor_remainder(whitham(), 0.0) == 0.0


def test_remainder_at_01():
    # leading term (19/360) k^4; the k^6 correction shifts the 4th digit
    r = taylor_remainder(whitham(), 0.1)
    assert r == approx(R_AT_01, rel=1e-10)
    assert r == approx(19.0 / 360.0 * 1e-4, rel=4e-3)


@pytest.mark.parametrize("name", ["whitham", "gaussian", "rational:1.5"])
def test_remainder_subtracts_the_long_wave_term(name):
    # LongWaveSymbol holds the one copy of the leading Taylor term; the
    # remainder is the same bits as the term written out
    sym = symbol_from_name(name)
    ks = np.linspace(-100.0, 100.0, 10_000)  # validate_symbol's samples
    j2 = 2 * sym.j_star
    want = sym.eval(ks) - sym.m_zero - sym.d2j_star * ks**j2 / math.factorial(j2)
    assert taylor_remainder(sym, ks).tobytes() == want.tobytes()


def test_long_wave_symbol():
    lw = LongWaveSymbol(1, -1.0 / 3.0)
    assert lw.name == "reduced(j*=1, m2j=-0.333333)"
    assert (lw.m_zero, lw.k_cut, lw.eval(0.0)) == (0.0, 0.0, 0.0)
    assert lw.eval(3.0) == approx(-1.5, rel=1e-15)
    assert lw == LongWaveSymbol(1, -1.0 / 3.0) != LongWaveSymbol(2, -1.0 / 3.0)
    assert not isinstance(lw, DispersionSymbol)


def test_remainder_quartic_bound():
    sym = whitham()
    ks = np.linspace(1e-3, 0.5, 400)
    ratio = np.abs(taylor_remainder(sym, ks)) / ks**4
    assert np.all(np.isfinite(ratio))
    assert ratio.max() < 0.06  # sup is 19/360 ~ 0.0528 at k -> 0


@pytest.mark.parametrize("sym", [whitham(), gaussian(), rational(1.0), rational(0.5)])
def test_bundled_symbols_validate(sym):
    report = validate_symbol(sym)
    assert report.passed, "\n".join(report.lines())


def test_report_holds_only_checks_that_can_fail():
    # m(0) > 0 and m^(2j*)(0) < 0 hold for every DispersionSymbol that exists
    assert [c.name for c in validate_symbol(whitham()).checks] == [
        "NOT_EVEN", "NO_STRICT_MAX", "TAYLOR_MISMATCH", "TAYLOR_REMAINDER", "CUTOFF"]


def test_validate_flags_no_strict_max():
    bad = DispersionSymbol("bad", lambda k: 1.0 + np.asarray(k) ** 2,
                           j_star=1, d2j_star=-1.0, k_cut=1.0)
    report = validate_symbol(bad)
    failed = {c.name for c in report.checks if not c.passed}
    assert "NO_STRICT_MAX" in failed
    with pytest.raises(SymbolViolation) as err:
        report.raise_if_failed()
    assert err.value.info["k"] != 0.0


def cutoff_check(sym):
    return {c.name: c for c in validate_symbol(sym).checks}["CUTOFF"]


@pytest.mark.parametrize("sym", [whitham(), gaussian(), rational(0.5)])
def test_cutoff_within_the_samples_reads_them(sym):
    assert cutoff_check(sym).worst_k in np.linspace(-100.0, 100.0, 10_000)


def test_cutoff_beyond_the_samples_is_measured():
    # k_cut = sqrt(2^20 - 1) ~ 1024 lies past every sample of [-100, 100]
    sym = rational(0.05)
    check = cutoff_check(sym)
    assert check.passed and abs(check.worst_k) >= sym.k_cut
    assert check.detail.startswith("max m(k)-m(0)/2 beyond k_cut = ")


def test_cutoff_fails_on_a_rise_beyond_the_samples():
    # at or below m(0)/2 from k_cut = 150 on, save for a bump to 0.6 at |k| = 1000
    def m(k):
        k = np.asarray(k, dtype=float)
        return 1.0 / (1.0 + (k / 150.0) ** 2) + 0.6 * np.exp(-((np.abs(k) - 1000.0) / 50.0) ** 2)

    bump = DispersionSymbol("bump", m, j_star=1, d2j_star=-2.0 / 150.0**2, k_cut=150.0)
    check = cutoff_check(bump)
    assert not check.passed
    assert abs(abs(check.worst_k) - 1000.0) < 50.0


def test_gaussian_taylor_data_passes_fd_check():
    report = validate_symbol(gaussian())
    byname = {c.name: c for c in report.checks}
    assert byname["TAYLOR_MISMATCH"].passed


def test_constructor_rejects_bad_data():
    # m^(2j*)(0) must be finite and negative
    for d2 in (0.5, 0.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            DispersionSymbol("x", np.cos, j_star=1, d2j_star=d2, k_cut=1.0)
    # m(0) is eval(0): it must be finite and positive
    for m0 in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DispersionSymbol("x", lambda k, m0=m0: m0 * np.cos(k), j_star=1,
                             d2j_star=-1.0, k_cut=1.0)
    assert DispersionSymbol("x", lambda k: 2.0 * np.cos(k), j_star=1, d2j_star=-2.0,
                            k_cut=1.0).m_zero == 2.0
    with pytest.raises(ValueError, match="j_star"):
        DispersionSymbol("x", np.cos, j_star=0, d2j_star=-1.0, k_cut=1.0)
    # nor declared: NO_STRICT_MAX and CUTOFF would measure against a wrong one
    with pytest.raises(ValueError):
        dataclasses.replace(whitham(), m_zero=1.1)
    # the cut-off wavenumber must be finite and positive: CUTOFF samples beyond it
    for k_cut in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="cut-off"):
            dataclasses.replace(whitham(), k_cut=k_cut)


def test_symbol_from_name():
    assert symbol_from_name("whitham").name == "whitham"
    assert symbol_from_name("rational:1.5").d2j_star == -3.0
    # a name keeps every digit its number needs, so it rebuilds the symbol
    sym = rational(1.0000001)
    assert sym.name == "rational:1.0000001"
    assert symbol_from_name(sym.name).d2j_star == sym.d2j_star
    assert symbol_from_name("rational:2.0").name == "rational:2"
    from solwave.errors import ConfigError
    with pytest.raises(ConfigError):
        symbol_from_name("nosuch")
    for bad in ("rational:abc", "rational:-1", "rational:0", "rational:1e-300",
                "rational:1e-320", "rational:nan", "rational:inf", "rational:1e308",
                "rational", "rational:1,2", "whitham:1"):
        with pytest.raises(ConfigError) as err:
            symbol_from_name(bad)
        assert err.value.info["field"] == "problem.symbol"
    # the constructor refuses a value as its siblings do; the parser names the field
    for s in (-1.0, 0.0, 1e-300, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rational(s)
    # the cut-off is where the multiplier falls to m(0)/2
    for s in (0.05, 0.5, 1.0, 1.5, 7.0):
        sym = rational(s)
        assert sym.eval(sym.k_cut) == approx(0.5 * sym.m_zero, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=80.0))
def test_whitham_even_and_below_max(k):
    sym = whitham()
    assert sym.eval(k) == approx(sym.eval(-k), abs=1e-13)
    assert sym.eval(k) < sym.m_zero


def lu(u):
    """Lu: the Whitham multiplier applied on the field's grid."""
    return SpectralField.from_coeffs(u.grid, multiplier_values(WHITHAM, u.grid) * u.coeffs)


G = PeriodicGrid(30.0, 128)  # the grid of the noise fields


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_multiplier_bound(seed):
    u = noise(seed, G, 42)
    assert l2_norm(lu(u)) <= WHITHAM.m_zero * l2_norm(u) * (1 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_multiplier_self_adjoint(seed):
    u, v = noise(seed, G, 42), noise(seed + 7777, G, 42)
    assert inner_l2(lu(u), v) == approx(inner_l2(u, lu(v)), abs=1e-10)
