import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from conftest import PROB
from solwave import evolution
from solwave.errors import Blowup, ConfigError, ResolutionLoss
from solwave.evolution import (EvolutionConfig, Stepper, evolve, perturbation,
                               stability_experiment, travel_test)
from solwave.functionals import Problem, discretize, momentum
from solwave.grid import (RESOLVED, PeriodicGrid, SpectralField, aligned, high_mode_ratio,
                          l2_norm, sup_norm)
from solwave.longwave import kdv_profile
from solwave.nonlinearity import nonlinearity_from_name, quadratic
from solwave.solver import SolveConfig, minimize_constrained
from solwave.symbols import whitham


def smooth_pulse(period=40.0, n=512, amp=0.5, decay=1.5):
    g = PeriodicGrid(period, n)
    return SpectralField.from_values(g, amp / np.cosh(decay * g.nodes) ** 2)


def test_linear_flow_is_exact_at_a_large_step():
    # the purely dispersive flow is exact for every dt, dt = 0.5 included
    u0 = smooth_pulse()
    g = u0.grid
    exact = SpectralField.from_coeffs(
        g, u0.coeffs * np.exp(-g.ik * whitham().eval(g.wavenumbers) * 10.0))
    trace = evolve(whitham(), u0, EvolutionConfig(dt=0.5, t_final=10.0, stride=20))
    assert l2_norm(trace.final - exact) <= 1e-12 * l2_norm(exact)


def test_linear_flow_time_reversal():
    u0 = smooth_pulse()
    fwd = evolve(whitham(), u0, EvolutionConfig(dt=0.01, t_final=4.0, stride=100))
    back = evolve(whitham(), fwd.final,
                  EvolutionConfig(dt=0.01, t_final=-4.0, stride=100))
    assert l2_norm(back.final - u0) <= 1e-10 * l2_norm(u0)
    # a backward run starts at t = +0, as a forward one does
    assert math.copysign(1.0, back.times[0]) == 1.0


def test_drift_order_under_dt_halving():
    u0 = smooth_pulse(amp=0.2, decay=0.5)
    drifts = []
    for dt in (0.1, 0.05):
        trace = evolve(PROB, u0, EvolutionConfig(dt=dt, t_final=5.0,
                                                 stride=int(1 / dt)))
        drifts.append(np.max(np.abs(trace.e_drift)))
    order = np.log2(drifts[0] / drifts[1])
    assert order >= 3.5


def test_rk4_matches_ifrk4_on_smooth_data():
    u0 = smooth_pulse(amp=0.2, decay=0.7)
    a = evolve(PROB, u0, EvolutionConfig(dt=0.01, t_final=1.0))
    b = SpectralField.from_coeffs(u0.grid, u0.grid.unfold(reference_rk4(PROB, u0, 0.01, 100)))
    assert l2_norm(a.final - b) <= 1e-7 * l2_norm(a.final)


def test_travel_test(wave):
    # the P = 40 wave travels past the cell edge, where the recorded shift,
    # reported in (-P/2, P/2], jumps by a period that the fit must unwrap
    short = minimize_constrained(PROB, SolveConfig(mu=1e-2, period=40.0, points=128,
                                                   tol_residual=1e-11))
    for w, t_final in ((wave, 5.0), (short, 32.0)):
        rep = travel_test(PROB, w, EvolutionConfig(dt=0.01, t_final=t_final, stride=50))
        assert rep.shape_error <= 1e-6
        assert rep.speed_error <= 1e-5
    assert np.ptp(rep.trace.shifts) > 20.0


def test_zero_perturbation_reduces_to_travel(wave):
    # without a perturbation the distance stays at the travel shape error
    cfg = EvolutionConfig(dt=0.02, t_final=5.0, stride=50)
    pert = perturbation(wave.field.grid, l2_norm(wave.field), 0.0, seed=1)
    assert l2_norm(pert) == 0.0
    rep = stability_experiment(PROB, wave, pert, cfg)
    assert rep.max_dist <= 1e-9


def test_stability_run_and_momentum_restoration(wave):
    cfg = EvolutionConfig(dt=0.02, t_final=5.0, stride=50)
    pert = perturbation(wave.field.grid, l2_norm(wave.field), 0.01, seed=7)
    assert l2_norm(pert) == approx(0.01 * l2_norm(wave.field), rel=1e-12)
    rep = stability_experiment(PROB, wave, pert, cfg)
    assert rep.initial_dist > 0
    assert rep.max_dist <= 5 * rep.initial_dist


def test_perturbation_size_gate(wave):
    big = perturbation(wave.field.grid, l2_norm(wave.field), 0.5, seed=1)
    with pytest.raises(ConfigError):
        stability_experiment(PROB, wave, big, EvolutionConfig())
    # a zero profile, which no stored wave can be (a read needs Q = mu > 0)
    zero = replace(wave, field=wave.field * 0.0)
    with pytest.raises(ConfigError) as err:
        stability_experiment(PROB, zero, big * 0.0, EvolutionConfig())
    assert err.value.info["field"] == "profile"


@pytest.mark.parametrize("size", [math.nan, math.inf, -0.05])
def test_non_finite_perturbation_is_refused(wave, size):
    # refused where the size is given, before any noise is drawn or scaled
    with pytest.raises(ConfigError) as err:
        perturbation(wave.field.grid, l2_norm(wave.field), size, seed=1)
    assert err.value.info["field"] == "perturbation"


def test_distances_invariant_under_initial_translation(wave):
    cfg = EvolutionConfig(dt=0.02, t_final=2.0, stride=25)
    a = evolve(PROB, wave.field, cfg, reference=wave.field)
    moved = SpectralField.from_values(wave.field.grid, np.roll(wave.field.values, 17))
    b = evolve(PROB, moved, cfg, reference=wave.field)
    assert np.max(np.abs(a.orbit_dist - b.orbit_dist)) <= 1e-9


def test_under_resolved_start_rejected():
    g = PeriodicGrid(40.0, 64)
    u0 = SpectralField.from_values(g, kdv_profile(g.nodes))
    assert high_mode_ratio(u0) > RESOLVED  # 0.117
    with pytest.raises(ResolutionLoss):
        evolve(PROB, u0, EvolutionConfig(dt=0.01, t_final=1.0))


def assert_drifts_from_zero(trace):
    # a failing run's packed trace has one E and one Q drift per sample,
    # each against the sample at t = 0
    for drift in (trace.e_drift, trace.q_drift):
        assert len(drift) == len(trace.times) and drift[0] == 0.0


def test_run_that_leaves_the_grid_is_resolution_loss():
    # the amp-0.5 pulse steepens out of the grid that resolves it at t = 0:
    # its ratio passes the bound by t = 0.2 and would reach 1.6e-2 at T = 1
    u0 = smooth_pulse(amp=0.5)
    assert high_mode_ratio(u0) <= RESOLVED
    with pytest.raises(ResolutionLoss) as err:
        evolve(PROB, u0, EvolutionConfig(dt=0.0125, t_final=1.0, stride=8))
    info = err.value.info
    assert 0 < info["t"] <= 1.0 and info["ratio"] > RESOLVED
    assert info["trace"].times[-1] == info["t"]
    assert_drifts_from_zero(info["trace"])


def test_blowup_detected():
    u0 = smooth_pulse(amp=0.8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Blowup) as err:
        evolve(PROB, u0, EvolutionConfig(dt=5.0, t_final=50.0, stride=1))
    assert_drifts_from_zero(err.value.info["trace"])


def test_blowup_threshold_scales_with_initial_sup():
    # the linear Whitham flow refocuses a pulse dispersed backward by T = 100:
    # at sup |u0| = 20 the run climbs 3.8-fold to 76.6, far below 1e3 times
    # the initial sup (2e4), though past 1e3 divided by it (50)
    g = PeriodicGrid(400.0, 2048)
    pulse = SpectralField.from_values(g, np.exp(-g.nodes ** 2))
    spread = evolve(whitham(), pulse, EvolutionConfig(dt=0.5, t_final=-100.0, stride=200)).final
    u0 = spread * (20.0 / sup_norm(spread))
    trace = evolve(whitham(), u0, EvolutionConfig(dt=0.5, t_final=100.0, stride=20))
    assert sup_norm(trace.final) == approx(76.6, rel=1e-3)
    assert l2_norm(trace.final - pulse * (20.0 / sup_norm(spread))) <= 1e-10 * l2_norm(u0)


def test_non_finite_field_is_resolution_loss():
    # the same run recorded every fifth step first sees NaN, not finite growth:
    # the step failed, which is no statement about the model
    u0 = smooth_pulse(amp=0.8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ResolutionLoss) as err:
        evolve(PROB, u0, EvolutionConfig(dt=5.0, t_final=50.0, stride=5))
    assert "nan" in str(err.value)
    assert err.value.info["t"] == 25.0
    assert list(err.value.info["trace"].times) == [0.0, 25.0]
    assert_drifts_from_zero(err.value.info["trace"])


def test_evolve_needs_a_problem_or_a_symbol():
    with pytest.raises(TypeError, match="Problem or a DispersionSymbol"):
        evolve(quadratic(), smooth_pulse(), EvolutionConfig(dt=0.1, t_final=0.1))


def test_config_validation():
    with pytest.raises(ConfigError):
        EvolutionConfig(dt=0.0)
    with pytest.raises(ConfigError):
        EvolutionConfig(stride=0)
    bad = [({"dt": math.nan}, "dt"), ({"dt": math.inf}, "dt"), ({"dt": -0.01}, "dt"),
           ({"t_final": math.nan}, "t_final"), ({"t_final": math.inf}, "t_final"),
           ({"t_final": -math.inf}, "t_final"),
           ({"stride": 2.5}, "stride"), ({"stride": True}, "stride"),
           ({"stride": "10"}, "stride"),
           ({"t_final": 1.0, "dt": 0.3}, "t_final"),     # would run to t = 0.9
           ({"t_final": 0.001, "dt": 0.01}, "t_final"),  # less than one step
           ({"t_final": 1e300, "dt": 1e-300}, "t_final"),
           ({"t_final": 1000.0000012, "dt": 1.0}, "t_final")]  # off by 1.2e-9 steps
    for kwargs, field in bad:
        with pytest.raises(ConfigError) as err:
            EvolutionConfig(**kwargs)
        assert err.value.info["field"] == f"evolution.{field}", kwargs
    # whole numbers of steps up to round-off, either direction
    for dt, t_final in [(0.1, 0.3), (0.02, -4.0), (0.02, 0.02 * 80), (1.0, 1000.0000008)]:
        EvolutionConfig(dt=dt, t_final=t_final, stride=np.int64(5))


@pytest.mark.parametrize("name", ["quadratic", "poly:1,0.5", "modulus:2.5,1"])
def test_half_spectrum_flux_matches_grid_transforms(name):
    # a full-band field, Nyquist mode included, so the folded phase, scale,
    # mask and Nyquist slot are all exercised
    g = PeriodicGrid(40.0, 64)
    c = g.to_coeffs(np.random.default_rng(5).standard_normal(g.n))
    assert c[g.n // 2] != 0
    nl = nonlinearity_from_name(name)
    f = Stepper(Problem(whitham(), nl), g, 0.01, c[:g.n // 2 + 1]).flux
    ref = -g.ik * g.dealias_mask * g.to_coeffs(nl.n(g.to_values(c * g.dealias_mask)))
    out = np.empty(g.n // 2 + 1, complex)
    got = f(c[:g.n // 2 + 1], out)
    assert got is out
    assert np.max(np.abs(got - ref[:g.n // 2 + 1])) <= 1e-14 * np.max(np.abs(ref))
    assert got[-1] == 0


def test_final_is_exactly_hermitian(wave):
    cfg = EvolutionConfig(dt=0.02, t_final=1.0, stride=25)
    c = evolve(PROB, wave.field, cfg).final.coeffs
    assert np.array_equal(c, np.conj(c[-wave.field.grid.modes]))


def test_stability_runs_are_bit_identical(wave):
    # back to back, and with another run in between: no work buffer carries
    # state from one run into the next
    cfg = EvolutionConfig(dt=0.02, t_final=2.0, stride=25)
    pert = perturbation(wave.field.grid, l2_norm(wave.field), 0.01, seed=11)

    def run():
        return stability_experiment(PROB, wave, pert, cfg).trace

    a, b = run(), run()
    evolve(Problem(whitham(), nonlinearity_from_name("modulus:2.5,1")),
           smooth_pulse(amp=0.2, decay=0.7), EvolutionConfig(dt=0.01, t_final=1.0, stride=7))
    c = run()
    for other in (b, c):
        for name in ("times", "e_drift", "q_drift", "orbit_dist", "shifts"):
            assert np.array_equal(getattr(a, name), getattr(other, name))
        assert np.array_equal(a.final.coeffs, other.final.coeffs)
    assert a.e_drift[0] == 0.0 and a.q_drift[0] == 0.0


def test_trace_rows(wave):
    cfg = EvolutionConfig(dt=0.02, t_final=0.2, stride=5)
    trace = evolve(PROB, wave.field, cfg, reference=wave.field)
    rows = trace.rows()
    assert set(rows[0]) == {"t", "E_drift", "Q_drift", "orbit_dist", "shift"}
    assert rows[0]["t"] == 0.0
    assert momentum(trace.final) == approx(momentum(wave.field), rel=1e-10)


def reference_flux(system, g):
    """(lam, flux) on the half spectrum, the flux transformed by the public
    numpy.fft rather than the grid's kernels."""
    half = g.n // 2 + 1
    lam = -g.ik[:half] * discretize(system, g).mvals[:half]
    phase = g.dealias_mask[:half] * g.node_phase
    to_vals, to_flux = phase * g.scale, -g.ik[:half] * phase / g.scale

    def flux(c):
        vals = np.fft.irfft(c * to_vals, g.n)
        return to_flux * np.fft.rfft(system.nonlinearity.n(vals))

    return lam, flux


def reference_rk4(system, u0, dt, steps):
    """Plain RK4 on the whole right-hand side lam c + flux(c), out of place:
    unlike IFRK4, the dispersive part sees the Runge-Kutta error too."""
    lam, flux = reference_flux(system, u0.grid)

    def rhs(c):
        return lam * c + flux(c)

    c = u0.coeffs[:u0.grid.n // 2 + 1].copy()
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + (0.5 * dt) * k1)
        k3 = rhs(c + (0.5 * dt) * k2)
        k4 = rhs(c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return c


def reference_ifrk4(system, u0, dt, steps):
    """The IFRK4 formula out of place, one fresh array per stage."""
    lam, flux = reference_flux(system, u0.grid)
    e_half, e_full = np.exp(0.5 * dt * lam), np.exp(dt * lam)
    c = u0.coeffs[:u0.grid.n // 2 + 1].copy()
    for _ in range(steps):
        f1 = flux(c)
        f2 = flux(e_half * (c + (0.5 * dt) * f1))
        f3 = flux(e_half * c + (0.5 * dt) * f2)
        f4 = flux(e_full * c + dt * (e_half * f3))
        c = e_full * c + (dt / 6.0) * (e_full * f1 + 2.0 * e_half * (f2 + f3) + f4)
    return c


@pytest.mark.parametrize("name", ["quadratic", "poly:1,0.5", "modulus:2.5,1",
                                  "oddpower:3,1", "poly:-1", "modulus:2,-0.5"])
def test_buffered_step_matches_reference(name):
    # the in-place step and the buffered flux are the out-of-place formula
    # bit for bit; poly:-1 and modulus:2,-0.5 take the c_p != 1 product
    u0 = smooth_pulse(n=256, amp=0.1, decay=0.5)
    prob = Problem(whitham(), nonlinearity_from_name(name))
    cfg = EvolutionConfig(dt=0.005, t_final=10.0, stride=2000)
    got = evolve(prob, u0, cfg).final.coeffs[:u0.grid.n // 2 + 1]
    ref = reference_ifrk4(prob, u0, cfg.dt, 2000)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["quadratic", "modulus:2.5,1", "poly:1,0.5"])
def test_flux_bits_do_not_depend_on_alignment(name):
    # numpy's vector loops may take another path off a 64-byte boundary; the
    # flux of c into out gives the same bits with both at offsets 0 to 48
    g = PeriodicGrid(800.0, 1024)
    rng = np.random.Generator(np.random.Philox(5))
    half = g.n // 2 + 1
    c0 = 0.01 * (rng.standard_normal(half) + 1j * rng.standard_normal(half))
    f = Stepper(Problem(whitham(), nonlinearity_from_name(name)), g, 0.01, c0).flux
    want = f(aligned(c0), aligned(np.empty_like(c0))).copy()
    size = 64 * (c0.nbytes // 64 + 1)
    buf = aligned(np.empty(2 * size, np.uint8))
    for off in (0, 16, 32, 48):
        c = buf[off:off + c0.nbytes].view(complex)
        out = buf[size + off:size + off + c0.nbytes].view(complex)
        assert c.ctypes.data % 64 == off and out.ctypes.data % 64 == off
        c[...] = c0
        assert f(c, out).tobytes() == want.tobytes()


def _steps_only(name):
    """steps -> evolve over that many steps, recording only t = 0 and the end."""
    prob = Problem(whitham(), nonlinearity_from_name(name))
    u0 = smooth_pulse(n=512, amp=0.1, decay=0.5)
    return lambda steps: evolve(prob, u0, EvolutionConfig(dt=0.005, t_final=0.005 * steps,
                                                          stride=10**9))


@pytest.mark.parametrize("name", ["quadratic", "modulus:2.5,1"])
def test_run_peak_does_not_grow_with_steps(name):
    # a run's peak jitters by a few hundred bytes with the interpreter's free
    # lists, so each side takes the least of three interleaved runs
    run = _steps_only(name)
    run(10)  # the grid's and the transforms' caches are made

    def peak(steps):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            run(steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    short, long = zip(*((peak(10), peak(1000)) for _ in range(3)))
    assert abs(min(long) - min(short)) <= 1024


@pytest.mark.parametrize("name", ["quadratic", "modulus:2.5,1"])
def test_steps_allocate_nothing(name, monkeypatch):
    # the peak is reset as the first record ends (its last call is the
    # resolution ratio) and read as the last one starts (its first call
    # unfolds c): in between, evolve's steps never held more than a few
    # hundred bytes above what was live, less than any work array of N = 512
    run, excess = _steps_only(name), []
    ratio, unfold = evolution.high_mode_ratio, PeriodicGrid.unfold

    def resetting_ratio(u):
        r = ratio(u)
        tracemalloc.reset_peak()
        return r

    def marking_unfold(grid, half):
        current, peak = tracemalloc.get_traced_memory()
        excess.append(peak - current)
        return unfold(grid, half)

    monkeypatch.setattr(evolution, "high_mode_ratio", resetting_ratio)
    monkeypatch.setattr(PeriodicGrid, "unfold", marking_unfold)
    tracemalloc.start()
    try:
        run(1000)
    finally:
        tracemalloc.stop()
    assert len(excess) == 2 and excess[1] < 1024


def _stack(name):
    """A Whitham problem, three distinct pulses at N = 512, and their half
    spectra as one (3, 257) stack."""
    us = [smooth_pulse(n=512, amp=0.05 * (i + 1), decay=0.5 + 0.1 * i) for i in range(3)]
    c = aligned(np.stack([u.coeffs[:257] for u in us]))
    return Problem(whitham(), nonlinearity_from_name(name)), c, us


@pytest.mark.parametrize("name", ["quadratic", "modulus:2.5,1"])
def test_stack_steps_like_each_member_alone(name):
    prob, c, us = _stack(name)
    stepper = Stepper(prob, us[0].grid, 0.005, c)
    for _ in range(400):
        stepper.step(c)
    for row, u in zip(c, us):
        alone = evolve(prob, u, EvolutionConfig(dt=0.005, t_final=2.0, stride=400))
        assert row.tobytes() == alone.final.coeffs[:257].tobytes()


@pytest.mark.parametrize("stacked", [False, True], ids=["K1", "K3"])
@pytest.mark.parametrize("name", ["quadratic", "modulus:2.5,1"])
def test_step_allocates_nothing(name, stacked):
    # one half spectrum, or the stack of three; poly:1,0.5 is left out, as
    # numpy's polyval allocates its Horner terms.  The steps never hold more
    # than a few hundred bytes, less than any work array of N = 512
    prob, c, us = _stack(name)
    c = c if stacked else c[0]
    stepper = Stepper(prob, us[0].grid, 0.005, c)
    tracemalloc.start()
    try:
        for _ in range(10):
            stepper.step(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def _moved(u, shift):
    return SpectralField.from_values(u.grid, np.roll(u.values, shift))


def test_evolution_commutes_with_translation(wave):
    g = wave.field.grid
    u0 = wave.field + perturbation(g, l2_norm(wave.field), 0.05, seed=3)
    cfg = EvolutionConfig(dt=0.02, t_final=10.0, stride=500)
    a = evolve(PROB, _moved(u0, 37), cfg).final
    b = _moved(evolve(PROB, u0, cfg).final, 37)
    assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(u0.values))


def test_evolution_time_reversal(wave):
    g = wave.field.grid
    u0 = wave.field + perturbation(g, l2_norm(wave.field), 0.05, seed=3)
    fwd = evolve(PROB, u0, EvolutionConfig(dt=0.02, t_final=10.0, stride=500))
    back = evolve(PROB, fwd.final, EvolutionConfig(dt=0.02, t_final=-10.0, stride=500))
    assert (np.max(np.abs(back.final.values - u0.values))
            <= 1e-12 * np.max(np.abs(u0.values)))
