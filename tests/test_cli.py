"""Command-line contract: files, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solwave.analysis import (convergence_rows, convergence_study, reduced_reference,
                              scaling_diagnostics)
from solwave.cli import DEFAULT_CONFIG, Run, load_config, main
from solwave.errors import ConfigError
from solwave.evolution import EvolutionConfig
from solwave.fileio import _META, read_profile, write_csv, write_profile
from solwave.functionals import momentum
from solwave.grid import PeriodicGrid, SpectralField
from solwave.longwave import exponents
from solwave.nonlinearity import NONLINEARITIES
from solwave.solver import SolveConfig, minimize_constrained
from solwave.symbols import SYMBOLS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def last_error_line(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    rc = main(["solve", "--mu", "1e-2", "--out", str(out)])
    assert rc == 0
    return out


def test_solve_outputs(solved_dir):
    assert (solved_dir / "profile.csv").exists()
    assert not (solved_dir / "profile.spectral.csv").exists()
    meta = json.loads((solved_dir / "meta.json").read_text())
    assert meta["nu"] > 1.0 and "supercritical" not in meta
    assert meta["convention"] == "unitary-sqrtP"
    manifest = json.loads((solved_dir / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["config"]["solver"]["mu"] == 1e-2


def test_missing_symbol_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": {"symbol": ""}})
    rc = main(["--config", cfg, "solve", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "CONFIG"
    assert "problem.symbol" in err["message"] or err.get("field") == "problem.symbol"


def test_unknown_config_key_fails_closed(tmp_path, capsys):
    cfg = write_config(tmp_path, {"solver": {"mu": 1e-3, "typo_key": 1}})
    rc = main(["--config", cfg, "solve", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "typo_key" in err["message"]
    cfg2 = write_config(tmp_path, {"nosuchsection": {}}, "cfg2.json")
    assert main(["--config", cfg2, "solve", "--out", str(tmp_path / "o")]) == 1


def test_validate_symbol_command(tmp_path, capsys):
    rc = main(["validate-symbol", "--name", "whitham", "--out", str(tmp_path)])
    assert rc == 0
    # the report is all it writes: validate-symbol has no manifest
    assert [p.name for p in tmp_path.iterdir()] == ["symbol_report.json"]
    report = json.loads((tmp_path / "symbol_report.json").read_text())
    assert report["passed"] is True
    assert any(c["name"] == "NO_STRICT_MAX" for c in report["checks"])
    assert main(["validate-symbol", "--name", "nosuch"]) == 1


def test_failed_symbol_is_json_error(capsys):
    rc = main(["validate-symbol", "--name", "rational:200"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SYMBOL_INVALID"
    assert err["check"] == "TAYLOR_MISMATCH" and err["k"] == 0.0


REFUSED_NONLINEARITIES = ("oddpower:3.5,1", "oddpower:3.9,2", "oddpower:3,inf",
                          "modulus:2.5,nan", "modulus:2.5,inf", "poly:nan", "poly:1,nan",
                          "poly:1,inf")


OFF_MU = ("rounded", "scaled")


@pytest.fixture(scope="module")
def off_mu_dir(tmp_path_factory):
    """The default problem's wave at mu = 1e-2 stored as a sweep stores it, its
    samples then replaced by ones whose momentum is no longer its mu: rounded
    to six digits (``rounded/``), and scaled by 1e300 (``scaled/``)."""
    d = tmp_path_factory.mktemp("off_mu")
    wave = minimize_constrained(Run(load_config(None)).problem, SolveConfig(mu=1e-2))
    u = wave.field.values
    for name, v in zip(OFF_MU, ([float(f"{x:.6g}") for x in u], 1e300 * u)):
        stored = d / name / "profiles" / "profile_000.csv"
        write_profile(stored, wave)
        write_csv(stored, ["x", "u"], zip(wave.field.grid.nodes, v))
    return d


def bad_inputs(d, off_mu_dir):
    rows = d / "profile_100.csv"  # uniform centred nodes, but not 2^k of them
    rows.write_text("x,u\n" + "".join(f"{j - 50.0!r},0.0\n" for j in range(100)))
    good = "x,u\n" + "".join(f"{j - 8.0!r},0.0\n" for j in range(16))
    full = {"mu": 0.01, "nu": 1.01, "residual": 0.0, "energy": -0.01, "symbol": "whitham",
            "nonlinearity": "quadratic", "iterations": 0,
            "P": 16.0, "N": 16, "convention": "unitary-sqrtP"}
    # the last three disagree with the samples or the package's convention
    for name, meta in [("keys", '{"mu": 0.01}'), ("json", "not json"),
                       ("zero", json.dumps(full)), ("mu_text", json.dumps({**full, "mu": "x"})),
                       ("mu_negative", json.dumps({**full, "mu": -1.0})),
                       ("P", json.dumps({**full, "P": 1.0})),
                       ("N", json.dumps({**full, "N": 32})),
                       ("convention", json.dumps({**full, "convention": "something-else"})),
                       # values no writer leaves
                       ("residual_negative", json.dumps({**full, "residual": -1.0})),
                       ("iterations_negative", json.dumps({**full, "iterations": -5})),
                       # a wave the speed gate refused is never stored: nu < m(0) = 1
                       ("subcritical", json.dumps({**full, "nu": 0.99})),
                       # an integer beyond the double range
                       ("nu_huge", json.dumps({**full, "nu": 10**400})),
                       ("array", json.dumps([full]))]:
        (d / name).mkdir()
        (d / name / "profile.csv").write_text(good)
        (d / name / "meta.json").write_text(meta)
    nodes = [j - 8.0 for j in range(16)]  # rows 5 and 12 swapped, row 7 far off
    nodes[5], nodes[12], nodes[7] = nodes[12], nodes[5], 12345.0
    (d / "nodes").mkdir()
    (d / "nodes" / "profile.csv").write_text("x,u\n" + "".join(f"{x!r},0.0\n" for x in nodes))
    (d / "nodes" / "meta.json").write_text(json.dumps(full))
    cell = d / "profile_cell.csv"
    cell.write_text("x,u\n-8,abc\n")
    evolution = {"dt_nan": {"dt": float("nan")}, "t_final_inf": {"t_final": float("inf")},
                 "stride_fraction": {"stride": 2.5}}
    cases = {  # id: (field, argv)
        "profile": ("profile", ["evolve", "--profile", str(rows)]),
        "meta_keys": ("meta", ["evolve", "--profile", str(d / "keys" / "profile.csv")]),
        "meta_json": ("meta", ["evolve", "--profile", str(d / "json" / "profile.csv")]),
        "profile_cell": ("profile", ["evolve", "--profile", str(cell)]),
        "profile_nodes": ("profile", ["evolve", "--profile", str(d / "nodes" / "profile.csv")]),
        "steps_fraction": ("evolution.t_final", ["evolve", "--profile", str(cell),
                                       "--T", "1", "--dt", "0.3"]),
    }
    # well-formed pairs whose samples fail the resolution rule, which every
    # reading command refuses: a bump with a grid-scale ripple, and a bump so
    # tall that its spectrum overflows
    g = PeriodicGrid(40.0, 64)
    bump = np.exp(-(g.nodes / 4.0) ** 2)
    for name, u in (("ripple", bump + 1e-5 * (-1.0) ** np.arange(g.n)),
                    ("overflow", 1e308 * bump)):
        stored = d / name / "profiles" / "profile_000.csv"
        stored.parent.mkdir(parents=True)
        write_csv(stored, ["x", "u"], zip(g.nodes, u))
        (stored.parent / "meta_000.json").write_text(json.dumps({**full, "P": 40.0, "N": 64}))
    # every reading command refuses these two and off_mu_dir's pairs, whose
    # samples' momentum is not their meta's mu
    for name in ("ripple", "overflow", *OFF_MU):
        src = (off_mu_dir if name in OFF_MU else d) / name
        stored = src / "profiles" / "profile_000.csv"
        for cmd in (["compare-kdv", "--sweep-dir", str(src)],
                    ["evolve", "--profile", str(stored)], ["stability", "--profile", str(stored)]):
            cases[f"{name}_{cmd[0]}"] = ("profile", cmd)
    for case, sec in evolution.items():
        cases[case] = (f"evolution.{next(iter(sec))}", [
            "--config", write_config(d, {"evolution": sec}, f"{case}.json"),
            "evolve", "--profile", str(cell)])
    for s in ("-1", "1e-300", "1e-320", "nan", "inf"):
        cases[f"rational_{s}"] = ("problem.symbol",
                                  ["validate-symbol", "--name", f"rational:{s}"])
    typed = {  # id: (config document, command); the field is section.key
        "mu_null": ({"solver": {"mu": None}}, ["solve"]),
        "points_text": ({"grid": {"points": "abc"}}, ["solve"]),
        "dt_text": ({"evolution": {"dt": "abc"}}, ["evolve", "--profile", str(cell)]),
        "scales_text": ({"stability": {"scales": "abc"}}, ["stability", "--profile", str(cell)]),
        # integers beyond the double range
        "mu_huge": ({"solver": {"mu": 10**400}}, ["solve"]),
        "points_huge": ({"grid": {"points": 10**400}}, ["solve"]),
        "seed_huge": ({"stability": {"seed": 10**400}}, ["stability", "--profile", str(cell)]),
        "mu_list_huge": ({"sweep": {"mu_list": [1e-3, 10**400]}}, ["sweep"]),
    }
    for case, (doc, cmd) in typed.items():
        (section, sec), = doc.items()
        cases[case] = (f"{section}.{next(iter(sec))}",
                       ["--config", write_config(d, doc, f"{case}.json"), *cmd])
    cases["points_range"] = ("grid.points", ["--config", write_config(
        d, {"grid": {"points": 1000}}, "points_range.json"), "solve"])
    cases["mu_list_text"] = ("argv", ["sweep", "--mu-list", "abc"])
    cases["grid_huge_symbol"] = ("grid.points", ["--config", write_config(
        d, {"problem": {"symbol": "rational:0.02"}}, "grid_huge_symbol.json"),
        "solve", "--mu", "1e-3"])
    cases["grid_huge_mu"] = ("grid.points", ["solve", "--mu", "1e300"])
    cases["grid_overflow_mu"] = ("solver.mu", ["--config", write_config(
        d, {"problem": {"nonlinearity": "modulus:4.9,1"}}, "grid_overflow_mu.json"),
        "solve", "--mu", "1e-30"])
    # configs/stability.json's grid, where the long-wave speed gap nu_lw mu^gamma
    # is within round-off of m(0) = 1: no speed there is apart from m(0)
    for mu in ("1e-24", "1e-30", "1e-300"):
        cases[f"speed_gap_{mu}"] = ("solver.mu", ["--config", write_config(
            d, {"grid": {"period": 800.0, "points": 1024}}, "speed_gap.json"),
            "solve", "--mu", mu])
    for case, seed in (("seed_negative", "-1"), ("seed_flag_huge", "1" + "0" * 400)):
        cases[case] = ("stability.seed", ["stability", "--profile", str(cell), "--seed", seed])
    # rejected before the profile, which is unreadable here, is read: so no
    # member runs, and a scale of 10 % or more is refused before the first
    for s in ("0", "nan", "0.1"):
        cases[f"scale_{s}"] = ("stability.scales", ["stability", "--profile", str(cell),
                                                    "--scale", s])
    for case, scales in (("scales_empty", []), ("scales_oversized", [0.05, 0.2])):
        cases[case] = ("stability.scales", ["--config", write_config(
            d, {"stability": {"scales": scales}}, f"{case}.json"), "stability",
            "--profile", str(cell)])
    # a config file that cannot be read, or is not a JSON object of objects
    (d / "config_bytes.json").write_bytes(b"\xff\xfe{}")
    for case, path in (("config_missing", d / "nope.json"), ("config_directory", d),
                       ("config_bytes", d / "config_bytes.json"),
                       ("config_array", write_config(d, [], "config_array.json"))):
        cases[case] = ("config", ["--config", str(path), "solve"])
    cases["section_not_object"] = ("solver", ["--config", write_config(
        d, {"solver": 1e-3}, "section_not_object.json"), "solve"])
    (d / "empty_sweep").mkdir()
    cases["sweep_without_profiles"] = ("sweep-dir", ["compare-kdv", "--sweep-dir",
                                                     str(d / "empty_sweep")])
    # retired keys: unknown at any value
    cases["ball_radius"] = ("problem.ball_radius", ["--config", write_config(
        d, {"problem": {"ball_radius": 1.0}}), "solve"])
    cases["penalized"] = ("solver.penalized", ["--config", write_config(
        d, {"solver": {"penalized": False}}, "penalized.json"), "solve"])
    cases["penalized_flag"] = ("argv", ["solve", "--penalized"])
    cases["tau_above_1"] = ("sweep.tau", ["--config", write_config(
        d, {"sweep": {"tau": 1.5}}, "tau_above_1.json"), "sweep"])
    cases["band_negative"] = ("stability.band", ["--config", write_config(
        d, {"stability": {"band": -3}}, "band_negative.json"), "stability",
        "--profile", str(cell)])
    cases["period_scale_zero"] = ("grid.period_scale", ["--config", write_config(
        d, {"grid": {"period_scale": 0.0}}, "period_scale_zero.json"), "solve"])
    cases["step_init_nan"] = ("solver.step_init", ["--config", write_config(
        d, {"solver": {"step_init": float("nan")}}, "step_init_nan.json"), "solve"])
    cases["polarity_default"] = ("solver.polarity", ["--config", write_config(
        d, {"solver": {"polarity": 1}}, "polarity_default.json"), "solve"])
    cases["integrator_default"] = ("evolution.integrator", ["--config", write_config(
        d, {"evolution": {"integrator": "ifrk4"}}, "integrator_default.json"),
        "evolve", "--profile", str(cell)])
    cases["symbol_number"] = ("problem.symbol", ["--config", write_config(
        d, {"problem": {"symbol": 3}}, "symbol_number.json"), "validate-symbol"])
    # a name the parser rejects: the error names the config field it came from
    for case, key, name, cmd in (
            ("symbol_unparsed_validate-symbol", "symbol", "nosuch", "validate-symbol"),
            ("symbol_unparsed_solve", "symbol", "nosuch", "solve"),
            ("symbol_value_text", "symbol", "rational:x", "solve"),
            ("symbol_value_count", "symbol", "whitham:1", "solve"),
            ("nonlinearity_unknown", "nonlinearity", "nosuch", "solve"),
            ("nonlinearity_unparsed_solve", "nonlinearity", "poly:", "solve"),
            ("nonlinearity_value_count", "nonlinearity", "modulus:2.5", "solve")):
        cases[case] = (f"problem.{key}", ["--config", write_config(
            d, {"problem": {key: name}}, f"{case}.json"), cmd])
    for name in ("mu_text", "mu_negative", "P", "N", "convention", "residual_negative",
                 "iterations_negative", "subcritical", "nu_huge", "array"):
        cases[f"meta_{name}"] = ("meta", ["evolve", "--profile", str(d / name / "profile.csv")])
    cases["zero_profile"] = ("profile", ["stability", "--profile",
                                         str(d / "zero" / "profile.csv"), "--T", "0.1"])
    # a fractional odd power or a non-finite coefficient is refused when the
    # nonlinearity is built, before any descent could turn it into a NaN
    for name in REFUSED_NONLINEARITIES:
        cases[f"nonlinearity_{name}"] = ("problem.nonlinearity", ["--config", write_config(
            d, {"problem": {"nonlinearity": name}, "grid": {"points": 256}},
            f"nonlinearity_{name}.json"), "solve", "--mu", "1e-2"])
    # the stored wave is a whitham/quadratic one
    for key, name in (("symbol", "gaussian"), ("nonlinearity", "modulus:2.5,1")):
        cases[f"profile_other_{key}"] = (f"problem.{key}", ["--config", write_config(
            d, {"problem": {key: name}}, f"other_{key}.json"), "evolve",
            "--profile", str(d / "zero" / "profile.csv")])
    return cases


@pytest.mark.parametrize("case", [
    "ball_radius", "penalized", "penalized_flag", "profile", "meta_keys", "meta_json",
    "profile_cell", "profile_nodes", "steps_fraction", "dt_nan", "t_final_inf", "stride_fraction",
    "rational_-1", "rational_1e-300", "rational_1e-320", "rational_nan", "rational_inf",
    "config_missing", "config_directory", "config_bytes", "config_array",
    "section_not_object", "sweep_without_profiles", "mu_null",
    "points_text", "dt_text", "tau_above_1", "scales_text", "points_range", "mu_list_text",
    "mu_huge", "points_huge", "seed_huge", "mu_list_huge", "seed_flag_huge",
    "seed_negative", "grid_huge_symbol", "grid_huge_mu", "grid_overflow_mu",
    "speed_gap_1e-24", "speed_gap_1e-30", "speed_gap_1e-300",
    "band_negative", "scale_0", "scale_nan", "scale_0.1", "scales_empty",
    "scales_oversized", "period_scale_zero",
    "step_init_nan", "polarity_default", "integrator_default", "symbol_number",
    "symbol_unparsed_validate-symbol", "symbol_unparsed_solve", "symbol_value_text",
    "symbol_value_count", "nonlinearity_unknown", "nonlinearity_unparsed_solve",
    "nonlinearity_value_count", "meta_mu_text", "meta_mu_negative", "meta_P", "meta_N",
    "meta_convention", "meta_residual_negative", "meta_iterations_negative",
    "meta_subcritical", "meta_nu_huge", "meta_array", "zero_profile",
    *(f"{name}_{cmd}" for name in ("ripple", "overflow", *OFF_MU)
      for cmd in ("compare-kdv", "evolve", "stability")),
    "profile_other_symbol", "profile_other_nonlinearity",
    *(f"nonlinearity_{name}" for name in REFUSED_NONLINEARITIES)])
def test_bad_input_fails_closed(tmp_path, capsys, off_mu_dir, case):
    field, argv = bad_inputs(tmp_path, off_mu_dir)[case]
    rc = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert not (tmp_path / "o").exists()
    assert "Traceback" not in err

    def reject(name):
        raise ValueError(f"non-finite number {name} in the error line")

    # one strict-JSON line and nothing before it: a non-finite value is null
    [line] = err.strip().splitlines()
    line = json.loads(line, parse_constant=reject)
    assert line["error"] == "CONFIG" and line["field"] == field
    if case == "dt_nan":
        assert line["value"] is None


MOTIVATING = {"evolution": {"dt": "abc", "stride": -3}, "stability": {"scales": "x", "seed": -1}}


@pytest.mark.parametrize("doc, command, field", [
    ({"evolution": {"dt": "abc"}}, ["sweep"], "evolution.dt"),
    ({"stability": {"seed": -1}}, ["solve"], "stability.seed"),
    ({"stability": {"scales": [0.5]}}, ["evolve", "--profile", "nope.csv"], "stability.scales"),
    ({"sweep": {"mu_list": "x"}}, ["validate-symbol"], "sweep.mu_list"),
    ({"problem": {"nonlinearity": "poly:"}}, ["validate-symbol"], "problem.nonlinearity"),
    *[(MOTIVATING, command, "evolution.dt") for command in (
        ["solve"], ["sweep"], ["compare-kdv", "--sweep-dir", "."], ["validate-symbol"],
        ["evolve", "--profile", "nope.csv"], ["stability", "--profile", "nope.csv"])]],
    ids=["sweep_dt", "solve_seed", "evolve_scales", "validate_mu_list",
         "validate_nonlinearity", *(f"motivating_{c}" for c in (
             "solve", "sweep", "compare-kdv", "validate-symbol", "evolve", "stability"))])
def test_every_command_checks_the_whole_config(tmp_path, capsys, doc, command, field):
    # a value no command of this kind reads is still refused, before any
    # profile (here a missing one) is read or any file written
    out = tmp_path / "o"
    rc = main(["--config", write_config(tmp_path, doc), *command, "--out", str(out)])
    assert rc == 1
    line = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert line["error"] == "CONFIG" and line["field"] == field
    assert not out.exists()


def test_profile_problem_compares_normalised_names(tmp_path):
    from solwave.fileio import read_profile, write_field_csv
    from solwave.grid import PeriodicGrid, SpectralField
    g = PeriodicGrid(40.0, 64)
    u = SpectralField.from_values(g, np.exp(-(g.nodes / 4.0) ** 2))
    write_field_csv(tmp_path / "profile.csv", u)
    (tmp_path / "meta.json").write_text(json.dumps({
        "mu": momentum(u), "nu": 1.01, "residual": 0.0, "energy": -1.0, "symbol": "rational:2",
        "nonlinearity": "modulus:2.5,1", "iterations": 0,
        "P": 40.0, "N": 64, "convention": "unitary-sqrtP"}))
    cfg = load_config(write_config(tmp_path, {"problem": {
        "symbol": "rational:2.0", "nonlinearity": "modulus:2.50,1.0"}}))
    prof = read_profile(tmp_path / "profile.csv", Run(cfg).problem)
    assert (prof.symbol, prof.nonlinearity) == ("rational:2", "modulus:2.5,1")


def test_profile_keeps_every_digit_of_its_problem(tmp_path, capsys):
    # {:g} would name both problems poly:1,0.123457 and let the one read the other's wave
    out = tmp_path / "w"
    cfg = write_config(tmp_path, {"problem": {"nonlinearity": "poly:1,0.12345678"}}, "a.json")
    assert main(["--config", cfg, "solve", "--mu", "1e-2", "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["nonlinearity"] == "poly:1,0.12345678"
    capsys.readouterr()
    cfg = write_config(tmp_path, {"problem": {"nonlinearity": "poly:1,0.123457"}}, "b.json")
    rc = main(["--config", cfg, "evolve", "--profile", str(out / "profile.csv"),
               "--out", str(tmp_path / "e")])
    assert rc == 1
    line = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert line["error"] == "CONFIG" and line["field"] == "problem.nonlinearity"


def test_profile_round_trips_through_its_files(tmp_path):
    from dataclasses import fields
    from solwave.fileio import read_profile, write_profile
    from solwave.solver import SolveConfig, minimize_constrained
    prob = Run(load_config(None)).problem
    prof = minimize_constrained(prob, SolveConfig(mu=1e-2))
    write_profile(tmp_path / "profile_007.csv", prof)
    assert (tmp_path / "meta_007.json").exists()
    back = read_profile(tmp_path / "profile_007.csv", prob)
    assert back.field.grid == prof.field.grid
    assert back.field.values.tobytes() == prof.field.values.tobytes()
    for f in fields(prof):
        if f.name != "field":
            assert getattr(back, f.name) == getattr(prof, f.name), f.name
    # a key no longer written, such as the retired "supercritical", is ignored;
    # a speed at m(0) is one no solve certifies
    meta_path = tmp_path / "meta_007.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "supercritical": True}))
    assert read_profile(tmp_path / "profile_007.csv", prob).speed == prof.speed
    meta_path.write_text(json.dumps({**meta, "nu": prob.symbol.m_zero}))
    with pytest.raises(ConfigError) as err:
        read_profile(tmp_path / "profile_007.csv", prob)
    assert err.value.info["field"] == "meta"


def test_unresolved_solve_is_resolution_loss(tmp_path, capsys):
    # past the small-momentum regime the descent converges to a field with
    # weight at the top of the kept band, which no grid resolves
    rc = main(["solve", "--mu", "0.1", "--out", str(tmp_path / "o")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RESOLUTION_LOSS"
    # a failed command writes no manifest
    for name in ("profile.csv", "manifest.json"):
        assert not (tmp_path / "o" / name).exists(), name


@pytest.mark.parametrize("doc, mu, code, rc, iterations", [
    ({"solver": {"max_iter": 3}}, "1e-4", "MAX_ITER", 3, 3),
    # on 16 points the cubic descent at mu = 0.3 stalls at residual 9.7e-11
    ({"problem": {"nonlinearity": "oddpower:3,1"}, "grid": {"points": 16},
      "solver": {"tol_residual": 1e-16}}, "0.3", "MU_TOO_LARGE", 2, 44)],
    ids=["max_iter", "line_search"])
def test_descent_failure_reports_its_iterations(tmp_path, capsys, doc, mu, code, rc,
                                                iterations):
    cfg = write_config(tmp_path, doc)
    assert main(["--config", cfg, "solve", "--mu", mu, "--out", str(tmp_path / "o")]) == rc
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == code and err["iterations"] == iterations
    assert f"{err['residual']:.3e}" in err["message"]


def test_overflowing_descent_is_an_iteration_failure(tmp_path, capsys):
    # c_p = 1e308 overflows the first gradient: the iteration failed, so the
    # exit is 3 and not a model-regime verdict on a residual of inf
    cfg = write_config(tmp_path, {"problem": {"nonlinearity": "modulus:2.5,1e308"},
                                  "grid": {"points": 256}})
    assert main(["--config", cfg, "solve", "--mu", "1e-2", "--out", str(tmp_path / "o")]) == 3

    def reject(name):
        raise ValueError(f"non-finite number {name} in the error line")

    err = json.loads(capsys.readouterr().err, parse_constant=reject)
    assert err["error"] == "NO_CONVERGENCE" and err["iterations"] == 0
    assert err["residual"] is None and "residual inf" in err["message"]
    assert not (tmp_path / "o" / "profile.csv").exists()


def test_solved_wave_evolves(tmp_path):
    # solve and evolve check the same resolution rule: a wave the solve
    # certifies is one the evolution starts from
    cfg = write_config(tmp_path, {"problem": {"symbol": "rational:2"}, "grid": {"points": 128}})
    assert main(["--config", cfg, "solve", "--mu", "1e-3", "--out", str(tmp_path / "s")]) == 0
    assert main(["--config", cfg, "evolve", "--profile", str(tmp_path / "s" / "profile.csv"),
                 "--T", "1", "--out", str(tmp_path / "e")]) == 0


def test_whole_float_stride_is_an_integer(tmp_path):
    cfg = load_config(write_config(tmp_path, {"evolution": {"stride": 50.0}}))
    stride = Run(cfg).evolution.stride
    assert stride == 50 and type(stride) is int


def test_default_config_is_the_library_defaults():
    run = Run(load_config(None))
    assert run.solve == SolveConfig()
    assert run.evolution == EvolutionConfig() == EvolutionConfig(dt=0.01, t_final=20.0,
                                                                 stride=50)


def test_readme_lists_the_default_config():
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("Sections and defaults:", 1)[1].split("```json", 1)[1]
    assert json.loads(block.split("```", 1)[0]) == DEFAULT_CONFIG


def test_readme_layout_names_every_module():
    # a module added or deleted without its Layout bullet fails here
    readme = (CONFIGS.parent / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `src/solwave/(\w+\.py)`", layout, flags=re.M)
    modules = {p.name for p in (CONFIGS.parent / "src" / "solwave").glob("*.py")}
    assert sorted(listed) == sorted(modules - {"__init__.py"})


def test_readme_lists_every_meta_key():
    # a key added to or dropped from fileio's meta.json table without its README entry fails here
    readme = (CONFIGS.parent / "README.md").read_text()
    listed = re.search(r"^- `meta\.json`: `\{([^}]*)\}`", readme, flags=re.M).group(1)
    assert sorted(key.strip() for key in listed.split(",")) == sorted(_META)


def test_readme_names_every_kind_the_parser_reads():
    # a kind added to or dropped from a parser table without its README entry fails here
    readme = (CONFIGS.parent / "README.md").read_text()
    listed = dict(re.findall(r"^- `(problem\.\w+)`: (.*)$", readme, flags=re.M))
    tables = {"problem.symbol": SYMBOLS, "problem.nonlinearity": NONLINEARITIES}
    assert sorted(listed) == sorted(tables)
    for field, table in tables.items():
        kinds = [name.partition(":")[0] for name in re.findall(r"`([^`]*)`", listed[field])]
        assert sorted(kinds) == sorted(table), field


def test_sweep_outside_the_long_wave_frame_is_grid_mismatch(tmp_path, capsys):
    # a fixed period cannot hold every mu of a sweep in one long-wave frame:
    # the sweep solves and writes its waves, the long-wave comparison refuses them
    cfg = write_config(tmp_path, {"grid": {"period": 80.0, "points": 1024}})
    out = tmp_path / "o"
    rc = main(["--config", cfg, "sweep", "--mu-list", "1e-2,5e-2", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    capsys.readouterr()
    rc = main(["--config", cfg, "compare-kdv", "--sweep-dir", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "GRID_MISMATCH"
    assert not (out / "convergence.csv").exists()


def src_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter: the top-level packages that importing the CLI adds
    # are solwave, numpy and the standard library
    probe = ("import sys; before = set(sys.modules); import solwave.cli; "
             "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'solwave'}))")
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_shipped_configs_load():
    # a key renamed or removed later fails here, without running the studies
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        Run(load_config(str(path)))


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    # the automatic grids differ (N = 4096 and 2048), so the reference's
    # max-N rule and each scaled wave's own N are both visible
    rc = main(["sweep", "--mu-list", "1e-3,1e-2", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def compare_dir(sweep_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    rc = main(["compare-kdv", "--sweep-dir", str(sweep_dir), "--out", str(out)])
    assert rc == 0
    return out


def test_sweep_outputs(sweep_dir):
    sweep = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "mu,P,N,nu,energy,residual,tail,iters"
    assert len(sweep) == 3
    # the long-wave comparison is compare-kdv's
    assert not (sweep_dir / "convergence.csv").exists()
    assert not (sweep_dir / "diagnostics.csv").exists()
    assert (sweep_dir / "profiles" / "profile_000.csv").exists()
    assert (sweep_dir / "profiles" / "meta_001.json").exists()


def test_diagnostics_file_writes_the_high_band_floor(sweep_dir, compare_dir):
    lines = (compare_dir / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "mu,tau_ratio2,high_band_floor"
    conv = (compare_dir / "convergence.csv").read_text().splitlines()[1:]
    prob = Run(load_config(None)).problem
    for i, (line, conv_line) in enumerate(zip(lines[1:], conv, strict=True)):
        mu, ratio, floor = map(float, line.split(","))
        rec = scaling_diagnostics(prob, read_profile(
            sweep_dir / "profiles" / f"profile_{i:03d}.csv", prob))
        assert (mu, ratio, floor) == (rec.mu, rec.high_band_ratio, rec.high_band_floor)
        assert ratio == float(conv_line.split(",")[6])  # tau_ratio2


def test_sweep_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["sweep", "--mu-list", "1e-2", "--out", str(out)]) == 0
        assert main(["compare-kdv", "--sweep-dir", str(out)]) == 0
    for rel in ("sweep.csv", "profiles/profile_000.csv", "convergence.csv",
                "diagnostics.csv", "scaled/scaled_000.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_compare_kdv_on_sweep(sweep_dir, compare_dir):
    prob = Run(load_config(None)).problem
    profiles = [read_profile(p, prob)
                for p in sorted((sweep_dir / "profiles").glob("profile_*.csv"))]
    assert [p.field.grid.n for p in profiles] == [4096, 2048]
    reference = reduced_reference(prob, profiles)
    # every cell, against the library on the stored profiles; %.17g round-trips
    records = [scaling_diagnostics(prob, p) for p in profiles]
    tables = {"convergence.csv": convergence_rows(
                  convergence_study(prob, profiles, reference), records),
              "diagnostics.csv": [{"mu": r.mu, "tau_ratio2": r.high_band_ratio,
                                   "high_band_floor": r.high_band_floor} for r in records]}
    for name, rows in tables.items():
        header, *lines = (compare_dir / name).read_text().splitlines()
        assert header.split(",") == list(rows[0]), name
        for line, row in zip(lines, rows, strict=True):
            assert [float(c) for c in line.split(",")] == list(row.values()), name
    # wave NNN on the reduced reference's period: mu^-alpha u(mu^-beta x), momentum Q(u)/mu
    alpha = exponents(prob.symbol.j_star, prob.nonlinearity.p).alpha
    ref = reference.field.grid
    assert ref.n == 4096  # the most points of any wave
    frame = ref.period
    scaled = sorted((compare_dir / "scaled").glob("scaled_*.csv"))
    assert [p.name for p in scaled] == [f"scaled_{i:03d}.csv" for i in range(len(profiles))]
    for path, prof in zip(scaled, profiles):
        grid = PeriodicGrid(frame, prof.field.grid.n)  # the wave's own N
        x, w = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(x, grid.nodes)
        assert np.array_equal(w, prof.mu ** -alpha * prof.field.values)
        field = SpectralField.from_values(grid, w)
        assert momentum(field) == pytest.approx(momentum(prof.field) / prof.mu, rel=1e-12)
    # the manifest goes into --out, and the sweep directory keeps only its own
    manifest = json.loads((compare_dir / "manifest_compare.json").read_text())
    assert manifest["command"] == "compare-kdv"
    assert not (sweep_dir / "manifest_compare.json").exists()
    assert json.loads((sweep_dir / "manifest.json").read_text())["command"] == "sweep"


def test_compare_kdv_writes_into_the_sweep_by_default(sweep_dir, tmp_path):
    # with no --out the tables, scaled waves and manifest_compare.json join the
    # sweep's own files, which stay as they were
    src = tmp_path / "sweep"
    shutil.copytree(sweep_dir, src)
    before = {p: p.read_bytes() for p in src.rglob("*") if p.is_file()}
    assert main(["compare-kdv", "--sweep-dir", str(src)]) == 0
    for name in ("convergence.csv", "diagnostics.csv", "scaled/scaled_000.csv",
                 "scaled/scaled_001.csv", "manifest_compare.json"):
        assert (src / name).exists(), name
    assert json.loads((src / "manifest_compare.json").read_text())["command"] == "compare-kdv"
    assert json.loads((src / "manifest.json").read_text())["command"] == "sweep"
    for path, data in before.items():
        assert path.read_bytes() == data, path


def test_compare_kdv_needs_every_meta(sweep_dir, tmp_path, capsys):
    src = tmp_path / "sweep"
    shutil.copytree(sweep_dir, src)
    (src / "profiles" / "meta_001.json").unlink()
    rc = main(["compare-kdv", "--sweep-dir", str(src), "--out", str(tmp_path / "cmp")])
    assert rc == 1
    line = last_error_line(capsys)
    assert line["error"] == "CONFIG" and line["field"] == "meta"
    assert "meta_001.json" in line["message"]


def test_evolve_command(sweep_dir, tmp_path):
    out = tmp_path / "ev"
    rc = main(["evolve", "--profile", str(sweep_dir / "profiles" / "profile_001.csv"),
               "--T", "1.0", "--dt", "0.02", "--out", str(out)])
    assert rc == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,E_drift,Q_drift,orbit_dist,shift"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["speed_error"] < 1e-4


def nan_evolve_argv(tmp_path):
    """An evolve command whose time step is so large that the field turns NaN
    before the first record past t = 0."""
    from solwave.fileio import write_field_csv
    from solwave.grid import PeriodicGrid, SpectralField
    g = PeriodicGrid(40.0, 512)
    u = SpectralField.from_values(g, 0.8 / np.cosh(1.5 * g.nodes) ** 2)
    write_field_csv(tmp_path / "profile.csv", u)
    (tmp_path / "meta.json").write_text(json.dumps({
        "mu": momentum(u), "nu": 1.01, "residual": 0.0, "energy": -1.0, "symbol": "whitham",
        "nonlinearity": "quadratic", "iterations": 0,
        "P": 40.0, "N": 512, "convention": "unitary-sqrtP"}))
    cfg = write_config(tmp_path, {"evolution": {"dt": 5.0, "t_final": 50.0, "stride": 5}})
    return ["--config", cfg, "evolve", "--profile", str(tmp_path / "profile.csv"),
            "--out", str(tmp_path / "o")]


def test_evolve_nan_is_resolution_loss(tmp_path, capsys):
    # exit 3 (resolution), not 2 (model regime)
    argv = nan_evolve_argv(tmp_path)
    rc = main(argv)
    assert rc == 3
    err = capsys.readouterr().err

    def reject(name):
        raise ValueError(f"non-finite number {name} in the error line")

    [line] = err.strip().splitlines()
    line = json.loads(line, parse_constant=reject)
    assert line["error"] == "RESOLUTION_LOSS" and line["t"] == 25.0


@pytest.mark.parametrize("case", ["nan_run", "large_step"])
def test_stderr_is_one_json_line_or_nothing(tmp_path, request, case):
    # a fresh interpreter, since pytest captures warnings: the NaN run writes
    # its JSON error line and nothing else, no numpy overflow or invalid-value
    # warning among it; a resolved wave stepped at dt = 0.16 writes nothing
    if case == "nan_run":
        argv, code = nan_evolve_argv(tmp_path), 3
    else:
        profile = request.getfixturevalue("sweep_dir") / "profiles" / "profile_001.csv"
        argv, code = ["evolve", "--profile", str(profile), "--dt", "0.16",
                      "--out", str(tmp_path / "o")], 0
    run = subprocess.run([sys.executable, "-m", "solwave.cli", *argv],
                         env=src_env(), capture_output=True, text=True)
    assert run.returncode == code
    if code:
        def reject(name):
            raise ValueError(f"non-finite number {name} in the error line")

        [line] = run.stderr.splitlines()
        assert json.loads(line, parse_constant=reject)["error"] == "RESOLUTION_LOSS"
    else:
        assert run.stderr == ""


def test_stability_command(sweep_dir, tmp_path):
    out = tmp_path / "st"
    rc = main(["stability", "--profile", str(sweep_dir / "profiles" / "profile_001.csv"),
               "--scale", "0.01", "--T", "1.0", "--dt", "0.02",
               "--seed", "0", "--out", str(out)])
    assert rc == 0  # a seed is nonnegative, so 0 is a seed like any other
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["seed"] == 0
    assert summary["runs"][0]["ratio"] >= 0


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_failing_stdout_is_one_json_error_line(capsys):
    # an OSError outside the commands' own checks, here a reader that went
    # away, still ends in exit 1 and one strict-JSON line on stderr
    with contextlib.redirect_stdout(_ClosedPipe()):
        rc = main(["validate-symbol"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0], parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    assert err == {"error": "CONFIG", "message": "[Errno 32] Broken pipe"}


@pytest.mark.parametrize("command, flags, echoed, outputs", [
    ("solve", ["--mu", "1e-2"], {"solver": {"mu": 1e-2}}, ["profile.csv", "meta.json"]),
    ("sweep", ["--mu-list", "4e-3,1e-2"], {"sweep": {"mu_list": [4e-3, 1e-2]}},
     ["sweep.csv", "profiles/profile_001.csv"]),
    ("evolve", ["--T", "1", "--dt", "0.02"], {"evolution": {"t_final": 1.0, "dt": 0.02}},
     ["trace.csv", "final.csv"]),
    ("stability", ["--scale", "0.01", "--seed", "42", "--T", "1"],
     {"stability": {"scales": [0.01], "seed": 42}, "evolution": {"t_final": 1.0}},
     ["trace_000.csv", "summary.json"]),
], ids=["solve", "sweep", "evolve", "stability"])
def test_manifest_echoes_every_flag_and_reruns(sweep_dir, tmp_path, command, flags,
                                               echoed, outputs):
    # each flag sets its config key; the manifest's config, run with no
    # flags, writes the same files byte for byte
    profile = []
    if command in ("evolve", "stability"):
        profile = ["--profile", str(sweep_dir / "profiles" / "profile_001.csv")]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, *flags, *profile, "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    for section, keys in echoed.items():
        for key, value in keys.items():
            assert config[section][key] == value, f"{section}.{key}"
    assert main(["--config", write_config(tmp_path, config), command, *profile,
                 "--out", str(again)]) == 0
    for name in outputs:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_bad_profile_path(tmp_path, capsys):
    rc = main(["evolve", "--profile", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    line = last_error_line(capsys)
    assert line["error"] == "CONFIG" and line["field"] == "profile"
    assert not (tmp_path / "o").exists()


# the library call that does each command's work
WORK = {"solve": "minimize_constrained", "sweep": "continuation_sweep",
        "compare-kdv": "convergence_study", "evolve": "travel_test",
        "stability": "stability_experiment", "validate-symbol": "validate_symbol"}


@pytest.mark.parametrize("case, field", [
    ("profile_directory", "profile"), ("meta_directory", "meta"),
    ("solve_out_under_file", "out"), ("sweep_out_under_file", "out"),
    ("compare_out_under_file", "out"), ("evolve_out_under_file", "out"),
    ("stability_out_under_file", "out"), ("validate_out_under_file", "out")])
def test_file_failures_name_their_field(sweep_dir, tmp_path, capsys, monkeypatch, case, field):
    # a file the system will not open or create is a config error on the
    # flag or the file that named it, like every other bad input, found
    # before the command's work starts
    (tmp_path / "file").write_text("")
    under_file = str(tmp_path / "file" / "x")
    wave = tmp_path / "wave"
    wave.mkdir()
    (wave / "profile.csv").write_text("x,u\n" + "".join(f"{j - 8.0!r},0.0\n"
                                                       for j in range(16)))
    (wave / "meta.json").mkdir()
    good = str(sweep_dir / "profiles" / "profile_001.csv")
    argv = {"profile_directory": ["evolve", "--profile", str(tmp_path),
                                  "--out", str(tmp_path / "o")],
            "meta_directory": ["evolve", "--profile", str(wave / "profile.csv"),
                               "--out", str(tmp_path / "o")],
            "solve_out_under_file": ["solve", "--mu", "1e-2", "--out", under_file],
            "sweep_out_under_file": ["sweep", "--out", under_file],
            "compare_out_under_file": ["compare-kdv", "--sweep-dir", str(sweep_dir),
                                       "--out", under_file],
            "evolve_out_under_file": ["evolve", "--profile", good, "--out", under_file],
            "stability_out_under_file": ["stability", "--profile", good, "--out", under_file],
            "validate_out_under_file": ["validate-symbol", "--out", under_file]}[case]
    work = WORK[argv[0]]
    monkeypatch.setattr(f"solwave.cli.{work}", lambda *a, **k: pytest.fail(f"{work} ran"))
    assert main(argv) == 1
    line = last_error_line(capsys)
    assert line["error"] == "CONFIG" and line["field"] == field
    assert not (tmp_path / "o").exists()
    assert (tmp_path / "file").read_text() == ""


NAN, INF = float("nan"), float("inf")

# configs of small runs: the grid points, the iteration cap and the time
# horizon are always set, and every evolution takes at most 100 steps
FUZZ_VALID = {
    "problem": {"symbol": ["whitham", "gaussian", "rational:2", "rational:0.6"],
                "nonlinearity": ["quadratic", "poly:1,0.5", "modulus:2.5,1",
                                 "oddpower:3,1", "modulus:3.5,1", "poly:-1",
                                 "modulus:2.5,-1"]},
    "grid": {"period": [None, 20.0, 80.0, 400.0]},
    "solver": {"mu": [1e-2, 5e-2, 0.3, 1e-3], "tol_residual": [1e-6, 1e-10]},
    "evolution": {"dt": [0.01, 0.05, 0.5, 5.0], "stride": [1, 7]},
    "sweep": {"mu_list": [[1e-2], [1e-2, 5e-2]]},
    "stability": {"scales": [[0.01], [0.02, 0.05]], "seed": [0, 7]},
}
# values the CLI must reject; at most one replaces a value of a generated config
FUZZ_INVALID = [(sec, key, v) for sec, key, values in [
    ("problem", "symbol", ["rational:x", "nosuch", "", 3, None]),
    ("problem", "nonlinearity", ["poly:", "modulus:x", None, 2, "oddpower:3.5,1",
                                 "modulus:2.5,nan", "poly:1,inf"]),
    ("problem", "ball_radius", [1.0]),  # retired keys: unknown at any value
    ("grid", "points", [100, 0, 2.0, 1e9, "64"]),
    ("grid", "period", [0.0, -5.0, NAN, INF]),
    ("grid", "period_scale", [80.0]),
    ("solver", "mu", [0.0, -1.0, NAN, INF, "x", 1e300, 1e-30]),
    ("solver", "max_iter", [0, 2.5, True]),
    ("solver", "tol_residual", [0.0, INF]),
    ("solver", "step_init", [1.0]),
    ("solver", "step_shrink", [0.5]),
    ("solver", "armijo", [1e-4]),
    ("solver", "penalized", [False]),
    ("solver", "polarity", [1]),
    ("solver", "seed_profile", ["kdv"]),
    ("solver", "typo", [1]),
    ("evolution", "dt", [0.0, -0.1, NAN]),
    ("evolution", "t_final", [0.0, INF, NAN]),
    ("evolution", "integrator", ["ifrk4"]),
    ("evolution", "dealias", [True]),
    ("evolution", "stride", [0, 2.5]),
    ("sweep", "mu_list", [[], [0.0], "abc", [NAN], [5e-2, 1e-2]]),
    ("sweep", "tau", [0.9]),
    ("stability", "scales", [[], [NAN], "x", [0.5], [0.0], [-0.01], [0.05, 0.2], [0.1]]),
    ("stability", "seed", [-1, 2.5]),
    ("stability", "band", [32]),
    ("nosuch", "key", [1]),
] for v in values]

fuzz_configs = st.tuples(
    st.fixed_dictionaries({}, optional={
        sec: st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in keys.items()})
        for sec, keys in FUZZ_VALID.items()}),
    st.sampled_from([16, 32, 64, 128]), st.sampled_from([1, 3, 20, 60]),
    st.sampled_from([0.2, 1.0, -0.5]), st.none() | st.sampled_from(FUZZ_INVALID))

# a Gaussian profile and its metadata, with at most one bad entry
fuzz_profiles = st.tuples(
    st.sampled_from([16, 64, 128]), st.sampled_from([40.0, 80.0]), st.floats(-1.5, 1.5),
    st.none() | st.sampled_from([("n", 100), ("amp", NAN), ("amp", 1e200)] + [
        (key, v) for key in ("mu", "nu", "residual", "energy", "symbol", "nonlinearity",
                             "iterations", "P", "N", "convention")
        for v in ("x", None, NAN, -1.0, True, "drop")] + [("mu", "off")]))

fuzz_commands = st.one_of(
    st.tuples(st.just("solve"), st.lists(st.sampled_from(
        [["--mu", "1e-2"], ["--mu", "nan"], ["--penalized"]]), max_size=2)),
    st.tuples(st.just("sweep"), st.lists(st.sampled_from(
        [["--mu-list", "1e-2,5e-2"], ["--mu-list", "1e-2,x"]]), max_size=1)),
    st.tuples(st.just("compare-kdv"), st.just([])),
    st.tuples(st.just("evolve"), st.lists(st.sampled_from(
        [["--T", "0.5"], ["--dt", "0.05"], ["--T", "-0.2"]]), max_size=2)),
    st.tuples(st.just("stability"), st.lists(st.sampled_from(
        [["--scale", "0.02"], ["--seed", "3"], ["--T", "0.2"], ["--dt", "0.1"]]), max_size=3)),
    st.tuples(st.just("validate-symbol"), st.lists(st.sampled_from(
        [["--name", "gaussian"], ["--name", "rational:1.5"]]), max_size=1)))

# a file the system refuses: a missing --profile, or an --out under a regular file
fuzz_files = st.sampled_from([None, "missing_profile", "out_under_file"])


@settings(max_examples=100, deadline=None)
@given(fuzz_configs, fuzz_profiles, fuzz_commands, fuzz_files)
# a long-wave speed gap below round-off of m(0), on configs/stability.json's grid
@example(({"grid": {"period": 800.0}}, 1024, 20, 1.0, ("solver", "mu", 1e-30)),
         (16, 40.0, 1.0, None), ("solve", []), None)
def test_cli_fails_closed_on_generated_input(config, profile, command, files):
    # whatever the config, profile, command and files: a documented exit code,
    # no Python warning, nothing on stderr after a success and one strict-JSON
    # line after a failure, which names the field of a config error
    doc, points, max_iter, t_final, bad = config
    doc.setdefault("grid", {})["points"] = points
    doc.setdefault("solver", {})["max_iter"] = max_iter
    doc.setdefault("evolution", {})["t_final"] = t_final
    if bad is not None:
        sec, key, value = bad
        doc.setdefault(sec, {})[key] = value
    n, period, amp, bad_profile = profile

    def samples(n, amp):
        x = -0.5 * period + (period / n) * np.arange(n)
        return x, amp * np.exp(-(x / 3) ** 2)

    # the stored wave belongs to the configured problem, and its momentum (by
    # the trapezoid rule) is meta's mu, unless a bad entry says otherwise; the
    # sampled names are already normalised
    problem = {"symbol": "whitham", "nonlinearity": "quadratic", **doc.get("problem", {})}
    meta = {"mu": 0.5 * (period / n) * float(np.sum(samples(n, amp)[1] ** 2)),
            "nu": 1.01, "residual": 0.0, "energy": -1e-2,
            "symbol": problem["symbol"], "nonlinearity": problem["nonlinearity"],
            "iterations": 0, "P": period, "N": n,
            "convention": "unitary-sqrtP"}
    if bad_profile is not None:
        key, value = bad_profile
        if key == "n":
            n = value
        elif key == "amp":
            amp = value
        elif value == "drop":
            del meta[key]
        elif value == "off":  # as samples rounded to six digits leave it
            meta[key] *= 1 + 1e-6
        else:
            meta[key] = value
    name, extra = command
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "profiles").mkdir()
        x, u = samples(n, amp)
        (d / "profiles" / "profile_000.csv").write_text(
            "x,u\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, u)))
        (d / "profiles" / "meta_000.json").write_text(json.dumps(meta))
        profile_path, out = d / "profiles" / "profile_000.csv", d / "out"
        if files == "missing_profile":
            profile_path = d / "nope.csv"
        elif files == "out_under_file":
            (d / "file").write_text("")
            out = d / "file" / "out"
        argv = ["--config", write_config(d, doc), name, *(a for pair in extra for a in pair)]
        if name in ("evolve", "stability"):
            argv += ["--profile", str(profile_path)]
        if name == "compare-kdv":
            argv += ["--sweep-dir", str(d)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--out", str(out)])
    assert rc in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    text = err.getvalue()
    if rc == 0:
        assert text == ""
    else:
        def reject(name):
            raise ValueError(f"non-finite number {name} in the error line")

        [line] = text.splitlines()
        line = json.loads(line, parse_constant=reject)
        assert isinstance(line["error"], str)
        if line["error"] == "CONFIG":
            assert isinstance(line.get("field"), str), line
    # the example above alone: no generated config has period 800, and a
    # generated one may give --mu, which overrides the config's mu
    if (name, bad, files, doc["grid"].get("period")) == (
            "solve", ("solver", "mu", 1e-30), None, 800.0):
        assert rc == 1 and line["field"] == "solver.mu"
