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
from hypothesis import given, settings, strategies as st

from solwave.analysis import reduced_reference, scaling_diagnostics
from solwave.cli import (DEFAULT_CONFIG, build_evolution_config, build_problem,
                         build_solve_config, load_config, main)
from solwave.fileio import read_profile
from solwave.functionals import momentum
from solwave.grid import PeriodicGrid, SpectralField
from solwave.longwave import exponents

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


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
    assert meta["supercritical"] is True
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
    rc = main(["validate-symbol", "--name", "whitham", "--k-max", "50",
               "--samples", "2000", "--out", str(tmp_path)])
    assert rc == 0
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


def bad_inputs(d):
    rows = d / "profile_100.csv"  # uniform centred nodes, but not 2^k of them
    rows.write_text("x,u\n" + "".join(f"{j - 50.0!r},0.0\n" for j in range(100)))
    good = "x,u\n" + "".join(f"{j - 8.0!r},0.0\n" for j in range(16))
    full = {"mu": 0.01, "nu": 1.0, "residual": 0.0, "energy": -0.01, "symbol": "whitham",
            "nonlinearity": "quadratic", "iterations": 0, "supercritical": True,
            "P": 16.0, "N": 16, "convention": "unitary-sqrtP"}
    # the last three disagree with the samples or the package's convention
    for name, meta in [("keys", '{"mu": 0.01}'), ("json", "not json"),
                       ("zero", json.dumps(full)), ("mu_text", json.dumps({**full, "mu": "x"})),
                       ("mu_negative", json.dumps({**full, "mu": -1.0})),
                       ("P", json.dumps({**full, "P": 1.0})),
                       ("N", json.dumps({**full, "N": 32})),
                       ("convention", json.dumps({**full, "convention": "something-else"}))]:
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
        "k_max": ("k_max", ["validate-symbol", "--k-max", "0"]),
        "samples": ("samples", ["validate-symbol", "--samples", "8"]),
        # rejected before the sample array is allocated
        "samples_huge": ("samples", ["validate-symbol", "--samples", "10000000000000"]),
        "k_max_text": ("argv", ["validate-symbol", "--k-max", "abc"]),
        "meta_keys": ("meta", ["evolve", "--profile", str(d / "keys" / "profile.csv")]),
        "meta_json": ("meta", ["evolve", "--profile", str(d / "json" / "profile.csv")]),
        "profile_cell": ("profile", ["evolve", "--profile", str(cell)]),
        "profile_nodes": ("profile", ["evolve", "--profile", str(d / "nodes" / "profile.csv")]),
        "steps_fraction": ("evolution.t_final", ["evolve", "--profile", str(cell),
                                       "--T", "1", "--dt", "0.3"]),
    }
    for case, sec in evolution.items():
        cases[case] = (f"evolution.{next(iter(sec))}", [
            "--config", write_config(d, {"evolution": sec}, f"{case}.json"),
            "evolve", "--profile", str(cell)])
    for s in ("-1", "1e-300", "nan", "inf"):
        cases[f"rational_{s}"] = ("problem.symbol",
                                  ["validate-symbol", "--name", f"rational:{s}"])
    typed = {  # id: (config document, command); the field is section.key
        "mu_null": ({"solver": {"mu": None}}, ["solve"]),
        "points_text": ({"grid": {"points": "abc"}}, ["solve"]),
        "dt_text": ({"evolution": {"dt": "abc"}}, ["evolve", "--profile", str(cell)]),
        "scales_text": ({"stability": {"scales": "abc"}}, ["stability", "--profile", str(cell)]),
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
    cases["seed_negative"] = ("stability.seed", ["stability", "--profile", str(cell),
                                                 "--seed", "-1"])
    # rejected before the profile, which is unreadable here, is read: so no
    # member runs, and a scale of 10 % or more is refused before the first
    for s in ("0", "nan", "0.1"):
        cases[f"scale_{s}"] = ("stability.scales", ["stability", "--profile", str(cell),
                                                    "--scale", s])
    for case, scales in (("scales_empty", []), ("scales_oversized", [0.05, 0.2])):
        cases[case] = ("stability.scales", ["--config", write_config(
            d, {"stability": {"scales": scales}}, f"{case}.json"), "stability",
            "--profile", str(cell)])
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
    for key, name, cmd in (("symbol", "nosuch", "validate-symbol"),
                           ("symbol", "nosuch", "solve"),
                           ("nonlinearity", "poly:", "solve")):
        cases[f"{key}_unparsed_{cmd}"] = (f"problem.{key}", ["--config", write_config(
            d, {"problem": {key: name}}, f"{key}_unparsed_{cmd}.json"), cmd])
    for name in ("mu_text", "mu_negative", "P", "N", "convention"):
        cases[f"meta_{name}"] = ("meta", ["evolve", "--profile", str(d / name / "profile.csv")])
    cases["zero_profile"] = ("profile", ["stability", "--profile",
                                         str(d / "zero" / "profile.csv"), "--T", "0.1"])
    # the stored wave is a whitham/quadratic one
    for key, name in (("symbol", "gaussian"), ("nonlinearity", "modulus:2.5,1")):
        cases[f"profile_other_{key}"] = (f"problem.{key}", ["--config", write_config(
            d, {"problem": {key: name}}, f"other_{key}.json"), "evolve",
            "--profile", str(d / "zero" / "profile.csv")])
    return cases


@pytest.mark.parametrize("case", [
    "ball_radius", "penalized", "penalized_flag", "profile", "k_max", "samples",
    "samples_huge", "k_max_text", "meta_keys", "meta_json", "profile_cell",
    "profile_nodes", "steps_fraction", "dt_nan", "t_final_inf", "stride_fraction",
    "rational_-1", "rational_1e-300", "rational_nan", "rational_inf", "mu_null",
    "points_text", "dt_text", "tau_above_1", "scales_text", "points_range", "mu_list_text",
    "seed_negative", "grid_huge_symbol", "grid_huge_mu", "grid_overflow_mu",
    "band_negative", "scale_0", "scale_nan", "scale_0.1", "scales_empty",
    "scales_oversized", "period_scale_zero",
    "step_init_nan", "polarity_default", "integrator_default", "symbol_number",
    "symbol_unparsed_validate-symbol", "symbol_unparsed_solve",
    "nonlinearity_unparsed_solve", "meta_mu_text", "meta_mu_negative", "meta_P", "meta_N",
    "meta_convention", "zero_profile", "profile_other_symbol", "profile_other_nonlinearity"])
def test_bad_input_fails_closed(tmp_path, capsys, case):
    field, argv = bad_inputs(tmp_path)[case]
    rc = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err

    def reject(name):
        raise ValueError(f"non-finite number {name} in the error line")

    # strict JSON: a non-finite value is written as null
    line = json.loads(err.strip().splitlines()[-1], parse_constant=reject)
    assert line["error"] == "CONFIG" and line["field"] == field
    if case == "dt_nan":
        assert line["value"] is None


def test_profile_problem_compares_normalised_names(tmp_path):
    from solwave.fileio import read_profile, write_field_csv
    from solwave.grid import PeriodicGrid, SpectralField
    g = PeriodicGrid(40.0, 64)
    write_field_csv(tmp_path / "profile.csv",
                    SpectralField.from_values(g, np.exp(-g.nodes ** 2)))
    (tmp_path / "meta.json").write_text(json.dumps({
        "mu": 1.0, "nu": 1.0, "residual": 0.0, "energy": -1.0, "symbol": "rational:2",
        "nonlinearity": "modulus:2.5,1", "iterations": 0, "supercritical": True,
        "P": 40.0, "N": 64, "convention": "unitary-sqrtP"}))
    cfg = load_config(write_config(tmp_path, {"problem": {
        "symbol": "rational:2.0", "nonlinearity": "modulus:2.50,1.0"}}))
    prof = read_profile(tmp_path / "profile.csv", build_problem(cfg))
    assert (prof.symbol, prof.nonlinearity) == ("rational:2", "modulus:2.5,1")


def test_profile_round_trips_through_its_files(tmp_path):
    from dataclasses import fields
    from solwave.fileio import read_profile, write_profile
    from solwave.solver import SolveConfig, minimize_constrained
    prob = build_problem(load_config(None))
    prof = minimize_constrained(prob, SolveConfig(mu=1e-2))
    write_profile(tmp_path / "profile_007.csv", prof)
    assert (tmp_path / "meta_007.json").exists()
    back = read_profile(tmp_path / "profile_007.csv", prob)
    assert back.field.grid == prof.field.grid
    assert back.field.values.tobytes() == prof.field.values.tobytes()
    for f in fields(prof):
        if f.name != "field":
            assert getattr(back, f.name) == getattr(prof, f.name), f.name


def test_unresolved_solve_is_resolution_loss(tmp_path, capsys):
    # past the small-momentum regime the descent converges to a field with
    # weight at the top of the kept band, which no grid resolves
    rc = main(["solve", "--mu", "0.1", "--out", str(tmp_path / "o")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RESOLUTION_LOSS"
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
    stride = build_evolution_config(cfg).stride
    assert stride == 50 and type(stride) is int


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


def test_sweep_outside_the_long_wave_frame_is_grid_mismatch(tmp_path, capsys):
    # a fixed period cannot hold every mu of a sweep in one long-wave frame
    cfg = write_config(tmp_path, {"grid": {"period": 80.0, "points": 1024}})
    rc = main(["--config", cfg, "sweep", "--mu-list", "1e-2,5e-2", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "GRID_MISMATCH"


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
        cfg = load_config(str(path))
        build_problem(cfg)
        build_solve_config(cfg)
        build_evolution_config(cfg)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    # the automatic grids differ (N = 4096 and 2048), so the reference's
    # max-N rule and each scaled wave's own N are both visible
    rc = main(["sweep", "--mu-list", "1e-3,1e-2", "--out", str(out)])
    assert rc == 0
    return out


def test_sweep_outputs(sweep_dir):
    sweep = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "mu,P,N,nu,energy,residual,tail,iters"
    assert len(sweep) == 3
    conv = (sweep_dir / "convergence.csv").read_text().splitlines()
    assert conv[0] == ("mu,dist_aligned,speed_dev,energy_dev,shift,"
                       "tau_ratio1,tau_ratio2,supnorm_ratio")
    assert (sweep_dir / "profiles" / "profile_000.csv").exists()
    assert (sweep_dir / "profiles" / "meta_001.json").exists()


def test_diagnostics_file_writes_the_high_band_floor(sweep_dir):
    lines = (sweep_dir / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "mu,tau_ratio2,high_band_floor"
    conv = (sweep_dir / "convergence.csv").read_text().splitlines()[1:]
    prob = build_problem(load_config(None))
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
    for rel in ("sweep.csv", "convergence.csv", "profiles/profile_000.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_compare_kdv_on_sweep(sweep_dir, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare-kdv", "--sweep-dir", str(sweep_dir), "--out", str(out)])
    assert rc == 0
    fresh = (out / "convergence.csv").read_bytes()
    original = (sweep_dir / "convergence.csv").read_bytes()
    assert fresh == original
    # wave NNN on the reduced reference's period: mu^-alpha u(mu^-beta x), momentum Q(u)/mu
    prob = build_problem(load_config(None))
    alpha = exponents(prob.symbol.j_star, prob.nonlinearity.p).alpha
    profiles = [read_profile(p, prob)
                for p in sorted((sweep_dir / "profiles").glob("profile_*.csv"))]
    assert [p.field.grid.n for p in profiles] == [4096, 2048]
    ref = reduced_reference(prob, profiles).field.grid
    assert ref.n == 4096  # the most points of any wave
    frame = ref.period
    scaled = sorted((out / "scaled").glob("scaled_*.csv"))
    assert [p.name for p in scaled] == [f"scaled_{i:03d}.csv" for i in range(len(profiles))]
    for path, prof in zip(scaled, profiles):
        grid = PeriodicGrid(frame, prof.field.grid.n)  # the wave's own N
        x, w = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert np.array_equal(x, grid.nodes)
        assert np.array_equal(w, prof.mu ** -alpha * prof.field.values)
        field = SpectralField.from_values(grid, w)
        assert momentum(field) == pytest.approx(momentum(prof.field) / prof.mu, rel=1e-12)


def test_compare_kdv_needs_every_meta(sweep_dir, tmp_path, capsys):
    src = tmp_path / "sweep"
    shutil.copytree(sweep_dir, src)
    (src / "profiles" / "meta_001.json").unlink()
    rc = main(["compare-kdv", "--sweep-dir", str(src), "--out", str(tmp_path / "cmp")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "CONFIG"


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
    write_field_csv(tmp_path / "profile.csv",
                    SpectralField.from_values(g, 0.8 / np.cosh(1.5 * g.nodes) ** 2))
    (tmp_path / "meta.json").write_text(json.dumps({
        "mu": 1.0, "nu": 1.0, "residual": 0.0, "energy": -1.0, "symbol": "whitham",
        "nonlinearity": "quadratic", "iterations": 0, "supercritical": True,
        "P": 40.0, "N": 512, "convention": "unitary-sqrtP"}))
    cfg = write_config(tmp_path, {"evolution": {"dt": 5.0, "t_final": 50.0, "stride": 5}})
    return ["--config", cfg, "evolve", "--profile", str(tmp_path / "profile.csv"),
            "--out", str(tmp_path / "o")]


def test_evolve_nan_is_resolution_loss(tmp_path, capsys):
    # exit 3 (resolution), not 2 (model regime)
    argv = nan_evolve_argv(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"), pytest.warns(RuntimeWarning):
        rc = main(argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err

    def reject(name):
        raise ValueError(f"non-finite number {name} in the error line")

    line = json.loads(err.strip().splitlines()[-1], parse_constant=reject)
    assert line["error"] == "RESOLUTION_LOSS" and line["t"] == 25.0


def test_failing_run_stderr_has_no_numpy_warnings(tmp_path):
    # a fresh interpreter, since pytest captures warnings: the NaN run prints
    # the advisory dt warning and its JSON error line, and no overflow or
    # invalid-value warning from numpy
    run = subprocess.run([sys.executable, "-m", "solwave.cli", *nan_evolve_argv(tmp_path)],
                         env=src_env(), capture_output=True, text=True)
    assert run.returncode == 3
    lines = run.stderr.strip().splitlines()
    assert json.loads(lines[-1])["error"] == "RESOLUTION_LOSS"
    warned = [line for line in lines if "Warning:" in line]
    assert len(warned) == 1 and "advisory advective bound" in warned[0]
    assert "overflow" not in run.stderr and "invalid value" not in run.stderr


def test_stability_command(sweep_dir, tmp_path):
    out = tmp_path / "st"
    rc = main(["stability", "--profile", str(sweep_dir / "profiles" / "profile_001.csv"),
               "--scale", "0.01", "--T", "1.0", "--dt", "0.02",
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"][0]["seed"] == 42
    assert summary["runs"][0]["ratio"] >= 0


@pytest.mark.parametrize("command, flags, echoed, outputs", [
    ("solve", ["--mu", "1e-2"], {"solver": {"mu": 1e-2}}, ["profile.csv", "meta.json"]),
    ("sweep", ["--mu-list", "4e-3,1e-2"], {"sweep": {"mu_list": [4e-3, 1e-2]}},
     ["sweep.csv", "convergence.csv", "profiles/profile_001.csv"]),
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
    assert rc != 0


NAN, INF = float("nan"), float("inf")

# configs of small runs: the grid points, the iteration cap and the time
# horizon are always set, and every evolution takes at most 100 steps
FUZZ_VALID = {
    "problem": {"symbol": ["whitham", "gaussian", "rational:2", "rational:0.6"],
                "nonlinearity": ["quadratic", "poly:1,0.5", "modulus:2.5,1",
                                 "oddpower:3,1", "modulus:4.9,1", "poly:-1",
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
    ("problem", "nonlinearity", ["poly:", "modulus:x", None, 2]),
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
                             "iterations", "supercritical", "P", "N", "convention")
        for v in ("x", None, NAN, -1.0, True, "drop")]))

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
        [["--name", "gaussian"], ["--name", "rational:1.5"], ["--k-max", "20"]]), max_size=2)))


@settings(max_examples=100, deadline=None)
@given(fuzz_configs, fuzz_profiles, fuzz_commands)
def test_cli_fails_closed_on_generated_input(config, profile, command):
    # whatever the config, profile and command: a documented exit code, no
    # traceback, and a failure ends stderr with one strict-JSON line
    doc, points, max_iter, t_final, bad = config
    doc.setdefault("grid", {})["points"] = points
    doc.setdefault("solver", {})["max_iter"] = max_iter
    doc.setdefault("evolution", {})["t_final"] = t_final
    if bad is not None:
        sec, key, value = bad
        doc.setdefault(sec, {})[key] = value
    n, period, amp, bad_profile = profile
    # the stored wave belongs to the configured problem unless a bad entry says
    # otherwise; the sampled names are already normalised
    problem = {"symbol": "whitham", "nonlinearity": "quadratic", **doc.get("problem", {})}
    meta = {"mu": 1e-2, "nu": 1.01, "residual": 0.0, "energy": -1e-2,
            "symbol": problem["symbol"], "nonlinearity": problem["nonlinearity"],
            "iterations": 0, "supercritical": True, "P": period, "N": n,
            "convention": "unitary-sqrtP"}
    if bad_profile is not None:
        key, value = bad_profile
        if key == "n":
            n = value
        elif key == "amp":
            amp = value
        elif value == "drop":
            del meta[key]
        else:
            meta[key] = value
    name, extra = command
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "profiles").mkdir()
        x = -0.5 * period + (period / n) * np.arange(n)
        u = amp * np.exp(-(x / 3) ** 2)
        (d / "profiles" / "profile_000.csv").write_text(
            "x,u\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, u)))
        (d / "profiles" / "meta_000.json").write_text(json.dumps(meta))
        argv = ["--config", write_config(d, doc), name, *(a for pair in extra for a in pair)]
        if name in ("evolve", "stability"):
            argv += ["--profile", str(d / "profiles" / "profile_000.csv")]
        if name == "compare-kdv":
            argv += ["--sweep-dir", str(d)]
        if name == "validate-symbol":
            argv += ["--samples", "200"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the advisory dt warning
            rc = main([*argv, "--out", str(d / "out")])
    assert rc in (0, 1, 2, 3)
    text = err.getvalue()
    assert "Traceback" not in text
    if rc != 0:
        def reject(name):
            raise ValueError(f"non-finite number {name} in the error line")

        line = json.loads(text.strip().splitlines()[-1], parse_constant=reject)
        assert isinstance(line["error"], str)
