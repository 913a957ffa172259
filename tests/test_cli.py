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
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PROB, error_line
from solwave.analysis import (convergence_rows, convergence_study, reduced_reference,
                              scaling_diagnostics)
from solwave.cli import DEFAULT_CONFIG, Run, load_config, main
from solwave.errors import ConfigError
from solwave.evolution import EvolutionConfig
from solwave.fileio import _META, read_profile, write_csv, write_field_csv, write_profile
from solwave.functionals import momentum
from solwave.grid import PeriodicGrid, SpectralField
from solwave.longwave import exponents
from solwave.nonlinearity import NONLINEARITIES
from solwave.solver import SolveConfig
from solwave.symbols import SYMBOLS

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
NAN, INF = float("nan"), float("inf")


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def assert_refused(argv, field, out, capsys):
    """``argv`` exits 1 on a config error naming ``field``, and writes no ``out``."""
    assert main([*argv, "--out", str(out)]) == 1
    line = error_line(capsys.readouterr().err)
    assert line["error"] == "CONFIG" and line["field"] == field
    assert not out.exists()
    return line


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    rc = main(["solve", "--mu", "1e-2", "--out", str(out)])
    assert rc == 0
    return out


def test_validate_symbol_command(tmp_path):
    rc = main(["validate-symbol", "--name", "whitham", "--out", str(tmp_path)])
    assert rc == 0
    # the report is all it writes: validate-symbol has no manifest
    assert [p.name for p in tmp_path.iterdir()] == ["symbol_report.json"]
    report = json.loads((tmp_path / "symbol_report.json").read_text())
    assert report["passed"] is True
    assert any(c["name"] == "NO_STRICT_MAX" for c in report["checks"])


FULL_META = {"mu": 0.01, "nu": 1.01, "residual": 0.0, "energy": -0.01, "symbol": "whitham",
             "nonlinearity": "quadratic", "iterations": 0,
             "P": 16.0, "N": 16, "convention": "unitary-sqrtP"}
# the meta.json beside each directory's 16-point zero profile; "zero" is well
# formed, and "P", "N" and "convention" disagree with the samples or the
# package's convention
METAS = {"keys": {"mu": 0.01}, "json": "not json", "zero": FULL_META,
         "mu_text": {**FULL_META, "mu": "x"}, "mu_negative": {**FULL_META, "mu": -1.0},
         "P": {**FULL_META, "P": 1.0}, "N": {**FULL_META, "N": 32},
         "convention": {**FULL_META, "convention": "something-else"},
         # values no writer leaves
         "residual_negative": {**FULL_META, "residual": -1.0},
         "iterations_negative": {**FULL_META, "iterations": -5},
         # a wave the speed gate refused is never stored: nu < m(0) = 1
         "subcritical": {**FULL_META, "nu": 0.99},
         # an integer beyond the double range
         "nu_huge": {**FULL_META, "nu": 10**400}, "array": [FULL_META]}
# well-formed stored waves that every reading command refuses: a bump with a
# grid-scale ripple and one so tall that its spectrum overflows fail the
# resolution rule; the mu = 1e-2 wave's samples rounded to six digits or
# scaled by 1e300 no longer have its meta's mu as their momentum
UNREADABLE = ("ripple", "overflow", "rounded", "scaled")
REFUSED_NONLINEARITIES = ("oddpower:3.5,1", "oddpower:3.9,2", "oddpower:3,inf",
                          "modulus:2.5,nan", "modulus:2.5,inf", "poly:nan", "poly:1,nan",
                          "poly:1,inf")
CELL = "profile_cell.csv"  # unreadable: a row that names it fails before the read
ZERO = "zero/profile.csv"

# every exit-1 refusal: id -> (the field its error names, the --config
# document or None, the command line); paths are relative to bad_dir
BAD_INPUTS = {
    "profile": ("profile", None, ["evolve", "--profile", "profile_100.csv"]),
    "profile_missing": ("profile", None, ["evolve", "--profile", "nope.csv"]),
    "profile_cell": ("profile", None, ["evolve", "--profile", CELL]),
    "profile_nodes": ("profile", None, ["evolve", "--profile", "nodes/profile.csv"]),
    **{f"meta_{name}": ("meta", None, ["evolve", "--profile", f"{name}/profile.csv"])
       for name in METAS if name != "zero"},
    "zero_profile": ("profile", None, ["stability", "--profile", ZERO, "--T", "0.1"]),
    **{f"{name}_{cmd[0]}": ("profile", None, cmd) for name in UNREADABLE for cmd in (
        ["compare-kdv", "--sweep-dir", name],
        ["evolve", "--profile", f"{name}/profiles/profile_000.csv"],
        ["stability", "--profile", f"{name}/profiles/profile_000.csv"])},
    # the stored wave is a whitham/quadratic one
    "profile_other_symbol": ("problem.symbol", {"problem": {"symbol": "gaussian"}},
                             ["evolve", "--profile", ZERO]),
    "profile_other_nonlinearity": ("problem.nonlinearity", {"problem": {
        "nonlinearity": "modulus:2.5,1"}}, ["evolve", "--profile", ZERO]),
    # a perturbation lost in the wave's round-off leaves no initial distance
    "scale_lost": ("stability.scales", None, ["stability", "--profile",
                                              "wave/profiles/profile_000.csv",
                                              "--scale", "1e-300", "--T", "0.1"]),
    "sweep_without_profiles": ("sweep-dir", None, ["compare-kdv", "--sweep-dir", "empty"]),
    "steps_fraction": ("evolution.t_final", None, ["evolve", "--profile", CELL,
                                                   "--T", "1", "--dt", "0.3"]),
    "dt_nan": ("evolution.dt", {"evolution": {"dt": NAN}}, ["evolve", "--profile", CELL]),
    "t_final_inf": ("evolution.t_final", {"evolution": {"t_final": INF}},
                    ["evolve", "--profile", CELL]),
    "stride_fraction": ("evolution.stride", {"evolution": {"stride": 2.5}},
                        ["evolve", "--profile", CELL]),
    **{f"rational_{s}": ("problem.symbol", None, ["validate-symbol", "--name", f"rational:{s}"])
       for s in ("-1", "1e-300", "1e-320", "nan", "inf")},
    "mu_null": ("solver.mu", {"solver": {"mu": None}}, ["solve"]),
    "points_text": ("grid.points", {"grid": {"points": "abc"}}, ["solve"]),
    "dt_text": ("evolution.dt", {"evolution": {"dt": "abc"}}, ["evolve", "--profile", CELL]),
    "scales_text": ("stability.scales", {"stability": {"scales": "abc"}},
                    ["stability", "--profile", CELL]),
    # integers beyond the double range
    "mu_huge": ("solver.mu", {"solver": {"mu": 10**400}}, ["solve"]),
    "points_huge": ("grid.points", {"grid": {"points": 10**400}}, ["solve"]),
    "seed_huge": ("stability.seed", {"stability": {"seed": 10**400}},
                  ["stability", "--profile", CELL]),
    "mu_list_huge": ("sweep.mu_list", {"sweep": {"mu_list": [1e-3, 10**400]}}, ["sweep"]),
    "seed_flag_huge": ("stability.seed", None, ["stability", "--profile", CELL,
                                                "--seed", "1" + "0" * 400]),
    "seed_negative": ("stability.seed", None, ["stability", "--profile", CELL, "--seed", "-1"]),
    "points_range": ("grid.points", {"grid": {"points": 1000}}, ["solve"]),
    "mu_list_text": ("argv", None, ["sweep", "--mu-list", "abc"]),
    "grid_huge_symbol": ("grid.points", {"problem": {"symbol": "rational:0.02"}},
                         ["solve", "--mu", "1e-3"]),
    "grid_huge_mu": ("grid.points", None, ["solve", "--mu", "1e300"]),
    "grid_overflow_mu": ("solver.mu", {"problem": {"nonlinearity": "modulus:4.9,1"}},
                         ["solve", "--mu", "1e-30"]),
    "speed_overflow_mu": ("solver.mu", {"problem": {"nonlinearity": "modulus:2.5,1"},
                                        "grid": {"points": 16}}, ["solve", "--mu", "1e300"]),
    # configs/stability.json's grid, where the long-wave speed gap nu_lw mu^gamma
    # is within round-off of m(0) = 1: no speed there is apart from m(0)
    **{f"speed_gap_{mu}": ("solver.mu", {"grid": {"period": 800.0, "points": 1024}},
                           ["solve", "--mu", mu]) for mu in ("1e-24", "1e-30", "1e-300")},
    # rejected before the profile is read, so no member runs, and a scale of
    # 10 % or more is refused before the first
    **{f"scale_{s}": ("stability.scales", None, ["stability", "--profile", CELL, "--scale", s])
       for s in ("0", "nan", "0.1")},
    **{case: ("stability.scales", {"stability": {"scales": scales}},
              ["stability", "--profile", CELL])
       for case, scales in (("scales_empty", []), ("scales_oversized", [0.05, 0.2]))},
    # a config file that cannot be read, or is not a JSON object of objects
    "config_missing": ("config", None, ["--config", "nope.json", "solve"]),
    "config_directory": ("config", None, ["--config", ".", "solve"]),
    "config_bytes": ("config", None, ["--config", "config_bytes.json", "solve"]),
    "config_array": ("config", [], ["solve"]),
    "section_not_object": ("solver", {"solver": 1e-3}, ["solve"]),
    # an unknown key, section or flag is refused at any value; the keys and the
    # flag are retired ones, which a config written for an older release may hold
    **{case: (f"{sec}.{key}", {sec: {key: value}}, argv) for case, sec, key, value, argv in (
        ("ball_radius", "problem", "ball_radius", 1.0, ["solve"]),
        ("period_scale_zero", "grid", "period_scale", 0.0, ["solve"]),
        ("penalized", "solver", "penalized", False, ["solve"]),
        ("step_init_nan", "solver", "step_init", NAN, ["solve"]),
        ("step_shrink", "solver", "step_shrink", 0.5, ["solve"]),
        ("armijo", "solver", "armijo", 1e-4, ["solve"]),
        ("polarity_default", "solver", "polarity", 1, ["solve"]),
        ("seed_profile", "solver", "seed_profile", "kdv", ["solve"]),
        ("integrator_default", "evolution", "integrator", "ifrk4", ["evolve", "--profile", CELL]),
        ("dealias", "evolution", "dealias", True, ["evolve", "--profile", CELL]),
        ("tau_above_1", "sweep", "tau", 1.5, ["sweep"]),
        ("band_negative", "stability", "band", -3, ["stability", "--profile", CELL]))},
    "section_unknown": ("nosuch", {"nosuch": {}}, ["solve"]),
    "penalized_flag": ("argv", None, ["solve", "--penalized"]),
    "symbol_empty": ("problem.symbol", {"problem": {"symbol": ""}}, ["solve"]),
    "symbol_number": ("problem.symbol", {"problem": {"symbol": 3}}, ["validate-symbol"]),
    # a name the parser rejects: the error names the config field it came from
    **{case: (f"problem.{key}", {"problem": {key: name}}, [cmd]) for case, key, name, cmd in (
        ("symbol_unparsed_validate-symbol", "symbol", "nosuch", "validate-symbol"),
        ("symbol_unparsed_solve", "symbol", "nosuch", "solve"),
        ("symbol_value_text", "symbol", "rational:x", "solve"),
        ("symbol_value_count", "symbol", "whitham:1", "solve"),
        ("nonlinearity_unknown", "nonlinearity", "nosuch", "solve"),
        ("nonlinearity_unparsed_solve", "nonlinearity", "poly:", "solve"),
        ("nonlinearity_value_count", "nonlinearity", "modulus:2.5", "solve"))},
    # a fractional odd power or a non-finite coefficient is refused when the
    # nonlinearity is built, before any descent could turn it into a NaN
    **{f"nonlinearity_{name}": ("problem.nonlinearity", {
        "problem": {"nonlinearity": name}, "grid": {"points": 256}}, ["solve", "--mu", "1e-2"])
       for name in REFUSED_NONLINEARITIES},
}


@pytest.fixture(scope="module")
def bad_dir(tmp_path_factory, solved_dir):
    """The files that BAD_INPUTS names."""
    d = tmp_path_factory.mktemp("bad")
    # uniform centred nodes, but not 2^k of them
    (d / "profile_100.csv").write_text("x,u\n" + "".join(f"{j - 50.0!r},0.0\n"
                                                       for j in range(100)))
    (d / CELL).write_text("x,u\n-8,abc\n")
    nodes = [j - 8.0 for j in range(16)]
    for name, meta in METAS.items():
        (d / name).mkdir()
        write_csv(d / name / "profile.csv", ["x", "u"], ((x, 0.0) for x in nodes))
        (d / name / "meta.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))
    nodes[5], nodes[12], nodes[7] = nodes[12], nodes[5], 12345.0  # swapped, and far off
    (d / "nodes").mkdir()
    write_csv(d / "nodes" / "profile.csv", ["x", "u"], ((x, 0.0) for x in nodes))
    (d / "nodes" / "meta.json").write_text(json.dumps(FULL_META))
    g = PeriodicGrid(40.0, 64)
    bump = np.exp(-(g.nodes / 4.0) ** 2)
    bumped = json.dumps({**FULL_META, "P": 40.0, "N": 64})
    w = read_profile(solved_dir / "profile.csv", PROB).field
    solved = (solved_dir / "meta.json").read_text()
    for name, grid, u, meta in (
            ("ripple", g, bump + 1e-5 * (-1.0) ** np.arange(g.n), bumped),
            ("overflow", g, 1e308 * bump, bumped),
            ("rounded", w.grid, [float(f"{x:.6g}") for x in w.values], solved),
            ("scaled", w.grid, 1e300 * w.values, solved), ("wave", w.grid, w.values, solved)):
        stored = d / name / "profiles" / "profile_000.csv"
        stored.parent.mkdir(parents=True)
        write_csv(stored, ["x", "u"], zip(grid.nodes, u))
        (stored.parent / "meta_000.json").write_text(meta)
    (d / "config_bytes.json").write_bytes(b"\xff\xfe{}")
    (d / "empty").mkdir()
    return d


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_fails_closed(bad_dir, tmp_path, capsys, monkeypatch, case):
    field, doc, argv = BAD_INPUTS[case]
    monkeypatch.chdir(bad_dir)
    if doc is not None:
        argv = ["--config", write_config(tmp_path, doc), *argv]
    line = assert_refused(argv, field, tmp_path / "o", capsys)
    if case == "dt_nan":  # a non-finite value is null
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
    assert_refused(["--config", write_config(tmp_path, doc), *command], field,
                   tmp_path / "o", capsys)


def test_profile_problem_compares_normalised_names(tmp_path):
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
    assert_refused(["--config", cfg, "evolve", "--profile", str(out / "profile.csv")],
                   "problem.nonlinearity", tmp_path / "e", capsys)


def test_profile_round_trips_through_its_files(solved_dir, tmp_path):
    from dataclasses import fields
    prof = read_profile(solved_dir / "profile.csv", PROB)
    write_profile(tmp_path / "profile_007.csv", prof)
    assert (tmp_path / "meta_007.json").exists()
    back = read_profile(tmp_path / "profile_007.csv", PROB)
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
    assert read_profile(tmp_path / "profile_007.csv", PROB).speed == prof.speed
    meta_path.write_text(json.dumps({**meta, "nu": PROB.symbol.m_zero}))
    with pytest.raises(ConfigError) as err:
        read_profile(tmp_path / "profile_007.csv", PROB)
    assert err.value.info["field"] == "meta"


SOLVED = ("profile.csv", "meta.json")
# failures of the work itself, past test_bad_input_fails_closed's input checks:
# id -> (the --config document or None, the command line, the exit code,
# entries of its error line, the files --out must not hold)
FAILURES = {
    # past the small-momentum regime the descent converges to a field with
    # weight at the top of the kept band, which no grid resolves
    "unresolved": (None, ["solve", "--mu", "0.1"], 3, {"error": "RESOLUTION_LOSS"}, SOLVED),
    "max_iter": ({"solver": {"max_iter": 3}}, ["solve", "--mu", "1e-4"], 3,
                 {"error": "MAX_ITER", "iterations": 3}, SOLVED),
    # on 16 points the cubic descent at mu = 0.3 stalls at residual 9.7e-11
    "line_search": ({"problem": {"nonlinearity": "oddpower:3,1"}, "grid": {"points": 16},
                     "solver": {"tol_residual": 1e-16}}, ["solve", "--mu", "0.3"], 2,
                    {"error": "MU_TOO_LARGE", "iterations": 44}, SOLVED),
    # c_p = 1e308 overflows the first gradient, and on a 1e-300 cell the seed
    # is a constant 1.4e149 whose energy is -inf: the iteration failed, so the
    # exit is 3 and not a model-regime verdict or a wave
    "overflow": ({"problem": {"nonlinearity": "modulus:2.5,1e308"}, "grid": {"points": 256}},
                 ["solve", "--mu", "1e-2"], 3,
                 {"error": "NO_CONVERGENCE", "iterations": 0, "residual": None}, SOLVED),
    "degenerate_cell": ({"grid": {"period": 1e-300, "points": 16}}, ["solve", "--mu", "1e-2"],
                        3, {"error": "NO_CONVERGENCE", "iterations": 0, "energy": None}, SOLVED),
    "symbol": (None, ["validate-symbol", "--name", "rational:200"], 2,
               {"error": "SYMBOL_INVALID", "check": "TAYLOR_MISMATCH", "k": 0.0}, ()),
    # p = 5 is outside the exponent window [2, 5) of the j* = 1 Whitham symbol
    "exponent_window": ({"problem": {"nonlinearity": "oddpower:5,1"}}, ["solve"], 1, {
        "error": "EXPONENT_WINDOW", "field": "problem.nonlinearity", "value": 5.0}, SOLVED),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_is_one_error_line(tmp_path, capsys, case):
    doc, argv, rc, entries, absent = FAILURES[case]
    if doc is not None:
        argv = ["--config", write_config(tmp_path, doc), *argv]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == rc
    line = error_line(capsys.readouterr().err)
    assert {key: line[key] for key in entries} == entries
    if "residual" in line:  # printed as it was, where the line holds a non-finite one as null
        residual = INF if line["residual"] is None else line["residual"]
        assert f"residual {residual:.3e}" in line["message"]
    # a failed command writes no manifest
    for name in (*absent, "manifest.json"):
        assert not (out / name).exists(), name


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


def test_checked_configs_are_frozen():
    # a config is checked once, when it is built: an assignment such as
    # stride = 0 would pass round the check
    run = Run(load_config(None))
    for cfg, key in ((run.evolution, "stride"), (run.solve, "mu")):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, key, 0)


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
    assert error_line(capsys.readouterr().err)["error"] == "GRID_MISMATCH"
    assert not (out / "convergence.csv").exists()


def src_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter imports each module with no other solwave module
    # loaded, so none leans on its siblings' import order; the top-level
    # packages they add are solwave, numpy and the standard library
    modules = [p.stem for p in (ROOT / "src" / "solwave").glob("*.py") if p.stem != "__init__"]
    probe = ("import importlib, sys; before = set(sys.modules)\n"
             "for name in sys.argv[1:]:\n"
             "    for k in [k for k in sys.modules if k.startswith('solwave.')]: del sys.modules[k]\n"
             "    importlib.import_module('solwave.' + name)\n"
             "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
             "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'solwave'}))")
    out = subprocess.run([sys.executable, "-c", probe, *modules], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert "cli" in modules and out.strip() == "[]"


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


def test_compare_kdv_on_sweep(sweep_dir, compare_dir):
    profiles = [read_profile(p, PROB)
                for p in sorted((sweep_dir / "profiles").glob("profile_*.csv"))]
    assert [p.field.grid.n for p in profiles] == [4096, 2048]
    reference = reduced_reference(PROB, profiles)
    # every cell, against the library on the stored profiles; %.17g round-trips
    records = [scaling_diagnostics(PROB, p) for p in profiles]
    tables = {"convergence.csv": convergence_rows(
                  convergence_study(PROB, profiles, reference), records),
              "diagnostics.csv": [{"mu": r.mu, "tau_ratio2": r.high_band_ratio,
                                   "high_band_floor": r.high_band_floor} for r in records]}
    for name, rows in tables.items():
        header, *lines = (compare_dir / name).read_text().splitlines()
        assert header.split(",") == list(rows[0]), name
        for line, row in zip(lines, rows, strict=True):
            assert [float(c) for c in line.split(",")] == list(row.values()), name
    # wave NNN on the reduced reference's period: mu^-alpha u(mu^-beta x), momentum Q(u)/mu
    alpha = exponents(PROB.symbol.j_star, PROB.nonlinearity.p).alpha
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
    line = assert_refused(["compare-kdv", "--sweep-dir", str(src)], "meta", tmp_path / "cmp",
                          capsys)
    assert "meta_001.json" in line["message"]


def nan_evolve_argv(tmp_path):
    """An evolve command whose time step is so large that the field turns NaN
    before the first record past t = 0."""
    g = PeriodicGrid(40.0, 512)
    u = SpectralField.from_values(g, 0.8 / np.cosh(1.5 * g.nodes) ** 2)
    write_field_csv(tmp_path / "profile.csv", u)
    (tmp_path / "meta.json").write_text(json.dumps({**FULL_META, "mu": momentum(u),
                                                    "P": 40.0, "N": 512}))
    cfg = write_config(tmp_path, {"evolution": {"dt": 5.0, "t_final": 50.0, "stride": 5}})
    return ["--config", cfg, "evolve", "--profile", str(tmp_path / "profile.csv"),
            "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("case", ["nan_run", "large_step"])
def test_stderr_is_one_json_line_or_nothing(tmp_path, request, case):
    # a fresh interpreter, since pytest captures warnings: the NaN run exits 3
    # (resolution, not model regime) and writes its JSON error line and nothing
    # else, no numpy overflow or invalid-value warning among it; a resolved
    # wave stepped at dt = 0.16 writes nothing
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
        line = error_line(run.stderr)
        assert line["error"] == "RESOLUTION_LOSS" and line["t"] == 25.0
    else:
        assert run.stderr == ""


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_failing_stdout_is_one_json_error_line(capsys):
    # an OSError outside the commands' own checks, here a reader that went
    # away, still ends in exit 1 and one strict-JSON line on stderr
    with contextlib.redirect_stdout(_ClosedPipe()):
        rc = main(["validate-symbol"])
    assert rc == 1
    assert error_line(capsys.readouterr().err) == {"error": "CONFIG",
                                                   "message": "[Errno 32] Broken pipe"}


META_KEYS = "N,P,convention,energy,iterations,mu,nonlinearity,nu,residual,symbol"
TRACE = "t,E_drift,Q_drift,orbit_dist,shift"
# each reading command's input in the sweep directory, which is the working one
INPUTS = {"compare-kdv": ["--sweep-dir", "."],
          **dict.fromkeys(["evolve", "stability"], ["--profile", "profiles/profile_001.csv"])}


def header(path):
    """A table's first line; a JSON document's sorted keys, joined the same way."""
    text = path.read_text()
    return ",".join(sorted(json.loads(text))) if path.suffix == ".json" else text.split("\n")[0]


@pytest.mark.parametrize("command, flags, echoed, outputs, adds", [
    ("solve", ["--mu", "1e-2"], {"solver": {"mu": 1e-2}},
     {"profile.csv": "x,u", "meta.json": META_KEYS}, []),
    ("sweep", ["--mu-list", "4e-3,1e-2"], {"sweep": {"mu_list": [4e-3, 1e-2]}},
     {"sweep.csv": "mu,P,N,nu,energy,residual,tail,iters",
      **{f"profiles/{kind}_{i:03d}.{ext}": head for i in range(2) for kind, ext, head in (
          ("profile", "csv", "x,u"), ("meta", "json", META_KEYS))}}, []),
    ("compare-kdv", [], {},
     {"convergence.csv": "mu,dist_aligned,speed_dev,energy_dev,shift,tau_ratio1,tau_ratio2,"
                         "supnorm_ratio", "diagnostics.csv": "mu,tau_ratio2,high_band_floor",
      "scaled/scaled_000.csv": "x,u", "scaled/scaled_001.csv": "x,u"}, []),
    ("evolve", ["--T", "1", "--dt", "0.02"], {"evolution": {"t_final": 1.0, "dt": 0.02}},
     {"trace.csv": TRACE, "final.csv": "x,u"}, ["shape_error", "measured_speed", "speed_error"]),
    # a seed is nonnegative, so 0 is a seed like any other
    ("stability", ["--scale", "0.01", "--seed", "0", "--T", "1"],
     {"stability": {"scales": [0.01], "seed": 0}, "evolution": {"t_final": 1.0}},
     {"trace_000.csv": TRACE, "summary.json": "runs"}, []),
], ids=["solve", "sweep", "compare-kdv", "evolve", "stability"])
def test_manifest_echoes_every_flag_and_reruns(sweep_dir, tmp_path, monkeypatch, command,
                                               flags, echoed, outputs, adds):
    # the command writes its outputs, each under its header, and then its
    # manifest, and nothing else; each flag sets its config key, the manifest
    # adds the command's results, and its config, run with no flags, writes
    # the same outputs byte for byte
    monkeypatch.chdir(sweep_dir)
    inputs = INPUTS.get(command, [])
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, *flags, *inputs, "--out", str(first)]) == 0
    written = {p.relative_to(first).as_posix() for p in first.rglob("*") if p.is_file()}
    [name] = written - set(outputs)
    manifest = json.loads((first / name).read_text())
    assert name.startswith("manifest") and manifest["command"] == command
    assert sorted(manifest) == sorted(["command", "config", "versions", "elapsed_s", *adds])
    for section, keys in echoed.items():
        for key, value in keys.items():
            assert manifest["config"][section][key] == value, f"{section}.{key}"
    assert main(["--config", write_config(tmp_path, manifest["config"]), command, *inputs,
                 "--out", str(again)]) == 0
    for output, head in outputs.items():
        assert header(first / output) == head, output
        assert (first / output).read_bytes() == (again / output).read_bytes(), output


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
    line = error_line(capsys.readouterr().err)
    assert line["error"] == "CONFIG" and line["field"] == field
    assert not (tmp_path / "o").exists()
    assert (tmp_path / "file").read_text() == ""


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
    ("grid", "points", [100, 0, 2.0, 1e9, "64"]),
    ("grid", "period", [0.0, -5.0, NAN, INF]),
    ("solver", "mu", [0.0, -1.0, NAN, INF, "x", 1e300, 1e-30]),
    ("solver", "max_iter", [0, 2.5, True]),
    ("solver", "tol_residual", [0.0, INF]),
    ("solver", "typo", [1]),  # an unknown key; the retired ones are BAD_INPUTS rows
    ("evolution", "dt", [0.0, -0.1, NAN]),
    ("evolution", "t_final", [0.0, INF, NAN]),
    ("evolution", "stride", [0, 2.5]),
    ("sweep", "mu_list", [[], [0.0], "abc", [NAN], [5e-2, 1e-2]]),
    ("stability", "scales", [[], [NAN], "x", [0.5], [0.0], [-0.01], [0.05, 0.2], [0.1]]),
    ("stability", "seed", [-1, 2.5]),
    ("nosuch", "key", [1]),
] for v in values]

fuzz_configs = st.tuples(
    st.fixed_dictionaries({}, optional={
        sec: st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in keys.items()})
        for sec, keys in FUZZ_VALID.items()}),
    st.sampled_from([16, 32, 64, 128]), st.sampled_from([1, 3, 20, 60]),
    st.sampled_from([0.2, 1.0, -0.5]), st.none() | st.sampled_from(FUZZ_INVALID))

# a Gaussian profile and its metadata, with at most one bad entry; the zero
# wave is test_bad_input_fails_closed[zero_profile]'s
fuzz_profiles = st.tuples(
    st.sampled_from([16, 64, 128]), st.sampled_from([40.0, 80.0]),
    st.floats(0.05, 1.5) | st.floats(-1.5, -0.05),
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
        line = error_line(text)
        assert isinstance(line["error"], str)
        if line["error"] == "CONFIG":
            assert isinstance(line.get("field"), str), line
    # the example above alone: no generated config has period 800, and a
    # generated one may give --mu, which overrides the config's mu
    if (name, bad, files, doc["grid"].get("period")) == (
            "solve", ("solver", "mu", 1e-30), None, 800.0):
        assert rc == 1 and line["field"] == "solver.mu"
