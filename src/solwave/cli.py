"""Batch front door: solve, sweep, compare-kdv, evolve, stability, validate-symbol.

One JSON config document with sections {problem, grid, solver, evolution,
sweep, stability}; unknown keys are errors so typos cannot silently corrupt a
study.  A flag that stands for a config value overrides exactly that key
(its argparse ``dest`` is the dotted key) and the commands read only the
config, so the config echoed in a manifest re-runs the command that wrote
it.  Exit codes: 0 ok, 1 config, 2 model regime (no wave there),
3 iteration/resolution failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import (convergence_rows, convergence_study, reduced_reference,
                       scaling_diagnostics)
from .errors import ConfigError, SolwaveError
from .evolution import (MAX_PERTURBATION, EvolutionConfig, StabilityReport, perturbation,
                        stability_experiment, travel_test)
from .functionals import Problem
from .grid import PeriodicGrid, l2_norm
from .longwave import exponents, scale_down
from .nonlinearity import nonlinearity_from_name
from .solver import SolveConfig, continuation_sweep, minimize_constrained, sweep_rows
from .symbols import symbol_from_name, validate_symbol

DEFAULT_CONFIG = {
    "problem": {"symbol": "whitham", "nonlinearity": "quadratic"},
    "grid": {"period": None, "points": None},
    "solver": {"mu": 1e-3, "tol_residual": 1e-9, "max_iter": 50_000},
    "evolution": {"dt": 0.01, "t_final": 20.0, "stride": 50},
    "sweep": {"mu_list": [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]},
    "stability": {"scales": [0.005, 0.01, 0.02], "seed": 20260811},
}


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return cfg
    try:
        with open(path) as f:
            user = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", field="config")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config")
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object", field="config")
    for section, content in user.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}", field=section)
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be an object", field=section)
        for key, value in content.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown key {section}.{key}", field=f"{section}.{key}")
            cfg[section][key] = value
    return cfg


_KINDS = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _checked(value, kind: type, field: str):
    """``value`` converted to ``kind``; a value of another type is a config
    error naming ``field``.  Booleans are not numbers; an integer may be
    written as a whole float."""
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or float(value).is_integer()))
    if not ok:
        raise ConfigError(f"{field} must be {_KINDS[kind]}, got {value!r}", field=field)
    return kind(value)


def _get(cfg: dict, section: str, key: str, kind: type = float, optional: bool = False):
    value = cfg[section][key]
    if value is None and optional:
        return None
    return _checked(value, kind, f"{section}.{key}")


def _numbers(cfg: dict, section: str, key: str) -> list[float]:
    value, field = cfg[section][key], f"{section}.{key}"
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list of numbers, got {value!r}", field=field)
    return [_checked(v, float, field) for v in value]


def _name(cfg: dict, key: str) -> str:
    name = _get(cfg, "problem", key, str)
    if not name:
        raise ConfigError(f"problem.{key} is missing", field=f"problem.{key}")
    return name


def build_problem(cfg: dict) -> Problem:
    return Problem(symbol_from_name(_name(cfg, "symbol")),
                   nonlinearity_from_name(_name(cfg, "nonlinearity")))


def build_solve_config(cfg: dict) -> SolveConfig:
    return SolveConfig(
        mu=_get(cfg, "solver", "mu"),
        period=_get(cfg, "grid", "period", optional=True),
        points=_get(cfg, "grid", "points", int, optional=True),
        tol_residual=_get(cfg, "solver", "tol_residual"),
        max_iter=_get(cfg, "solver", "max_iter", int))


def build_evolution_config(cfg: dict) -> EvolutionConfig:
    return EvolutionConfig(dt=_get(cfg, "evolution", "dt"),
                           t_final=_get(cfg, "evolution", "t_final"),
                           stride=_get(cfg, "evolution", "stride", int))


def cmd_solve(args, cfg) -> int:
    prob = build_problem(cfg)
    scfg = build_solve_config(cfg)
    out = Path(args.out)
    t0 = time.time()
    prof = minimize_constrained(prob, scfg)
    fileio.write_profile(out / "profile.csv", prof)
    fileio.write_manifest(out / "manifest.json", "solve", cfg, t0)
    print(f"solved mu={prof.mu:g}: nu={prof.speed:.12g} residual={prof.residual:.3e} "
          f"iterations={prof.iterations} supercritical={prof.supercritical}")
    return 0


def _convergence_outputs(prob, profiles, outdir: Path):
    exps = exponents(prob.symbol.j_star, prob.nonlinearity.p)
    n_ref = max(p.field.grid.n for p in profiles)
    scaled_period = profiles[0].field.grid.period * profiles[0].mu**exps.beta
    ref = reduced_reference(prob, PeriodicGrid(scaled_period, n_ref))
    comparisons = convergence_study(prob, profiles, ref)
    records = [scaling_diagnostics(prob, p) for p in profiles]
    fileio.write_rows_csv(outdir / "convergence.csv", convergence_rows(comparisons, records))
    # the high-band ratio beside the round-off floor it cannot be measured below
    fileio.write_csv(outdir / "diagnostics.csv", ["mu", "tau_ratio2", "high_band_floor"],
                     [(r.mu, r.high_band_ratio, r.high_band_floor) for r in records])
    return ref


def cmd_sweep(args, cfg) -> int:
    out = Path(args.out)
    t0 = time.time()
    prob = build_problem(cfg)
    profiles = continuation_sweep(prob, _numbers(cfg, "sweep", "mu_list"),
                                  build_solve_config(cfg))
    for i, prof in enumerate(profiles):
        fileio.write_profile(out / "profiles" / f"profile_{i:03d}.csv", prof)
    fileio.write_rows_csv(out / "sweep.csv", sweep_rows(profiles))
    _convergence_outputs(prob, profiles, out)
    fileio.write_manifest(out / "manifest.json", "sweep", cfg, t0)
    print(f"sweep of {len(profiles)} waves written to {out}")
    return 0


def cmd_compare_kdv(args, cfg) -> int:
    src = Path(args.sweep_dir)
    paths = sorted(src.glob("profiles/profile_*.csv"))
    if not paths:
        raise ConfigError(f"no sweep profiles under {src}", field="sweep-dir")
    prob = build_problem(cfg)
    profiles = [fileio.read_profile(p, prob) for p in paths]
    out = Path(args.out or args.sweep_dir)
    t0 = time.time()
    exps = exponents(prob.symbol.j_star, prob.nonlinearity.p)
    ref = _convergence_outputs(prob, profiles, out)
    for i, prof in enumerate(profiles):
        w = scale_down(prof.mu, exps, prof.field, period_hint=ref.field.grid.period)
        fileio.write_field_csv(out / "scaled" / f"scaled_{i:03d}.csv", w)
    fileio.write_manifest(out / "manifest_compare.json", "compare-kdv", cfg, t0)
    print(f"convergence study over {len(profiles)} waves written to {out}")
    return 0


def cmd_evolve(args, cfg) -> int:
    prob = build_problem(cfg)
    ecfg = build_evolution_config(cfg)
    prof = fileio.read_profile(args.profile, prob)
    out = Path(args.out)
    t0 = time.time()
    report = travel_test(prob, prof, ecfg)
    fileio.write_rows_csv(out / "trace.csv", report.trace.rows())
    fileio.write_field_csv(out / "final.csv", report.trace.final)
    fileio.write_manifest(out / "manifest.json", "evolve", cfg, t0,
                          shape_error=report.shape_error,
                          measured_speed=report.measured_speed,
                          speed_error=report.speed_error)
    print(f"travelled T={ecfg.t_final:g}: shape_error={report.shape_error:.3e} "
          f"speed_error={report.speed_error:.3e}")
    return 0


def cmd_stability(args, cfg) -> int:
    prob = build_problem(cfg)
    ecfg = build_evolution_config(cfg)
    seed = _get(cfg, "stability", "seed", int)
    if seed < 0:
        raise ConfigError(f"stability seed must be nonnegative, got {seed}",
                          field="stability.seed")
    scales = _numbers(cfg, "stability", "scales")
    # checked before any member runs; the library's own bound compares norms
    # and fires through round-off at scale = MAX_PERTURBATION itself
    if not scales or not all(0 < s < MAX_PERTURBATION for s in scales):  # false on NaN
        raise ConfigError(f"stability.scales must be a nonempty list of positive numbers "
                          f"below {MAX_PERTURBATION:g}, got {scales!r}",
                          field="stability.scales")
    prof = fileio.read_profile(args.profile, prob)
    out = Path(args.out)
    t0 = time.time()
    summaries = []
    for i, scale in enumerate(scales):
        pert = perturbation(prof.field.grid, l2_norm(prof.field), scale, seed + i)
        rep: StabilityReport = stability_experiment(prob, prof, pert, ecfg)
        fileio.write_rows_csv(out / f"trace_{i:03d}.csv", rep.trace.rows())
        summaries.append({"scale": scale, "seed": seed + i,
                          "initial_dist": rep.initial_dist,
                          "max_dist": rep.max_dist, "ratio": rep.ratio})
        print(f"scale={scale:g}: initial={rep.initial_dist:.3e} "
              f"max={rep.max_dist:.3e} ratio={rep.ratio:.2f}")
    fileio.write_json(out / "summary.json", {"runs": summaries})
    fileio.write_manifest(out / "manifest.json", "stability", cfg, t0)
    return 0


def cmd_validate_symbol(args, cfg) -> int:
    name = _name(cfg, "symbol")
    sym = symbol_from_name(name)
    report = validate_symbol(sym, k_max=args.k_max, n_samples=args.samples)
    for line in report.lines():
        print(line)
    if args.out:
        fileio.write_json(Path(args.out) / "symbol_report.json", {
            "symbol": report.symbol,
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "worst_k": c.worst_k,
                        "detail": c.detail} for c in report.checks],
        })
    report.raise_if_failed()
    print(f"symbol {name!r} passed all checks")
    return 0


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """A bad command line is a config error (exit 1, JSON on stderr)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}", field="argv")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="solwave", description=__doc__)
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute one constrained minimizer")
    p.add_argument("--mu", dest="solver.mu", type=float)
    p.add_argument("--out", default="out-solve")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="continuation over a mu list + convergence study")
    p.add_argument("--mu-list", dest="sweep.mu_list", type=_float_list)
    p.add_argument("--out", default="out-sweep")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("compare-kdv", help="long-wave comparison of an existing sweep")
    p.add_argument("--sweep-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare_kdv)

    p = sub.add_parser("evolve", help="travel test of a stored profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--T", dest="evolution.t_final", type=float)
    p.add_argument("--dt", dest="evolution.dt", type=float)
    p.add_argument("--out", default="out-evolve")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("stability", help="perturb a stored profile and evolve")
    p.add_argument("--profile", required=True)
    p.add_argument("--scale", dest="stability.scales", type=float, nargs=1)
    p.add_argument("--seed", dest="stability.seed", type=int)
    p.add_argument("--T", dest="evolution.t_final", type=float)
    p.add_argument("--dt", dest="evolution.dt", type=float)
    p.add_argument("--out", default="out-stability")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("validate-symbol", help="run the multiplier checks")
    p.add_argument("--name", dest="problem.symbol")
    p.add_argument("--k-max", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate_symbol)

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        for dest, value in vars(args).items():
            section, dot, key = dest.partition(".")
            if dot and value is not None:  # a flag given for a config key
                cfg[section][key] = value
        # the gates turn an overflowing or non-finite field into a typed error;
        # numpy's own warnings would only print internal source lines first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args, cfg)
    except SolwaveError as exc:
        err = {"error": exc.code, "message": str(exc)}
        err.update({k: None if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in exc.info.items() if isinstance(v, (str, int, float))})
        print(json.dumps(err, allow_nan=False), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": "CONFIG", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
