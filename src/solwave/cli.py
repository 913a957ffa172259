"""Batch front door: solve, sweep, compare-kdv, evolve, stability, validate-symbol.

One JSON config document with sections {problem, grid, solver, evolution,
sweep, stability}; unknown keys are errors so typos cannot silently corrupt a
study.  A flag that stands for a config value overrides exactly that key
(its argparse ``dest`` is the dotted key).  ``Run`` then checks the whole
config before any command runs, and the commands read only what it builds,
so every command refuses the same configs and the config echoed in a
manifest re-runs the command that wrote it.  Exit codes: 0 ok, 1 config,
2 model regime (no wave there), 3 iteration/resolution failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import (convergence_rows, convergence_study, reduced_reference,
                       scaling_diagnostics)
from .errors import ConfigError, SolwaveError
from .evolution import (MAX_PERTURBATION, EvolutionConfig, StabilityReport, perturbation,
                        stability_experiment, travel_test)
from .functionals import Problem
from .grid import l2_norm
from .nonlinearity import nonlinearity_from_name
from .solver import (SolveConfig, check_mu_list, continuation_sweep, minimize_constrained,
                     sweep_rows)
from .symbols import symbol_from_name, validate_symbol

DEFAULT_CONFIG = {  # the grid, solver and evolution defaults are the library configs'
    "problem": {"symbol": "whitham", "nonlinearity": "quadratic"},
    "grid": {key: getattr(SolveConfig(), key) for key in ("period", "points")},
    "solver": {key: getattr(SolveConfig(), key) for key in ("mu", "tol_residual", "max_iter")},
    "evolution": asdict(EvolutionConfig()),
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
    except OSError as exc:
        raise ConfigError(f"config file unreadable: {exc}", field="config")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
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


_KINDS = {float: "a number", int: "an integer", str: "a string"}
# the kinds of the keys whose default is null, the automatic grid
_NULLABLE = {"grid.period": float, "grid.points": int}


def _checked(value, default, field: str):
    """``value`` converted to the kind of ``default``, the key's default; a
    value of another kind is a config error naming ``field``.  A list
    default means a list of numbers, each a ``fileio.is_number``; an integer
    may be written as a whole float."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{field} must be a list of numbers, got {value!r}", field=field)
        return [_checked(v, 0.0, field) for v in value]
    if default is None and value is None:  # the automatic grid
        return None
    kind = _NULLABLE[field] if default is None else type(default)
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = fileio.is_number(value) and (kind is float or float(value).is_integer())
    if not ok:
        raise ConfigError(f"{field} must be {_KINDS[kind]}, got {value!r}", field=field)
    return kind(value)


class Run:
    """A command's checked config.  Every key of ``DEFAULT_CONFIG`` is
    checked, its kind and its range, before any command reads a profile or
    writes a file; the commands read the objects built here, and echo
    ``config`` in their manifests."""

    def __init__(self, config: dict):
        self.config = config
        v = {f"{section}.{key}": _checked(config[section][key], default, f"{section}.{key}")
             for section, keys in DEFAULT_CONFIG.items() for key, default in keys.items()}
        self.problem = Problem(symbol_from_name(v["problem.symbol"]),
                               nonlinearity_from_name(v["problem.nonlinearity"]))
        self.solve = SolveConfig(mu=v["solver.mu"], period=v["grid.period"],
                                 points=v["grid.points"], tol_residual=v["solver.tol_residual"],
                                 max_iter=v["solver.max_iter"])
        self.evolution = EvolutionConfig(dt=v["evolution.dt"], t_final=v["evolution.t_final"],
                                         stride=v["evolution.stride"])
        self.mu_list, self.scales, self.seed = (
            v["sweep.mu_list"], v["stability.scales"], v["stability.seed"])
        check_mu_list(self.mu_list)
        # every test is false on NaN; the stability scales stay below the
        # library's own bound, which compares norms and fires through
        # round-off at scale = MAX_PERTURBATION itself
        for field, ok, need in (
                ("stability.scales", self.scales and all(
                    0 < s < MAX_PERTURBATION for s in self.scales),
                 f"a nonempty list of positive numbers below {MAX_PERTURBATION:g}"),
                ("stability.seed", self.seed >= 0, "nonnegative")):
            if not ok:
                raise ConfigError(f"{field} must be {need}, got {v[field]!r}", field=field)


def _out_dir(path: str) -> Path:
    """``path``, refused before any work when its nearest existing ancestor is
    no directory; ``fileio.atomic_write`` reports what fails later."""
    out = Path(path)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ConfigError(f"cannot write under {out}: not a directory", field="out")
    return out


# A command computes, writes its files into ``out`` and prints its lines;
# ``main`` checks ``out`` first and writes the manifest last, with what it returns.
def cmd_solve(args, run: Run, out: Path) -> dict:
    prof = minimize_constrained(run.problem, run.solve)
    fileio.write_profile(out / "profile.csv", prof)
    print(f"solved mu={prof.mu:g}: nu={prof.speed:.12g} residual={prof.residual:.3e} "
          f"iterations={prof.iterations}")
    return {}


def cmd_sweep(args, run: Run, out: Path) -> dict:
    profiles = continuation_sweep(run.problem, run.mu_list, run.solve)
    for i, prof in enumerate(profiles):
        fileio.write_profile(out / "profiles" / f"profile_{i:03d}.csv", prof)
    fileio.write_rows_csv(out / "sweep.csv", sweep_rows(profiles))
    print(f"sweep of {len(profiles)} waves written to {out}")
    return {}


def cmd_compare_kdv(args, run: Run, out: Path) -> dict:
    src = Path(args.sweep_dir)
    paths = sorted(src.glob("profiles/profile_*.csv"))
    if not paths:
        raise ConfigError(f"no sweep profiles under {src}", field="sweep-dir")
    prob = run.problem
    profiles = [fileio.read_profile(p, prob) for p in paths]
    comparisons = convergence_study(prob, profiles, reduced_reference(prob, profiles))
    records = [scaling_diagnostics(prob, p) for p in profiles]
    fileio.write_rows_csv(out / "convergence.csv", convergence_rows(comparisons, records))
    # the high-band ratio beside the round-off floor it cannot be measured below
    fileio.write_csv(out / "diagnostics.csv", ["mu", "tau_ratio2", "high_band_floor"],
                     [(r.mu, r.high_band_ratio, r.high_band_floor) for r in records])
    for i, c in enumerate(comparisons):
        fileio.write_field_csv(out / "scaled" / f"scaled_{i:03d}.csv", c.scaled)
    print(f"convergence study over {len(profiles)} waves written to {out}")
    return {}


def cmd_evolve(args, run: Run, out: Path) -> dict:
    prof = fileio.read_profile(args.profile, run.problem)
    report = travel_test(run.problem, prof, run.evolution)
    fileio.write_rows_csv(out / "trace.csv", report.trace.rows())
    fileio.write_field_csv(out / "final.csv", report.trace.final)
    print(f"travelled T={run.evolution.t_final:g}: shape_error={report.shape_error:.3e} "
          f"speed_error={report.speed_error:.3e}")
    return {"shape_error": report.shape_error, "measured_speed": report.measured_speed,
            "speed_error": report.speed_error}


def cmd_stability(args, run: Run, out: Path) -> dict:
    prof = fileio.read_profile(args.profile, run.problem)
    summaries = []
    for i, scale in enumerate(run.scales):
        pert = perturbation(prof.field.grid, l2_norm(prof.field), scale, run.seed + i)
        rep: StabilityReport = stability_experiment(run.problem, prof, pert, run.evolution)
        if not rep.initial_dist > 0:  # its ratio would be NaN
            raise ConfigError(f"stability.scales member {scale:g} is lost in the wave's "
                              "round-off: the perturbed wave is the wave",
                              field="stability.scales", value=scale)
        fileio.write_rows_csv(out / f"trace_{i:03d}.csv", rep.trace.rows())
        summaries.append({"scale": scale, "seed": run.seed + i,
                          "initial_dist": rep.initial_dist,
                          "max_dist": rep.max_dist, "ratio": rep.ratio})
        print(f"scale={scale:g}: initial={rep.initial_dist:.3e} "
              f"max={rep.max_dist:.3e} ratio={rep.ratio:.2f}")
    fileio.write_json(out / "summary.json", {"runs": summaries})
    return {}


def cmd_validate_symbol(args, run: Run, out: Path | None) -> dict:
    report = validate_symbol(run.problem.symbol)
    for line in report.lines():
        print(line)
    if out:
        fileio.write_json(out / "symbol_report.json", {**asdict(report), "passed": report.passed})
    report.raise_if_failed()
    print(f"symbol {run.config['problem']['symbol']!r} passed all checks")
    return {}


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
    p.set_defaults(fn=cmd_solve, manifest="manifest.json")

    p = sub.add_parser("sweep", help="continuation over a mu list")
    p.add_argument("--mu-list", dest="sweep.mu_list", type=_float_list)
    p.add_argument("--out", default="out-sweep")
    p.set_defaults(fn=cmd_sweep, manifest="manifest.json")

    p = sub.add_parser("compare-kdv", help="long-wave comparison of an existing sweep")
    p.add_argument("--sweep-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare_kdv, manifest="manifest_compare.json")

    p = sub.add_parser("evolve", help="travel test of a stored profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--T", dest="evolution.t_final", type=float)
    p.add_argument("--dt", dest="evolution.dt", type=float)
    p.add_argument("--out", default="out-evolve")
    p.set_defaults(fn=cmd_evolve, manifest="manifest.json")

    p = sub.add_parser("stability", help="perturb a stored profile and evolve")
    p.add_argument("--profile", required=True)
    p.add_argument("--scale", dest="stability.scales", type=float, nargs=1)
    p.add_argument("--seed", dest="stability.seed", type=int)
    p.add_argument("--T", dest="evolution.t_final", type=float)
    p.add_argument("--dt", dest="evolution.dt", type=float)
    p.add_argument("--out", default="out-stability")
    p.set_defaults(fn=cmd_stability, manifest="manifest.json")

    p = sub.add_parser("validate-symbol", help="run the multiplier checks")
    p.add_argument("--name", dest="problem.symbol")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate_symbol, manifest=None)

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        for dest, value in vars(args).items():
            section, dot, key = dest.partition(".")
            if dot and value is not None:  # a flag given for a config key
                cfg[section][key] = value
        # the gates turn an overflowing or non-finite field into a typed error;
        # numpy's own warnings would only print internal source lines first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            run = Run(cfg)
            out = (_out_dir(args.out) if args.out
                   else Path(args.sweep_dir) if args.command == "compare-kdv" else None)
            t0 = time.time()
            extra = args.fn(args, run, out)
            if args.manifest:  # the last file, and only of a command that succeeded
                fileio.write_manifest(out / args.manifest, args.command, cfg, t0, **extra)
        return 0
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
