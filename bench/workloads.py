"""The benchmark's workloads: inputs drawn from the seed, timed stages, and
the correctness gates every operation must pass.

Both are closed loops with one client, on the Whitham symbol with the
quadratic nonlinearity.  A round is one pass of a workload; the runner
repeats rounds for the requested time.  Each workload has three timed
stages, reported as ``stage1_s`` to ``stage3_s``.

The seed and a draw number choose a +-5 % jitter of every mu and the
perturbation streams; an untraced run uses draws 0 to 3, one per worker, a
traced run draw 0.  The jitter leaves each automatically chosen grid size
unchanged, so a held-out seed gives the same problem sizes.  Gate bounds
are those of the acceptance suite.

A calibrating session also times a reference kernel of ``calib`` before,
during and after each timed stage: the time-stepping kernel for evolution
stages, the descent kernel for the others.

Calls into traced boundaries go through the module attribute
(``solver.minimize_constrained``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import thread_time

import numpy as np
from calib import Sampler, reference_s

from solwave import cli, evolution, solver
from solwave.errors import SolwaveError
from solwave.functionals import Problem
from solwave.grid import l2_norm
from solwave.nonlinearity import quadratic
from solwave.symbols import whitham

JITTER = 0.05
STABILITY_SCALES = (0.005, 0.01, 0.02)


def jittered(rng: np.random.Generator, mu: float) -> float:
    return float(mu * (1.0 + rng.uniform(-JITTER, JITTER)))


def whitham_problem() -> Problem:
    return Problem(whitham(), quadratic())


class Session:
    """Stage timings and gated operations of one run.

    Every operation counts once toward ``attempted``; it fails when any of
    its gates fails or when it raises a SolwaveError.  A stage sample is
    ``[CPU seconds, kernel kind, reference times]``: the reference kernel of
    the stage's kind timed before, during (see calib.Sampler) and after the
    stage when the session calibrates, none otherwise.  The CPU seconds
    exclude the samples taken during it.
    """

    def __init__(self, calibrate: bool = False):
        self.stage_s: dict[str, list[list]] = defaultdict(list)
        self.ops: list[dict] = []
        self.tracer = None
        self.calibrate = calibrate

    @contextmanager
    def op(self, label: str, stage: str | None = None, kind: str = "descent"):
        rec = {"op": label, "gates": {}}
        self.ops.append(rec)
        scope = (self.tracer.operation(label) if self.tracer is not None
                 else contextlib.nullcontext())
        calibrate = stage is not None and self.calibrate
        sampler = Sampler(kind)
        if calibrate:
            sampler.refs.append(reference_s(kind))
        sampling = sampler.running() if calibrate else contextlib.nullcontext()
        t0 = thread_time()
        try:
            with scope, sampling:
                yield rec
        except SolwaveError as exc:
            rec["gates"]["completed"] = [False, f"{exc.code}: {exc}"]
        finally:
            if stage is not None:
                t = thread_time() - t0 - sampler.spent
                if calibrate:
                    sampler.refs.append(reference_s(kind))
                self.stage_s[stage].append([t, kind, sampler.refs])

    @staticmethod
    def gate(rec: dict, name: str, ok: bool, value=None):
        rec["gates"][name] = [bool(ok), value]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not rec["gates"] or not all(ok for ok, _ in rec["gates"].values())
                   for rec in self.ops)


class StabilityWorkload:
    """The criterion-12 ladder: a base wave (mu near 1e-3, P = 800, N = 1024)
    solved in set-up, then three perturbed members (scales 0.005/0.01/0.02,
    Philox streams, band 32) evolved by IFRK4, dt 0.02 to T = 100, stride 100.
    The timed part is evolution, grid FFTs and orbit distances only."""

    name = "stability"
    stages = tuple(f"scale{s:g}" for s in STABILITY_SCALES)
    stage_metric = None
    step_stages = stages

    def __init__(self, seed: int, draw: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng([seed % 2**64, draw])
        self.prob = whitham_problem()
        self.mu = jittered(rng, 1e-3)
        self.stream = int(rng.integers(2**62))
        self.base = solver.minimize_constrained(self.prob, solver.SolveConfig(
            mu=self.mu, tol_residual=1e-12, period=800.0, points=1024))
        self.cfg = evolution.EvolutionConfig(
            dt=0.02, t_final=4.0 if smoke else 100.0, stride=100)
        norm = l2_norm(self.base.field)
        self.perts = [evolution.perturbation(self.base.field.grid, norm, scale,
                                             self.stream + i, band=32)
                      for i, scale in enumerate(STABILITY_SCALES)]

    def inputs(self) -> dict:
        return {"mu": self.mu, "stream": self.stream,
                "base_iterations": self.base.iterations}

    def round(self, s: Session) -> dict:
        maxes, steps, records = [], 0, 0
        for stage, scale, pert in zip(self.stages, STABILITY_SCALES, self.perts):
            with s.op(f"member scale={scale:g}", stage, "stepping") as op:
                rep = evolution.stability_experiment(self.prob, self.base, pert, self.cfg)
                q = float(np.max(np.abs(rep.trace.q_drift)))
                e = float(np.max(np.abs(rep.trace.e_drift)))
                s.gate(op, "ratio<=5", rep.ratio <= 5.0, rep.ratio)
                s.gate(op, "|Q drift|<=1e-10", q <= 1e-10, q)
                s.gate(op, "|E drift|<=1e-8", e <= 1e-8, e)
                maxes.append(rep.max_dist)
                steps += round(float(rep.trace.times[-1]) / self.cfg.dt)
                records += len(rep.trace.times)
        with s.op("ladder") as op:
            monotone = (len(maxes) == len(STABILITY_SCALES)
                        and all(a <= b for a, b in zip(maxes, maxes[1:])))
            s.gate(op, "max distance monotone in scale", monotone, maxes)
        return {"counts": {"evolution.steps": steps, "evolution.records": records},
                "steps": steps, "digest": None}


class PipelineWorkload:
    """A study session through ``solwave.cli.main`` in-process: ``sweep`` over
    the default five-mu list (jittered, tol 1e-9), ``compare-kdv`` on its
    output, then ``evolve`` (travel test, N = 4096, 2000 steps, stride 50) on
    profile_002.  The only workload that runs analysis and fileio."""

    name = "pipeline"
    stages = ("sweep", "compare", "evolve")
    stage_metric = "cli_{}_s"
    step_stages = ("evolve",)

    def __init__(self, seed: int, draw: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng([seed % 2**64, draw])
        bases = ((3e-3, 5e-3, 1e-2) if smoke
                 else cli.DEFAULT_CONFIG["sweep"]["mu_list"])
        self.mu_list = [jittered(rng, mu) for mu in bases]
        self.t_final = 2.0 if smoke else 20.0
        # compare-kdv takes about a quarter second; repeats steady its timing
        self.compare_repeats = 1 if smoke else 3
        self.dt = cli.DEFAULT_CONFIG["evolution"]["dt"]
        self.prob = whitham_problem()
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "study.json"
        self.config.write_text(json.dumps({"sweep": {"mu_list": self.mu_list}}))
        self.rounds = 0

    def inputs(self) -> dict:
        return {"mu_list": self.mu_list}

    def _cli(self, *argv: str) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["--config", str(self.config), *argv])

    def round(self, s: Session) -> dict:
        d = self.workdir / f"round{self.rounds:03d}"
        self.rounds += 1
        counts = {}
        with s.op("cli sweep", "sweep") as op:
            code = self._cli("sweep", "--out", str(d / "sweep"))
        s.gate(op, "exit==0", code == 0, code)
        rows = _read_rows(d / "sweep" / "sweep.csv")
        s.gate(op, f"rows=={len(self.mu_list)}", len(rows) == len(self.mu_list), len(rows))
        worst = max((float(r["residual"]) for r in rows), default=float("inf"))
        s.gate(op, "residual<=1e-9", worst <= 1e-9, worst)
        slowest = min((float(r["nu"]) for r in rows), default=float("-inf"))
        s.gate(op, "nu>m(0)", slowest > self.prob.symbol.m_zero, slowest)
        for r, mu in zip(rows, self.mu_list):
            counts[f"solver.iterations.mu{mu:.6g}"] = int(float(r["iters"]))

        for _ in range(self.compare_repeats):
            with s.op("cli compare-kdv", "compare") as op:
                code = self._cli("compare-kdv", "--sweep-dir", str(d / "sweep"),
                                 "--out", str(d / "compare"))
            s.gate(op, "exit==0", code == 0, code)
            n = len(_read_rows(d / "compare" / "convergence.csv"))
            s.gate(op, f"rows=={len(self.mu_list)}", n == len(self.mu_list), n)

        with s.op("cli evolve", "evolve", "stepping") as op:
            code = self._cli("evolve", "--profile",
                             str(d / "sweep" / "profiles" / "profile_002.csv"),
                             "--T", repr(self.t_final), "--out", str(d / "evolve"))
        s.gate(op, "exit==0", code == 0, code)
        man = _read_json(d / "evolve" / "manifest.json")
        for key in ("shape_error", "speed_error"):
            err = man.get(key, float("inf"))
            s.gate(op, f"{key}<=1e-6", err <= 1e-6, err)
        trace_rows = _read_rows(d / "evolve" / "trace.csv")
        steps = round(float(trace_rows[-1]["t"]) / self.dt) if trace_rows else 0
        counts["evolution.steps"] = steps
        counts["evolution.records"] = len(trace_rows)

        digest, n_bytes, n_files = output_digest(d)
        counts["fileio.bytes_written"] = n_bytes
        counts["fileio.files_written"] = n_files
        shutil.rmtree(d)
        return {"counts": counts, "steps": steps, "digest": digest}


def output_digest(root: Path) -> tuple[str, int, int]:
    """sha256 over every output file and its relative path, with the data
    bytes and the file count.  Manifests carry wall-clock timings, so they
    are counted as files but neither hashed nor counted in bytes."""
    h = hashlib.sha256()
    n_bytes = n_files = 0
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        n_files += 1
        if p.name.startswith("manifest"):
            continue
        data = p.read_bytes()
        n_bytes += len(data)
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), n_bytes, n_files


def _read_rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as f:
            return list(csv.DictReader(f))
    except FileNotFoundError:
        return []


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


WORKLOADS = {w.name: w for w in (StabilityWorkload, PipelineWorkload)}
