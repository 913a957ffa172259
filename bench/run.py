"""solwave benchmark: one workload, single-threaded, one process at a time.

    python3 bench/run.py --workload stability --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics from untraced rounds,
run by four fresh worker processes one after another, each also timed from
its start until it is ready to time.  Its times are CPU seconds calibrated
against reference kernels (see calib.py).  ``--trace 1`` reports the
per-layer metrics from this process: layer microbenchmarks, then untraced and traced
rounds alternating, the traced ones with spans on every module boundary.
Report lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(environment, inputs, every gate, stage samples) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, and the spans of the
first traced round to ``.bench_out/spans-<workload>.json.gz``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, and inherited by the set-up probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

from calib import calibrated  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKERS = 4

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "stage1_s": "s", "stage2_s": "s",
    "stage3_s": "s", "peak_rss_mb": "MB",
}
MU_LABELS = {1e-4: "mu1e-4", 1e-3: "mu1e-3", 1e-2: "mu1e-2"}
MICRO_SIZES = ("N1024", "N4096", "N8192")
MICRO_LAYERS = (
    "grid.fft_pair_us", "functionals.energy_us", "functionals.gradient_us",
    "nonlinearity.primitive_us", "nonlinearity.n_us",
    "longwave.orbit_distance_us", "evolution.us_per_step", "solver.us_per_iter",
)
PER_LAYER = {
    **{f"solver.iterations.{m}": "count" for m in MU_LABELS.values()},
    "solver.self_s": "s",
    "functionals.energy_calls": "count",
    "functionals.gradient_calls": "count",
    "functionals.energy_self_s": "s",
    "functionals.gradient_self_s": "s",
    "functionals.energy_per_iter": "ratio",
    "nonlinearity.calls": "count",
    "nonlinearity.self_s": "s",
    "grid.fft_calls": "count",
    "grid.fft_self_s": "s",
    "evolution.steps": "count",
    "evolution.records": "count",
    "evolution.self_s": "s",
    "longwave.orbit_distance_calls": "count",
    "longwave.orbit_distance_self_s": "s",
    "analysis.self_s": "s",
    "analysis.reduced_iterations": "count",
    "fileio.bytes_written": "B",
    "fileio.files_written": "count",
    "fileio.write_s": "s",
    "fileio.read_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
    "trace_unattributed_frac": "ratio",
    **{f"{layer}.{n}": "us" for layer in MICRO_LAYERS for n in MICRO_SIZES},
}
# per-layer values that must repeat exactly between rounds and runs
EXACT = [k for k, unit in PER_LAYER.items() if unit in ("count", "B")]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stability", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced problem sizes, for the benchmark's own tests")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--draw", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def env_block(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workers(args) -> list[dict]:
    """Untraced rounds, spread over WORKERS fresh processes run one after
    another, each with an equal share of the time.

    Worker k runs draw k of the seed's inputs (see workloads.py): the cost of
    a solve depends on the jittered mu through more than its iteration count,
    so one draw per run would make the run's times depend on its seed by up
    to a tenth.  Each worker is one set-up sample: its CPU time from process
    start until it is ready to time.  The wall time the parent sees for the
    same span goes to the record next to it."""
    base = [sys.executable, str(Path(__file__).resolve()), "--worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / WORKERS)]
    if args.smoke:
        base.append("--smoke")
    results = []
    for draw in range(WORKERS):
        cmd = base + ["--draw", str(draw)]
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                setup = perf_counter() - t0
                out, err = proc.communicate(timeout=args.seconds / WORKERS + 120)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()}")
        results.append({"setup_wall_s": setup, **json.loads(out.strip().splitlines()[-1])})
    return results


def worker(args) -> int:
    """One untraced worker: set up, say so, run rounds, print them as JSON.

    Set-up is this thread's CPU time since the process started, less the
    reference samples taken while solwave is imported and the workload
    built, and it is calibrated by those samples and one taken after."""
    from calib import Sampler, reference_s
    try:
        with Sampler("descent").running() as sampler:
            import workloads
            wl = make_workload(args)
        setup = [thread_time() - sampler.spent, "descent",
                 sampler.refs + [reference_s("descent")]]
        print("ready", flush=True)
        session = workloads.Session(calibrate=True)
        rounds = run_rounds(wl, session, args.seconds, lambda i: False, 1)
    finally:
        shutil.rmtree(workdir(args), ignore_errors=True)
    print(json.dumps({
        "setup": setup,
        "inputs": wl.inputs(), "rounds": rounds, "ops": session.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, default=float))
    return 0


def workdir(args) -> Path:
    return OUT / "work" / f"{args.workload}-{os.getpid()}"


def make_workload(args):
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, args.draw, args.smoke,
                                              workdir(args))


def run_rounds(wl, session, seconds, traced_at, min_rounds, tracer=None):
    """Repeat rounds until the time is spent; ``traced_at(i)`` says which."""
    from tracer import ROUND
    rounds = []
    t_start = perf_counter()
    while True:
        traced = traced_at(len(rounds))
        session.stage_s = defaultdict(list)
        session.tracer = tracer if traced else None
        if traced:
            a = len(tracer)
            with tracer.installed(), tracer.span(ROUND):
                out = wl.round(session)
            out["spans"] = (a, len(tracer))
            out["wall_s"] = tracer.end[a] - tracer.start[a]
        else:
            t0 = perf_counter()
            out = wl.round(session)
            out["wall_s"] = perf_counter() - t0
        out["traced"] = traced
        out["stage_s"] = dict(session.stage_s)
        rounds.append(out)
        elapsed = perf_counter() - t_start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and elapsed + 0.5 * typical >= seconds:
            session.tracer = None
            return rounds


def check_repeats(session, rounds, layer_rounds=()):
    """Machine-independent counts and output digests must repeat exactly
    between the rounds of one draw."""
    with session.op("repeatable") as op:
        draws = defaultdict(list)
        for r in rounds:
            draws[r["draw"]].append(r)
        first = {d: rs[0]["counts"] for d, rs in draws.items()}
        session.gate(op, "counts repeat",
                     all(r["counts"] == first[r["draw"]] for r in rounds), first)
        digests = {d: sorted({r["digest"] for r in rs}) for d, rs in draws.items()}
        session.gate(op, "outputs byte-identical",
                     all(len(ds) == 1 for ds in digests.values()), digests)
        if layer_rounds:
            exact = [{k: m[k] for k in EXACT} for m in layer_rounds]
            session.gate(op, "span counts repeat", all(e == exact[0] for e in exact),
                         exact[0])


def layer_metrics(rs) -> dict:
    """Per-layer values of one traced round (see tracer.RoundSpans)."""
    self_s = rs.by_module()
    m = {}
    for label in MU_LABELS.values():
        m[f"solver.iterations.{label}"] = 0
    for i in rs.where("solver.minimize_constrained"):
        mu = rs.attrs[i]["mu"]
        for base, label in MU_LABELS.items():
            key = f"solver.iterations.{label}"
            if abs(mu / base - 1.0) <= 0.1 and m[key] == 0:
                m[key] = rs.attrs[i]["iterations"]
    energy, gradient = ("functionals.DiscreteFunctional.energy",
                        "functionals.DiscreteFunctional.gradient")
    fft = ("grid.PeriodicGrid.to_values", "grid.PeriodicGrid.to_coeffs")
    nonlin = ("nonlinearity.Nonlinearity.n", "nonlinearity.Nonlinearity.primitive")
    iters = (rs.attr_sum("solver.minimize_constrained", "iterations")
             + rs.attr_sum("solver.minimize_reduced", "iterations"))
    writers = ("fileio.atomic_write", "fileio.write_csv", "fileio.write_json",
               "fileio.write_field_csv", "fileio.write_rows_csv")
    m.update({
        "solver.self_s": self_s.get("solver", 0.0),
        "functionals.energy_calls": rs.count(energy),
        "functionals.gradient_calls": rs.count(gradient),
        "functionals.energy_self_s": rs.self_s(energy),
        "functionals.gradient_self_s": rs.self_s(gradient),
        "functionals.energy_per_iter": rs.descent_energy_calls() / iters if iters else 0.0,
        "nonlinearity.calls": rs.count(*nonlin),
        "nonlinearity.self_s": rs.self_s(*nonlin),
        "grid.fft_calls": rs.count(*fft),
        "grid.fft_self_s": rs.self_s(*fft),
        "evolution.steps": rs.attr_sum("evolution.evolve", "steps"),
        "evolution.records": rs.attr_sum("evolution.evolve", "records"),
        "evolution.self_s": self_s.get("evolution", 0.0),
        "longwave.orbit_distance_calls": rs.count("longwave.orbit_distance"),
        "longwave.orbit_distance_self_s": rs.self_s("longwave.orbit_distance"),
        "analysis.self_s": self_s.get("analysis", 0.0),
        "analysis.reduced_iterations": rs.attr_sum("solver.minimize_reduced", "iterations"),
        "fileio.bytes_written": rs.attr_sum("fileio.atomic_write", "data_bytes"),
        "fileio.files_written": rs.count("fileio.atomic_write"),
        "fileio.write_s": rs.outermost("fileio", *writers),
        "fileio.read_s": rs.outermost("fileio", "fileio.read_field_csv"),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace_unattributed_frac": self_s.get("bench", 0.0) / rs.wall,
    })
    return m


def end_to_end(wl, workers) -> tuple[dict, dict]:
    """End-to-end metrics, and the workload's own names for the same numbers.

    All times are calibrated CPU seconds, medians over every worker's
    samples.  A round's time is the sum of its stages.  Peak memory is the
    largest of the workers."""
    rounds = [r for w in workers for r in w["rounds"]]
    stage = {s: statistics.median(calibrated(*x) for r in rounds for x in r["stage_s"][s])
             for s in wl.stages}
    refs = [ref for r in rounds for xs in r["stage_s"].values() for _, _, rs in xs
            for ref in rs]
    metrics = {
        "setup_s": statistics.median(calibrated(*w["setup"]) for w in workers),
        "wall_s": statistics.median(round_time(r) for r in rounds),
        **{f"stage{k + 1}_s": stage[s] for k, s in enumerate(wl.stages)},
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    named = {}
    if wl.stage_metric:
        for s in wl.stages:
            named[wl.stage_metric.format(s)] = (stage[s], "s")
    if wl.step_stages:
        named["steps_per_s"] = (statistics.median(
            r["steps"] / sum(calibrated(*x) for s in wl.step_stages for x in r["stage_s"][s])
            for r in rounds), "1/s")
    named["reference_kernel_s"] = (statistics.median(refs), "s")
    for key, value in rounds[0]["counts"].items():
        named[key] = (value, "count")
    return metrics, named


def round_time(r) -> float:
    return sum(calibrated(*x) for samples in r["stage_s"].values() for x in samples)


def per_layer(rounds, micro) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layers = [r["layers"] for r in traced]
    m = {}
    for key, unit in PER_LAYER.items():
        if key in micro:
            m[key] = micro[key]
        elif key == "trace_overhead_frac":
            m[key] = (statistics.median(r["wall_s"] for r in traced)
                      / statistics.median(r["wall_s"] for r in plain) - 1.0)
        elif key in EXACT:
            m[key] = layers[0][key]
        else:
            m[key] = statistics.median(lr[key] for lr in layers)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "solwave" / "__init__.py").is_file():
        print(f"bench: no solwave sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        return worker(args)

    import workloads
    OUT.mkdir(exist_ok=True)
    env = env_block(args)
    session = workloads.Session()
    record = {"env": env}
    if args.trace == 0:
        workers = run_workers(args)
        rounds = [dict(r, draw=k) for k, w in enumerate(workers) for r in w["rounds"]]
        session.ops = [op for w in workers for op in w["ops"]]
        check_repeats(session, rounds)
        metrics, named = end_to_end(workloads.WORKLOADS[args.workload], workers)
        units = END_TO_END
        record.update(workers=[{k: v for k, v in w.items() if k not in ("rounds", "ops")}
                               for w in workers])
    else:
        metrics, rounds = traced_run(args, session, record)
        named = {}
        units = PER_LAYER

    named["ops_failed_frac"] = (session.failed / session.attempted, "ratio")
    record.update({
        "metrics": metrics, "named": {k: v for k, (v, _) in named.items()},
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
        "ops": session.ops,
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for rec in session.ops:
        bad = [g for g, (ok, _) in rec["gates"].items() if not ok]
        if bad or not rec["gates"]:
            print(f"FAILED {rec['op']}: {bad or 'no gates evaluated'}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_run(args, session, record) -> tuple[dict, list[dict]]:
    """Microbenchmarks, then untraced and traced rounds in this process."""
    import micro
    from tracer import RoundSpans, Tracer
    wl = make_workload(args)
    record["inputs"] = wl.inputs()
    try:
        t0 = perf_counter()
        micro_us = micro.layer_timings(wl.prob)
        record["micro_s"] = perf_counter() - t0
        tracer = Tracer()
        # U T T, then U T alternating: overhead from neighbouring rounds
        rounds = run_rounds(wl, session, args.seconds,
                            lambda i: i in (1, 2) or (i > 2 and i % 2 == 0), 3, tracer)
    finally:
        shutil.rmtree(workdir(args), ignore_errors=True)
    for r in rounds:
        r["draw"] = args.draw
        if r["traced"]:
            rs = RoundSpans(tracer, *r["spans"])
            r["layers"] = layer_metrics(rs)
            r["module_self_s"] = rs.by_module()
    check_repeats(session, rounds, [r["layers"] for r in rounds if r["traced"]])
    metrics = per_layer(rounds, micro_us)
    first = next(r for r in rounds if r["traced"])
    with gzip.open(OUT / f"spans-{args.workload}.json.gz", "wt") as f:
        json.dump(tracer.dump(*first["spans"]), f)
    record["self_time_check"] = self_time_check(rounds, metrics)
    return metrics, rounds


def self_time_check(rounds, metrics) -> dict:
    """Module self times of the traced rounds against the untraced rounds.

    Within one traced round the self times add up to its wall time by
    definition, so the comparison that can fail is with the untraced rounds
    of the same process: the excess of the module self times over the
    untraced wall time is what the wrappers add to the modules, and should
    stay within trace_overhead_frac.  Both sides are medians over rounds."""
    traced = [r for r in rounds if r["traced"]]
    modules = statistics.median(
        sum(t for mod, t in r["module_self_s"].items() if mod != "bench") for r in traced)
    plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    excess = modules / plain - 1.0
    return {"modules_sum_s": modules, "untraced_wall_s": plain,
            "module_self_s": traced[0]["module_self_s"],
            "self_time_excess_frac": excess,
            "trace_overhead_frac": metrics["trace_overhead_frac"],
            "within_overhead": excess <= max(metrics["trace_overhead_frac"], 0.0)}


if __name__ == "__main__":
    sys.exit(main())
