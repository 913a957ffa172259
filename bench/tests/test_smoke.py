"""Smoke tests of the benchmark itself, at reduced problem sizes.

    python3 -m pytest -q bench/tests

Each workload runs untraced and traced; every metric named in BENCHMARK.json
must be present with its unit, every operation must have evaluated its
gates, and counts and output digests must repeat exactly between two runs
with the same seed.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATES = {
    "stability": {"ratio<=5", "|Q drift|<=1e-10", "|E drift|<=1e-8",
                  "max distance monotone in scale"},
    "pipeline": {"exit==0", "residual<=1e-9", "nu>m(0)", "shape_error<=1e-6",
                 "speed_error<=1e-6", "outputs byte-identical"},
}
# modules whose spans each workload's traced rounds must contain; together
# they cover every traced module
SPAN_MODULES = {
    "stability": {"grid", "nonlinearity", "functionals", "evolution", "longwave"},
    "pipeline": {"grid", "nonlinearity", "functionals", "solver", "evolution",
                 "longwave", "analysis", "fileio", "cli"},
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KINDS = {"stability": {"stepping"}, "pipeline": {"descent", "stepping"}}


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def record(workload: str, trace: int, seed: int = 3) -> dict:
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_gates(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    rec = record(workload, trace)
    assert all(op["gates"] for op in rec["ops"])
    evaluated = {g for op in rec["ops"] for g in op["gates"]}
    assert GATES[workload] <= evaluated
    assert {"counts repeat", "outputs byte-identical"} <= evaluated
    assert rec["env"]["threads"]["OMP_NUM_THREADS"] == "1"
    if not trace:
        # every timed stage and set-up carries its reference-kernel samples
        samples = [x for r in rec["rounds"] for xs in r["stage_s"].values() for x in xs]
        assert samples and all(len(refs) >= 2 for _, _, refs in samples)
        assert {kind for _, kind, _ in samples} == KINDS[workload]
        assert all(w["setup"][2] for w in rec["workers"])
    if trace:
        assert "span counts repeat" in evaluated
        with gzip.open(ROOT / ".bench_out" / f"spans-{workload}.json.gz", "rt") as f:
            spans = json.load(f)
        assert len(spans["name"]) == len(spans["start_ns"]) == len(spans["parent"])
        modules = {spans["names"][i].split(".")[0] for i in spans["name"]}
        assert SPAN_MODULES[workload] <= modules


def test_counts_and_outputs_repeat_between_runs():
    first, second = [], []
    for runs in (first, second):
        out = bench(ROOT, "pipeline", 1)
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        rec = record("pipeline", 1)
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "B")})
        runs.append([r["digest"] for r in rec["rounds"]])
    assert first == second


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert not out.stdout.strip()
