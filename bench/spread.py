"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload stability --seeds 10 --seconds 25

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json and a third of it.  A benchmark is steady
when every spread stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=None,
                   help="defaults to run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(workload, seed, seconds)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                ok = spread < bound / 3.0
                steady &= ok
                note = f"bound {bound:g} third {bound / 3:.4f} {'ok' if ok else 'WIDE'}"
            print(f"{workload:10s} {name:34s} median {med:12.6g} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:8.4f} {note}")
        steady &= all(r["correct"] for r in results)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
