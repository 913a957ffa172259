"""Every named metric of every workload, end to end and per layer.

    python3 bench/report.py --seed 7            # full size, about 4 minutes
    python3 bench/report.py --seed 7 --smoke    # reduced size, under a minute

Runs ``bench/run.py`` for each workload untraced and traced, one run at a
time, and prints each run's metric lines (name, value, unit), its
``ops_failed_frac``, and for the traced run how the module self times
compare with the untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="defaults to run_seconds from BENCHMARK.json, 1 with --smoke")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (1.0 if args.smoke else spec["run_seconds"])
    all_correct = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", repr(seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                print(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            print(f"# {workload}, trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if not line.startswith("env "):
                    print(line)
            if trace:
                rec = json.loads((ROOT / ".bench_out" /
                                  f"{workload}-seed{args.seed}-trace1.json").read_text())
                chk = rec["self_time_check"]
                print(f"{workload} self times: modules {chk['modules_sum_s']:.4f} s "
                      f"against untraced wall {chk['untraced_wall_s']:.4f} s (excess "
                      f"{chk['self_time_excess_frac']:.4f}, trace overhead "
                      f"{chk['trace_overhead_frac']:.4f})")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
