"""Seeded mutant sample of ``src/solwave``, run against the test suite.

    python tests/mutants.py --seed 7 --sample 150

Every candidate mutation changes one token of the source: a comparison
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=`` swap), an arithmetic
operator (``+`` and ``-``, ``*`` and ``/`` swap, ``//`` becomes ``/``, ``**``
becomes ``*``, also in augmented assignments), or a numeric literal (an
integer ``n`` becomes ``n + 1``, a float ``x`` becomes ``1.5 x`` and ``0.0``
becomes ``1e-3``).  The seed draws the sample from all candidates.  Each
mutant runs, one at a time, on its own temporary copy of this checkout with
``python -m pytest -x -q`` (Hypothesis seeded from the same seed) and a
120 s timeout; the checkout itself is only read.  A mutant is killed when
the suite fails, survived when it passes.  The unmutated copy must pass
first.  Prints one line per mutant, ``module:line  before -> after  outcome
(seconds)``, then the tally, and then one tally per module that the sample
drew from.  Not collected by pytest; needs only the standard library.
"""

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from bisect import bisect
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "solwave"
TIMEOUT = 120.0
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".bench_out", ".benchmarks", "*.egg-info")

COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
              ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/"), ast.Pow: ("**", "*")}


def candidates(source):
    """Every mutation of one module's source: (line, start, end, before, after),
    the offsets in bytes, as ``ast`` counts its columns."""
    starts = [0, *accumulate(map(len, source.splitlines(keepends=True)))]

    def offset(line, col):
        return starts[line - 1] + col

    def swap(left, right, old, new):  # the operator text between two operands
        at = source.index(old.encode(), offset(left.end_lineno, left.end_col_offset),
                          offset(right.lineno, right.col_offset))
        return bisect(starts, at), at, at + len(old), old, new

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            found += [swap(left, right, *COMPARE[type(op)]) for left, op, right in zip(
                [node.left, *node.comparators], node.ops, node.comparators) if type(op) in COMPARE]
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            found.append(swap(node.left, node.right, *ARITHMETIC[type(node.op)]))
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
            old, new = ARITHMETIC[type(node.op)]
            found.append(swap(node.target, node.value, old + "=", new + "="))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            v = node.value
            lo = offset(node.lineno, node.col_offset)
            hi = offset(node.end_lineno, node.end_col_offset)
            found.append((node.lineno, lo, hi, source[lo:hi].decode(),
                          repr(v + 1 if type(v) is int else 1.5 * v if v else 1e-3)))
    return sorted(found)


def run_suite(copy, seed):
    """'killed', 'survived' or 'timed out': the suite on one copy of the checkout."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q",
                             f"--hypothesis-seed={seed}"], cwd=copy, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        return "survived" if proc.wait(timeout=TIMEOUT) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite's own subprocesses too
        proc.wait()
        return "timed out"


def tally(outcomes):
    """'K killed, S survived, T timed out of N' for a list of outcomes."""
    return (", ".join(f"{outcomes.count(k)} {k}" for k in ("killed", "survived", "timed out"))
            + f" of {len(outcomes)}")


def mutant_run(seed, module=None, mutated=b""):
    """The suite's outcome on a fresh copy whose ``module`` reads ``mutated``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if module is not None:
            (copy / PACKAGE / module).write_bytes(mutated)
        return run_suite(copy, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    args = parser.parse_args(argv)
    pool = [(path.name, source, m) for path in sorted((ROOT / PACKAGE).glob("*.py"))
            for source in [path.read_bytes()] for m in candidates(source)]
    picked = sorted(random.Random(args.seed).sample(range(len(pool)),
                                                    min(args.sample, len(pool))))
    print(f"{len(picked)} of {len(pool)} candidates, seed {args.seed}", flush=True)
    if mutant_run(args.seed) != "survived":
        print("the unmutated suite does not pass: no mutant can be judged")
        return 1
    outcomes = []  # (module, outcome) for each mutant
    for i in picked:
        module, source, (line, start, end, before, after) = pool[i]
        t0 = time.perf_counter()
        outcome = mutant_run(args.seed, module, source[:start] + after.encode() + source[end:])
        outcomes.append((module, outcome))
        print(f"{module}:{line}  {before} -> {after}  {outcome} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
    print(tally([o for _, o in outcomes]))
    for module in sorted({m for m, _ in outcomes}):
        print(f"{module}: {tally([o for m, o in outcomes if m == module])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
