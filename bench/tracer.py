"""Spans around the public boundaries of the solwave modules.

The tracer patches timing wrappers onto module functions and class methods
from outside the package: each wrapper replaces the original wherever a
solwave module holds it (``solver.minimize_constrained`` and the copy that
``cli`` imported are the same object, so both are replaced).  Every call
records a span (name, start, end, parent span, operation id) in flat lists
kept in memory; per-layer numbers are computed from them when a round ends
and the spans are written out when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so children never
overlap and that difference is exactly the uncovered part of the span.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced boundary; a span is named
# "<module>.<attribute path>" and its layer is the module
TARGETS = [
    ("grid", "PeriodicGrid.to_values"),
    ("grid", "PeriodicGrid.to_coeffs"),
    ("nonlinearity", "Nonlinearity.n"),
    ("nonlinearity", "Nonlinearity.primitive"),
    ("functionals", "DiscreteFunctional.energy"),
    ("functionals", "DiscreteFunctional.gradient"),
    ("functionals", "DiscreteFunctional.nonlinear_coeffs"),
    ("solver", "minimize_constrained"),
    ("solver", "minimize_reduced"),
    ("solver", "petviashvili"),
    ("solver", "continuation_sweep"),
    ("evolution", "evolve"),
    ("evolution", "stability_experiment"),
    ("evolution", "travel_test"),
    ("longwave", "orbit_distance"),
    ("analysis", "convergence_study"),
    ("analysis", "scaling_diagnostics"),
    ("analysis", "reduced_reference"),
    ("fileio", "atomic_write"),
    ("fileio", "write_csv"),
    ("fileio", "write_json"),
    ("fileio", "write_field_csv"),
    ("fileio", "write_rows_csv"),
    ("fileio", "read_field_csv"),
    ("cli", "cmd_solve"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_compare_kdv"),
    ("cli", "cmd_evolve"),
    ("cli", "cmd_stability"),
    ("cli", "cmd_validate_symbol"),
]

ROUND = "bench.round"
OP = "bench.op"
_DESCENT = ("solver.minimize_constrained", "solver.minimize_reduced")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _solve_attrs(args, kwargs, out):
    return {"iterations": int(out.iterations), "mu": float(out.mu)}


def _evolve_attrs(args, kwargs, out):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"steps": round(abs(float(out.times[-1])) / cfg.dt),
            "records": len(out.times)}


def _write_attrs(args, kwargs, out):
    # manifests hold wall-clock timings, so their size varies from run to
    # run; only data files count toward the exact byte count
    manifest = Path(_arg(args, kwargs, 0, "path")).name.startswith("manifest")
    return {"data_bytes": 0 if manifest else len(_arg(args, kwargs, 1, "text").encode())}


ATTRS = {
    "solver.minimize_constrained": _solve_attrs,
    "solver.minimize_reduced": _solve_attrs,
    "evolution.evolve": _evolve_attrs,
    "fileio.atomic_write": _write_attrs,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.op_names: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.name)

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield i
        finally:
            self.finish(i)

    @contextmanager
    def operation(self, label: str):
        """A gated benchmark operation: spans inside it carry its id."""
        outer = self._op
        self._op = len(self.op_names)
        self.op_names.append(label)
        try:
            with self.span(OP):
                yield
        finally:
            self._op = outer

    def _wrap(self, name: str, fn):
        begin, finish, extract = self.begin, self.finish, ATTRS.get(name)

        def traced(*args, **kwargs):
            i = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if extract is not None:
                self.attrs[i] = extract(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "solwave" or k.startswith("solwave.")]
        try:
            for mod_name, path in TARGETS:
                mod = importlib.import_module(f"solwave.{mod_name}")
                name = f"{mod_name}.{path}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(name, orig))
                    continue
                orig = getattr(mod, path)
                wrapped = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def dump(self, a: int, b: int) -> dict:
        """Columnar copy of spans [a, b), times in integer nanoseconds from
        the start of the first span."""
        names = sorted(set(self.name[a:b]))
        idx = {n: k for k, n in enumerate(names)}
        t0 = self.start[a]
        return {
            "names": names,
            "name": [idx[n] for n in self.name[a:b]],
            "start_ns": [round((t - t0) * 1e9) for t in self.start[a:b]],
            "end_ns": [round((t - t0) * 1e9) for t in self.end[a:b]],
            "parent": [p - a if p >= a else -1 for p in self.parent[a:b]],
            "op": self.op[a:b],
            "ops": self.op_names,
            "attrs": {str(i - a): v for i, v in self.attrs.items() if a <= i < b},
        }


class RoundSpans:
    """Counts and self times over the spans of one traced round."""

    def __init__(self, tr: Tracer, a: int, b: int):
        self.names = tr.name[a:b]
        self.attrs = [tr.attrs.get(i, {}) for i in range(a, b)]
        start = np.asarray(tr.start[a:b])
        dur = np.asarray(tr.end[a:b]) - start
        parent = np.asarray(tr.parent[a:b]) - a
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.dur = dur
        self.self_time = dur - child
        self.parent = np.where(has_parent, parent, -1)
        self.wall = float(dur[0])  # span a is the round root

    def where(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def count(self, *names: str) -> int:
        return sum(len(self.where(n)) for n in names)

    def self_s(self, *names: str) -> float:
        return float(sum(self.self_time[self.where(n)].sum() for n in names))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(self.attrs[i][key] for i in self.where(name))

    def by_module(self) -> dict[str, float]:
        """Self time per module; the ``bench`` entry is the benchmark's own
        code inside the round, outside every module span."""
        out: dict[str, float] = {}
        for n, t in zip(self.names, self.self_time):
            mod = n.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + float(t)
        return out

    def outermost(self, module: str, *names: str) -> float:
        """Inclusive time of the named spans not nested in another span of
        the same module (so nested writers are not counted twice)."""
        total = 0.0
        for i, n in enumerate(self.names):
            if n in names:
                p = self.parent[i]
                if p < 0 or self.names[p].split(".", 1)[0] != module:
                    total += float(self.dur[i])
        return total

    def descent_energy_calls(self) -> int:
        """Energy evaluations made inside a descent (full or reduced)."""
        inside = [False] * len(self.names)
        calls = 0
        for i, n in enumerate(self.names):
            p = self.parent[i]
            inside[i] = n in _DESCENT or (p >= 0 and inside[p])
            if inside[i] and n == "functionals.DiscreteFunctional.energy":
                calls += 1
        return calls
