"""The benchmark's tracer names package functions by string, and its layer
timings call package functions directly.

``bench/tracer.py`` wraps each of its ``TARGETS`` in every solwave module that
holds it; a name that no longer exists fails the benchmark before it measures
anything.  ``bench/micro.py`` calls ``default_grid``, ``kdv_scaled_seed`` and
``discretize`` by position.  Both are loaded by path, as the benchmark runs them,
and so is ``bench/workloads.py``, whose smoke rounds run here untimed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(module: str, path: str):
    """The traced object, or None; a method must be defined on its class
    itself, which the tracer patches."""
    owner = importlib.import_module(f"solwave.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    return vars(owner).get(attr) if owner is not None else None


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    missing = [f"{m}.{p}" for m, p in targets if not callable(resolve(m, p))]
    assert not missing, f"bench/tracer.py names what solwave lacks: {missing}"



def test_written_bytes_read_atomic_writes_text():
    # the tracer counts fileio.bytes_written from atomic_write's second
    # argument, passed by position or as text=
    from solwave.fileio import atomic_write
    path, text = list(inspect.signature(atomic_write).parameters)[:2]
    assert (path, text) == ("path", "text")
    count = load_tracer()._write_attrs
    assert count(("d/t.csv", "x,u\n"), {}, None) == {"data_bytes": 4}
    assert count((), {path: "d/t.csv", text: "x,u\n"}, None) == {"data_bytes": 4}


def test_layer_timings_run_on_the_current_signatures(monkeypatch):
    # bench/micro.py calls solver.default_grid, solver.kdv_scaled_seed and
    # functionals.discretize directly; run every layer once, untimed
    spec = importlib.util.spec_from_file_location("bench_micro", TRACER.with_name("micro.py"))
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)

    def once(fn, **_):
        fn()
        return 1.0

    monkeypatch.setattr(micro, "per_call_us", once)
    from solwave.functionals import Problem
    from solwave.nonlinearity import quadratic
    from solwave.symbols import whitham
    timings = micro.layer_timings(Problem(whitham(), quadratic()))
    assert len(timings) == 8 * len(micro.SIZES)


@pytest.mark.parametrize("name", ["stability", "pipeline"])
def test_workload_smoke_round_passes_its_gates(name, tmp_path, monkeypatch):
    # bench/workloads.py drives perturbation, the sweep and the CLI as the
    # benchmark does; one untimed smoke round of each passes every gate
    monkeypatch.syspath_prepend(str(TRACER.parent))  # workloads imports calib
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  TRACER.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    session = workloads.Session()
    workloads.WORKLOADS[name](7, 0, True, tmp_path).round(session)
    assert session.attempted > 0 and session.failed == 0, session.ops
