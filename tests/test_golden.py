"""A short study session, byte for byte, against ``tests/golden/session.json``.

The session is the default ``sweep``, ``compare-kdv`` on it, and ``evolve
--T 1`` and ``stability --T 1`` on its ``profile_002``, followed by
``configs/stability.json``'s ``solve --mu 1e-3`` and a ``stability --T 1`` on
that wave.  The golden file holds the sha256 of every data file the session
writes, a few numbers per file, and the environment it was made in.  A
manifest holds its run's ``elapsed_s``, so it has its other numbers and no
digest.

In that environment (numpy version, machine, libc) every digest must match.
Elsewhere pocketfft and libm may round differently, so there only the
numbers are compared, within ``REL_TOL`` relative or ``ABS_TOL`` absolute (the
drifts and floors of round-off size); they are compared in both modes, and the
test states its mode.

Regenerate the golden file, only when what solwave computes is meant to
change, with ``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "session.json"
REL_TOL = ABS_TOL = 1e-12


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver())}


def run_session(d: Path) -> None:
    """Run the golden session's commands in-process, writing under ``d``."""
    from solwave.cli import main
    stored = str(d / "sweep" / "profiles" / "profile_002.csv")
    study = ["--config", str(ROOT / "configs" / "stability.json")]
    commands = [
        ["sweep", "--out", str(d / "sweep")],
        ["compare-kdv", "--sweep-dir", str(d / "sweep"), "--out", str(d / "compare")],
        ["evolve", "--profile", stored, "--T", "1", "--out", str(d / "evolve")],
        ["stability", "--profile", stored, "--T", "1", "--out", str(d / "stability")],
        [*study, "solve", "--mu", "1e-3", "--out", str(d / "study")],
        [*study, "stability", "--profile", str(d / "study" / "profile.csv"), "--T", "1",
         "--out", str(d / "study_stability")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            if main(argv) != 0:
                raise RuntimeError(f"the golden session failed at {argv}")


def _leaves(obj, path=""):
    """(path, number) for every numeric leaf of a JSON document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def numbers(path: Path) -> dict:
    """A table's column sums and largest magnitudes; a JSON file's numbers."""
    if path.suffix == ".json":
        return dict(_leaves(json.loads(path.read_text())))
    header = path.read_text().split("\n", 1)[0].split(",")
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    out = {}
    for name, col in zip(header, cols, strict=True):
        out[f"sum:{name}"] = math.fsum(col)
        out[f"max_abs:{name}"] = float(np.max(np.abs(col)))
    return out


def file_record(path: Path) -> dict:
    if path.name.startswith("manifest"):
        nums = numbers(path)
        del nums["elapsed_s"]
        return {"numbers": nums}
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "numbers": numbers(path)}


def session_record(d: Path) -> dict:
    return {p.relative_to(d).as_posix(): file_record(p)
            for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    run_session(d)
    return session_record(d)


def test_session_matches_golden(session):
    # the numbers are compared in any environment, the digests only in the
    # golden file's own
    golden = json.loads(GOLDEN.read_text())
    mode = "digests" if golden["environment"] == environment() else "numbers"
    print(f"golden session compared by {mode}")
    assert sorted(session) == sorted(golden["files"]), mode
    for name, rec in golden["files"].items():
        got = session[name]["numbers"]
        assert sorted(got) == sorted(rec["numbers"]), f"{mode}: {name}"
        for key, want in rec["numbers"].items():
            assert math.isclose(got[key], want, rel_tol=REL_TOL, abs_tol=ABS_TOL), \
                f"{mode}: {name} {key} is {got[key]!r}, golden {want!r}"
    if mode == "digests":
        changed = [name for name, rec in golden["files"].items()
                   if session[name].get("sha256") != rec.get("sha256")]
        assert not changed, f"{mode}: these files changed: {changed}"


if __name__ == "__main__":
    import tempfile
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        run_session(Path(tmp))
        files = session_record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": environment(), "files": files},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} file records to {GOLDEN}")
