"""CSV/JSON serialization with deterministic formatting.

All floats are written as %.17g so identical runs give byte-identical files;
writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import PeriodicGrid, SpectralField


def atomic_write(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: list[str], rows) -> None:
    """One line per row; each row has one number per header column."""
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(fmt % tuple(row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_field_csv(path, u: SpectralField) -> None:
    """Physical samples as `x,u`."""
    write_csv(path, ["x", "u"], zip(u.grid.nodes, u.values))


def read_field_csv(path) -> SpectralField:
    xs, vs = [], []
    with open(path) as f:
        header = f.readline().strip()
        if header.split(",")[:2] != ["x", "u"]:
            raise ConfigError(f"{path}: expected header 'x,u'", field="profile")
        try:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")[:2]
                xs.append(float(a))
                vs.append(float(b))
        except ValueError as exc:
            raise ConfigError(f"{path}: unreadable row: {exc}", field="profile")
    xs = np.asarray(xs)
    vs = np.asarray(vs)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise ConfigError(f"{path}: non-finite sample", field="profile")
    n = len(xs)
    if n < 2:
        raise ConfigError(f"{path}: too few samples", field="profile")
    # the first node sits at -P/2 exactly, so the period round-trips in full
    # precision through the %.17g formatting
    period = -2.0 * xs[0]
    h = xs[1] - xs[0]
    if abs(period - h * n) > 1e-9 * period:
        raise ConfigError(f"{path}: nodes are not a uniform centered grid",
                          field="profile")
    try:
        grid = PeriodicGrid(period, n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}", field="profile")
    return SpectralField.from_values(grid, vs)


def write_rows_csv(path, rows: list[dict], columns: list[str]) -> None:
    write_csv(path, columns, [[row[c] for c in columns] for row in rows])


SWEEP_COLUMNS = ["mu", "P", "N", "nu", "energy", "residual", "tail", "iters"]
CONVERGENCE_COLUMNS = ["mu", "dist_aligned", "speed_dev", "energy_dev", "shift",
                       "tau_ratio1", "tau_ratio2", "supnorm_ratio"]
TRACE_COLUMNS = ["t", "E_drift", "Q_drift", "orbit_dist", "shift"]
DIAGNOSTICS_COLUMNS = ["mu", "tau_ratio2", "high_band_floor"]


def manifest(command: str, config: dict, extra: dict | None = None) -> dict:
    import numpy
    from . import __version__
    out = {
        "command": command,
        "config": config,
        "versions": {"solwave": __version__, "numpy": numpy.__version__},
    }
    if extra:
        out.update(extra)
    return out
