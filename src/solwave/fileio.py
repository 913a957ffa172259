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


def _fmt(x) -> str:
    return f"{float(x):.17g}"


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


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_field_csv(path, u: SpectralField, spectral_sidecar: bool = False) -> None:
    """Physical samples as `x,u`; optional spectral sidecar `m,re,im`."""
    write_csv(path, ["x", "u"], [[x, v] for x, v in zip(u.grid.nodes, u.values)])
    if spectral_sidecar:
        side = Path(path).with_suffix(".spectral.csv")
        rows = [[int(m), c.real, c.imag]
                for m, c in zip(u.grid.modes, u.coeffs)]
        lines = [",".join(["m", "re", "im"])]
        for m, re, im in rows:
            lines.append(f"{m:d},{_fmt(re)},{_fmt(im)}")
        atomic_write(side, "\n".join(lines) + "\n")


def read_field_csv(path) -> SpectralField:
    xs, vs = [], []
    with open(path) as f:
        header = f.readline().strip()
        if header.split(",")[:2] != ["x", "u"]:
            raise ConfigError(f"{path}: expected header 'x,u'", field="profile")
        for line in f:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")[:2]
            xs.append(float(a))
            vs.append(float(b))
    xs = np.asarray(xs)
    vs = np.asarray(vs)
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
