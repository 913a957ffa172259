"""Every file a study writes and reads back.

All floats are written as %.17g so identical runs give byte-identical files.
A table is formatted by one ``%``: its row template repeated once per row,
applied to the cells in row order, which gives the bytes that one ``%`` per
row gives; a row that does not fit the header is refused before anything is
written.  Writes go through a temp file and an atomic rename; a failed write
leaves no temp file, and one the file system refuses is a ConfigError naming
``out``.  A stored wave is a pair: ``profile<suffix>.csv`` holds its samples
and ``meta<suffix>.json`` beside it its certificate numbers, and
``read_profile`` is the one way from that pair back to a ``WaveProfile``.
meta.json is stated once, in ``_META``: each key with the attribute it holds,
its kind and its range, which the writer, the check and the reader all read.
A table's header is the keys of its first row.

A stored profile is parsed in one call to numpy's C reader, which rounds
correctly and so gives the doubles ``float()`` gives; a file it cannot open,
a row it cannot read, a node that is not where the grid puts it, and a
non-finite sample are each a ConfigError naming ``profile``.  A stored wave
then meets a solved one's gates, ``solver.certify``: a ConfigError naming
``meta`` for its speed, and one naming ``profile`` for its resolution or for
a momentum Q that is not meta's ``mu``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, MuTooLarge, ResolutionLoss
from .functionals import Problem, momentum
from .grid import PeriodicGrid, SpectralField
from .solver import WaveProfile, certify

_CONVENTION = "unitary-sqrtP"  # the grid's coefficient convention
_FIELD_HEADER = "x,u"
# meta.json, key by key: the WaveProfile attribute it holds (None: it describes
# the samples' grid, see _grid_meta), its kind, and the range every writer keeps
_META = {"mu": ("mu", float, "positive"), "nu": ("speed", float, None),
         "residual": ("residual", float, "nonnegative"), "energy": ("energy", float, None),
         "iterations": ("iterations", int, "nonnegative"), "symbol": ("symbol", str, None),
         "nonlinearity": ("nonlinearity", str, None),
         "P": (None, float, None), "N": (None, int, None), "convention": (None, str, None)}
_IN_RANGE = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}
_MU_TOL = 1e-12  # |Q/mu - 1| allowed: 1,031 solved waves give 6.7e-16 at most,
# and the default sweep's, rounded to six digits, 6.9e-8 or more


def is_number(v) -> bool:
    """An int or float, not a bool, that a double holds: what a JSON number
    must be wherever solwave reads one."""
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= sys.float_info.max)


def atomic_write(path, text: str):
    path, tmp = Path(path), None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}", field="out") from exc
        raise


def _write_table(path, header: list[str], cells: list) -> None:
    """The table whose rows are consecutive runs of ``len(header)`` cells;
    the ``%`` raises TypeError when they leave a part of a row."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    text = (row * (len(cells) // len(header))) % tuple(cells)
    atomic_write(path, ",".join(header) + "\n" + text)


def write_csv(path, header: list[str], rows) -> None:
    """One line per row; each row has one number per header column."""
    cells = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: a row of {len(row)} cells under "
                             f"{len(header)} columns")
        cells.extend(row)
    _write_table(path, header, cells)


def write_json(path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_rows_csv(path, rows: list[dict]) -> None:
    """A table whose header is the first row's keys, which every row shares."""
    keys = rows[0].keys()
    if any(row.keys() != keys for row in rows):
        raise ValueError(f"{path}: a row whose keys are not {list(keys)}")
    header = list(keys)
    _write_table(path, header, [row[c] for row in rows for c in header])


def write_manifest(path, command: str, config: dict, t0: float, **extra) -> None:
    """The command, its effective config, the versions, the seconds since
    ``t0`` and any ``extra`` results."""
    write_json(path, {"command": command, "config": config,
                      "versions": {"solwave": __version__, "numpy": np.__version__},
                      "elapsed_s": round(time.time() - t0, 3), **extra})


def write_field_csv(path, u: SpectralField) -> None:
    """Physical samples as `x,u`."""
    _write_table(path, _FIELD_HEADER.split(","),
                 np.column_stack((u.grid.nodes, u.values)).ravel().tolist())


def read_field_csv(path) -> SpectralField:
    """The samples that ``write_field_csv`` stored at ``path``."""
    try:
        with open(path) as f, warnings.catch_warnings():
            # a header-only file is refused below, as too few samples
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            if f.readline().strip().split(",")[:2] != _FIELD_HEADER.split(","):
                raise ConfigError(f"{path}: expected header {_FIELD_HEADER!r}", field="profile")
            xs, vs = np.loadtxt(f, delimiter=",", comments=None, usecols=(0, 1),
                                ndmin=2).T
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path}: unreadable: {exc}", field="profile")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise ConfigError(f"{path}: non-finite sample", field="profile")
    n = len(xs)
    if n < 2:
        raise ConfigError(f"{path}: too few samples", field="profile")
    # the first node sits at -P/2 exactly, so the period round-trips in full
    # precision through the %.17g formatting
    period = -2.0 * xs[0]
    try:
        grid = PeriodicGrid(period, n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}", field="profile")
    off = np.flatnonzero(np.abs(xs - grid.nodes) > 1e-9 * grid.spacing)
    if off.size:
        j = off[0]
        raise ConfigError(f"{path}: node {j} is x = {float(xs[j])!r}, not "
                          f"{float(grid.nodes[j])!r}", field="profile")
    return SpectralField.from_values(grid, vs)


def _meta_path(profile: Path) -> Path:
    """meta<suffix>.json beside profile<suffix>.csv."""
    return profile.with_name("meta" + profile.stem.removeprefix("profile") + ".json")


def _grid_meta(grid: PeriodicGrid) -> dict:
    return {"P": grid.period, "N": grid.n, "convention": _CONVENTION}


def write_profile(path, prof: WaveProfile) -> None:
    """The samples at ``path`` and the certificate numbers beside them."""
    path = Path(path)
    write_field_csv(path, prof.field)
    meta = {key: getattr(prof, attr) for key, (attr, _, _) in _META.items() if attr}
    write_json(_meta_path(path), {**meta, **_grid_meta(prof.field.grid)})


def _check_meta(meta, grid: PeriodicGrid) -> None:
    """ValueError naming the first entry of ``meta`` that is missing, of the
    wrong kind, out of range, or not that of the stored samples."""
    if not isinstance(meta, dict):
        raise ValueError("not a JSON object")
    for key, (_, kind, within) in _META.items():
        if key not in meta:
            raise ValueError(f"no {key!r}")
        v = meta[key]
        if kind is float:
            ok = is_number(v) and math.isfinite(v)
        else:
            ok = isinstance(v, kind) and not isinstance(v, bool)
        if not ok:
            raise ValueError(f"{key} = {v!r} is not a usable {kind.__name__}")
        if within and not _IN_RANGE[within](v):
            raise ValueError(f"{key} = {v!r} is not {within}")
    for key, wanted in _grid_meta(grid).items():
        if meta[key] != wanted:
            raise ValueError(f"{key} is {meta[key]!r}, not the profile's {wanted!r}")


def read_profile(path, prob: Problem) -> WaveProfile:
    """The wave stored at ``path`` by ``write_profile``.

    Its meta must hold every entry that ``write_profile`` writes, with the
    samples' grid, the package's convention, ``prob``'s symbol and nonlinearity,
    pass ``certify`` with meta's nu and mu and have Q = mu, as every solve does:
    anything else is a ConfigError.  Other keys are ignored."""
    u = read_field_csv(path)
    meta_path = _meta_path(Path(path))
    try:
        meta = json.loads(meta_path.read_text())
        _check_meta(meta, u.grid)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{meta_path}: unusable metadata: {exc}", field="meta")
    for key, wanted in (("symbol", prob.symbol.name),
                        ("nonlinearity", prob.nonlinearity.name)):
        if meta[key] != wanted:
            raise ConfigError(f"{meta_path} was computed with {key} {meta[key]!r}, "
                              f"not {wanted!r}", field=f"problem.{key}")
    try:
        certify(prob, u, meta["nu"], meta["mu"])
    except MuTooLarge as exc:
        raise ConfigError(f"{meta_path}: {exc}", field="meta")
    except ResolutionLoss as exc:
        raise ConfigError(f"{path}: {exc}", field="profile")
    if not abs((q := momentum(u)) / meta["mu"] - 1.0) <= _MU_TOL:  # true on NaN
        raise ConfigError(f"{path}: Q = {q!r} is not meta's mu", field="profile")
    return WaveProfile(field=u, **{attr: meta[key] for key, (attr, _, _) in _META.items()
                                   if attr})
