"""Reading stored profiles back: the doubles, the accepted layouts, the refusals."""

import json
import warnings

import numpy as np
import pytest

from solwave.cli import main
from solwave.errors import ConfigError
from solwave.fileio import read_field_csv

NODES = [j - 8.0 for j in range(16)]  # the nodes of PeriodicGrid(16.0, 16)


def profile_text(cells):
    """A 16-row `x,u` file with ``cells`` as its u column."""
    return "".join(["x,u\n", *(f"{x!r},{u}\n" for x, u in zip(NODES, cells))])


def reference_parse(path):
    """The per-line ``float()`` reader: (xs, vs), or None where it refuses."""
    xs, vs = [], []
    with open(path) as f:
        f.readline()
        try:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")[:2]
                xs.append(float(a))
                vs.append(float(b))
        except ValueError:
            return None
    return np.array(xs), np.array(vs)


def read_or_none(tmp_path, text):
    path = tmp_path / "profile.csv"
    path.write_bytes(text.encode())
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return read_field_csv(path)
    except ConfigError:
        return None


def test_parsed_doubles_are_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(7)
    spread = rng.standard_normal(9) * 10.0 ** rng.integers(-300, 300, 9)
    # signed zero, the subnormal and normal extremes, 17 digits, and two
    # strings at or next to a tie between doubles
    cells = ["-0.0", "5e-324", "1.7976931348623157e308", "-2.2250738585072014e-308",
             "0.10000000000000001", "9007199254740993", "2.4703282292062328e-324",
             *(f"{v:.17g}" for v in spread)]
    u = read_or_none(tmp_path, profile_text(cells))
    assert u is not None
    assert u.values.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("row, sep", [
    ("{},{}", "\r\n"), ("{},{}\n", "\n"), (" {} ,\t{} ", "\n"), ("{},{},1.5,abc", "\n")],
    ids=["crlf", "blank_lines", "spaces", "extra_columns"])
def test_reader_accepts_layouts(tmp_path, row, sep):
    cells = [f"{np.exp(-x * x):.17g}" for x in NODES]
    text = sep.join(["x,u", *(row.format(repr(x), u) for x, u in zip(NODES, cells))]) + sep
    u = read_or_none(tmp_path, text)
    assert u is not None
    assert u.values.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("j, shift", [(1, 2e-9), (15, 2e-9), (7, -1e-6)])
def test_node_off_its_place_is_refused(tmp_path, j, shift):
    # every node within 1e-9 of the spacing (here 1.0) of where the grid puts it
    xs = list(NODES)
    assert read_or_none(tmp_path, profile_text(["0.5"] * 16)) is not None
    xs[j] += shift
    text = "".join(["x,u\n", *(f"{x!r},0.5\n" for x in xs)])
    assert read_or_none(tmp_path, text) is None


@pytest.mark.parametrize("row", [
    "-5.0", "-5.0,abc", "#-5.0,0.0", "-5.0,0.0#", "-5.0,", ",0.0", "-5.0 0.0",
    "-5.0;0.0", "-5.0,0 1", "-5.0,1_0", "-5.0,0x1p3", "-5.0,1d0", '-5.0,"1"',
    "-5.0,1j", "-5.0,.", "-5.0,1e", "-5.0,0\x00", "-5.0,١", "-5.0, 1",
    "-5.0,+1", "-5.0,1\x0b", "-5.0,1,abc", "-5.0,1e999", "-5.0,nan", "-5.0,-Infinity",
    " ", "\x0c", "\t-5.0\t,\t1\t"])
def test_reader_accepts_nothing_float_refuses(tmp_path, row):
    # row 3 of a valid file replaced: an accepted file holds the doubles that
    # the per-line float() reader gives for it
    lines = profile_text(["0.5"] * 16).splitlines()
    lines[4] = row
    text = "\n".join(lines) + "\n"
    u = read_or_none(tmp_path, text)
    if u is not None:
        ref = reference_parse(tmp_path / "profile.csv")
        assert ref is not None
        assert u.grid.nodes.tobytes() == ref[0].tobytes()
        assert u.values.tobytes() == ref[1].tobytes()


@pytest.mark.parametrize("text", [
    "x,u\n-8.0\n", "x,u\n-8.0,abc\n", "x,u\n#-8.0,0.0\n", "x,u\n", "x,u\r\n\r\n",
    "x,v\n-8.0,0.0\n", b"x,u\n-8.0,\xff\n".decode("latin-1")],
    ids=["one_column", "non_numeric", "comment", "header_only", "header_crlf",
         "header", "not_utf8"])
def test_unreadable_profile_is_one_json_line(tmp_path, capsys, text):
    path = tmp_path / "profile.csv"
    path.write_bytes(text.encode("latin-1"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["evolve", "--profile", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1 and not caught
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    line = json.loads(err)
    assert line["error"] == "CONFIG" and line["field"] == "profile"
