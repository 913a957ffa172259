"""Stored tables and profiles: the bytes written, the doubles read back, the
accepted layouts, the refusals."""

import warnings

import numpy as np
import pytest

from conftest import error_line
from solwave.cli import main
from solwave.errors import ConfigError
from solwave.fileio import (atomic_write, read_field_csv, write_csv, write_field_csv,
                            write_rows_csv)
from solwave.grid import PeriodicGrid, SpectralField

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


@pytest.mark.parametrize("header, row, sep", [
    ("x,u", "{},{}", "\r\n"), ("x,u", "{},{}\n", "\n"), ("x,u", " {} ,\t{} ", "\n"),
    ("x,u", "{},{},1.5,abc", "\n"), ("x,u,v", "{},{},1.5", "\n")],
    ids=["crlf", "blank_lines", "spaces", "extra_columns", "header_extra_column"])
def test_reader_accepts_layouts(tmp_path, header, row, sep):
    cells = [f"{np.exp(-x * x):.17g}" for x in NODES]
    text = sep.join([header, *(row.format(repr(x), u) for x, u in zip(NODES, cells))]) + sep
    u = read_or_none(tmp_path, text)
    assert u is not None
    assert u.values.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("j, shift", [(1, 2e-9), (15, 2e-9), (7, -1e-6), (3, 1.2e-9)])
def test_node_off_its_place_is_refused(tmp_path, j, shift):
    # every node within 1e-9 of the spacing of where the grid puts it, on
    # grids of spacing 1, 1/4 and 4; node j off by shift spacings is not
    for spacing in (1.0, 0.25, 4.0):
        for off, refused in ((0.8e-9, False), (shift, True)):
            xs = [spacing * x for x in NODES]
            xs[j] += off * spacing
            text = "".join(["x,u\n", *(f"{x!r},0.5\n" for x in xs)])
            assert (read_or_none(tmp_path, text) is None) == refused, (spacing, off)


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
    line = error_line(capsys.readouterr().err)
    assert line["error"] == "CONFIG" and line["field"] == "profile"


def reference_csv(header, rows):
    """The per-row writer: one ``%`` per row."""
    fmt = ",".join(["%.17g"] * len(header))
    return "".join([",".join(header) + "\n", *(fmt % tuple(row) + "\n" for row in rows)])


# signed zero, the subnormal and normal extremes, the non-finite values, and
# doubles exactly halfway between two 17-digit decimals (1 + j 2^-17)
SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
           *((2**17 + j) / 2**17 for j in (1, 3, 5, 7))]


def test_table_bytes_are_the_per_row_writers(tmp_path):
    rows = [(v, -v, 8192) for v in SPECIAL]
    write_csv(tmp_path / "t.csv", ["a", "b", "N"], rows)
    text = (tmp_path / "t.csv").read_text()
    assert text == reference_csv(["a", "b", "N"], rows)
    # each tie rounds to the even last digit
    assert "\n1.0000076293945312,-1.0000076293945312,8192\n1.0000228881835938," in text


@pytest.mark.parametrize("n_rows", [1, len(SPECIAL)])
def test_dict_rows_bytes_are_the_per_row_writers(tmp_path, n_rows):
    rows = [{"N": 8192, "mu": v, "nu": 1.0 + v} for v in SPECIAL[:n_rows]]
    write_rows_csv(tmp_path / "t.csv", rows)
    text = (tmp_path / "t.csv").read_text()
    assert text == reference_csv(["N", "mu", "nu"], [list(r.values()) for r in rows])
    assert text.splitlines()[1].startswith("8192,")


def test_field_bytes_are_the_per_row_writers(tmp_path):
    rng = np.random.default_rng(11)
    vs = rng.standard_normal(16) * 10.0 ** rng.integers(-300, 300, 16)
    vs[:3] = -0.0, 5e-324, SPECIAL[6]
    u = SpectralField.from_values(PeriodicGrid(16.0, 16), vs)
    write_field_csv(tmp_path / "profile.csv", u)
    assert ((tmp_path / "profile.csv").read_text()
            == reference_csv(["x", "u"], zip(u.grid.nodes, u.values)))


@pytest.mark.parametrize("rows", [[(1.0, 2.0, 3.0)], [(1.0,), (1.0, 2.0, 3.0)]],
                         ids=["three_under_two", "one_beside_three"])
def test_ragged_table_is_refused(tmp_path, rows):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert not (tmp_path / "t.csv").exists()


def test_failed_write_leaves_no_temp_file(tmp_path):
    # a lone surrogate cannot be encoded: the write fails after the temp file
    # is made, and nothing is left beside the target
    with pytest.raises(UnicodeEncodeError):
        atomic_write(tmp_path / "t.txt", "x\ud800")
    assert list(tmp_path.iterdir()) == []
    # a target under a regular file is refused as a bad --out
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError) as err:
        atomic_write(tmp_path / "file" / "t.txt", "x")
    assert err.value.info["field"] == "out"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("second", [{"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0},
                                    {"a": 1.0, "c": 3.0}],
                         ids=["more_keys", "fewer_keys", "other_keys"])
def test_ragged_dict_rows_are_refused(tmp_path, second):
    rows = [{"a": 1.0, "b": 2.0}, second]
    with pytest.raises(ValueError):
        write_rows_csv(tmp_path / "t.csv", rows)
    assert not (tmp_path / "t.csv").exists()
