import numpy as np

from umda_lab.reporting import format_cell, write_csv


def read_csv(path):
    """Reference reader for ``write_csv`` files: the header and the rows, as strings."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_format_cell_types():
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(np.bool_(True)) == "1"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell(0.1) == "0.1"


def test_floats_round_trip_exactly(tmp_path):
    values = [0.1, 1 / 3, 2.0**-52, 87.10840613837745, 1e300, float(np.float64(np.pi))]
    path = tmp_path / "floats.csv"
    write_csv(path, ["v"], [(v,) for v in values])
    _, rows = read_csv(path)
    parsed = [float(row[0]) for row in rows]
    assert parsed == values


def test_ints_round_trip_exactly(tmp_path):
    values = [0, 1, -5, 2**63 - 1, 2**64 - 1]
    path = tmp_path / "ints.csv"
    write_csv(path, ["v"], [(v,) for v in values])
    _, rows = read_csv(path)
    assert [int(row[0]) for row in rows] == values


def test_newline_discipline(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 2), (3, 4)])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,2\n3,4\n"
