import numpy as np
import pytest

from mubcert.counts import CountsTable, read_counts_csv, write_counts_csv
from mubcert.errors import CountsFormatError


@pytest.fixture
def table():
    rng = np.random.default_rng(1)
    return CountsTable(dim=4, cells=rng.integers(0, 500, (4, 4, 2, 4)))


def test_round_trip(tmp_path, table):
    path = tmp_path / "counts.csv"
    write_counts_csv(table, path)
    back = read_counts_csv(path)
    assert back.dim == 4
    assert np.array_equal(back.cells, table.cells)


def test_write_is_canonical(tmp_path, table):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_counts_csv(table, p1)
    write_counts_csv(read_counts_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_duplicate_cells(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("i,j,y,outcome,count\n1,1,1,1,5\n1,1,1,1,6\n")
    with pytest.raises(CountsFormatError, match="duplicate"):
        read_counts_csv(path)


def test_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,1,1\n")
    with pytest.raises(CountsFormatError, match="header"):
        read_counts_csv(path)


def test_rejects_bad_indices(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,y,outcome,count\n1,1,3,1,5\n")
    with pytest.raises(CountsFormatError):
        read_counts_csv(path)


def test_rejects_negative_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,y,outcome,count\n1,1,1,1,-2\n")
    with pytest.raises(CountsFormatError):
        read_counts_csv(path)


def test_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,y,outcome,count\n1,1,1,1,2.5\n")
    with pytest.raises(CountsFormatError):
        read_counts_csv(path)


def _complete_rows(d):
    return [f"{i},{j},{y},{b},1" for i in range(1, d + 1) for j in range(1, d + 1)
            for y in (1, 2) for b in range(1, d + 1)]


def test_rejects_dimension_below_two(tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text("i,j,y,outcome,count\n1,1,1,1,5\n1,1,2,1,5\n")
    with pytest.raises(CountsFormatError, match="d < 2"):
        read_counts_csv(path)


def test_rejects_incomplete_grid(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("\n".join(["i,j,y,outcome,count"] + _complete_rows(4)[:-1]) + "\n")
    with pytest.raises(CountsFormatError, match="127"):
        read_counts_csv(path)


def test_large_index_rejected_before_sizing(tmp_path):
    # one stray index 40 in a complete d=4 file: d=40 would need 128000
    # rows, so the file is rejected instead of read into a (40,40,2,40) table
    rows = _complete_rows(4)
    rows[5] = "1,1,1,40,1"
    path = tmp_path / "stray.csv"
    path.write_text("\n".join(["i,j,y,outcome,count"] + rows) + "\n")
    with pytest.raises(CountsFormatError, match="128000"):
        read_counts_csv(path)


def test_rejects_counts_past_int64(tmp_path):
    # each count fits int64, but their sum, which estimate_asp takes, does not
    rows = [f"1,1,1,{b},{2**62}" for b in (1, 2)] + _complete_rows(2)[2:]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(["i,j,y,outcome,count"] + rows) + "\n")
    with pytest.raises(CountsFormatError, match="int64"):
        read_counts_csv(path)


def test_setting_totals(table):
    totals = table.setting_totals()
    assert totals.shape == (4, 4, 2)
    assert totals.sum() == table.total()
