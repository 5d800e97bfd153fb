import hashlib
import os

import numpy as np
import pytest

from mubcert import counts
from mubcert.counts import (
    CountsTable, read_counts_csv, row_layout, write_counts_csv, write_output,
)
from mubcert.errors import CountsFormatError
from mubcert.photonics import ideal_expected_counts


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


def test_write_output_writes_to_a_device():
    # a character device cannot be truncated, so it is only written
    write_output(os.devnull, "i,j,y,outcome,count\n")


def test_write_output_keeps_a_file_and_cuts_its_tail(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a longer old text\n")
    inode = path.stat().st_ino
    write_output(path, "new\n")
    assert path.read_bytes() == b"new\n"
    assert path.stat().st_ino == inode


def test_write_is_canonical(tmp_path, table):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_counts_csv(table, p1)
    write_counts_csv(read_counts_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_row_layout_is_one_line_per_index():
    assert row_layout((2, 3), "%d") == "1,1,%d\n1,2,%d\n1,3,%d\n2,1,%d\n2,2,%d\n2,3,%d\n"
    assert row_layout((1,), "x,%r") % (0.5,) == "1,x,0.5\n"


# sha256 of write_counts_csv of a seeded table; d = 4 is pinned by the
# `simulate --ideal` and sampler digests of test_photonics
@pytest.mark.parametrize("d, digest", [
    (2, "6dd7c7c069b341920d679c8d2d1867cb927ca13f592560b761df4c346b94d967"),
    (3, "32723b3eda05a54b17fa2c4ed151c60c6a323b8acf4193b9302c782d65972b15"),
    (5, "d932a87cc274fe7295137d76a84e29d8e6ef04e32f37154ed6b2811dd0ac1c69"),
    (8, "32ff1d9ecdc312495455016d7e86d428588e1496d9686cb81ef3d138d4cd7e7e"),
], ids=["d2", "d3", "d5", "d8"])
def test_csv_bytes_are_pinned(tmp_path, d, digest):
    cells = np.random.default_rng(d).integers(0, 10**12, (d, d, 2, d))
    path = tmp_path / "counts.csv"
    write_counts_csv(CountsTable(dim=d, cells=cells), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_reads_bytes_as_a_path_reads_its_file(tmp_path, table):
    path = tmp_path / "counts.csv"
    write_counts_csv(table, path)
    assert np.array_equal(read_counts_csv(path.read_bytes()).cells, table.cells)
    with pytest.raises(CountsFormatError, match="^cannot decode the file: "):
        read_counts_csv(b"i,j,y,outcome,count\n\xff\n")


@pytest.mark.parametrize("body", [
    "", "1,1,1,1,2.0", "1,1,1,1,1e0", "1,1,1,1,1_0", "1,1,1,1,\u0663", "1,1,1,1,\xa03",
    "1,1,1,1,0000000000000000005", f"1,1,1,1,{2**63}",
], ids=["empty", "float", "exponent", "separator", "arabic-indic", "nbsp",
        "nineteen-digits", "past-int64"])
def test_bodies_numpy_may_misread_never_reach_it(monkeypatch, body):
    # numpy warns on an empty body, and numpy < 2 parses an integer field
    # that fails as an int through a float: these go to the per-line loop
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt ran")

    monkeypatch.setattr(counts.np, "loadtxt", refuse)
    assert counts._accepted_rows(body) is None


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


def _rows_with(d, edits):
    rows = _complete_rows(d)
    for k, row in edits.items():
        rows[k] = row
    return rows


@pytest.mark.parametrize("edits, message", [
    ({3: "1,1,2,1,1"}, r"^line 5: duplicate cell \(1,1,2,1\)$"),
    ({4: "1,2,3,1,1"}, r"^line 6: index out of range$"),
    ({4: "1,2,1,0,1"}, r"^line 6: index out of range$"),
    ({6: "1,2,2,1,-4"}, r"^line 8: negative count$"),
    ({7: "1,2,2,2,x"}, r"^line 9: non-integer field$"),
    ({7: "1,2,2,2"}, r"^line 9: expected 5 fields$"),
    ({2: "1,1,2,1,-1", 4: "1,2,3,1,1"}, r"^line 4: negative count$"),
    ({2: "1,1,2,1,x", 1: "1,1,1,2,-1"}, r"^line 3: negative count$"),
    ({0: f"1,1,1,1,{2**63}"}, "int64"),
    ({0: f"1,1,1,1,{2**63}", 5: "1,2,1,2,x"}, r"^line 7: non-integer field$"),
    ({1: f"1,1,1,{2**64},1"}, f"^largest index {2**64} needs"),
], ids=["duplicate-in-full-grid", "y-index", "zero-index", "negative", "non-integer",
        "field-count", "first-line-wins", "first-line-wins-over-non-integer",
        "count-past-int64", "row-error-before-int64-sum", "index-past-int64"])
def test_reports_first_offending_line(tmp_path, edits, message):
    # a d=2 file of exactly 2*d^3 rows with the given rows replaced
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["i,j,y,outcome,count"] + _rows_with(2, edits)) + "\n")
    with pytest.raises(CountsFormatError, match=message):
        read_counts_csv(path)


def test_blank_lines_between_rows_are_skipped(tmp_path, table):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    write_counts_csv(table, plain)
    lines = plain.read_text().splitlines()
    spaced.write_text("\n\n".join(lines[:3]) + "\n  \n" + "\n".join(lines[3:]) + "\n\n")
    assert np.array_equal(read_counts_csv(spaced).cells, table.cells)


@pytest.mark.parametrize("rows, message", [
    (["1,1,1,1,1", "1,1,1,2,-1"], "^line 4: negative count$"),
    (["1,1,1,1,1", "", "1,1,1,2"], "^line 5: expected 5 fields$"),
    (["1,1,1,1,1", " ", "1,1,1,2,x"], "^line 5: non-integer field$"),
])
def test_messages_number_lines_in_the_file(tmp_path, rows, message):
    # blank lines count: a blank line after the header moves every row down
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(["i,j,y,outcome,count", "", *rows]) + "\n")
    with pytest.raises(CountsFormatError, match=message):
        read_counts_csv(path)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, None],
                         ids=["d2", "d3", "d4", "d5", "d6", "d7", "d8", "ideal"])
def test_valid_files_pass_the_vectorized_accept_test(tmp_path, monkeypatch, d):
    # a valid file never needs the per-line check, which would cost every
    # certify and figure-data call about twice the parse time
    if d is None:
        table = ideal_expected_counts(60000)  # the table simulate --ideal writes
    else:
        table = CountsTable(dim=d, cells=np.random.default_rng(d).integers(0, 10**6, (d, d, 2, d)))
    path = tmp_path / "counts.csv"
    write_counts_csv(table, path)
    lines = path.read_text().splitlines()
    order = np.random.default_rng(3).permutation(len(lines) - 1) + 1
    shuffled = tmp_path / "shuffled.csv"  # rows out of order, padded, with blank lines
    shuffled.write_text("\n\n" + lines[0] + "\n" + "\n \n".join(
        f" {lines[k]} " for k in order) + "\n")

    def refuse(text):
        raise AssertionError("the per-line check ran on a valid file")

    monkeypatch.setattr(counts, "_checked_rows", refuse)
    for p in (path, shuffled):
        back = read_counts_csv(p)
        assert back.dim == table.dim
        assert np.array_equal(back.cells, table.cells)
