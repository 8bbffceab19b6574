import tracemalloc

import numpy as np
import pytest

from dninverse import (
    ParseError,
    SignMatrix,
    SymMatrix,
    UGraph,
    random_dn_matrix,
    read_graph,
    read_matrix,
    read_sign_matrix,
    write_graph,
    write_matrix,
    write_sign_matrix,
)


def test_matrix_round_trip_is_exact(tmp_path):
    path = tmp_path / "m.txt"
    for seed in range(5):
        a = random_dn_matrix(6, 0.8, seed)
        write_matrix(path, a, comment="round trip probe")
        assert read_matrix(path) == a


def test_matrix_round_trip_extreme_magnitudes(tmp_path):
    a = SymMatrix([[1e300, 3e-300], [3e-300, 7.000000000000001]])
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert read_matrix(path) == a


def test_matrix_reader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# header\n\n2\n# rows follow\n1 0\n\n0 1\n")
    assert read_matrix(path) == SymMatrix.identity(2)


def test_matrix_reader_line_numbers(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# comment\nnot-a-size\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert info.value.line_no == 2

    path.write_text("2\n1 0 0\n0 1\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert info.value.line_no == 2
    assert "expected 2 entries" in str(info.value)

    path.write_text("2\n1 x\n0 1\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert info.value.line_no == 2

    path.write_text("2\n1 0\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert "found 1" in str(info.value)

    path.write_text("1\n1\nextra\n")
    with pytest.raises(ParseError) as info:
        read_matrix(path)
    assert info.value.line_no == 3


def test_matrix_reader_rejects_asymmetry(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 0.25\n0.5 1\n")
    with pytest.raises(ParseError, match="asymmetry"):
        read_matrix(path)


def test_matrix_reader_rejects_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "absent.txt")


def test_sign_matrix_round_trip(tmp_path):
    path = tmp_path / "s.txt"
    s = SignMatrix.from_rows(["+-+", "-+-", "+-+"])
    write_sign_matrix(path, s, comment="probe")
    assert read_sign_matrix(path) == s


def test_sign_matrix_reader_errors(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2\n+-\n+x\n")
    with pytest.raises(ParseError) as info:
        read_sign_matrix(path)
    assert info.value.line_no == 3

    path.write_text("2\n+-\n")
    with pytest.raises(ParseError):
        read_sign_matrix(path)

    path.write_text("0\n")
    with pytest.raises(ParseError):
        read_sign_matrix(path)

    path.write_text("2\n+-+\n-+-\n")
    with pytest.raises(ParseError) as info:
        read_sign_matrix(path)
    assert info.value.line_no == 2


def test_graph_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    g = UGraph(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    write_graph(path, g, comment="probe")
    assert read_graph(path) == g


def test_graph_reader_accepts_isolated_vertices(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n1 2\n")
    assert read_graph(path) == UGraph(3, [(1, 2)])


def test_graph_reader_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n1 2 3\n")
    with pytest.raises(ParseError) as info:
        read_graph(path)
    assert info.value.line_no == 2

    path.write_text("3\n1 4\n")
    with pytest.raises(ParseError, match="out of range"):
        read_graph(path)

    path.write_text("3\n2 2\n")
    with pytest.raises(ParseError, match="self-loop"):
        read_graph(path)

    path.write_text("3\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="duplicate") as info:
        read_graph(path)
    assert info.value.line_no == 3

    path.write_text("3\na b\n")
    with pytest.raises(ParseError):
        read_graph(path)


def test_empty_file_reports_whole_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# only a comment\n")
    with pytest.raises(ParseError) as info:
        read_graph(path)
    assert info.value.line_no == 0
    assert "no content" in str(info.value)


def test_read_graph_of_a_huge_vertex_count_allocates_nothing_per_vertex(tmp_path):
    path = tmp_path / "huge.graph"
    path.write_text("1000000000\n")
    tracemalloc.start()
    try:
        g = read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10**9 and g.edge_count == 0
    assert peak < 2**20
