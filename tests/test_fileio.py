import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from dninverse.errors import AsymmetricMatrix
from dninverse.fileio import _content_lines, _no_trailing, _read_size


def reference_read_matrix(path) -> SymMatrix:
    """Reference matrix reader: every field of every row goes through float(),
    and the rows are lists of Python floats."""
    lines = _content_lines(path)
    _, n = _read_size(path, lines)
    rows = []
    for i in range(n):
        try:
            line_no, text = next(lines)
        except StopIteration:
            raise ParseError(path, 0, f"expected {n} matrix rows, found {i}") from None
        fields = text.split()
        if len(fields) != n:
            raise ParseError(
                path, line_no, f"expected {n} entries in row {i + 1}, found {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError(path, line_no, f"invalid number in row {i + 1}") from None
    _no_trailing(path, lines)
    try:
        return SymMatrix(rows)
    except (AsymmetricMatrix, ValueError) as exc:
        raise ParseError(path, 0, str(exc)) from None


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


def _format_spec_file(a: SymMatrix, comment: str | None = None) -> str:
    """What write_matrix must produce: every entry formatted on its own."""
    rows = [" ".join(f"{v:.17g}" for v in row) for row in a.entries.tolist()]
    head = "".join(f"# {line}\n" for line in comment.splitlines()) if comment else ""
    return head + f"{a.n}\n" + "".join(row + "\n" for row in rows)


def test_matrix_writer_spells_each_entry_as_the_format_spec_does(tmp_path):
    edge = [
        -0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2 / 3,
        1e17, 123456789012345678.0, 2.0**60, 9.999999999999999e22, 7.0, -1.5,
    ]
    n = len(edge)
    rng = np.random.default_rng(3)
    values = np.array(edge)[rng.integers(0, n, size=(n, n))]
    mirrored = np.where(np.triu(np.ones((n, n), dtype=bool)), values, values.T)
    # entries equal to their mirror bit for bit are kept as given, the float
    # maximum and -0.0 included
    a = SymMatrix(mirrored)
    assert np.array_equal(a.entries.view(np.int64), mirrored.view(np.int64))
    path = tmp_path / "m.txt"
    write_matrix(path, a, comment="edge values")
    assert path.read_text() == _format_spec_file(a, "edge values")


@st.composite
def _symmetrized_within_tolerance(draw):
    """Arrays mirrored bit for bit over all finite floats (subnormals, signed
    zeros, the float maximum), then with some mirrors moved one ulp toward
    zero and some mirrored zeros given the other sign."""
    n = draw(st.integers(1, 40))
    tiny = np.finfo(float).smallest_normal
    entry = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-tiny, tiny),
        st.sampled_from((0.0, -0.0)),
    )
    raw = draw(arrays(float, (n, n), elements=entry))
    lower = np.tril_indices(n, -1)
    raw[lower] = raw.T[lower]
    # one ulp is within the symmetry tolerance away from the subnormals
    moved = draw(arrays(bool, (n, n))) & (np.abs(raw) > 1e-280)
    raw = np.where(moved, np.nextafter(raw, 0.0), raw)
    flipped = draw(arrays(bool, (n, n))) & (raw == 0.0)
    return np.where(flipped, -raw, raw)


@settings(max_examples=100, deadline=None)
@given(_symmetrized_within_tolerance())
def test_matrix_writer_output_equals_formatting_every_entry(tmp_path_factory, raw):
    a = SymMatrix(raw)
    path = tmp_path_factory.getbasetemp() / "written.txt"
    write_matrix(path, a, comment="probe\nsecond line")
    assert path.read_text() == _format_spec_file(a, "probe\nsecond line")
    assert read_matrix(path).entries.view(np.int64).tolist() == a.entries.view(np.int64).tolist()


@pytest.mark.parametrize(
    "entries",
    [[[1.0, 2.0], [2.0000000000000004, 1.0]], [[1.0, -0.0], [0.0, 1.0]]],
    ids=["one-ulp", "signed-zero"],
)
def test_matrix_writer_rejects_a_matrix_not_symmetric_bit_for_bit(tmp_path, entries):
    a = SymMatrix._trusted(np.array(entries))  # a faulty kernel's output
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="not symmetric bit for bit"):
        write_matrix(path, a)
    assert not path.exists()


def _spellings(v: float, rng) -> str:
    """One of the texts float() reads as exactly ``v``, picked at random."""
    texts = [f"{v:.17g}", repr(v), f"{v:.25e}"]
    if not np.signbit(v):
        texts.append("+" + repr(v))
    if v.is_integer() and abs(v) < 2.0**53:
        texts.append(("-" if np.signbit(v) else "") + str(abs(int(v))))  # 1 for 1.0, -0 for -0.0
    digits = [k for k in range(1, len(repr(v))) if repr(v)[k - 1 : k + 1].isdigit()]
    if digits:
        k = digits[rng.integers(len(digits))]
        texts.append(repr(v)[:k] + "_" + repr(v)[k:])
    text = texts[rng.integers(len(texts))]
    assert float(text) == v and np.signbit(float(text)) == np.signbit(v), text
    return text


def _spelled_matrix_file(path, rng) -> None:
    """A symmetric or nearly symmetric matrix, each field spelled at random,
    mirrors spelled alike or not; now and then a bad field or row."""
    n = int(rng.integers(1, 25))
    pool = [
        lambda: float(rng.random()), lambda: float(rng.integers(-4, 5)), lambda: 0.0,
        lambda: -0.0, lambda: 5e-324 * int(rng.integers(1, 9)), lambda: float(rng.random()) * 1e300,
    ]
    values = np.array([[pool[rng.integers(len(pool))]() for _ in range(n)] for _ in range(n)])
    lower = np.tril_indices(n, -1)
    values[lower] = values.T[lower]
    near, flip, alike = rng.choice([(0.0, 0.0, 1.0), (0.0, 0.0, 0.9), (0.02, 0.3, 0.6)])
    moved = (rng.random((n, n)) < near) & (np.abs(values) > 1e-280)
    values = np.where(moved, np.nextafter(values, np.inf), values)
    flipped = (rng.random((n, n)) < flip) & (values == 0.0)
    values = np.where(flipped, -values, values)
    texts = [[_spellings(v, rng) for v in row] for row in values.tolist()]
    bits = values.view(np.int64)
    for i, j in zip(*lower):
        if bits[i, j] == bits[j, i] and rng.random() < alike:
            texts[i][j] = texts[j][i]
    fault = rng.integers(8)
    if fault == 0:
        i, j = rng.integers(n, size=2)
        texts[i][j] = "x"
    elif fault == 1:
        i, j = rng.integers(n, size=2)
        texts[i][j] = texts[j][i] = "1..0"
    elif fault == 2:
        del texts[rng.integers(n)][0]
    path.write_text(f"{n}\n" + "".join(" ".join(row) + "\n" for row in texts), encoding="utf-8")


def _outcome(reader, path):
    try:
        return reader(path).entries.view(np.int64).tolist()
    except ParseError as exc:
        return (exc.line_no, exc.reason)


@pytest.mark.parametrize("seed", range(20))
def test_matrix_reader_equals_the_reference_on_any_spelling(tmp_path, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "m.txt"
    for _ in range(15):
        _spelled_matrix_file(path, rng)
        assert _outcome(read_matrix, path) == _outcome(reference_read_matrix, path)


@pytest.mark.parametrize(
    "text, line_no, reason",
    [
        ("3\n1 2 3\nx 1 2\n3 2 1\n", 3, "invalid number in row 2"),  # lower field bad, mirror fine
        ("3\n1 x 3\nx 1 2\n3 2 1\n", 2, "invalid number in row 1"),  # both mirrors bad alike
        ("3\n1 2 3\n2 1 2\n3 2\n", 4, "expected 3 entries in row 3, found 2"),  # after mirrored rows
    ],
    ids=["invalid-lower", "invalid-mirror-pair", "short-row"],
)
def test_matrix_reader_names_the_row_the_reference_names(tmp_path, text, line_no, reason):
    path = tmp_path / "m.txt"
    path.write_text(text)
    for reader in (read_matrix, reference_read_matrix):
        with pytest.raises(ParseError) as info:
            reader(path)
        assert (info.value.line_no, info.value.reason) == (line_no, reason)


def test_read_matrix_of_a_huge_size_allocates_only_the_rows_it_reads(tmp_path):
    n = 100_000
    path = tmp_path / "huge.txt"
    path.write_text(f"{n}\n" + "0 " * n + "\n")  # about 200 KB, one full row
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.line_no, info.value.reason) == (0, f"expected {n} matrix rows, found 1")
    assert peak < 8 * 2**20  # an n x n array would be 74.5 GiB


def test_read_matrix_of_300_rows_peaks_below_5_mib(tmp_path):
    rng = np.random.default_rng(300)
    b = rng.random((300, 300))
    a = SymMatrix(b @ b.T)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    tracemalloc.start()
    try:
        read = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == a
    assert peak < 5 * 2**20


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


@pytest.mark.parametrize("bad", ["x", "0", "*", "\u2212", "\u00e9", "\u2795"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_sign_matrix_reader_names_a_bad_character_anywhere_in_a_row(tmp_path, bad, at):
    row = "+-+-+"[:at] + bad + "+-+-+"[at + 1 :]
    path = tmp_path / "s.txt"
    path.write_text("# probe\n5\n+++++\n" + row + "\n+++++\n+++++\n+++++\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_sign_matrix(path)
    assert info.value.line_no == 4
    assert info.value.reason == f"expected 5 characters from '+-', got {row!r}"


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


@pytest.mark.parametrize(
    "reader, lines",
    [
        (read_matrix, [b"# a comment", b"2", b"1 0.5", b"0.5 1"]),
        (read_sign_matrix, [b"# a comment", b"2", b"+-", b"-+"]),
        (read_graph, [b"# a comment", b"3", b"1 2", b"2 3"]),
    ],
    ids=["matrix", "signs", "graph"],
)
@pytest.mark.parametrize("bad_line", [2, 4], ids=["size-line", "later-line"])
def test_readers_name_the_line_of_a_byte_that_is_not_utf8(tmp_path, reader, lines, bad_line):
    lines = list(lines)
    lines[bad_line - 1] += b"\xff"
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError) as info:
        reader(path)
    assert info.value.line_no == bad_line
    assert "0xff" in info.value.reason and "UTF-8" in info.value.reason
    # the same file with the byte dropped parses
    path.write_bytes(b"\n".join(lines).replace(b"\xff", b"") + b"\n")
    reader(path)


def test_readers_accept_utf8_comments_and_crlf_line_ends(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes("# caf\u00e9 \u2212 ok\r\n2\r\n1 0.5\r\n0.5 1\r\n".encode("utf-8"))
    assert read_matrix(path) == SymMatrix([[1.0, 0.5], [0.5, 1.0]])
