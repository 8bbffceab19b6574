import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dninverse import (
    ParseError,
    SignMatrix,
    SymMatrix,
    UGraph,
    cholesky_invert,
    construct_witness,
    random_dn_matrix,
    read_graph,
    read_matrix,
    read_sign_matrix,
    write_graph,
    write_matrix,
    write_sign_matrix,
)
from dninverse import fileio
from dninverse.cli import main
from dninverse.errors import AsymmetricMatrix
from dninverse.fileio import _content_lines, _read_size
from dninverse.graphs import MAX_KEYED_VERTICES


# mirrored entries of opposite sign whose difference is beyond the float maximum
_OVERFLOWING_ASYMMETRY = "2\n1e308 -1.7976931348623157e308\n1e308 -1.7976931348623157e308\n"
# a size whose edge keys do not fit in an int64, with an edge
_EDGES_BEYOND_THE_VERTEX_LIMIT = "4000000000\n1 2\n"


def reference_read_matrix(path) -> SymMatrix:
    """Reference matrix reader: a row line of plain ASCII without '_' has every
    field go through float(), and the rows are lists of Python floats."""
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
            if not text.isascii() or "_" in text:
                raise ValueError(text)
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError(path, line_no, f"invalid number in row {i + 1}") from None
    for line_no, text in lines:
        raise ParseError(path, line_no, f"unexpected extra content {text!r}")
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
    path.write_text(_OVERFLOWING_ASYMMETRY)
    with pytest.raises(ParseError, match="asymmetry inf"):
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


def _with_upper(values) -> SymMatrix:
    """The smallest symmetric matrix whose upper triangle, row by row, starts
    with ``values``, zeros after them, mirrored bit for bit."""
    values = np.asarray(values, dtype=np.float64)
    n = 1
    while n * (n + 1) // 2 < values.size:
        n += 1
    arr = np.zeros((n, n))
    upper = np.triu_indices(n)
    arr[upper[0][: values.size], upper[1][: values.size]] = values
    lower = np.tril_indices(n, -1)
    arr[lower] = arr.T[lower]
    a = SymMatrix(arr)
    assert np.array_equal(a.entries.view(np.int64), arr.view(np.int64))
    return a


def _written(path, a: SymMatrix) -> str:
    write_matrix(path, a)
    return path.read_text()


@pytest.fixture
def python_formatted(monkeypatch):
    """The values the writer leaves to Python's own formatting."""
    seen = []
    bulk_fallback = fileio._format_each

    def spy(values):
        seen.extend(values.tolist())
        return bulk_fallback(values)

    monkeypatch.setattr(fileio, "_format_each", spy)
    return seen


def _powers_of_ten_and_neighbours(exponents) -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in exponents])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def test_matrix_writer_spells_powers_of_ten_and_their_neighbours(tmp_path):
    # every 10**k inside the bulk range, the switches to exponent form at 1e-5
    # and 1e17 included, of both signs
    values = _powers_of_ten_and_neighbours(range(-279, 280))
    a = _with_upper(np.concatenate([values, -values]))
    assert _written(tmp_path / "m.txt", a) == _format_spec_file(a)


def _extremes() -> np.ndarray:
    """The bulk range's borders, the normal and subnormal extremes, their
    neighbours, of both signs, and both zeros."""
    info = np.finfo(np.float64)
    borders = np.array([fileio._FAST_MIN, fileio._FAST_MAX, info.smallest_normal, 5e-324, 2.5e-320])
    values = np.concatenate([borders, np.nextafter(borders, 0.0), np.nextafter(borders, np.inf)])
    values = np.concatenate([values, [info.max, np.nextafter(info.max, 0.0)]])
    return np.concatenate([values, -values, [0.0, -0.0]])


def test_matrix_writer_spells_the_extremes_and_leaves_those_out_of_range_to_python(
    tmp_path, python_formatted
):
    values = _extremes()
    a = _with_upper(values)
    assert _written(tmp_path / "m.txt", a) == _format_spec_file(a)
    outside = [v for v in values.tolist() if v and not fileio._FAST_MIN < abs(v) < fileio._FAST_MAX]
    assert sorted(python_formatted) == sorted(outside)


def _scaled_fraction(x: float) -> Fraction:
    """The fraction of |x| * 10**(16 - k), 10**k <= |x| < 10**(k + 1), exactly."""
    exact = abs(Fraction(x))
    k = math.floor(math.log10(abs(x)))
    k += (exact >= Fraction(10) ** (k + 1)) - (exact < Fraction(10) ** k)
    scaled = exact * Fraction(10) ** (16 - k)
    return scaled - math.floor(scaled)


def _in_the_tie_band() -> list[float]:
    """Doubles whose 17-digit rounding is a tie or within the tie band of one."""
    # x = m / 2**(17 - k) with m odd in [10**k, 10**(k + 1)) scales to m * 5**(16 - k) / 2
    ties = [1 + 2.0**-17, 1000000000000000.25, 100000000000000.125, 1049 / 2**20]
    # x = m * 2**-69 in [1e-5, 1e-4) scales to m * 5**21 / 2**48: fraction 1/2 + d / 2**48
    inverse = pow(5**21, -1, 2**48)
    near = [((2**47 + d) * inverse % 2**48 + 22 * 2**48) * 2.0**-69 for d in (-255, -100, -1, 0, 1, 100, 255)]
    values = ties + near
    values += [-v for v in values]
    for v in values:
        assert abs(_scaled_fraction(v) - Fraction(1, 2)) <= fileio._TIE_BAND, v
    return values


def test_matrix_writer_leaves_entries_in_the_tie_band_to_python(tmp_path, python_formatted):
    band = _in_the_tie_band()
    a = _with_upper(band + [0.1, 1 / 3, 2.0**-60])
    assert _written(tmp_path / "m.txt", a) == _format_spec_file(a)
    assert sorted(python_formatted) == sorted(band)


def test_matrix_writer_spells_a_matrix_of_several_blocks(tmp_path, python_formatted):
    n = 300
    assert n * (n + 1) // 2 > 4 * fileio._BLOCK
    rng = np.random.default_rng(300)
    b = rng.random((n, n))
    short = [0.5, -0.25, 0.0625, 0.001, -1.5, 7.0, 100.0, 1e16, 2.5e20, -1e-7]  # "0.5" is shorter than "0.000"
    planted = np.concatenate(
        [_powers_of_ten_and_neighbours(range(-25, 25)), _extremes(), _in_the_tie_band(), short]
    )
    upper = (b @ b.T / n)[np.triu_indices(n)]
    spots = rng.choice(upper.size, size=planted.size, replace=False)
    upper[spots] = planted
    a = _with_upper(upper)
    assert _written(tmp_path / "m.txt", a) == _format_spec_file(a)
    # every value the bulk path left to Python is a planted one
    assert set(python_formatted) <= set(planted.tolist())


def test_matrix_writer_spells_the_path_witness_with_its_zeros_and_subnormals(tmp_path):
    n = 200
    rows = ["".join("-" if abs(i - j) == 1 else "+" for j in range(n)) for i in range(n)]
    a = cholesky_invert(construct_witness(SignMatrix.from_rows(rows)))
    entries = a.entries
    assert (entries == 0.0).any()
    assert ((entries != 0.0) & (np.abs(entries) < np.finfo(np.float64).smallest_normal)).any()
    assert _written(tmp_path / "m.txt", a) == _format_spec_file(a)


def _spellings(v: float, rng) -> str:
    """One of the plain ASCII texts float() reads as exactly ``v``, picked at random."""
    texts = [f"{v:.17g}", repr(v), f"{v:.25e}"]
    if not np.signbit(v):
        texts.append("+" + repr(v))
    if v.is_integer() and abs(v) < 2.0**53:
        texts.append(("-" if np.signbit(v) else "") + str(abs(int(v))))  # 1 for 1.0, -0 for -0.0
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
    # a row spaced otherwise than by single spaces is parsed in full
    gaps = [rng.choice([" ", " ", "\t", "  "]) for _ in range(n)]
    fault = rng.integers(8)
    if fault == 0:
        i, j = rng.integers(n, size=2)
        texts[i][j] = "x"
    elif fault == 1:
        i, j = rng.integers(n, size=2)
        texts[i][j] = texts[j][i] = "1..0"
    elif fault == 2:
        del texts[rng.integers(n)][0]
    elif fault == 3:  # a text float() reads, with a digit separator or a non-ASCII digit
        i, j = rng.integers(n, size=2)
        texts[i][j] = rng.choice(["1_0", "\u0661", "2.5e1_0", "\uff17"])
    lines = "".join(gap.join(row) + "\n" for gap, row in zip(gaps, texts))
    path.write_text(f"{n}\n" + lines, encoding="utf-8")


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


def _constructor_calls(monkeypatch) -> list:
    """One entry per call of the public SymMatrix constructor from now on."""
    calls = []
    init = SymMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SymMatrix, "__init__", counting)
    return calls


@pytest.mark.parametrize("gap", ["\t", "  ", " \t "], ids=["tab", "two-spaces", "space-tab-space"])
def test_matrix_reader_reads_a_lower_half_spelled_with_other_gaps_as_mirrored(tmp_path, monkeypatch, gap):
    path = tmp_path / "m.txt"
    path.write_text(f"3\n4 1 0.5\n1{gap}4 2\n0.5{gap}2 4\n")
    calls = _constructor_calls(monkeypatch)
    assert _outcome(read_matrix, path) == _outcome(reference_read_matrix, path)
    assert len(calls) == 1  # the reference's; read_matrix parses the lower half and stores it as read


@pytest.mark.parametrize(
    "text, calls",
    [
        ("3\n1 5 1\n5 1 2\n1 23 1\n", 2),  # mirrors "1 2" against "1 23"
        ("3\n1 2 3\n2 1 4\n3 45 1\n", 2),  # "3 4" against "3 45": asymmetric beyond tolerance
        # "1" against "1.0": the same number spelled otherwise, so the array is
        # symmetric bit for bit as parsed and read_matrix stores it as read
        ("2\n1 1\n1.0 1\n", 1),
        ("2\n1 2\n2.5 1\n", 2),
    ],
    ids=["prefix-of-second", "prefix-asymmetric", "prefix-same-value", "prefix-of-first"],
)
def test_matrix_reader_does_not_take_a_mirror_that_is_a_prefix_of_a_field(tmp_path, monkeypatch, text, calls):
    path = tmp_path / "m.txt"
    path.write_text(text)
    counted = _constructor_calls(monkeypatch)
    assert _outcome(read_matrix, path) == _outcome(reference_read_matrix, path)
    assert len(counted) == calls  # the reference's, and read_matrix's unless stored as read


@pytest.mark.parametrize(
    "row, found",
    [("2", 1), ("2 1", 2), ("2 1 4 9", 4), ("2 1 4 9 9", 5), ("2\t1", 2), ("2  1 4 9", 4)],
)
def test_matrix_reader_counts_the_fields_after_a_matched_prefix(tmp_path, row, found):
    path = tmp_path / "m.txt"
    path.write_text(f"3\n1 2 3\n{row}\n3 4 1\n")
    assert _outcome(read_matrix, path) == _outcome(reference_read_matrix, path)
    assert _outcome(read_matrix, path) == (3, f"expected 3 entries in row 2, found {found}")


def test_matrix_reader_keeps_an_all_mirrored_file_bit_for_bit(tmp_path, monkeypatch):
    values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
    n = len(values)
    rng = np.random.default_rng(15)
    a = np.array(values)[rng.integers(n, size=(n, n))]
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    path = tmp_path / "m.txt"
    path.write_text(f"{n}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in a.tolist()))
    calls = _constructor_calls(monkeypatch)
    assert _outcome(read_matrix, path) == a.view(np.int64).tolist()
    assert _outcome(reference_read_matrix, path) == a.view(np.int64).tolist()
    assert len(calls) == 1  # the reference's


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e309"])
def test_matrix_reader_rejects_a_non_finite_entry_of_an_all_mirrored_file(tmp_path, bad):
    path = tmp_path / "m.txt"
    path.write_text(f"3\n1 {bad} 0\n{bad} 1 0\n0 0 1\n")
    assert _outcome(read_matrix, path) == _outcome(reference_read_matrix, path)
    assert _outcome(read_matrix, path) == (0, "matrix entries must be finite")


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


def _peak_of_writing_1000_rows(path) -> int:
    # a random SPD matrix of the longest tokens: 17 digits and a three-digit
    # exponent, the off-diagonal ones half negative
    rng = np.random.default_rng(1000)
    b = rng.standard_normal((1000, 1000)) * 1e-60
    a = SymMatrix(b @ b.T)
    del b
    tracemalloc.start()
    try:
        write_matrix(path, a)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_matrix_of_1000_rows_peaks_below_18_mib(tmp_path):
    peak = _peak_of_writing_1000_rows(tmp_path / "m.txt")
    assert peak < 18 * 2**20  # the upper tokens take 11.9 MiB


def test_write_matrix_of_1000_rows_frees_the_scaling_before_the_layout(tmp_path):
    # 13.9 MiB: the tokens, their lengths and about 130 B per entry of one
    # block; 14.6 MiB while the scaling temporaries lived through the layout
    peak = _peak_of_writing_1000_rows(tmp_path / "m.txt")
    assert peak < 14.25 * 2**20


@pytest.mark.parametrize(
    "reader, rows, bad, reason",
    [
        (read_matrix, [" ".join("1" if j == i else "0" for j in range(5)) for i in range(5)], "0 x 0 0 0",
         "invalid number in row 2"),
        (read_sign_matrix, ["+++++"] * 5, "++x++", "expected 5 characters from '+-', got '++x++'"),
    ],
    ids=["matrix", "sign"],
)
def test_row_readers_report_a_bad_row_before_the_missing_rows_and_extra_content_after_the_last(
    tmp_path, reader, rows, bad, reason
):
    path = tmp_path / "m.txt"
    # rows 1 to 3 of 5, row 2 bad, on lines 3, 5 and 6
    path.write_text(f"5\n# rows\n{rows[0]}\n\n{bad}\n{rows[2]}\n")
    with pytest.raises(ParseError) as info:
        reader(path)
    assert (info.value.line_no, info.value.reason) == (5, reason)
    path.write_text("5\n" + "".join(row + "\n" for row in rows) + "# done\n" + rows[0] + "\n")
    with pytest.raises(ParseError) as info:
        reader(path)
    assert (info.value.line_no, info.value.reason) == (8, f"unexpected extra content {rows[0]!r}")


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

    path.write_text(_EDGES_BEYOND_THE_VERTEX_LIMIT)
    with pytest.raises(ParseError, match="at most 3037000498 vertices") as info:
        read_graph(path)
    assert (info.value.path, info.value.line_no) == (str(path), 1)  # the size line


def test_empty_file_reports_whole_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# only a comment\n")
    with pytest.raises(ParseError) as info:
        read_graph(path)
    assert info.value.line_no == 0
    assert "no content" in str(info.value)


@pytest.mark.parametrize("edge", ["0 2", "3 4", "-1 2", "2 2", "4 4"])
def test_graph_reader_reports_a_bad_edge_as_ugraph_rejects_it(tmp_path, edge):
    # the range and self-loop rules, range first, are those of graphs
    path = tmp_path / "g.txt"
    path.write_text(f"3\n1 2\n{edge}\n")
    with pytest.raises(ValueError) as expected:
        UGraph(3, [tuple(map(int, edge.split()))])
    with pytest.raises(ParseError) as info:
        read_graph(path)
    assert (info.value.line_no, info.value.reason) == (3, str(expected.value))


@pytest.mark.parametrize(
    "reader, text, line_no, reason",
    [
        (read_matrix, "1_0\n", 1, "expected the size n, got '1_0'"),
        (read_graph, "\u0661\n", 1, "expected the size n, got '\u0661'"),
        (read_sign_matrix, "\uff11\n+\n", 1, "expected the size n, got '\uff11'"),
        (read_graph, "3\n1 2_0\n", 2, "invalid edge endpoints '1 2_0'"),
        (read_graph, "3\n1 \u0662\n", 2, "invalid edge endpoints '1 \u0662'"),
        (read_graph, "3\n1\u20032\n", 2, "invalid edge endpoints '1\\u20032'"),  # an em space, which repr escapes
        (read_graph, "3\n1 2_0 3\n", 2, "expected an edge line 'i j', got '1 2_0 3'"),
        (read_matrix, "2\n1 1_0\n1_0 1\n", 2, "invalid number in row 1"),
        (read_matrix, "1\n\u0661\n", 2, "invalid number in row 1"),
        (read_matrix, "2\n1 2\n2 \u0661.0\n", 3, "invalid number in row 2"),  # a mirrored row
        (read_matrix, "2\n1 \u0662 3\n2 1\n", 2, "expected 2 entries in row 1, found 3"),
    ],
)
def test_readers_reject_number_lines_that_are_not_plain_ascii(tmp_path, reader, text, line_no, reason):
    # int() and float() read "1_0" as 10 and other scripts' digits as digits
    path = tmp_path / "f.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        reader(path)
    assert (info.value.line_no, info.value.reason) == (line_no, reason)


def test_readers_keep_utf8_comments_and_signs_next_to_ascii_numbers(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# \u00e9t\u00e9 \u0661_\n2\n +1 -0.5e0\n-0.5 1.\n", encoding="utf-8")
    assert read_matrix(path).entries.tolist() == [[1.0, -0.5], [-0.5, 1.0]]
    path.write_text("# \u0661_\n+3\n1 +2\n", encoding="utf-8")
    assert read_graph(path) == UGraph(3, [(1, 2)])


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


_NUMBER_TOKENS = "0 1 -1 1.5 1e308 -1.7976931348623157e308 5e-324 nan inf -0.0".split()


@st.composite
def _reader_texts(draw):
    """File texts at the readers' edges: a size line of 1..3 or beyond the vertex
    limit, then rows of numeric tokens, rows of '+'/'-'/'x' and edge lines over
    vertices 1..4, each kind of body as likely as the others, or a mix."""
    n = draw(st.integers(1, 3))
    size = draw(st.sampled_from([n, MAX_KEYED_VERTICES + 1]))
    numbers = st.lists(st.sampled_from(_NUMBER_TOKENS), min_size=n, max_size=n).map(" ".join)
    signs = st.text("+-x", min_size=n, max_size=n)
    edges = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda e: f"{e[0]} {e[1]}")
    body = draw(
        st.one_of(
            st.lists(numbers, min_size=n, max_size=n),
            st.lists(signs, min_size=n, max_size=n),
            st.lists(edges, max_size=4),
            st.lists(st.one_of(numbers, signs, edges), max_size=4),
        )
    )
    return "".join(f"{line}\n" for line in [size, *body])


@settings(max_examples=300, deadline=None)
@given(_reader_texts())
@example(_OVERFLOWING_ASYMMETRY)
@example(_EDGES_BEYOND_THE_VERTEX_LIMIT)
def test_readers_return_their_type_or_raise_parse_error_and_the_verbs_exit_0_1_or_2(
    tmp_path_factory, text
):
    path = tmp_path_factory.getbasetemp() / "input.txt"
    path.write_text(text)
    for reader, kind in ((read_matrix, SymMatrix), (read_sign_matrix, SignMatrix), (read_graph, UGraph)):
        try:
            assert isinstance(reader(path), kind)
        except ParseError as exc:
            assert exc.path == str(path)
    for verb in ("verify", "check", "predict"):
        assert main([verb, str(path)]) in (0, 1, 2)
