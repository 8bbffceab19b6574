"""Plain-text formats for matrices, sign matrices, and graphs.

All three formats share the same frame: blank lines and lines starting with
'#' are ignored, the first content line is the size n, and what follows
depends on the kind. Matrices have n rows of n whitespace-separated decimals,
sign matrices have n rows of '+'/'-' characters, graphs have one "i j" line
per edge with 1-indexed endpoints. A size, edge or matrix line is plain
ASCII without '_'. Writers emit 17 significant digits so a write/read round
trip is exact.

Matrices are symmetric, so a matrix file spells every off-diagonal value
twice. The writer formats each mirrored pair once and reuses the text below
the diagonal; the reader parses a below-diagonal field only when its text
differs from its mirror's. It compares the mirrored part of a row as one
string, the mirror texts joined by single spaces against the start of the
line, and falls back to comparing field by field. A file whose every row is
mirrored is symmetric bit for bit as read and is stored as read. The bytes
written and the floats read are those of converting every entry on its own.

The writer formats in bulk, a block of rows at a time: numpy computes each
entry's 17-digit significand exactly, in double-double arithmetic, and lays
it out as "%.17g" does; the few entries that the error bound cannot round,
or that lie outside the range the scaling table covers, are formatted by
Python.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from .densemat import SymMatrix
from .errors import AsymmetricMatrix, DnInverseError
from .graphs import UGraph, _check_edge
from .signpattern import SignMatrix


class ParseError(DnInverseError):
    """Malformed input file; carries the path and a 1-based line number.

    A line number of 0 marks whole-file problems with no single line to blame.
    """

    def __init__(self, path, line_no: int, message: str) -> None:
        self.path = str(path)
        self.line_no = line_no
        self.reason = message
        location = f"{self.path}:{line_no}" if line_no else self.path
        super().__init__(f"{location}: {message}")


def _content_lines(path) -> Iterator[tuple[int, str]]:
    # undecodable bytes come through as lone surrogates, so each line is checked
    # on its own and a bad byte is reported with its line number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = f"0x{ord(raw[exc.start]) - 0xDC00:02x}"
                raise ParseError(path, line_no, f"byte {byte} is not UTF-8") from None
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                yield line_no, stripped


def _check_number_text(text: str) -> None:
    """Raise ValueError unless ``text`` is ASCII without '_': int() and float()
    also read digit separators and other scripts' digits, which no format allows."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number line: {text!r}")


def _read_size(path, lines: Iterator[tuple[int, str]]) -> tuple[int, int]:
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise ParseError(path, 0, "file has no content lines") from None
    try:
        _check_number_text(text)
        n = int(text)
    except ValueError:
        raise ParseError(path, line_no, f"expected the size n, got {text!r}") from None
    if n < 1:
        raise ParseError(path, line_no, f"size must be at least 1, got {n}")
    return line_no, n


def _no_trailing(path, lines: Iterator[tuple[int, str]]) -> None:
    for line_no, text in lines:
        raise ParseError(path, line_no, f"unexpected extra content {text!r}")


def read_matrix(path) -> SymMatrix:
    """Parse a symmetric matrix file; malformed input raises :class:`ParseError`.

    A row whose below-diagonal fields all read as the text of their mirrors is
    parsed from the diagonal on, and its lower part is copied from the mirror
    column: the same text is the same float. Row i is first compared as one
    string, its first i fields against the mirror texts joined by single
    spaces; a row spelled otherwise is split and compared field by field. Any
    other row is parsed in full, and :class:`SymMatrix` symmetrizes or rejects
    what differs. When every row is mirrored, the array is symmetric bit for
    bit as assembled and is stored as read.
    """
    lines = _content_lines(path)
    _, n = _read_size(path, lines)
    rows = []  # row i as floats: all n, or from the diagonal on when mirrored
    # per earlier row, its texts right of the diagonal still to be compared, last column first
    pending = []
    symmetric = True  # every row so far mirrored
    for i in range(n):
        try:
            line_no, text = next(lines)
        except StopIteration:
            raise ParseError(path, 0, f"expected {n} matrix rows, found {i}") from None
        mirrors = list(map(list.pop, pending))
        prefix = " ".join(mirrors)
        # the line starts with the mirror texts, the last one ended by whitespace:
        # then only the rest is split, and the mirrors are its first i fields
        if text.startswith(prefix) and text[len(prefix) : len(prefix) + 1].isspace():
            fields = mirrors + text[len(prefix) :].split()
        else:
            fields = text.split()
        if len(fields) != n:
            raise ParseError(
                path, line_no, f"expected {n} entries in row {i + 1}, found {len(fields)}"
            )
        mirrored = fields[:i] == mirrors
        parsed = fields[i:] if mirrored else fields
        symmetric = symmetric and mirrored
        try:
            _check_number_text(text)
            rows.append(np.fromiter(map(float, parsed), float, len(parsed)))
        except ValueError:
            raise ParseError(path, line_no, f"invalid number in row {i + 1}") from None
        pending.append(fields[:i:-1])
    _no_trailing(path, lines)
    arr = np.empty((n, n))
    for i, row in enumerate(rows):
        arr[i, n - row.size :] = row
        if row.size < n:
            arr[i, :i] = arr[:i, i]
    del rows  # before SymMatrix copies arr
    try:
        return SymMatrix._trusted(arr) if symmetric else SymMatrix(arr)
    except (AsymmetricMatrix, ValueError) as exc:
        raise ParseError(path, 0, str(exc)) from None


def _write_header(handle, n: int, comment: str | None) -> None:
    """Each comment line behind '# ', then the size line.

    What UTF-8 cannot encode, such as the lone surrogate that stands for an
    undecodable byte of a file name, is written as a backslash escape.
    """
    if comment:
        for line in comment.splitlines():
            handle.write(f"# {line}\n".encode("utf-8", "backslashreplace").decode("utf-8"))
    handle.write(f"{n}\n")


# Bulk "%.17g" for write_matrix. An entry x with _FAST_MIN < |x| < _FAST_MAX
# and 10**k <= |x| < 10**(k+1) is spelled from the 17-digit integer
# D = round(|x| * 10**(16 - k)), the significand "%.17g" prints. The product is
# formed in double-double arithmetic (Dekker, Numer. Math. 18, 1971) from a
# table of 10**p as hi + lo, so that its integer part and fraction are known
# to within an error bound; an entry whose fraction lies too close to 1/2 to
# round, and every entry outside the fast range (subnormals included), is
# formatted by Python, as in Grisu's fallback (Loitsch, PLDI 2010).
#
# The bound, for the final scaled value V = |x| * 10**p with p = 16 - k and
# 2**53 < V < 2**57, u = 2**-53; in the fast range no product over- or
# underflows. The table pair has |hi + lo - 10**p| <= u**2 * 10**p, which
# costs |x| * u**2 * 10**p < 2**-49. Dekker's product gives |x| * hi as
# ph + pl exactly, ph an integer and |pl| <= 8. The product t = fl(|x| * lo),
# |t| < 16, is off by at most 2**-49, and r = fl(pl + t), |r| < 32, by at
# most 2**-48. So V = ph + r within 2**-47: when the fraction of r lies
# farther than that from 1/2, round(V) = ph + floor(r) + (fraction > 1/2),
# even where floor(r) is off by one next to an integer. The band below is
# 2**7 times the bound. A first pass whose k is one off only compares V with
# 10**16 and 10**17: there V < 2**60 is within 2**-44, or V < 2**53 lies far
# below 10**16.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# p = 16 - k over the fast range, with k estimated one too low or high
_P_MIN, _P_MAX = -265, 298
_TIE_BAND = 2.0**-40
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
_BLOCK = 2**13  # matrix entries formatted and written per block of rows
_WIDTH = 25  # the longest token, "-1.2345678901234567e-100", and its separator


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of the bulk formatter, read-only, built on first use.

    First, rows hi, hi's two Dekker halves and lo, with hi + lo = 10**p to 106
    bits, one column per p in _P_MIN.._P_MAX, from exact integers: int / int
    and float(int) round correctly. Then, per group of four digits 0..9999,
    its ASCII digits (one row per place) and its count of trailing zeros (4
    for 0000).
    """
    columns = []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            scale = 10**-p
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        split = _SPLIT * hi
        head = split - (split - hi)
        columns.append((hi, head, hi - head, lo))
    pow10 = np.array(columns, dtype=np.float64).T.copy()
    group = np.arange(10000, dtype=np.int64)
    places = np.array([[1000], [100], [10], [1]], dtype=np.int64)
    group_digits = (group // places % 10 + ord("0")).astype(np.uint8)
    group_zeros = sum((group % 10**t == 0).astype(np.int32) for t in range(1, 5))
    for table in (pow10, group_digits, group_zeros):
        table.flags.writeable = False
    return pow10, group_digits, group_zeros


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of ``a * 10**(16 - k)``, within the bound above."""
    hi, head, tail, lo = np.take(_tables()[0], 16 - k - _P_MIN, axis=1)
    product = a * hi
    split = a * _SPLIT
    a_head = split - (split - a)
    a_tail = a - a_head
    error = ((a_head * head - product) + a_head * tail + a_tail * head) + a_tail * tail
    rest = error + a * lo
    whole = np.floor(rest)
    return product.astype(np.int64) + whole.astype(np.int64), rest - whole


def _format_each(values: np.ndarray) -> list[bytes]:
    """The entries the bulk path leaves to Python, one at a time."""
    return [b"%.17g" % v for v in values.tolist()]


def _significands(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sign bit, 17-digit significand and decimal exponent (int32) of each of
    ``values`` as "%.17g" spells it, and the mask of those left to Python.

    A zero gets significand 0 and exponent 0. The scaling temporaries end
    here, before the layout allocates its own.
    """
    neg = np.signbit(values)
    a = np.abs(values)
    zero = a == 0.0
    fast = (a > _FAST_MIN) & (a < _FAST_MAX)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int32)
    whole, frac = _scaled(a, k)
    # log10 can miss k by one next to a power of ten; the scaled value decides.
    # Within the bound of a power of ten either k spells the same token.
    shift = (whole >= 10**17).astype(np.int32) - (whole < 10**16)
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        whole[moved], frac[moved] = _scaled(a[moved], k[moved])
    sig = whole + (frac > 0.5)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) <= _TIE_BAND) | (sig < 10**16) | (sig > 10**17)
    carry = sig == 10**17  # 9.99...95 rounds up to the next power of ten
    sig[carry] = 10**16
    k += carry
    sig[zero] = 0
    k[zero] = 0
    return neg, sig, k, slow


def _format_tokens(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``f"{v:.17g}"`` and a space for each of ``values`` into the rows
    of ``out`` (uint8, C-contiguous, ``_WIDTH`` columns), NUL after the
    space, and return the token lengths."""
    m = values.size
    neg, sig, k, slow = _significands(values)

    # the 17 digits of sig, one array per place: a leading digit, then four
    # groups of four; kept counts them up to the last nonzero one (1 for zero)
    _, group_digits, group_zeros = _tables()
    groups = []
    for _ in range(4):
        rest = sig // 10000
        groups.insert(0, (sig - rest * 10000).astype(np.int16))
        sig = rest
    digits = [(sig + ord("0")).astype(np.uint8)]
    for group in groups:
        digits.extend(np.take(group_digits, group, axis=1))
    trailing = group_zeros[groups[3]]
    for j in (2, 1, 0):
        trailing = trailing + (trailing == 4 * (3 - j)) * group_zeros[groups[j]]
    kept = 17 - trailing

    # %g layout: exponent form for k < -4 or k >= 17, else fixed. Digit t is
    # written at first + t, one further right once past the point.
    exponent = (k < -4) | (k >= 17)
    small = (k < 0) & ~exponent  # "0.000ddd"
    point_after = np.where(exponent, 0, np.where(small, 17, k))
    shown = np.where(exponent | small, kept, np.maximum(kept, k + 1))
    point = shown > point_after + 1
    start = np.arange(m, dtype=np.int32) * _WIDTH  # of each row in the flat buffer
    first = start + neg + np.where(small, 1 - k, 0)  # of the first digit
    end = first + shown + point
    last = end + np.where(exponent, 4 + (np.abs(k) >= 100), 0)  # the separator

    flat = out.reshape(-1)
    flat[:] = 0
    flat[start[neg]] = ord("-")
    for j, char in enumerate(b"0.000"):  # "0." and the zeros before the first digit
        at = small & (j < 1 - k)
        flat[start[at] + neg[at] + j] = char
    for t, column in enumerate(digits):
        # a digit not shown lands on the separator or the exponent, written after it
        flat[np.minimum(first + t + (t > point_after), last)] = column
    flat[(first + point_after + 1)[point]] = ord(".")
    e = end[exponent]
    mag = np.abs(k[exponent])
    flat[e] = ord("e")
    flat[e + 1] = np.where(k[exponent] < 0, ord("-"), ord("+"))
    hundreds = mag >= 100
    flat[e[hundreds] + 2] = mag[hundreds] // 100 + ord("0")
    flat[last[exponent] - 2] = mag // 10 % 10 + ord("0")
    flat[last[exponent] - 1] = mag % 10 + ord("0")

    length = last - start
    fallback = np.flatnonzero(slow)
    if fallback.size:
        texts = _format_each(values[fallback])
        out[fallback] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
        length[fallback] = list(map(len, texts))
    flat[start + length] = ord(" ")
    return length


def write_matrix(path, a: SymMatrix, comment: str | None = None) -> None:
    """Write ``a`` one row per line, each entry spelled as ``f"{v:.17g}"``.

    The entries on and above the diagonal are formatted in bulk, a block of
    rows at a time, and each token is written again as its mirror below the
    diagonal of a later row, so the file is byte for byte that of formatting
    every entry on its own. Each block is written as it is assembled; the
    upper tokens are kept, 25 bytes per entry. Raises ValueError, before the
    file is opened, when ``a`` is not symmetric bit for bit; a
    :class:`SymMatrix` always is.
    """
    arr = a.entries
    bits = arr.view(np.int64)
    if not np.array_equal(bits, bits.T):
        raise ValueError("matrix to write is not symmetric bit for bit")
    n = a.n
    # the upper triangle packed row by row: entry (i, j), j >= i, at first[i] + j - i
    i = np.arange(n + 1, dtype=np.int64)
    first = i * n - i * (i - 1) // 2
    tokens = np.empty((first[n], _WIDTH), dtype=np.uint8)
    lengths = np.empty(first[n], dtype=np.uint8)
    cols = np.arange(n, dtype=np.int64)
    step = max(1, _BLOCK // n)
    with open(path, "w", encoding="utf-8") as handle:
        _write_header(handle, n, comment)
        for r0 in range(0, n, step):
            r1 = min(n, r0 + step)
            rows = cols[r0:r1, None]
            block = slice(first[r0], first[r1])
            lengths[block] = _format_tokens(arr[r0:r1][cols >= rows], tokens[block])
            low = np.minimum(rows, cols)
            index = first[low] + np.maximum(rows, cols) - low
            text = np.take(tokens.view(f"V{_WIDTH}"), index).view(np.uint8).reshape(-1)
            # each row's last separator becomes its line end
            text[(cols[: r1 - r0] * n + n - 1) * _WIDTH + lengths[index[:, -1]]] = ord("\n")
            handle.write(text.tobytes().translate(None, b"\0").decode("ascii"))


def read_sign_matrix(path) -> SignMatrix:
    """Parse a sign matrix file of '+'/'-' rows."""
    lines = _content_lines(path)
    _, n = _read_size(path, lines)
    rows = []
    for i in range(n):
        try:
            line_no, text = next(lines)
        except StopIteration:
            raise ParseError(path, 0, f"expected {n} sign rows, found {i}") from None
        if len(text) != n or text.strip("+-"):
            raise ParseError(
                path, line_no, f"expected {n} characters from '+-', got {text!r}"
            )
        rows.append(text)
    _no_trailing(path, lines)
    return SignMatrix.from_rows(rows)


def write_sign_matrix(path, s: SignMatrix | Sequence[str], comment: str | None = None) -> None:
    """Write ``s``: a sign matrix, or its rows as ``SignMatrix.to_rows`` gives them."""
    rows = s.to_rows() if isinstance(s, SignMatrix) else s
    with open(path, "w", encoding="utf-8") as handle:
        _write_header(handle, len(rows), comment)
        for row in rows:
            handle.write(row + "\n")


def read_graph(path) -> UGraph:
    """Parse an edge-list graph file with 1-indexed endpoints."""
    lines = _content_lines(path)
    size_line, n = _read_size(path, lines)
    edges = []
    seen = set()
    for line_no, text in lines:
        fields = text.split()
        if len(fields) != 2:
            raise ParseError(
                path, line_no, f"expected an edge line 'i j', got {text!r}"
            )
        try:
            _check_number_text(text)
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(path, line_no, f"invalid edge endpoints {text!r}") from None
        try:
            _check_edge(n, i, j)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        key = (min(i, j), max(i, j))
        if key in seen:  # UGraph merges a repeated pair; the file format rejects it
            raise ParseError(path, line_no, f"duplicate edge ({i}, {j})")
        seen.add(key)
        edges.append((i, j))
    try:
        return UGraph(n, edges)
    except ValueError as exc:  # the edges passed above: only the size is left to reject
        raise ParseError(path, size_line, str(exc)) from None


def write_graph(path, g: UGraph, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        _write_header(handle, g.n, comment)
        for i, j in g.edges:
            handle.write(f"{i} {j}\n")
