"""Plain-text formats for matrices, sign matrices, and graphs.

All three formats share the same frame: blank lines and lines starting with
'#' are ignored, the first content line is the size n, and what follows
depends on the kind. Matrices have n rows of n whitespace-separated decimals,
sign matrices have n rows of '+'/'-' characters, graphs have one "i j" line
per edge with 1-indexed endpoints. Writers emit 17 significant digits so a
write/read round trip is exact.

Matrices are symmetric, so a matrix file spells every off-diagonal value
twice. The writer formats each mirrored pair once and reuses the text below
the diagonal; the reader parses a below-diagonal field only when its text
differs from its mirror's. The bytes written and the floats read are those of
converting every entry on its own.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .densemat import SymMatrix
from .errors import AsymmetricMatrix, DnInverseError
from .graphs import UGraph
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


def _read_size(path, lines: Iterator[tuple[int, str]]) -> tuple[int, int]:
    try:
        line_no, text = next(lines)
    except StopIteration:
        raise ParseError(path, 0, "file has no content lines") from None
    try:
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
    column: the same text is the same float. Any other row is parsed in full,
    and :class:`SymMatrix` symmetrizes or rejects what differs.
    """
    lines = _content_lines(path)
    _, n = _read_size(path, lines)
    rows = []  # row i as floats: all n, or from the diagonal on when mirrored
    # per earlier row, its texts right of the diagonal still to be compared, last column first
    pending = []
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
        mirrored = fields[:i] == list(map(list.pop, pending))
        parsed = fields[i:] if mirrored else fields
        try:
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
        return SymMatrix(arr)
    except (AsymmetricMatrix, ValueError) as exc:
        raise ParseError(path, 0, str(exc)) from None


def _write_header(handle, n: int, comment: str | None) -> None:
    """Each comment line behind '# ', then the size line."""
    if comment:
        for line in comment.splitlines():
            handle.write(f"# {line}\n")
    handle.write(f"{n}\n")


def write_matrix(path, a: SymMatrix, comment: str | None = None) -> None:
    """Write ``a`` one row per line, each entry spelled as ``f"{v:.17g}"``.

    The entries on and above the diagonal are formatted once per row, and
    each is written again as its mirror below the diagonal of a later row, so
    the file is byte for byte that of formatting every entry. Raises
    ValueError, before the file is opened, when ``a`` is not symmetric bit
    for bit; a :class:`SymMatrix` always is.
    """
    arr = a.entries
    bits = arr.view(np.int64)
    if not np.array_equal(bits, bits.T):
        raise ValueError("matrix to write is not symmetric bit for bit")
    n = a.n
    with open(path, "w", encoding="utf-8") as handle:
        _write_header(handle, n, comment)
        # per earlier row, its texts right of the diagonal still to be written, last column first
        pending = []
        for i in range(n):
            # "%.17g" % v spells every float as f"{v:.17g}"
            upper = (("%.17g " * (n - i)) % tuple(arr[i, i:].tolist())).split()
            row = list(map(list.pop, pending))
            row += upper
            handle.write(" ".join(row) + "\n")
            pending.append(upper[:0:-1])


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
    _, n = _read_size(path, lines)
    edges = []
    seen = set()
    for line_no, text in lines:
        fields = text.split()
        if len(fields) != 2:
            raise ParseError(
                path, line_no, f"expected an edge line 'i j', got {text!r}"
            )
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(path, line_no, f"invalid edge endpoints {text!r}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(path, line_no, f"edge ({i}, {j}) out of range 1..{n}")
        if i == j:
            raise ParseError(path, line_no, f"self-loop at vertex {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParseError(path, line_no, f"duplicate edge ({i}, {j})")
        seen.add(key)
        edges.append((i, j))
    return UGraph(n, edges)


def write_graph(path, g: UGraph, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        _write_header(handle, g.n, comment)
        for i, j in g.edges:
            handle.write(f"{i} {j}\n")
