"""Text formats: a native line-oriented encoding plus OR-Library ingestion.

Native format: header line "n m", then one line per set, "cardinality
elements..." with 0-based ascending elements.  Round-trips exactly.

``parse_instance`` has two paths with one result.  Texts made only of ASCII
digits, spaces and newlines (everything ``serialize_instance`` writes) take
a bulk path: numpy reads every token at once, checks the header, the set
count, each cardinality, the ranges and the duplicates in vector form, and
packs its (m, n) bool scratch with ``core._pack`` into the rows that
``Instance._of_rows`` reads.  The scratch is built only when m * n is at
most 64 times the text's length, so its memory stays bounded by the input.
Any other text, a text over that bound, and any text that fails a check go
to the line-by-line loop, which parses it from the start and reports the
error with its line number.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Instance, _pack


class ParseError(ValueError):
    """Malformed instance text.  ``line`` is 1-based when known, else None."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


def serialize_instance(instance: Instance) -> str:
    out = [f"{instance.n} {instance.m}"]
    for s in instance.sets:
        out.append(" ".join([str(len(s))] + [str(e) for e in s.elements()]))
    return "\n".join(out) + "\n"


def parse_instance(text: str) -> Instance:
    """Inverse of serialize_instance; tolerant of extra whitespace and blank
    lines, strict about counts, ranges, and duplicates.

    A text of ASCII digits, spaces and newlines whose m * n is at most 64
    times its length is parsed in bulk with numpy; any other text, and any
    text that fails a check there, is parsed again by the line loop, so every
    ``ParseError`` and its 1-based line are the loop's.
    """
    instance = _parse_bulk(text)
    return _parse_lines(text) if instance is None else instance


# Bytes of the bulk path, its widest token (int64 holds every 18-digit one),
# and the (m, n) bool cells it may allocate per byte of text.
_BULK_BYTES = b"0123456789 \n"
_BULK_MAX_DIGITS = 18
_BULK_CELLS_PER_BYTE = 64


def _parse_bulk(text: str) -> Instance | None:
    # The instance of a well-formed text in the bulk byte set, or None for
    # _parse_lines to parse it (and to raise what it raises).
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _BULK_BYTES):
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    digit = np.zeros(len(chars) + 2, dtype=bool)
    np.greater(chars, ord(" "), out=digit[1:-1])
    # first and last byte of each token
    starts = np.flatnonzero(digit[1:-1] & ~digit[:-2])
    ends = np.flatnonzero(digit[1:-1] & ~digit[2:])
    if len(starts) < 2 or (ends - starts).max() + 1 > _BULK_MAX_DIGITS:
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if len(values) != len(starts):  # numpy's reader saw other tokens
        return None
    # each token's line is the count of newlines before it; heads are the
    # first tokens of the non-blank lines
    line = np.searchsorted(np.flatnonzero(chars == ord("\n")), starts)
    heads = np.flatnonzero(np.diff(line, prepend=-1))
    n, m = int(values[0]), int(values[1])
    if (
        n < 1
        or m < 1
        or len(heads) != m + 1
        or heads[1] != 2
        or m * n > _BULK_CELLS_PER_BYTE * len(raw)
    ):
        return None
    cards = heads[1:]  # each set line's cardinality token
    counts = np.diff(cards, append=len(values)) - 1
    if not np.array_equal(values[cards], counts):
        return None
    elements = np.delete(values[2:], cards - 2)
    if elements.size and elements.max() >= n:
        return None
    hits = np.zeros((m, n), dtype=bool)
    hits[np.repeat(np.arange(m), counts), elements] = True
    if np.count_nonzero(hits) != elements.size:  # a duplicate set a cell twice
        return None
    return Instance._of_rows(n, _pack(hits[None], n)[:, 0])


def _parse_lines(text: str) -> Instance:
    # parse_instance one line at a time, with every error it can report
    numbered = [(i + 1, line.split()) for i, line in enumerate(text.splitlines())]
    numbered = [(ln, toks) for ln, toks in numbered if toks]
    if not numbered:
        raise ParseError("empty input")
    ln, header = numbered[0]
    if len(header) != 2:
        raise ParseError("malformed header: expected 'n m'", ln)
    n = _int_token(header[0], ln)
    m = _int_token(header[1], ln)
    if n < 1 or m < 1:
        raise ParseError(f"malformed header: n and m must be positive, got {n} {m}", ln)
    body = numbered[1:]
    if len(body) < m:
        last = numbered[-1][0]
        raise ParseError(f"truncated set list: expected {m} set lines, found {len(body)}", last)
    if len(body) > m:
        raise ParseError("trailing content", body[m][0])
    masks = []
    for ln, toks in body:
        card = _int_token(toks[0], ln)
        if card < 0:
            raise ParseError(f"negative cardinality {card}", ln)
        if len(toks) - 1 < card:
            raise ParseError(
                f"truncated set list: expected {card} elements, found {len(toks) - 1}", ln
            )
        if len(toks) - 1 > card:
            raise ParseError(
                f"expected {card} elements, found {len(toks) - 1}", ln
            )
        bits = 0
        for tok in toks[1:]:
            e = _int_token(tok, ln)
            if not 0 <= e < n:
                raise ParseError(f"element {e} out of range", ln)
            if (bits >> e) & 1:
                raise ParseError(f"duplicate element {e}", ln)
            bits |= 1 << e
        masks.append(bits)
    return Instance(n, tuple(masks))


def _int_token(tok: str, line: int) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError(f"invalid integer {tok!r}", line) from None


def parse_orlib_scp(text: str) -> Instance:
    """Read an OR-Library set-covering file as a unicost instance.

    Layout: "rows columns", then one cost per column, then per row a count
    followed by that many 1-based column indices.  Rows become elements and
    columns become sets (so the row lists are transposed); costs are dropped,
    with a warning when any differs from 1.  Token stream only; the format
    wraps lines arbitrarily, so errors carry no line numbers.
    """
    tokens = text.split()
    pos = 0

    def take(what: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"truncated file: expected {what}")
        tok = tokens[pos]
        pos += 1
        try:
            return int(tok, 10)
        except ValueError:
            raise ParseError(f"invalid integer {tok!r} for {what}") from None

    rows = take("row count")
    cols = take("column count")
    if rows < 1:
        raise ParseError("zero rows")
    if cols < 1:
        raise ParseError("zero columns")
    nonunit = False
    for c in range(cols):
        nonunit |= take(f"cost of column {c + 1}") != 1
    if nonunit:
        warnings.warn("non-unit column costs dropped (unicost interpretation)")
    masks = [0] * cols
    for r in range(rows):
        covers = take(f"cover count of row {r + 1}")
        if covers < 0:
            raise ParseError(f"negative cover count for row {r + 1}")
        for _ in range(covers):
            c = take(f"covering column of row {r + 1}")
            if not 1 <= c <= cols:
                raise ParseError(f"column index {c} out of range 1..{cols} in row {r + 1}")
            masks[c - 1] |= 1 << r
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after row sections ({len(tokens) - pos} left)")
    return Instance(rows, tuple(masks))
