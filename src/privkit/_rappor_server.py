"""The server side of the reporting pipeline: per-bit set counts folded
from a reports file, and the count estimator that inverts them.
``privkit.rappor`` reads these names from here on their first use.

``count_report_file`` folds a reports file in O(k) memory plus one block of
lines, without numpy. A block whose every line is exactly as
``envelope_lines`` writes it is checked and counted by byte column, with
strided slices and ``bytes.translate``; any other block is decoded as text
mode reads it and goes line by line through ``count_report_lines``, which
slices the hex out of such a line and parses any other as JSON. Both count
the set bits of each hex column with one table per bit and an integer
popcount.
"""

from __future__ import annotations

import io
import json
import operator
import re
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import ConfigError, DegenerateParams, InvalidParams, LengthMismatch
from .rappor import (
    RapporParams,
    _chunk_rows,
    _envelope_bytes,
    _envelope_template,
    bloom_indices,
    lemma1,
)

_HEX_DIGITS = b"0123456789abcdef"

# Bytes of a reports file read per block; each block is cut back to its last
# line end. Reading it briefly holds two copies, which at 1 MiB raised the
# own peak RSS of a 1M-report estimate by 4 MiB and at 256 KiB by 0.7 MiB.
_BLOCK_BYTES = 1 << 18

# Bit b of each hex digit's value, for counting set bits with bytes.translate;
# only hex digits are translated, so callers pass nothing else.
_NIBBLE_BITS = [bytes.maketrans(_HEX_DIGITS, bytes(v >> b & 1 for v in range(16)))
                for b in range(4)]


def estimate_from_counts(
    counts: Sequence[int],
    n: int,
    candidates: Sequence[str],
    params: RapporParams,
) -> dict[str, float]:
    """Estimate how many of n reports encoded each candidate value, from the
    number of reports with each bit set.

    Per bit i the set-count c_i over N reports is inverted to
    t_i = (c_i - p* N) / (q* - p*), clamped to [0, N]; a candidate scores the
    minimum of t_i over its Bloom indices, since every index is a necessary
    condition for carrying that value.

    ``n`` must be an int (not a bool), and each count an int (not a bool)
    in [0, n], as some set of n reports gives; anything else raises
    InvalidParams naming the value and, for a count, its bit. ``n`` below 1
    or a number of counts other than k raises LengthMismatch. ``candidates``
    is a collection of strings: a bare string, or a candidate that is not a
    string, raises InvalidParams naming it.
    """
    if isinstance(candidates, str):
        raise InvalidParams(
            f"expected a collection of candidate strings, got the string {candidates!r}")
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidParams(f"number of reports must be an int, got {n!r}")
    if n < 1:
        raise LengthMismatch("need at least one report")
    if len(counts) != params.k:
        raise LengthMismatch(f"{len(counts)} bit counts, params say {params.k}")
    for i, c in enumerate(counts):
        if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c <= n:
            raise InvalidParams(f"count of bit {i} must be an int in [0, {n}], got {c!r}")
    q_star, p_star = lemma1(params)
    denom = q_star - p_star
    if denom == 0.0:
        raise DegenerateParams("q* equals p*, reports carry no signal")
    t = [min(max((c - p_star * n) / denom, 0.0), float(n)) for c in counts]
    return {
        v: min(t[i] for i in bloom_indices(v, params)) for v in candidates
    }


def count_report_lines(
    lines: Iterable[str], params: RapporParams
) -> tuple[list[int], int]:
    """Fold the lines of a reports file into (per-bit set counts, number of
    reports), one chunk at a time. Memory is O(k) plus one chunk, whatever
    the number of lines.

    Blank lines are skipped. A line exactly as ``envelope_lines`` writes it
    (lowercase hex, zero padding bits, with or without its newline) is read
    by slicing out its hex. Any other line must be a JSON envelope that
    ``Report.from_envelope`` accepts; the first line that is not raises,
    ``ConfigError`` naming the line for bad JSON or for a character in
    U+DC80-U+DCFF (an undecodable byte under ``surrogateescape``), and
    ``ReportFormatError`` for a bad envelope.
    """
    counts = [0] * params.k
    return counts, _count_lines(lines, params, counts, 0)[0]


def count_report_file(fh: BinaryIO, params: RapporParams) -> tuple[list[int], int]:
    """``count_report_lines`` of the lines that text mode (UTF-8 with
    ``surrogateescape``, universal newlines) reads from ``fh``, a file open
    in binary mode, with the same counts and the same first error.

    The file is read a block of whole lines at a time. A block whose every
    line is exactly as ``envelope_lines`` writes it (every byte outside the
    hex as the template's, lowercase hex, zero padding bits, LF ends) is
    counted by byte column. Any other block is decoded as text mode decodes
    it and takes ``count_report_lines``' path, its lines numbered on from
    the blocks before. Memory is O(k) plus one block of about
    ``_BLOCK_BYTES``, or one line if a line is longer.
    """
    k = params.k
    counts = [0] * k  # first, so a k too large for memory fails here, as it did
    width = (k + 7) // 8
    head, tail = _envelope_template(params)
    line = (head + "0" * 2 * width + tail + "\n").encode("ascii")
    size, start = len(line), len(head)
    hexes = range(start, start + 2 * width)
    fixed = [(j, line[j]) for j in range(size) if j not in hexes]
    n = lineno = 0
    for block in _line_blocks(fh):
        rows = len(block) // size
        if (len(block) == rows * size
                and all(block[j::size].count(c) == rows for j, c in fixed)
                and not any(block[j::size].translate(None, _HEX_DIGITS) for j in hexes)):
            bits = _hex_bit_counts(block, size, start, 8 * width)
            if not any(bits[k:]):  # else the line path names the line with padding set
                counts[:] = map(operator.add, counts, bits)
                n += rows
                lineno += rows
                continue
        text = io.TextIOWrapper(io.BytesIO(block), "utf-8", "surrogateescape")
        added, lineno = _count_lines(text, params, counts, lineno)
        n += added
    return counts, n


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of whole lines, each cut after the last
    LF or CR of a read of ``_BLOCK_BYTES``; never between the CR and LF of
    a CRLF, so text mode splits each block as it splits the whole file. A
    read with no line end joins the next block. The last block is what
    remains, with or without a line end."""
    pieces: list[bytes] = []  # read since the last cut
    while data := fh.read(_BLOCK_BYTES):
        # a CR as the last byte may be the first half of a CRLF
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if not cut:
            pieces.append(data)
            continue
        block = b"".join([*pieces, memoryview(data)[:cut]])
        pieces = [data[cut:]]
        del data
        yield block
    if rest := b"".join(pieces):
        yield rest


def _count_lines(
    lines: Iterable[str], params: RapporParams, counts: list[int], lineno: int
) -> tuple[int, int]:
    """Add the reports of ``lines``, which are numbered from ``lineno + 1``,
    to ``counts`` as ``count_report_lines`` reads them; return the number of
    reports and the number of the last line."""
    k, digest = params.k, params.digest()
    head, tail = _envelope_template(params)
    start, end = len(head), len(head) + 2 * ((k + 7) // 8)
    canonical = re.compile(
        re.escape(head) + f"[0-9a-f]{{{end - start}}}" + re.escape(tail) + r"\n?"
    ).fullmatch
    padding = k % 8  # bits of the last byte below k; 0 when it has no padding
    rows = _chunk_rows(k)
    n = 0
    chunk: list[str] = []
    for lineno, line in enumerate(lines, start=lineno + 1):
        # a line with padding bits set takes the JSON path, which rejects it
        if canonical(line) and not (padding and int(line[end - 2 : end], 16) >> padding):
            chunk.append(line[start:end])
        elif not line.strip():
            continue
        else:
            # U+DC80-U+DCFF: a byte that errors="surrogateescape" could not decode
            if undecodable := re.search("[\udc80-\udcff]", line):
                raise ConfigError(
                    f"reports line {lineno}: byte 0x{ord(undecodable[0]) - 0xDC00:02x}"
                    " is not valid UTF-8"
                )
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise ConfigError(f"reports line {lineno}: {exc}") from exc
            chunk.append(_envelope_bytes(obj, digest, k).hex())
        if len(chunk) == rows:
            n += _add_hex_counts(counts, chunk)
            chunk = []
    n += _add_hex_counts(counts, chunk)
    return n, lineno


def _add_hex_counts(counts: list[int], hex_reports: list[str]) -> int:
    """Add the set bits of reports, each the lowercase hex of ceil(k/8)
    bytes, to the k counts; return the number of reports."""
    stride = 2 * ((len(counts) + 7) // 8)
    text = "".join(hex_reports).encode("ascii")
    counts[:] = map(operator.add, counts, _hex_bit_counts(text, stride, 0, len(counts)))
    return len(hex_reports)


def _hex_bit_counts(text: bytes, stride: int, start: int, bits: int) -> list[int]:
    """The set counts of bits 0 to ``bits - 1`` of the reports whose
    lowercase hex starts at ``start`` in every ``stride`` bytes of ``text``.
    Bit i is bit i % 8 of byte i // 8, whose hex is its high digit, then its
    low one. Each digit column is sliced out once, and each of its bits is
    mapped to bytes 0 and 1 and counted as one integer's popcount, which
    does not branch on the data as ``bytes.count`` does."""
    counts: list[int] = []
    for i in range(0, bits, 4):
        column = text[start + 2 * (i // 8) + (i % 8 == 0) :: stride]
        counts += [int.from_bytes(column.translate(table), "little").bit_count()
                   for table in _NIBBLE_BITS[: bits - i]]
    return counts
