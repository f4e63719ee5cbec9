"""Randomized-response reporting pipeline and its privacy calculators.

Client side: a value is hashed onto a Bloom filter, passed through a
permanent randomized response (PRR, flip mass ``f``) that is a deterministic
function of the client secret and the value, then through a fresh
instantaneous randomized response (IRR, probabilities ``q``/``p``) for every
report sent.

Server side: ``estimate_from_counts`` inverts the per-bit randomization
using the marginal probabilities ``q*``/``p*`` of observing a set bit, and
scores each candidate string by the most pessimistic of its Bloom indices.
It needs only the per-bit set counts, which ``count_report_file`` folds
from a reports file in O(k) memory plus one block of lines, without numpy.
A block whose every line is exactly as ``envelope_lines`` writes it is
checked and counted by byte column, with strided slices and
``bytes.translate``; any other block is decoded as text mode reads it and
goes line by line through ``count_report_lines``, which slices the hex out
of such a line and parses any other as JSON. Both count the set bits of
each hex column with one table per bit and an integer popcount.

Many clients are simulated in chunks of reports by ``simulate_packed``,
without numpy: no code here uses it. It draws from the same keyed hashes and
the same seeded stream as the scalar ``prr``/``irr``/``make_report``, which
stay as the reference the batch path is tested against, and makes each of
their float comparisons as an exact integer one, so both give identical
bits. Each chunk is ``bytes`` in the layout of ``Report.to_hex``, report
after report, for ``envelope_lines`` to write and ``simulate_reports`` to
decode as ``Report.from_hex`` does.

All hashing is keyed BLAKE2b, so encodings and permanent responses are
bit-identical across processes and platforms for fixed parameters.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import operator
import random
import re
import struct
from itertools import chain, islice, repeat
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, Union

from ._value import Frozen
from .errors import (
    ConfigError,
    DegenerateParams,
    DomainError,
    InvalidParams,
    LengthMismatch,
    ReportFormatError,
)

_MASK64 = (1 << 64) - 1

# Report bits per chunk of the batch path: k=16 gives 4096 reports per chunk,
# k=256 gives 256, so the client's PRR blocks and IRR draws stay near 0.5 MiB
# each, and its flags, one byte per bit, near 64 KiB.
_CHUNK_BITS = 1 << 16

Bits = tuple[int, ...]

_HEX_DIGITS = b"0123456789abcdef"

# Bytes of a reports file read per block; each block is cut back to its last
# line end. Reading it briefly holds two copies, which at 1 MiB raised the
# own peak RSS of a 1M-report estimate by 4 MiB and at 256 KiB by 0.7 MiB.
_BLOCK_BYTES = 1 << 18

# Bit b of each hex digit's value, for counting set bits with bytes.translate;
# only hex digits are translated, so callers pass nothing else.
_NIBBLE_BITS = [bytes.maketrans(_HEX_DIGITS, bytes(v >> b & 1 for v in range(16)))
                for b in range(4)]

_BINARY = frozenset((0, 1))

# The characters "0" and "1" as the byte values 0 and 1, for decoding reports.
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")

# Person-only BLAKE2b states; each call hashes into a copy instead of
# building the hasher from its keyword arguments again.
_CLIENT_HASH = hashlib.blake2b(digest_size=16, person=b"privkit.client")
_PRR_KEY_HASH = hashlib.blake2b(digest_size=32, person=b"privkit.prrkey")


class RapporParams(Frozen):
    """Tuning knobs of the reporting pipeline.

    k: Bloom filter size in bits.
    h: number of hash functions.
    f: PRR flip mass in [0, 1]; the permanent bit keeps its true value with
       probability 1-f.
    q: probability a report bit is 1 given the permanent bit is 1.
    p: probability a report bit is 1 given the permanent bit is 0.
    hash_seed: keys the Bloom hash family, making indices reproducible.

    k, h and hash_seed must be ints, and f, q and p ints or floats (bool is
    neither); f, q and p are stored as floats, so that params equal in value
    have one digest. ``from_json`` only maps a JSON object onto these fields.

    k is at most 2^35 and h below 2^32: the PRR hashes number each 8-bit
    block, and the Bloom hashes each function, as an unsigned 32-bit integer.

    Set bits stay informative only while q > p; q = p is accepted (it is the
    no-signal edge) but the count estimator rejects it as degenerate, and the
    privacy calculators reject parameters at which their formulas are
    undefined. The boundaries p=0 and q=1 describe a noiseless channel.
    """

    k: int
    h: int
    f: float
    q: float
    p: float
    hash_seed: int = 0

    def __post_init__(self):
        # Fields take their type as written: int() would truncate 12.7 and
        # float() would parse "0.5". bool is an int subclass in Python.
        for name in ("k", "h", "f", "q", "p", "hash_seed"):
            value = getattr(self, name)
            integer = name in ("k", "h", "hash_seed")
            if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
                kind = "an integer" if integer else "a number"
                raise InvalidParams(f"{name} must be {kind}, got {value!r}")
        try:  # stored as floats, so params equal in value have one digest
            for name in ("f", "q", "p"):
                object.__setattr__(self, name, float(getattr(self, name)))
        except OverflowError as exc:
            raise InvalidParams(f"bad params field: {exc}") from exc
        if not 1 <= self.k <= 2**35:
            raise InvalidParams(f"filter size must be in [1, 2^35], got {self.k}")
        if not 1 <= self.h <= min(self.k, 2**32 - 1):
            raise InvalidParams(f"need 1 <= h <= k and h < 2^32, got h={self.h}, k={self.k}")
        if not 0.0 <= self.f <= 1.0:
            raise InvalidParams(f"f must be in [0, 1], got {self.f}")
        if not 0.0 <= self.p <= 1.0 or not 0.0 <= self.q <= 1.0:
            raise InvalidParams(f"p and q must be in [0, 1], got p={self.p}, q={self.q}")
        if self.q < self.p:
            raise InvalidParams(f"need q >= p, got q={self.q}, p={self.p}")
        if not 0 <= self.hash_seed <= _MASK64:
            raise InvalidParams(f"hash_seed must be in [0, 2^64), got {self.hash_seed}")
        fields = dict(zip(self._fields, self._astuple(self)))
        canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        # Fields are frozen, so the fingerprint is computed once per object.
        object.__setattr__(
            self, "_digest", hashlib.sha256(canonical.encode("ascii")).hexdigest()[:16]
        )

    # The keyed BLAKE2b state of each Bloom hash function, built on first use;
    # ``bloom_indices`` hashes a value into copies of them.
    @functools.cached_property
    def _bloom_hashes(self) -> tuple:
        return tuple(hashlib.blake2b(key=struct.pack("<QI", self.hash_seed, j), digest_size=8,
                                     person=b"privkit.bloom") for j in range(1, self.h + 1))

    def __reduce__(self):
        # pickle and deepcopy rebuild from the fields: hash states do not pickle
        return type(self), self._astuple(self)

    def digest(self) -> str:
        """Short stable fingerprint used to bind serialized reports."""
        return self._digest

    @classmethod
    def from_json(cls, obj: Union[str, Mapping]) -> "RapporParams":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise InvalidParams(f"params are not valid JSON: {exc}") from exc
        if not isinstance(obj, Mapping):
            raise InvalidParams("params JSON must be an object")
        try:
            fields = {name: obj[name] for name in ("k", "h", "f", "q", "p")}
        except KeyError as exc:
            raise InvalidParams(f"params JSON missing field {exc}") from exc
        return cls(**fields, hash_seed=obj.get("hash_seed", 0))


def _check_bits(self) -> None:
    """The ``__post_init__`` of the bit vectors below: store ``bits`` as a
    tuple, and raise InvalidParams naming the first bit that does not equal
    0 or 1."""
    bits = tuple(self.bits)
    if not _BINARY.issuperset(bits):
        i, b = next((i, b) for i, b in enumerate(bits) if b not in _BINARY)
        raise InvalidParams(f"bit {i} is {b!r}, not 0 or 1")
    object.__setattr__(self, "bits", bits)


class BloomFilter(Frozen):
    """A value's Bloom filter: k bits, each 0 or 1, stored as a tuple."""

    bits: Bits
    __post_init__ = _check_bits

    @classmethod
    def from_indices(cls, k: int, indices: Iterable[int]) -> "BloomFilter":
        bits = [0] * k
        for i in indices:
            if not 0 <= i < k:
                raise LengthMismatch(f"bit index {i} outside filter of size {k}")
            bits[i] = 1
        return cls(bits)

    @property
    def set_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)


class PermanentResponse(Frozen):
    """Memorized noisy filter; identical for every report of the same value.
    Its bits are checked and stored as ``BloomFilter``'s are."""

    value: str
    bits: Bits
    __post_init__ = _check_bits


class Report(Frozen):
    """The k-bit vector actually sent to the aggregator. Its bits are
    checked and stored as ``BloomFilter``'s are."""

    bits: Bits
    __post_init__ = _check_bits

    def to_hex(self) -> str:
        """Lowercase hex of ceil(k/8) bytes; bit i is bit (i%8) of byte i//8."""
        out = bytearray((len(self.bits) + 7) // 8)
        for i, b in enumerate(self.bits):
            if b:
                out[i // 8] |= 1 << (i % 8)
        return out.hex()

    @classmethod
    def from_hex(cls, text: str, k: int) -> "Report":
        return cls(_unpack_bits(_report_bytes(text, k), k))

    def envelope(self, params: RapporParams) -> dict:
        return {"params_digest": params.digest(), "report_hex": self.to_hex()}

    @classmethod
    def from_envelope(cls, obj: Mapping, params: RapporParams) -> "Report":
        return cls(_unpack_bits(_envelope_bytes(obj, params.digest(), params.k), params.k))


def _unpack_bits(raw: bytes, k: int) -> Bits:
    # bit i of raw read as a little-endian integer is bit i % 8 of byte i // 8
    return tuple(format(int.from_bytes(raw, "little"), f"0{8 * len(raw)}b")[::-1][:k]
                 .encode("ascii").translate(_ASCII_BITS))


def _report_bytes(text: str, k: int) -> bytes:
    """Decode report hex, checking it holds ceil(k/8) bytes with zero padding."""
    if not isinstance(text, str):
        raise ReportFormatError(f"report hex must be a string, got {type(text).__name__}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ReportFormatError(f"bad report hex: {exc}") from exc
    if len(raw) != (k + 7) // 8:
        raise ReportFormatError(
            f"report holds {len(raw)} bytes, expected {(k + 7) // 8}"
        )
    if k % 8 and raw[-1] >> (k % 8):
        raise ReportFormatError("padding bits beyond k must be zero")
    return raw


def _envelope_bytes(obj: Mapping, digest: str, k: int) -> bytes:
    """The packed report of an envelope, after checking it is bound to the
    params with this digest and that its hex is well formed."""
    try:
        bound, text = obj["params_digest"], obj["report_hex"]
    except (KeyError, TypeError) as exc:
        raise ReportFormatError(f"malformed report envelope: {exc}") from exc
    if bound != digest:
        raise ReportFormatError(f"report bound to params {bound}, expected {digest}")
    return _report_bytes(text, k)


def bloom_indices(value: str, params: RapporParams) -> tuple[int, ...]:
    """The h filter positions of a value, one per keyed hash function.
    A value that is not a str raises InvalidParams naming it."""
    if not isinstance(value, str):
        raise InvalidParams(f"value must be a string, got {value!r}")
    data = value.encode("utf-8")
    hashers = [base.copy() for base in params._bloom_hashes]
    for hasher in hashers:
        hasher.update(data)
    return tuple(int.from_bytes(hasher.digest(), "little") % params.k for hasher in hashers)


def bloom_encode(
    values: Union[str, Iterable[str]], params: RapporParams
) -> BloomFilter:
    """Hash one value (reporting) or several (membership demos) onto a filter."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        values = [values]  # bloom_indices names a value that is not a str
    indices: set[int] = set()
    for v in values:
        indices.update(bloom_indices(v, params))
    return BloomFilter.from_indices(params.k, indices)


def bloom_check(filter: BloomFilter, value: str, params: RapporParams) -> bool:
    """True iff every hashed index of the value is set. May report membership
    for never-inserted values (false positive), never the reverse."""
    if len(filter.bits) != params.k:
        raise LengthMismatch(
            f"filter has {len(filter.bits)} bits, params say {params.k}"
        )
    return all(filter.bits[i] for i in bloom_indices(value, params))


def _prr_messages(value: str, params: RapporParams) -> list[bytes]:
    """The inputs hashed for a value's PRR uniforms, one block per 8 bits."""
    ctx = params.digest().encode("ascii") + b"\x00" + value.encode("utf-8")
    return [ctx + struct.pack("<I", block) for block in range((params.k + 7) // 8)]


def _prr_blocks(client_secret: bytes, messages: Sequence[bytes]) -> bytes:
    """Keyed BLAKE2b blocks of 8 little-endian 64-bit words each; word i
    divided by 2^64 is the uniform of bit i."""
    key = _PRR_KEY_HASH.copy()
    key.update(client_secret)
    base = hashlib.blake2b(key=key.digest(), digest_size=64, person=b"privkit.prruni")
    blocks = []
    for m in messages:
        block = base.copy()
        block.update(m)
        blocks.append(block.digest())
    return b"".join(blocks)


def _prr_uniforms(
    client_secret: bytes, value: str, params: RapporParams
) -> list[float]:
    """Deterministic per-bit uniforms keyed by (secret, value, params)."""
    blocks = _prr_blocks(client_secret, _prr_messages(value, params))
    words = struct.unpack(f"<{len(blocks) // 8}Q", blocks)
    return [word / 2.0**64 for word in words[: params.k]]


def prr(
    filter: BloomFilter,
    client_secret: bytes,
    value: str,
    params: RapporParams,
) -> PermanentResponse:
    """Permanent randomized response: per bit, 1 w.p. f/2, 0 w.p. f/2, else
    the true bit.

    The randomness is re-derived from (client_secret, value, params), so
    repeated calls return bit-identical responses -- equivalent to memorizing
    the first draw, without client-side state.
    """
    if len(filter.bits) != params.k:
        raise LengthMismatch(
            f"filter has {len(filter.bits)} bits, params say {params.k}"
        )
    half_f = params.f / 2.0
    bits = []
    for b, u in zip(filter.bits, _prr_uniforms(client_secret, value, params)):
        if u < half_f:
            bits.append(1)
        elif u < params.f:
            bits.append(0)
        else:
            bits.append(b)
    return PermanentResponse(value, bits)


def irr(
    perm: PermanentResponse, params: RapporParams, rng: random.Random
) -> Report:
    """Instantaneous randomized response: fresh per-call randomization with
    P(1) = q where the permanent bit is 1 and P(1) = p where it is 0."""
    if len(perm.bits) != params.k:
        raise LengthMismatch(
            f"permanent response has {len(perm.bits)} bits, params say {params.k}"
        )
    return Report(
        1 if rng.random() < (params.q if b else params.p) else 0 for b in perm.bits
    )


def make_report(
    value: str,
    client_secret: bytes,
    params: RapporParams,
    rng: random.Random,
) -> Report:
    """Full pipeline: Bloom encode, then PRR, then IRR."""
    return irr(prr(bloom_encode(value, params), client_secret, value, params), params, rng)


def epsilon_infinity(params: RapporParams) -> float:
    """Longitudinal privacy bound of the permanent response: 2h ln((1-f/2)/(f/2)).

    Raises ``DomainError`` unless 0 < f < 1, and also when f is so small
    that f/2 underflows to 0 or the ratio overflows to infinity.
    """
    if not 0.0 < params.f < 1.0:
        raise DomainError(f"bound needs 0 < f < 1, got f={params.f}")
    half_f = params.f / 2.0
    if half_f == 0.0 or math.isinf(ratio := (1.0 - half_f) / half_f):
        raise DomainError(f"bound is not finite in floating point at f={params.f}")
    return 2.0 * params.h * math.log(ratio)


def lemma1(params: RapporParams) -> tuple[float, float]:
    """Marginal report-bit probabilities (q*, p*).

    q* is P(report bit = 1 | true Bloom bit = 1) and p* the same for an unset
    bit, marginalizing over the permanent response.
    """
    base = 0.5 * params.f * (params.p + params.q)
    q_star = base + (1.0 - params.f) * params.q
    p_star = base + (1.0 - params.f) * params.p
    return q_star, p_star


def epsilon_one(params: RapporParams) -> float:
    """Single-report privacy bound: h ln(q*(1-p*) / (p*(1-q*))).

    Raises ``DomainError`` unless both marginals are strictly inside (0, 1),
    and also when p*(1-q*) underflows to 0 or the ratio overflows to infinity.
    """
    q_star, p_star = lemma1(params)
    if not 0.0 < p_star < 1.0 or not 0.0 < q_star < 1.0:
        raise DomainError(
            f"bound needs marginals strictly inside (0, 1), got "
            f"q*={q_star}, p*={p_star}"
        )
    denom = p_star * (1.0 - q_star)
    if denom == 0.0 or math.isinf(ratio := q_star * (1.0 - p_star) / denom):
        raise DomainError(
            f"bound is not finite in floating point at q*={q_star}, p*={p_star}"
        )
    return params.h * math.log(ratio)


def estimate_counts(
    reports: Sequence[Report],
    candidates: Sequence[str],
    params: RapporParams,
) -> dict[str, float]:
    """Estimate how many reports encoded each candidate value; see
    ``estimate_from_counts``."""
    if not reports:
        raise LengthMismatch("need at least one report")
    for r in reports:
        if len(r.bits) != params.k:
            raise LengthMismatch(
                f"report has {len(r.bits)} bits, params say {params.k}"
            )
    # a bit may be True or 1.0 (each equals 1); count(1) keeps each count an int
    counts = [column.count(1) for column in zip(*(r.bits for r in reports))]
    return estimate_from_counts(counts, len(reports), candidates, params)


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


def allocate_counts(
    distribution: Mapping[str, float], clients: int
) -> dict[str, int]:
    """Split a client population across values by largest remainder, so the
    realized counts match the target shares as closely as integers allow.

    The shares are scaled to sum to 1 and multiplied out in exact integer
    arithmetic, so the counts sum to ``clients`` at every size and each is
    within 1 of its exact share.

    ``clients`` must be an int (not a bool) in [0, 2^63): the batch client
    repeats owners in int64 and ``client_secret`` packs each client index as
    an unsigned 64-bit integer. Anything else raises ``InvalidParams``.
    """
    if isinstance(clients, bool) or not isinstance(clients, int) or not 0 <= clients < 2**63:
        raise InvalidParams(f"clients must be an integer in [0, 2^63), got {clients!r}")
    for share in distribution.values():
        if isinstance(share, bool) or not isinstance(share, (int, float)) or not 0 <= share <= 1:
            raise InvalidParams(f"distribution share {share!r} is not a number in [0, 1]")
    total = sum(distribution.values())
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise InvalidParams(f"distribution sums to {total}, expected 1")
    # Share i is A_i / L over the common denominator L, so its exact part of
    # the clients is clients * A_i / S with S the sum of the A_i.
    ratios = {v: share.as_integer_ratio() for v, share in sorted(distribution.items())}
    common = math.lcm(*(den for _, den in ratios.values()))
    numerators = {v: num * (common // den) for v, (num, den) in ratios.items()}
    exact_total = sum(numerators.values())
    counts, remainders = {}, {}
    for v, num in numerators.items():
        counts[v], remainders[v] = divmod(clients * num, exact_total)
    leftover = clients - sum(counts.values())
    by_remainder = sorted(remainders, key=lambda v: (-remainders[v], v))
    for v in by_remainder[:leftover]:
        counts[v] += 1
    return counts


def client_secret(seed: int, client_index: int) -> bytes:
    """Per-client secret for simulations, derived from the run seed."""
    secret = _CLIENT_HASH.copy()
    secret.update(struct.pack("<QQ", seed & _MASK64, client_index))
    return secret.digest()


def simulate_reports(
    counts: Mapping[str, int], params: RapporParams, seed: int
) -> list[Report]:
    """One report per simulated client, deterministic for a fixed seed.

    Client i reports the value assigned by iterating ``counts`` in sorted
    order; each client has its own derived secret, and all IRR draws come
    from a single seeded stream. The reports are those of ``make_report``
    applied client by client with ``random.Random(seed)``.
    """
    k = params.k
    stride = 8 * ((k + 7) // 8)  # bits per report, padding included
    return [
        Report(bits[i : i + k])
        for chunk in simulate_packed(counts, params, seed)
        for bits in [_unpack_bits(chunk, 8 * len(chunk))]
        for i in range(0, len(bits), stride)
    ]


def simulate_packed(
    counts: Mapping[str, int], params: RapporParams, seed: int
) -> Iterator[bytes]:
    """The reports of ``simulate_reports``, a chunk at a time: each chunk is
    ceil(k/8) bytes per report, report after report, laid out like
    ``Report.to_hex``.

    Each count must be a non-negative int (not a bool); anything else raises
    ``InvalidParams``.

    PRR words come from the same keyed blocks as ``prr``, and IRR draws from
    the words of ``random.Random(seed)`` that ``rng.random()`` would read, so
    every comparison is the scalar one made on integers: the uniform
    word / 2^64 is below t exactly when the word is below ``_bound(t, 64)``,
    and a draw X / 2^53 exactly when X is below ``_bound(t, 53)``. Each
    comparison of a chunk is decided at once by a byte table over the top
    bytes, and a value is read in full only where its top byte is the
    bound's. The flags, one byte per bit, are combined as big integers.
    """
    k = params.k
    stride = 8 * ((k + 7) // 8)  # PRR words per client, and report bits with padding
    values = sorted(counts)
    for v in values:  # bool is an int subclass in Python
        count = counts[v]
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise InvalidParams(f"count of {v!r} must be a non-negative integer, got {count!r}")
    blooms = [bytes(bloom_encode(v, params).bits) + bytes(stride - k) for v in values]
    messages = [_prr_messages(v, params) for v in values]
    owners = chain.from_iterable(repeat(j, counts[v]) for j, v in enumerate(values))
    half_f, f = (_Below(_bound(t, 64), 56) for t in (params.f / 2.0, params.f))
    q, p = (_Below(_bound(t, 53), 45) for t in (params.q, params.p))
    rng = random.Random(seed)
    rows = _chunk_rows(k)
    start = 0
    while owner := list(islice(owners, rows)):
        n = len(owner)
        blocks = b"".join([
            _prr_blocks(client_secret(seed, i), messages[j])
            for i, j in enumerate(owner, start)
        ])
        start += n
        tops = blocks[7::8]  # the top byte of each little-endian word

        def word(i):
            return int.from_bytes(blocks[8 * i : 8 * i + 8], "little")

        bloom = int.from_bytes(b"".join([blooms[j] for j in owner]), "little")
        perm = int.from_bytes(half_f(tops, word), "little") | (
            bloom & ~int.from_bytes(f(tops, word), "little"))
        # 32-bit words a, b per draw; random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53
        draws = rng.getrandbits(64 * n * k).to_bytes(8 * n * k, "little")
        tops = draws[3::8]  # the top byte of a, so of X

        def draw(i):
            ab = int.from_bytes(draws[8 * i : 8 * i + 8], "little")
            return (ab & 0xFFFFFFFF) >> 5 << 26 | ab >> 38

        dq, dp = (int.from_bytes(_pad_rows(below(tops, draw), k, stride), "little")
                  for below in (q, p))
        # one flag per byte: q's draw where the permanent bit is 1, p's where it
        # is 0, then the eight flags of each report byte gathered into its low byte
        bits = dp ^ ((dp ^ dq) & perm)
        bits |= bits >> 7
        bits |= bits >> 14
        bits |= bits >> 28
        yield bits.to_bytes(n * stride, "little")[::8]


def _bound(t: float, bits: int) -> int:
    """The least integer w in [0, 2^bits] with w / 2.0**bits >= t, found by
    bisection: an integer below it, read as the uniform w / 2^bits the way
    the scalar path reads it, is below t."""
    lo, hi = 0, 1 << bits
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2.0**bits < t:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _Below:
    """The comparison value < bound over many values at once, given each
    value's top byte (its bits from ``shift`` up)."""

    def __init__(self, bound: int, shift: int):
        self.bound = bound
        top, low = divmod(bound, 1 << shift)
        # 1: every value with this top byte is below the bound, 0: none is,
        # 2: the bits below the top byte decide
        self.table = bytes(1 if x < top else 2 if x == top and low else 0 for x in range(256))

    def __call__(self, tops: bytes, value) -> bytearray:
        """Flag bytes, 1 where value i is below the bound; ``value(i)`` reads
        value i in full where its top byte alone cannot tell."""
        flags = bytearray(tops.translate(self.table))
        i = flags.find(2)
        while i >= 0:
            flags[i] = value(i) < self.bound
            i = flags.find(2, i + 1)
        return flags


def _pad_rows(flags: bytearray, k: int, stride: int) -> bytearray:
    """Rows of k flag bytes spread to rows of ``stride``, zero-padded."""
    if k == stride:
        return flags
    padded = bytearray(len(flags) // k * stride)
    for j in range(k):
        padded[j::stride] = flags[j::k]
    return padded


def envelope_lines(chunks: Iterable[bytes], params: RapporParams) -> Iterator[bytes]:
    """JSON lines of each chunk of packed reports (as ``simulate_packed``
    yields them): per report, the bytes of
    ``json.dumps(report.envelope(params), sort_keys=True)`` and a newline."""
    head, tail = _envelope_template(params)
    width = (params.k + 7) // 8
    for chunk in chunks:
        if chunk:
            # Hex holds no newline, so one marks where each report's hex ends.
            # No local keeps the lines past the yield: they are freed before
            # the client computes its next chunk, whose arrays set the peak.
            yield (
                head + chunk.hex("\n", width).replace("\n", tail + "\n" + head) + tail + "\n"
            ).encode("ascii")


def _envelope_template(params: RapporParams) -> tuple[str, str]:
    """The text of an envelope line before and after its report hex, as
    ``json.dumps(report.envelope(params), sort_keys=True)`` writes it; the
    line ends with a newline after that."""
    head, tail = json.dumps(
        {"params_digest": params.digest(), "report_hex": "@"}, sort_keys=True
    ).split("@")
    return head, tail


def _chunk_rows(k: int) -> int:
    return max(1, _CHUNK_BITS // k)

