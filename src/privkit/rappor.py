"""Randomized-response reporting pipeline and its privacy calculators.

Client side: a value is hashed onto a Bloom filter, passed through a
permanent randomized response (PRR, flip mass ``f``) that is a deterministic
function of the client secret and the value, then through a fresh
instantaneous randomized response (IRR, probabilities ``q``/``p``) for every
report sent.

Server side: ``estimate_from_counts`` inverts the per-bit randomization
using the marginal probabilities ``q*``/``p*`` of observing a set bit, and
scores each candidate string by the most pessimistic of its Bloom indices.
It needs only the per-bit set counts, which ``count_report_lines`` folds
from the lines of a reports file in O(k) memory plus one chunk, without
numpy: a line exactly as ``envelope_lines`` writes it is read by slicing out
its hex, any other line is parsed as JSON, and the bits of each chunk are
counted byte column by byte column with ``bytes.translate``.

Many clients are simulated in chunks of reports by ``simulate_packed``, with
numpy doing the PRR and IRR comparisons; no other code here uses numpy. It
draws from the same keyed hashes and the same seeded stream as the scalar
``prr``/``irr``/``make_report``, which stay as the reference the batch path
is tested against, so both give identical bits. Each chunk is ``bytes`` in
the layout of ``Report.to_hex``, report after report, for ``envelope_lines``
to write and ``simulate_reports`` to decode as ``Report.from_hex`` does.

All hashing is keyed BLAKE2b, so encodings and permanent responses are
bit-identical across processes and platforms for fixed parameters.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import random
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

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
# k=256 gives 256, so the client's numpy arrays stay near 0.5 MiB each.
_CHUNK_BITS = 1 << 16

Bits = tuple[int, ...]

# Bit b of every byte value, for counting set bits with bytes.translate.
_BIT_TABLES = [bytes((x >> b) & 1 for x in range(256)) for b in range(8)]

# The characters "0" and "1" as the byte values 0 and 1, for decoding reports.
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")

# Person-only BLAKE2b states; each call hashes into a copy instead of
# building the hasher from its keyword arguments again.
_CLIENT_HASH = hashlib.blake2b(digest_size=16, person=b"privkit.client")
_PRR_KEY_HASH = hashlib.blake2b(digest_size=32, person=b"privkit.prrkey")


@dataclass(frozen=True)
class RapporParams:
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
        canonical = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
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
        return type(self), dataclasses.astuple(self)

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


@dataclass(frozen=True)
class BloomFilter:
    bits: Bits

    @classmethod
    def from_indices(cls, k: int, indices: Iterable[int]) -> "BloomFilter":
        bits = [0] * k
        for i in indices:
            if not 0 <= i < k:
                raise LengthMismatch(f"bit index {i} outside filter of size {k}")
            bits[i] = 1
        return cls(tuple(bits))

    @property
    def set_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)


@dataclass(frozen=True)
class PermanentResponse:
    """Memorized noisy filter; identical for every report of the same value."""

    value: str
    bits: Bits


@dataclass(frozen=True)
class Report:
    """The k-bit vector actually sent to the aggregator."""

    bits: Bits

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
    """The h filter positions of a value, one per keyed hash function."""
    data = value.encode("utf-8")
    hashers = [base.copy() for base in params._bloom_hashes]
    for hasher in hashers:
        hasher.update(data)
    return tuple(int.from_bytes(hasher.digest(), "little") % params.k for hasher in hashers)


def bloom_encode(
    values: Union[str, Iterable[str]], params: RapporParams
) -> BloomFilter:
    """Hash one value (reporting) or several (membership demos) onto a filter."""
    if isinstance(values, str):
        values = [values]
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
    return PermanentResponse(value, tuple(bits))


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
        tuple(
            1 if rng.random() < (params.q if b else params.p) else 0
            for b in perm.bits
        )
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
    counts = [sum(column) for column in zip(*(r.bits for r in reports))]
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
    """
    if n < 1:
        raise LengthMismatch("need at least one report")
    if len(counts) != params.k:
        raise LengthMismatch(f"{len(counts)} bit counts, params say {params.k}")
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
    k, digest = params.k, params.digest()
    head, tail = _envelope_template(params)
    start, end = len(head), len(head) + 2 * ((k + 7) // 8)
    canonical = re.compile(
        re.escape(head) + f"[0-9a-f]{{{end - start}}}" + re.escape(tail) + r"\n?"
    ).fullmatch
    padding = k % 8  # bits of the last byte below k; 0 when it has no padding
    rows = _chunk_rows(k)
    counts = [0] * k
    n = 0
    chunk: list[str] = []
    for lineno, line in enumerate(lines, start=1):
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
            n += _add_bit_counts(counts, chunk)
            chunk = []
    n += _add_bit_counts(counts, chunk)
    return counts, n


def _add_bit_counts(counts: list[int], hex_reports: list[str]) -> int:
    """Add the set bits of reports, each the hex of ceil(k/8) bytes, to the
    k counts; return the number of reports."""
    k = len(counts)
    width = (k + 7) // 8
    packed = bytes.fromhex("".join(hex_reports))
    for j in range(width):
        column = packed[j::width]
        for b in range(min(8, k - 8 * j)):
            counts[8 * j + b] += column.translate(_BIT_TABLES[b]).count(1)
    return len(hex_reports)


def allocate_counts(
    distribution: Mapping[str, float], clients: int
) -> dict[str, int]:
    """Split a client population across values by largest remainder, so the
    realized counts match the target shares as closely as integers allow.

    The shares are scaled to sum to 1 and multiplied out in exact rational
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
    exact_total = sum(map(Fraction, distribution.values()))
    exact = {v: Fraction(share) * clients / exact_total
             for v, share in sorted(distribution.items())}
    counts = {v: math.floor(x) for v, x in exact.items()}
    leftover = clients - sum(counts.values())
    by_remainder = sorted(
        exact, key=lambda v: (-(exact[v] - counts[v]), v)
    )
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

    PRR uniforms come from the same keyed blocks as ``prr``. IRR uniforms
    come from a numpy generator handed the state of ``random.Random(seed)``,
    whose ``random_sample`` yields the same doubles as ``rng.random()``.
    """
    import numpy as np

    k = params.k
    values = sorted(counts)
    blooms = np.array([bloom_encode(v, params).bits for v in values], dtype=bool)
    messages = [_prr_messages(v, params) for v in values]
    owners = np.repeat(np.arange(len(values)), [counts[v] for v in values])
    half_f = params.f / 2.0
    _, internal, _ = random.Random(seed).getstate()
    stream = np.random.RandomState()
    stream.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    rows = _chunk_rows(k)
    for start in range(0, len(owners), rows):
        owner = owners[start : start + rows]
        blocks = b"".join([
            _prr_blocks(client_secret(seed, i), messages[j])
            for i, j in enumerate(owner.tolist(), start)
        ])
        words = np.frombuffer(blocks, dtype="<u8").reshape(len(owner), -1)[:, :k]
        uniforms = words.astype(np.float64) / 2.0**64
        perm = (uniforms < half_f) | ((uniforms >= params.f) & blooms[owner])
        draws = stream.random_sample((len(owner), k))
        report = draws < np.where(perm, params.q, params.p)
        yield np.packbits(report, axis=1, bitorder="little").tobytes()


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

