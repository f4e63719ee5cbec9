"""The batch client of the reporting pipeline: ``allocate_counts`` splits
a population across values, ``simulate_packed`` simulates its clients in
chunks of packed reports, and ``envelope_lines`` writes them as JSON lines.
``privkit.rappor`` reads these names from here on their first use.

``simulate_packed`` uses no numpy. It draws from the same keyed hashes and
the same seeded stream as the scalar ``prr``/``irr``/``make_report``, which
stay as the reference the batch path is tested against, and makes each of
their float comparisons as an exact integer one, so both give identical
bits. Each chunk is ``bytes`` in the layout of ``Report.to_hex``, report
after report, for ``envelope_lines`` to write and ``simulate_reports`` to
decode as ``Report.from_hex`` does.
"""

from __future__ import annotations

import math
import random
import struct
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Mapping

from . import rappor
from .errors import InvalidParams
from .rappor import (
    _MASK64,
    RapporParams,
    _check_value,
    _chunk_rows,
    _envelope_template,
    _prr_blocks,
    _prr_messages,
    blake2b,
)

# A person-only BLAKE2b state; each client secret hashes into a copy.
_CLIENT_HASH = blake2b(digest_size=16, person=b"privkit.client")


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


def simulate_packed(
    counts: Mapping[str, int], params: RapporParams, seed: int
) -> Iterator[bytes]:
    """The reports of ``simulate_reports``, a chunk at a time: each chunk is
    ceil(k/8) bytes per report, report after report, laid out like
    ``Report.to_hex``.

    Each key must be a str, each count an int (not a bool) in [0, 2^63), as
    ``allocate_counts`` gives, and the seed an int (not a bool); anything
    else raises ``InvalidParams`` naming it.

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
    for v in counts:  # before sorting, which a key of another type would fail
        _check_value(v)
    values = sorted(counts)
    for v in values:  # bool is an int subclass in Python
        count = counts[v]
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise InvalidParams(f"count of {v!r} must be a non-negative integer, got {count!r}")
        if count >= 2**63:
            raise InvalidParams(f"count of {v!r} must be below 2^63, got {count!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidParams(f"seed must be an integer, got {seed!r}")
    # looked up on the module, where the benchmark's tracer replaces it
    blooms = [bytes(rappor.bloom_encode(v, params).bits) + bytes(stride - k) for v in values]
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
