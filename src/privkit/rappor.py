"""Randomized-response reporting pipeline and its privacy calculators.

Client side: a value is hashed onto a Bloom filter, passed through a
permanent randomized response (PRR, flip mass ``f``) that is a deterministic
function of the client secret and the value, then through a fresh
instantaneous randomized response (IRR, probabilities ``q``/``p``) for every
report sent.

Server side: the count estimator inverts the per-bit randomization using
the marginal probabilities ``q*``/``p*`` of observing a set bit, and scores
each candidate string by the most pessimistic of its Bloom indices.

The pipeline is three files, so that a call compiles only the code it runs:

- this module: the parameters, Bloom encoding, the report bit vectors and
  their wire format, the privacy bounds, and the scalar client
  (``prr``/``irr``/``make_report``), which is the reference the batch
  client is tested against;
- ``_rappor_batch``: ``simulate_packed``, which simulates many clients in
  chunks of packed reports with the same bits as the scalar client, and
  ``envelope_lines``, which writes them as JSON lines;
- ``_rappor_server``: ``count_report_file`` and ``count_report_lines``,
  which fold a reports file into per-bit set counts, and
  ``estimate_from_counts``.

The names of the other two are read from this module as its own: each of
those modules is imported on the first use of one of its names. No code
here uses numpy.

All hashing is keyed BLAKE2b, so encodings and permanent responses are
bit-identical across processes and platforms for fixed parameters.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import random
import struct
import sys
from typing import Iterable, Mapping, Sequence, Union

from ._value import Frozen, _index, _is_collection, _is_int, _is_number, _loads
from .errors import DomainError, InvalidParams, LengthMismatch, ReportFormatError

# The builtin hash modules, as random.py takes its sha512: importing hashlib
# also loads OpenSSL, which takes longer than a short call's own work.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

_MASK64 = (1 << 64) - 1

# Report bits per chunk of the batch client and of the line reader: k=16
# gives 4096 reports per chunk, k=256 gives 256, so the client's PRR blocks
# and IRR draws stay near 0.5 MiB each, and its flags, one byte per bit,
# near 64 KiB.
_CHUNK_BITS = 1 << 16

Bits = tuple[int, ...]

_BINARY = frozenset((0, 1))

# The characters "0" and "1" as the byte values 0 and 1, for decoding reports.
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")

# A person-only BLAKE2b state; each PRR hashes into a copy instead of
# building the hasher from its keyword arguments again.
_PRR_KEY_HASH = blake2b(digest_size=32, person=b"privkit.prrkey")


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
            if not (_is_int(value) if integer else _is_number(value)):
                kind = "an integer" if integer else "a number"
                raise InvalidParams(f"{name} must be {kind}, got {value!r}")
        for name in ("f", "q", "p"):  # stored as floats, so params equal in value have one digest
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError as exc:
                raise InvalidParams(f"{name} must be in [0, 1], got an {exc}") from None
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
            self, "_digest", sha256(canonical.encode("ascii")).hexdigest()[:16]
        )

    # The keyed BLAKE2b state of each Bloom hash function, built on first use;
    # ``bloom_indices`` hashes a value into copies of them.
    @functools.cached_property
    def _bloom_hashes(self) -> tuple:
        return tuple(blake2b(key=struct.pack("<QI", self.hash_seed, j), digest_size=8,
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
            obj = _loads(obj, InvalidParams, "params are not valid JSON: ")
        if not isinstance(obj, Mapping):
            raise InvalidParams("params JSON must be an object")
        try:
            fields = {name: obj[name] for name in ("k", "h", "f", "q", "p")}
        except KeyError as exc:
            raise InvalidParams(f"params JSON missing field {exc}") from exc
        return cls(**fields, hash_seed=obj.get("hash_seed", 0))


def _check_width(k) -> None:
    """Raise InvalidParams naming a bit-vector width ``k`` that is not an
    int (a bool is not) of at least 0."""
    if not _is_int(k) or k < 0:
        raise InvalidParams(f"k must be a non-negative integer, got {k!r}")


def _check_length(what: str, bits, params: RapporParams, error=LengthMismatch) -> None:
    """Raise ``error`` with the message ``<what> has <n> bits, params say
    <k>`` unless ``bits`` holds ``params.k`` bits."""
    if len(bits) != params.k:
        raise error(f"{what} has {len(bits)} bits, params say {params.k}")


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
        """The k-bit filter with the bits at ``indices`` set. ``k`` must be an
        int (not a bool) of at least 0, and ``indices`` a collection of
        integers (objects ``operator.index`` takes, but not bools) in [0, k);
        anything else raises InvalidParams or LengthMismatch naming it."""
        _check_width(k)
        if not _is_collection(indices):
            raise InvalidParams(f"indices must be a collection of bit indices, got {indices!r}")
        bits = [0] * k
        for i in indices:
            try:
                i = _index(i)
            except TypeError:
                raise InvalidParams(f"bit index must be an integer, got {i!r}") from None
            if not 0 <= i < k:
                raise LengthMismatch(f"bit index {i} outside filter of size {k}")
            bits[i] = 1
        return cls(bits)

    @property
    def set_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)


class PermanentResponse(Frozen):
    """Memorized noisy filter; identical for every report of the same value.
    Its value must be a str, and its bits are checked and stored as
    ``BloomFilter``'s are."""

    value: str
    bits: Bits

    def __post_init__(self):
        _check_value(self.value)
        _check_bits(self)


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
        """The k-bit report whose ``to_hex`` is ``text``. ``k`` must be an int
        (not a bool) of at least 0: anything else raises InvalidParams."""
        _check_width(k)
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


def _check_value(value) -> None:
    """Raise InvalidParams naming a value that is not a str."""
    if not isinstance(value, str):
        raise InvalidParams(f"value must be a string, got {value!r}")


def _check_client(value, client_secret) -> None:
    """Raise InvalidParams naming a value that is not a str or a client
    secret that is not bytes."""
    _check_value(value)
    if not isinstance(client_secret, (bytes, bytearray)):
        raise InvalidParams(f"client_secret must be bytes, got {client_secret!r}")


def bloom_indices(value: str, params: RapporParams) -> tuple[int, ...]:
    """The h filter positions of a value, one per keyed hash function.
    A value that is not a str raises InvalidParams naming it."""
    _check_value(value)
    data = value.encode("utf-8")
    hashers = [base.copy() for base in params._bloom_hashes]
    for hasher in hashers:
        hasher.update(data)
    return tuple(int.from_bytes(hasher.digest(), "little") % params.k for hasher in hashers)


def bloom_encode(
    values: Union[str, Iterable[str]], params: RapporParams
) -> BloomFilter:
    """Hash one value (reporting) or several (membership demos) onto a filter."""
    if not _is_collection(values):
        values = [values]  # bloom_indices names a value that is not a str
    indices: set[int] = set()
    for v in values:
        indices.update(bloom_indices(v, params))
    return BloomFilter.from_indices(params.k, indices)


def bloom_check(filter: BloomFilter, value: str, params: RapporParams) -> bool:
    """True iff every hashed index of the value is set. May report membership
    for never-inserted values (false positive), never the reverse."""
    _check_length("filter", filter.bits, params)
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
    base = blake2b(key=key.digest(), digest_size=64, person=b"privkit.prruni")
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

    A value that is not a str, or a secret that is not bytes, raises
    InvalidParams naming it.
    """
    _check_client(value, client_secret)
    _check_length("filter", filter.bits, params)
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
    _check_length("permanent response", perm.bits, params)
    return Report(
        1 if rng.random() < (params.q if b else params.p) else 0 for b in perm.bits
    )


def make_report(
    value: str,
    client_secret: bytes,
    params: RapporParams,
    rng: random.Random,
) -> Report:
    """Full pipeline: Bloom encode, then PRR, then IRR. The value and the
    secret are checked as ``prr`` checks them."""
    _check_client(value, client_secret)
    return irr(prr(bloom_encode(value, params), client_secret, value, params), params, rng)


def epsilon_infinity(params: RapporParams) -> float:
    """Longitudinal privacy bound of the permanent response: 2h ln((1-f/2)/(f/2)).

    At f = 1 the permanent response ignores the value, and the bound is 0.0.
    Raises ``DomainError`` unless 0 < f <= 1, and also when f is so small
    that f/2 falls below the normal floats, where it loses digits, or the
    ratio overflows to infinity.
    """
    if not 0.0 < params.f <= 1.0:
        raise DomainError(f"bound needs 0 < f <= 1, got f={params.f}")
    half_f = params.f / 2.0
    if half_f < sys.float_info.min or math.isinf(ratio := (1.0 - half_f) / half_f):
        raise DomainError(f"bound is not finite in floating point at f={params.f}")
    return 2.0 * params.h * math.log(ratio)


def lemma1(params: RapporParams) -> tuple[float, float]:
    """Marginal report-bit probabilities (q*, p*).

    q* is P(report bit = 1 | true Bloom bit = 1) and p* the same for an unset
    bit, marginalizing over the permanent response.
    """
    q_star, _, p_star, _ = map(_total, _marginal_terms(params))
    return q_star, p_star


def _marginal_terms(params: RapporParams) -> tuple[list, list, list, list]:
    """q*, 1 - q*, p* and 1 - p*, each as the products it sums, a product
    given as its factors in [0, 1]. No term is negative, so no complement
    cancels as 1 - q* does for a q* near 1: 1 - f, 1 - p and 1 - q are exact
    from 1/2 up (Sterbenz's lemma) and rounded once, with no cancellation,
    below."""
    f, q, p = params.f, params.q, params.p
    kept, flipped = 1.0 - f, (1.0 - p) + (1.0 - q)
    return ([(0.5, f, p + q), (kept, q)], [(0.5, f, flipped), (kept, 1.0 - q)],
            [(0.5, f, p + q), (kept, p)], [(0.5, f, flipped), (kept, 1.0 - p)])


def _total(products: list) -> float:
    return math.fsum(map(math.prod, products))


def epsilon_one(params: RapporParams) -> float:
    """Single-report privacy bound: h ln(q*(1-p*) / (p*(1-q*))).

    1 - q* and 1 - p* are summed without cancellation (``_marginal_terms``).
    Raises ``DomainError`` unless both marginals are strictly inside (0, 1),
    and also when p*(1-q*) falls below the normal floats, where it loses
    digits, or the ratio overflows to infinity.
    """
    q_star, not_q, p_star, not_p = map(_total, _marginal_terms(params))
    if min(q_star, not_q, p_star, not_p) <= 0.0:
        raise DomainError(
            f"bound needs marginals strictly inside (0, 1), got "
            f"q*={q_star}, p*={p_star}"
        )
    denom = p_star * not_q
    if denom < sys.float_info.min or math.isinf(ratio := q_star * not_p / denom):
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
        _check_length("report", r.bits, params)
    # a bit may be True or 1.0 (each equals 1); count(1) keeps each count an int
    counts = [column.count(1) for column in zip(*(r.bits for r in reports))]
    from ._rappor_server import estimate_from_counts

    return estimate_from_counts(counts, len(reports), candidates, params)


def simulate_reports(
    counts: Mapping[str, int], params: RapporParams, seed: int
) -> list[Report]:
    """One report per simulated client, deterministic for a fixed seed.

    Client i reports the value assigned by iterating ``counts`` in sorted
    order; each client has its own derived secret, and all IRR draws come
    from a single seeded stream. The reports are those of ``make_report``
    applied client by client with ``random.Random(seed)``. The arguments
    are checked as ``simulate_packed`` checks them.
    """
    from ._rappor_batch import simulate_packed

    k = params.k
    stride = 8 * ((k + 7) // 8)  # bits per report, padding included
    return [
        Report(bits[i : i + k])
        for chunk in simulate_packed(counts, params, seed)
        for bits in [_unpack_bits(chunk, 8 * len(chunk))]
        for i in range(0, len(bits), stride)
    ]


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




# The batch client and the server side are modules of their own, each
# imported on the first use of one of its names, so that a call compiles
# only the code it runs.
_ELSEWHERE = {
    **dict.fromkeys(("allocate_counts", "client_secret", "envelope_lines", "simulate_packed"),
                    "_rappor_batch"),
    **dict.fromkeys(("count_report_file", "count_report_lines", "estimate_from_counts"),
                    "_rappor_server"),
}


def __getattr__(name):
    if name in _ELSEWHERE:
        return getattr(importlib.import_module(f"{__package__}.{_ELSEWHERE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
