import copy
import hashlib
import json
import math
import pickle
import random
import re
import struct
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from privkit import rappor
from privkit.dpcheck import prr_distribution, report_distribution, exact_epsilon
from privkit.errors import (
    DegenerateParams,
    DomainError,
    InvalidParams,
    LengthMismatch,
    ReportFormatError,
)
from privkit.rappor import (
    BloomFilter,
    PermanentResponse,
    RapporParams,
    Report,
    allocate_counts,
    bloom_check,
    bloom_encode,
    bloom_indices,
    client_secret,
    count_report_lines,
    envelope_lines,
    epsilon_infinity,
    epsilon_one,
    estimate_counts,
    estimate_from_counts,
    irr,
    lemma1,
    make_report,
    prr,
    simulate_packed,
    simulate_reports,
)
from privkit.rappor import _chunk_rows, _prr_blocks, _prr_messages

PAPER = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5)
NOISELESS = RapporParams(k=12, h=2, f=0.0, q=1.0, p=0.0)


def test_params_validation():
    with pytest.raises(InvalidParams):
        RapporParams(k=0, h=1, f=0.5, q=0.75, p=0.5)
    with pytest.raises(InvalidParams):
        RapporParams(k=4, h=5, f=0.5, q=0.75, p=0.5)
    with pytest.raises(InvalidParams):
        RapporParams(k=4, h=1, f=1.5, q=0.75, p=0.5)
    with pytest.raises(InvalidParams):
        RapporParams(k=4, h=1, f=0.5, q=0.25, p=0.5)  # q < p
    RapporParams(k=4, h=1, f=0.5, q=0.5, p=0.5)  # q = p is the no-signal edge


@pytest.mark.parametrize("k,h", [
    (2**35 + 1, 1), (2**35, 2**32), (10**308, 10**308), (10**400, 10**400),
], ids=["k=2^35+1", "h=2^32", "k=h=10^308", "k=h=10^400"])
def test_params_beyond_the_hash_input_limits(k, h):
    # a PRR block index and a Bloom hash number are packed as unsigned 32-bit
    with pytest.raises(InvalidParams):
        RapporParams(k=k, h=h, f=0.5, q=0.75, p=0.5)


def test_params_at_the_hash_input_limits():
    params = RapporParams(k=2**35, h=2**32 - 1, f=0.5, q=0.75, p=0.5)
    # the last PRR block index and the last Bloom hash number still pack;
    # one more filter bit or hash function would not
    struct.pack("<I", (params.k + 7) // 8 - 1)
    struct.pack("<QI", params.hash_seed, params.h)
    with pytest.raises(struct.error):
        struct.pack("<I", (params.k + 1 + 7) // 8 - 1)
    with pytest.raises(struct.error):
        struct.pack("<QI", params.hash_seed, params.h + 1)


def test_params_json_round_trip():
    params = RapporParams.from_json('{"k":12,"h":2,"f":0.5,"p":0.5,"q":0.75}')
    assert params == RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5, hash_seed=0)
    with pytest.raises(InvalidParams):
        RapporParams.from_json('{"k":12}')


@pytest.mark.parametrize("field, value", [
    ("k", True), ("h", True), ("hash_seed", True), ("hash_seed", False),
    ("hash_seed", -1), ("hash_seed", 2**64), ("k", None),
])
def test_params_json_rejects_bool_and_out_of_range(field, value):
    obj = {"k": 12, "h": 1, "f": 0.5, "q": 0.75, "p": 0.5, field: value}
    with pytest.raises(InvalidParams):
        RapporParams.from_json(json.dumps(obj))


# Each field written as several JSON types; the valid ones are in range.
_FIELD_VARIANTS = {
    "k": [12, 12.0, 12.7, "12", True, None, [12]],
    "h": [2, 2.0, "2", False, None, {"h": 2}],
    "hash_seed": [5, 5.0, "5", True, None],
    "f": [0.5, 0, 1, "0.5", True, None, [0.5]],
    "q": [0.75, 1, "0.75", True, None],
    "p": [0.5, 0, "0.5", False, None],
}


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}={value!r}")
    for field, values in _FIELD_VARIANTS.items() for value in values
])
def test_params_json_field_types(field, value):
    obj = {"k": 12, "h": 2, "f": 0.5, "q": 0.75, "p": 0.5, "hash_seed": 5, field: value}
    # oracle: the JSON type of the field (bool is not a JSON number)
    integer = field in ("k", "h", "hash_seed")
    built, messages = [], set()
    # the same fields read from JSON and given to the constructor directly
    for build in (lambda: RapporParams.from_json(json.dumps(obj)), lambda: RapporParams(**obj)):
        if type(value) in ({int} if integer else {int, float}):
            params = build()
            assert getattr(params, field) == value
            assert type(getattr(params, field)) is (int if integer else float)
            built.append(params)
        else:
            with pytest.raises(InvalidParams, match=f"^{field} must be ") as info:
                build()
            messages.add(str(info.value))
    if built:
        assert built[0] == built[1] and built[0].digest() == built[1].digest()
    else:
        assert len(messages) == 1  # both paths say the same


_PROBABILITY = st.sampled_from([0, 1]) | st.floats(0, 1)


def _respelled(x):
    """An integral probability written the other way: 1 as 1.0, 1.0 as 1."""
    return float(x) if isinstance(x, int) else int(x) if x.is_integer() else x


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 40), h=st.integers(1, 4), f=_PROBABILITY, q=_PROBABILITY,
       p=_PROBABILITY, hash_seed=st.integers(0, 2**64 - 1), respell=st.booleans())
def test_params_construction_paths_agree(k, h, f, q, p, hash_seed, respell):
    assume(h <= k and p <= q)
    fields = dict(k=k, h=h, f=f, q=q, p=p, hash_seed=hash_seed)
    text = json.dumps({name: _respelled(v) if respell and name in ("f", "q", "p") else v
                       for name, v in fields.items()})
    direct, read = RapporParams(**fields), RapporParams.from_json(text)
    assert direct == read and direct.digest() == read.digest()
    assert all(type(getattr(direct, name)) is float for name in ("f", "q", "p"))
    # the PRR is keyed by the params, so equal digests give equal bits
    filt = bloom_encode("v", direct)
    assert prr(filt, b"s", "v", direct).bits == prr(filt, b"s", "v", read).bits


def test_params_int_probabilities_get_the_json_digest():
    direct = RapporParams(16, 2, 1, 1, 0)
    read = RapporParams.from_json({"k": 16, "h": 2, "f": 1, "q": 1, "p": 0})
    assert direct.digest() == read.digest() == "5d4f99587a81cd4d"


@pytest.mark.parametrize("text,message", [
    ('{"k":12', "params are not valid JSON: "),
    ("[" * 100_000, "params are not valid JSON: "),
    ("[12, 2]", "params JSON must be an object"),
], ids=["truncated", "deep", "array"])
def test_params_json_text_rejected(text, message):
    with pytest.raises(InvalidParams, match="^" + message):
        RapporParams.from_json(text)


def test_params_json_float_overflow_rejected():
    with pytest.raises(InvalidParams):
        RapporParams.from_json('{"k":12,"h":2,"f":1%s,"q":0.75,"p":0.5}' % ("0" * 400))


def test_hash_seed_range_ends_accepted():
    for seed in (0, 2**64 - 1):
        params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5, hash_seed=seed)
        assert len(bloom_indices("v", params)) == 2


def test_digest_computed_once_per_params(monkeypatch):
    params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5)
    first = params.digest()
    calls = []
    real = rappor.sha256
    monkeypatch.setattr(rappor, "sha256", lambda *a: calls.append(a) or real(*a))
    for _ in range(5):
        assert params.digest() == first
    Report((1,) * 12).envelope(params)
    assert calls == []


def test_params_copy_and_pickle_after_bloom_use():
    params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5, hash_seed=2**64 - 1)
    indices = bloom_indices("v", params)  # builds the cached hash states
    for copied in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params), copy.copy(params)):
        assert copied == params and copied.digest() == params.digest()
        assert bloom_indices("v", copied) == indices


# --- bloom filter -------------------------------------------------------------

def test_bloom_golden_indices():
    # pinned outputs of the keyed hash family at hash_seed=0
    assert bloom_indices("chlamydia", PAPER) == (11, 4)
    assert bloom_indices("syphilis", PAPER) == (5, 5)  # both hashes collide
    assert bloom_encode("chlamydia", PAPER).set_indices == (4, 11)
    assert bloom_encode("syphilis", PAPER).set_indices == (5,)


def test_bloom_multi_value_false_positive_story():
    # at hash_seed=1 an uninserted value's indices fall inside the union of
    # two inserted values, the classic false positive
    params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5, hash_seed=1)
    assert set(bloom_indices("chlamydia", params)) == {2, 5}
    assert set(bloom_indices("syphilis", params)) == {3, 10}
    assert set(bloom_indices("aids", params)) == {2, 10}
    shared = bloom_encode(["chlamydia", "syphilis"], params)
    assert shared.set_indices == (2, 3, 5, 10)
    assert bloom_check(shared, "chlamydia", params)
    assert bloom_check(shared, "syphilis", params)
    assert bloom_check(shared, "aids", params)  # never inserted


def test_bloom_forced_single_bit():
    tiny = RapporParams(k=1, h=1, f=0.5, q=0.75, p=0.5)
    for v in ("a", "b", "anything"):
        assert bloom_encode(v, tiny).bits == (1,)


def test_bloom_no_false_negatives_sample():
    for i in range(500):
        v = f"value-{i}"
        assert bloom_check(bloom_encode(v, PAPER), v, PAPER)


def test_bloom_empty_filter_rejects_everything():
    empty = BloomFilter.from_indices(PAPER.k, [])
    assert not any(bloom_check(empty, f"v{i}", PAPER) for i in range(50))


def test_bloom_encode_deterministic():
    assert bloom_encode("stable", PAPER) == bloom_encode("stable", PAPER)


def test_bloom_check_length_mismatch():
    with pytest.raises(LengthMismatch):
        bloom_check(BloomFilter.from_indices(8, []), "v", PAPER)
    with pytest.raises(LengthMismatch, match="^filter has 8 bits, params say 12$"):
        prr(BloomFilter.from_indices(8, []), b"s", "v", PAPER)
    with pytest.raises(LengthMismatch, match="^permanent response has 8 bits, params say 12$"):
        irr(PermanentResponse("v", (0,) * 8), PAPER, random.Random(0))
    for index in (-1, 8):
        with pytest.raises(LengthMismatch, match=f"^bit index {index} outside filter of size 8$"):
            BloomFilter.from_indices(8, [index])


_BIT_VECTORS = [BloomFilter, Report, lambda bits: PermanentResponse("v", bits)]


@pytest.mark.parametrize("make", _BIT_VECTORS, ids=["BloomFilter", "Report", "PermanentResponse"])
@given(st.lists(st.sampled_from([0, 1, 0, 1, True, False, 1.0, 2, -1, 0.5, math.nan, "1", None]),
                max_size=12))
def test_bit_vectors_hold_a_tuple_of_zeros_and_ones(make, bits):
    bad = [i for i, b in enumerate(bits) if not (b == 0 or b == 1)]
    if bad:
        with pytest.raises(InvalidParams, match=f"^bit {bad[0]} is {re.escape(repr(bits[bad[0]]))}, "
                                                "not 0 or 1$"):
            make(bits)
    else:
        made = make(iter(bits))
        assert type(made.bits) is tuple and list(made.bits) == bits


def test_bits_other_than_zero_or_one_go_no_further():
    params = RapporParams(k=16, h=2, f=0.5, q=0.75, p=0.5)
    with pytest.raises(InvalidParams, match="^bit 0 is 5, not 0 or 1$"):
        prr(BloomFilter((5,) * 16), b"s", "v", params)
    with pytest.raises(InvalidParams, match="^bit 0 is 2, not 0 or 1$"):
        prr_distribution(BloomFilter((2,) + (0,) * 15), params)
    with pytest.raises(InvalidParams, match="^bit 0 is 2, not 0 or 1$"):
        estimate_counts([Report((2,) * 16)], ["A"], params)


def test_estimate_counts_counts_bits_equal_to_one_as_ints():
    # True and 1.0 equal 1, so a Report takes them; their counts must still be ints
    reports = [Report((True,) * 6 + (1.0,) * 6), Report((1,) * 6 + (False,) * 6)]
    assert estimate_counts(reports, ["A", "B"], PAPER) == estimate_from_counts(
        [2] * 6 + [1] * 6, 2, ["A", "B"], PAPER)


# --- permanent randomized response ---------------------------------------------

def test_prr_f_zero_is_identity():
    params = RapporParams(k=12, h=2, f=0.0, q=0.75, p=0.5)
    filt = bloom_encode("chlamydia", params)
    assert prr(filt, b"s", "chlamydia", params).bits == filt.bits


def test_prr_golden_bits():
    filt = bloom_encode("chlamydia", PAPER)
    perm = prr(filt, b"secret-1", "chlamydia", PAPER)
    assert perm.bits == (0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0)


def test_prr_deterministic_per_secret_value_params():
    filt = bloom_encode("chlamydia", PAPER)
    first = prr(filt, b"secret-1", "chlamydia", PAPER)
    for _ in range(20):
        assert prr(filt, b"secret-1", "chlamydia", PAPER) == first
    assert prr(filt, b"secret-2", "chlamydia", PAPER).bits != first.bits
    other_params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5, hash_seed=9)
    assert prr(filt, b"secret-1", "chlamydia", other_params).bits != first.bits


def test_prr_f_one_is_uniform():
    params = RapporParams(k=20, h=2, f=1.0, q=0.75, p=0.5)
    filt = BloomFilter.from_indices(20, [0, 1])
    ones = 0
    n = 5000
    for i in range(n):
        ones = ones + sum(prr(filt, client_secret(7, i), "v", params).bits)
    frac = ones / (n * 20)
    assert 0.49 <= frac <= 0.51


def constructor_client_secret(seed, client_index):
    """client_secret with a BLAKE2b built from keyword arguments per call."""
    return hashlib.blake2b(
        struct.pack("<QQ", seed & (2**64 - 1), client_index),
        digest_size=16,
        person=b"privkit.client",
    ).digest()


def constructor_prr_blocks(client_secret, messages):
    """_prr_blocks with a keyed BLAKE2b built from keyword arguments per block."""
    key = hashlib.blake2b(
        client_secret, digest_size=32, person=b"privkit.prrkey"
    ).digest()
    return b"".join([
        hashlib.blake2b(m, key=key, digest_size=64, person=b"privkit.prruni").digest()
        for m in messages
    ])


@given(
    seed=st.integers(-(2**70), 2**70),
    index=st.integers(0, 2**64 - 1),
    value=st.text(max_size=12),
    k=st.integers(1, 600),
    hash_seed=st.integers(0, 2**64 - 1),
    secret=st.binary(max_size=40),
    messages=st.lists(st.binary(max_size=200), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_hasher_copies_equal_constructor_form(seed, index, value, k, hash_seed, secret,
                                               messages):
    derived = client_secret(seed, index)
    assert derived == constructor_client_secret(seed, index)
    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5, hash_seed=hash_seed)
    for key, blocks in ((derived, rappor._prr_messages(value, params)), (secret, messages)):
        assert rappor._prr_blocks(key, blocks) == constructor_prr_blocks(key, blocks)


def constructor_bloom_indices(value, params):
    """bloom_indices with a keyed BLAKE2b built from keyword arguments per hash."""
    return tuple(
        int.from_bytes(hashlib.blake2b(value.encode("utf-8"),
                                       key=struct.pack("<QI", params.hash_seed, j),
                                       digest_size=8, person=b"privkit.bloom").digest(),
                       "little") % params.k
        for j in range(1, params.h + 1)
    )


@given(
    values=st.lists(st.text(max_size=12), min_size=1, max_size=4),
    h=st.integers(1, 8),
    extra_k=st.integers(0, 600),
    hash_seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=200, deadline=None)
def test_bloom_indices_equal_constructor_form(values, h, extra_k, hash_seed):
    params = RapporParams(k=h + extra_k, h=h, f=0.5, q=0.75, p=0.5, hash_seed=hash_seed)
    # twice over, so that hashing one value cannot change the next one's indices
    for value in values + values:
        assert bloom_indices(value, params) == constructor_bloom_indices(value, params)


# --- instantaneous randomized response ------------------------------------------

def test_irr_passthrough_when_noiseless():
    perm = PermanentResponse("v", (1, 0, 1, 0))
    params = RapporParams(k=4, h=1, f=0.5, q=1.0, p=0.0)
    assert irr(perm, params, random.Random(0)).bits == (1, 0, 1, 0)


def test_irr_fresh_randomness_per_call():
    params = RapporParams(k=32, h=2, f=0.5, q=0.75, p=0.25)
    perm = PermanentResponse("v", tuple(i % 2 for i in range(32)))
    rng = random.Random(5)
    assert irr(perm, params, rng).bits != irr(perm, params, rng).bits


def test_irr_equal_probs_gives_independence():
    # with q = p the report carries no information about the permanent bit:
    # empirical mutual information stays at simulation-noise level
    params = RapporParams(k=1, h=1, f=0.5, q=0.5, p=0.5)
    rng = random.Random(11)
    joint = Counter()
    n = 100_000
    for t in range(n):
        b = t & 1
        s = irr(PermanentResponse("v", (b,)), params, rng).bits[0]
        joint[b, s] += 1
    mi = 0.0
    for (b, s), c in joint.items():
        pbs = c / n
        pb = sum(v for (bb, _), v in joint.items() if bb == b) / n
        ps = sum(v for (_, ss), v in joint.items() if ss == s) / n
        mi += pbs * math.log2(pbs / (pb * ps))
    assert mi < 1e-3


# --- full pipeline ---------------------------------------------------------------

def test_make_report_noiseless_equals_bloom():
    filt = bloom_encode("chlamydia", NOISELESS)
    report = make_report("chlamydia", b"s", NOISELESS, random.Random(1))
    assert report.bits == filt.bits


def test_make_report_reproducible():
    a = make_report("chlamydia", b"secret-1", PAPER, random.Random(99))
    b = make_report("chlamydia", b"secret-1", PAPER, random.Random(99))
    assert a == b
    assert a.to_hex() == "ef0c"  # pinned golden


def test_make_report_expected_set_bits():
    # linearity of expectation: E[popcount] = k p* + h (q* - p*) when the
    # value's indices do not collide
    q_star, p_star = lemma1(PAPER)
    expected = PAPER.k * p_star + PAPER.h * (q_star - p_star)
    n = 30_000
    total = 0
    rng = random.Random(2024)
    for i in range(n):
        total += sum(make_report("chlamydia", client_secret(3, i), PAPER, rng).bits)
    assert abs(total / n - expected) < 0.1


def test_marginal_bit_law_small():
    # P(S_i=1 | B_i=b) matches the q*/p* marginals
    q_star, p_star = lemma1(PAPER)
    filt = bloom_encode("chlamydia", PAPER)  # bits 4 and 11 set
    n = 20_000
    rng = random.Random(77)
    ones = Counter()
    for i in range(n):
        perm = prr(filt, client_secret(5, i), "chlamydia", PAPER)
        s = irr(perm, PAPER, rng)
        ones[1] += s.bits[4]
        ones[0] += s.bits[0]
    assert abs(ones[1] / n - q_star) < 0.02
    assert abs(ones[0] / n - p_star) < 0.02


# --- privacy calculators ----------------------------------------------------------

def test_epsilon_infinity_worked_example():
    assert epsilon_infinity(PAPER) == pytest.approx(4 * math.log(3), abs=1e-12)
    assert epsilon_infinity(PAPER) == pytest.approx(4.3945, abs=1e-3)


def test_epsilon_infinity_domain():
    with pytest.raises(DomainError):
        epsilon_infinity(RapporParams(k=4, h=1, f=0.0, q=0.75, p=0.5))
    with pytest.raises(DomainError):
        epsilon_infinity(RapporParams(k=4, h=1, f=1.0, q=0.75, p=0.5))


def test_epsilon_infinity_cross_checked_by_oracle():
    params = RapporParams(k=4, h=1, f=2 / 3, q=0.75, p=0.5)
    assert epsilon_infinity(params) == pytest.approx(2 * math.log(2), abs=1e-12)
    b1 = BloomFilter.from_indices(4, [0])
    b2 = BloomFilter.from_indices(4, [1])
    oracle = exact_epsilon(prr_distribution(b1, params), prr_distribution(b2, params))
    assert oracle == pytest.approx(epsilon_infinity(params), abs=1e-9)


def test_lemma1_values():
    assert lemma1(RapporParams(k=4, h=1, f=0.0, q=0.75, p=0.25)) == (0.75, 0.25)
    q_star, p_star = lemma1(RapporParams(k=4, h=1, f=1.0, q=0.75, p=0.25))
    assert q_star == pytest.approx(0.5) and p_star == pytest.approx(0.5)
    assert lemma1(PAPER) == (0.6875, 0.5625)


def test_epsilon_one_pure_randomized_response():
    params = RapporParams(k=4, h=1, f=0.0, q=0.75, p=0.25)
    assert epsilon_one(params) == pytest.approx(math.log(9), abs=1e-12)
    b1 = BloomFilter.from_indices(4, [0])
    b2 = BloomFilter.from_indices(4, [1])
    oracle = exact_epsilon(
        report_distribution(b1, params), report_distribution(b2, params)
    )
    assert oracle == pytest.approx(epsilon_one(params), abs=1e-9)


def test_epsilon_one_no_leak_when_marginals_equal():
    # f=1 erases the signal: q* = p*, so a single report leaks nothing
    params = RapporParams(k=4, h=2, f=1.0, q=0.75, p=0.5)
    assert epsilon_one(params) == 0.0


def test_epsilon_one_worked_example():
    # frozen from direct evaluation; the enumeration oracle arbitrates this
    # value in the acceptance suite
    assert epsilon_one(PAPER) == pytest.approx(1.074285864166728, abs=1e-12)


def test_epsilon_one_domain():
    with pytest.raises(DomainError):
        epsilon_one(NOISELESS)  # p* = 0


@pytest.mark.parametrize("bound,fields", [
    (epsilon_infinity, dict(f=5e-324, q=0.75, p=0.5)),  # f/2 underflows to 0
    (epsilon_infinity, dict(f=1e-320, q=0.75, p=0.5)),  # (1-f/2)/(f/2) overflows
    (epsilon_one, dict(f=0.0, q=0.9999999999999999, p=5e-324)),  # p*(1-q*) underflows
    (epsilon_one, dict(f=0.0, q=0.5, p=1e-310)),  # q*(1-p*)/(p*(1-q*)) overflows
], ids=["inf-underflow", "inf-overflow", "one-underflow", "one-overflow"])
def test_bounds_reject_ratios_that_are_not_finite(bound, fields):
    with pytest.raises(DomainError, match="^bound is not finite in floating point at "):
        bound(RapporParams(k=16, h=2, **fields))


@settings(max_examples=300, deadline=None)
@given(f=st.floats(0.001, 0.95), p=st.floats(0.001, 0.9), gap=st.floats(0.05, 0.95),
       h=st.integers(1, 8))
def test_bounds_match_a_50_digit_oracle(f, p, gap, h):
    q = p + gap
    assume(q <= 0.999)
    params = RapporParams(k=8, h=h, f=f, q=q, p=p)
    with mpmath.workdps(50):
        F, P, Q = mpmath.mpf(f), mpmath.mpf(p), mpmath.mpf(q)  # the floats, exactly
        want_inf = 2 * h * mpmath.log((1 - F / 2) / (F / 2))
        q_star, p_star = F / 2 * (P + Q) + (1 - F) * Q, F / 2 * (P + Q) + (1 - F) * P
        want_one = h * mpmath.log(q_star * (1 - p_star) / (p_star * (1 - q_star)))
    assert epsilon_infinity(params) == pytest.approx(float(want_inf), rel=1e-12)
    assert epsilon_one(params) == pytest.approx(float(want_one), rel=1e-12)
    # and bit for bit the closed forms written out directly: CLI stdout pins these bits
    qs, ps = lemma1(params)
    assert epsilon_infinity(params) == 2.0 * h * math.log((1.0 - f / 2.0) / (f / 2.0))
    assert epsilon_one(params) == h * math.log(qs * (1.0 - ps) / (ps * (1.0 - qs)))


def test_epsilons_decrease_with_f():
    grid = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9]
    inf_values = []
    one_values = []
    for f in grid:
        params = RapporParams(k=12, h=2, f=f, q=0.75, p=0.5)
        inf_values.append(epsilon_infinity(params))
        one_values.append(epsilon_one(params))
    assert inf_values == sorted(inf_values, reverse=True)
    assert one_values == sorted(one_values, reverse=True)


# --- aggregation-side estimator -----------------------------------------------------

def test_estimate_counts_clean_channel():
    n = 40
    reports = [
        make_report("A", client_secret(1, i), NOISELESS, random.Random(i))
        for i in range(n)
    ]
    est = estimate_counts(reports, ["A"], NOISELESS)
    assert est["A"] == pytest.approx(n)


def test_estimate_counts_errors():
    with pytest.raises(LengthMismatch):
        estimate_counts([], ["A"], PAPER)
    with pytest.raises(LengthMismatch):
        estimate_counts([Report((1, 0))], ["A"], PAPER)
    degenerate = RapporParams(k=4, h=1, f=1.0, q=0.75, p=0.5)
    with pytest.raises(DegenerateParams):
        estimate_counts([Report((1, 0, 0, 0))], ["A"], degenerate)


def test_estimate_from_counts_errors():
    with pytest.raises(LengthMismatch):
        estimate_from_counts([0] * 12, 0, ["A"], PAPER)
    with pytest.raises(LengthMismatch):
        estimate_from_counts([0] * 11, 3, ["A"], PAPER)


@pytest.mark.parametrize("counts,n,message", [
    ([20] * 12, 10, "count of bit 0 must be an int in [0, 10], got 20"),
    ([0] * 11 + [11], 10, "count of bit 11 must be an int in [0, 10], got 11"),
    ([0, -1] + [0] * 10, 10, "count of bit 1 must be an int in [0, 10], got -1"),
    ([0, 0, 1.5] + [0] * 9, 10, "count of bit 2 must be an int in [0, 10], got 1.5"),
    ([0, 0, 2.0] + [0] * 9, 10, "count of bit 2 must be an int in [0, 10], got 2.0"),
    ([True] + [0] * 11, 10, "count of bit 0 must be an int in [0, 10], got True"),
    ([math.nan] * 12, 10, "count of bit 0 must be an int in [0, 10], got nan"),
    ([0] * 12, 2.5, "number of reports must be an int, got 2.5"),
    ([0] * 12, True, "number of reports must be an int, got True"),
    ([0] * 12, 3.0, "number of reports must be an int, got 3.0"),
])
def test_estimate_from_counts_takes_only_counts_some_reports_give(counts, n, message):
    with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
        estimate_from_counts(counts, n, ["A"], PAPER)


@pytest.mark.parametrize("call,message", [
    (lambda: estimate_from_counts([0] * 12, 3, "abc", PAPER),
     "expected a collection of candidate strings, got the string 'abc'"),
    (lambda: estimate_from_counts([0] * 12, 3, ["A", 5], PAPER), "value must be a string, got 5"),
    (lambda: estimate_counts([Report((0,) * 12)], "A", PAPER),
     "expected a collection of candidate strings, got the string 'A'"),
    (lambda: bloom_indices(5, PAPER), "value must be a string, got 5"),
    (lambda: bloom_indices(b"flu", PAPER), "value must be a string, got b'flu'"),
    (lambda: bloom_encode(5, PAPER), "value must be a string, got 5"),
    (lambda: bloom_encode(["flu", None], PAPER), "value must be a string, got None"),
    (lambda: bloom_check(bloom_encode("flu", PAPER), 5, PAPER), "value must be a string, got 5"),
], ids=["bare-string-candidates", "int-candidate", "estimate-counts-bare-string",
        "indices-int", "indices-bytes", "encode-int", "encode-none-in-list", "check-int"])
def test_values_must_be_strings(call, message):
    with pytest.raises(InvalidParams) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: prr(bloom_encode("flu", PAPER), None, "flu", PAPER),
     "client_secret must be bytes, got None"),
    (lambda: prr(bloom_encode("flu", PAPER), "s", "flu", PAPER),
     "client_secret must be bytes, got 's'"),
    (lambda: prr(bloom_encode("flu", PAPER), b"s", 5, PAPER), "value must be a string, got 5"),
    (lambda: make_report(b"x", b"s", PAPER, random.Random(0)),
     "value must be a string, got b'x'"),
    (lambda: make_report([], b"s", PAPER, random.Random(0)), "value must be a string, got []"),
    (lambda: make_report("flu", 7, PAPER, random.Random(0)),
     "client_secret must be bytes, got 7"),
    (lambda: simulate_reports({"a": 1, 5: 2}, PAPER, 1), "value must be a string, got 5"),
    (lambda: next(simulate_packed({5: 2, "a": 1}, PAPER, 1)), "value must be a string, got 5"),
    (lambda: simulate_reports({"a": 1}, PAPER, None), "seed must be an integer, got None"),
    (lambda: next(simulate_packed({"a": 1}, PAPER, 1.5)), "seed must be an integer, got 1.5"),
    (lambda: simulate_reports({"a": 1}, PAPER, True), "seed must be an integer, got True"),
    (lambda: simulate_reports({"a": 2**63}, PAPER, 1),
     f"count of 'a' must be below 2^63, got {2**63}"),
    (lambda: next(simulate_packed({"a": 10**400}, PAPER, 1)),
     f"count of 'a' must be below 2^63, got {10**400}"),
    (lambda: PermanentResponse(None, (0,) * 12), "value must be a string, got None"),
    (lambda: PermanentResponse(b"flu", (0,) * 12), "value must be a string, got b'flu'"),
], ids=["prr-secret-none", "prr-secret-str", "prr-value-int", "report-value-bytes",
        "report-value-list", "report-secret-int", "simulate-int-key", "packed-int-key",
        "simulate-seed-none", "packed-seed-float", "simulate-seed-bool", "simulate-count-2^63",
        "packed-count-10^400", "permanent-value-none", "permanent-value-bytes"])
def test_client_arguments_named_when_rejected(call, message):
    with pytest.raises(InvalidParams) as info:
        call()
    assert str(info.value) == message


def test_client_secret_may_be_a_bytearray():
    filt = bloom_encode("chlamydia", PAPER)
    assert prr(filt, bytearray(b"secret-1"), "chlamydia", PAPER).bits == (
        0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0)


def test_estimate_from_counts_takes_counts_at_both_ends():
    # no report sets a bit, and every report sets every bit
    assert estimate_from_counts([0] * 12, 7, ["A"], PAPER) == {"A": 0.0}
    assert estimate_from_counts([7] * 12, 7, ["A"], PAPER) == {"A": 7.0}


@given(
    k=st.integers(1, 20),
    rows=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=60),
    chunk_bits=st.sampled_from([1, 7, 64, 1 << 16]),
    # the line envelope_lines writes, and a compact one that is parsed as JSON
    dumps_args=st.sampled_from([{"sort_keys": True}, {"separators": (",", ":")}]),
)
@settings(max_examples=60, deadline=None)
def test_streamed_estimate_equals_estimate_counts(k, rows, chunk_bits, dumps_args):
    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5)
    reports = [Report(tuple((r >> i) & 1 for i in range(k))) for r in rows]
    candidates = ["A", "B", "C", "chlamydia"]
    old_chunk = rappor._CHUNK_BITS
    rappor._CHUNK_BITS = chunk_bits
    try:
        counts, n = count_report_lines(
            (json.dumps(r.envelope(params), **dumps_args) + "\n" for r in reports), params
        )
    finally:
        rappor._CHUNK_BITS = old_chunk
    assert n == len(reports)
    assert estimate_from_counts(counts, n, candidates, params) == estimate_counts(
        reports, candidates, params
    )


def test_estimate_counts_clamped_to_population():
    est = estimate_counts([Report((1,) * 12)] * 5, ["chlamydia"], PAPER)
    assert 0.0 <= est["chlamydia"] <= 5.0


def test_allocate_counts():
    assert allocate_counts({"A": 0.5, "B": 0.3, "C": 0.2}, 10) == {
        "A": 5,
        "B": 3,
        "C": 2,
    }
    thirds = allocate_counts({"A": 1 / 3, "B": 1 / 3, "C": 1 / 3}, 10)
    assert sum(thirds.values()) == 10 and thirds == {"A": 4, "B": 3, "C": 3}
    with pytest.raises(InvalidParams):
        allocate_counts({"A": 0.7}, 10)


@pytest.mark.parametrize("dist", [
    {"A": "x"}, {"A": "0.5", "B": 0.5}, {"A": True}, {"A": None}, {"A": [1]},
    {"A": float("nan")}, {"A": 1.5, "B": -0.5}, {"A": 1 + 1e-10}, {"A": 10**400},
], ids=["str", "numeric-str", "bool", "null", "array", "nan", "negative", "above-1", "huge"])
def test_allocate_counts_rejects_non_shares(dist):
    # a share is a JSON number in [0, 1]; bool is an int subclass in Python
    with pytest.raises(InvalidParams):
        allocate_counts(dist, 10**10)


@pytest.mark.parametrize("clients", [-1, -5, 7.5, True, 2**63, 2**64], ids=repr)
def test_allocate_counts_rejects_bad_client_counts(clients):
    with pytest.raises(InvalidParams, match=r"^clients must be an integer in \[0, 2\^63\), got "):
        allocate_counts({"A": 0.5, "B": 0.5}, clients)


def float_allocate_counts(distribution, clients):
    """allocate_counts as it was in float arithmetic, verbatim after the
    argument checks."""
    exact = {v: share * clients for v, share in sorted(distribution.items())}
    counts = {v: int(x) for v, x in exact.items()}
    leftover = clients - sum(counts.values())
    by_remainder = sorted(
        exact, key=lambda v: (-(exact[v] - counts[v]), v)
    )
    for v in by_remainder[:leftover]:
        counts[v] += 1
    return counts


@given(
    weights=st.lists(st.integers(0, 1000), min_size=1, max_size=12).filter(any),
    clients=st.integers(0, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_allocate_counts_equals_float_arithmetic(weights, clients):
    # shares as a user writes them, w / W in floats; the intended shares are
    # the fractions w / W themselves
    total = sum(weights)
    dist = {f"v{i}": w / total for i, w in enumerate(weights)}
    counts = allocate_counts(dist, clients)
    assert sum(counts.values()) == clients
    for i, w in enumerate(weights):
        assert abs(counts[f"v{i}"] - w * clients / total) < 1 + 1e-6
    # Where two intended remainders tie across the cut, float rounding in
    # the old function, or the shares' binary values in the new one, decide
    # which value gets the unit; everywhere else the two agree.
    remainders = sorted((w * clients % total for w in weights), reverse=True)
    leftover = clients - sum(w * clients // total for w in weights)
    if not 0 < leftover < len(weights) or remainders[leftover - 1] != remainders[leftover]:
        assert counts == float_allocate_counts(dist, clients)


@pytest.mark.parametrize("dist", [
    {"A": 1.0}, {"A": 0.1, "B": 0.2, "C": 0.7}, {"A": 1 / 3, "B": 1 / 3, "C": 1 / 3},
    {f"v{i}": w / 3176 for i, w in enumerate([975, 950, 557, 119, 205, 272, 98])},
], ids=["one", "tenths", "thirds", "seven"])
def test_allocate_counts_at_the_largest_population(dist):
    clients = 2**63 - 1
    counts = allocate_counts(dist, clients)
    assert sum(counts.values()) == clients and min(counts.values()) >= 0
    # each share as written, scaled so the shares sum to exactly 1
    total = sum(map(Fraction, dist.values()))
    for value, share in dist.items():
        assert abs(counts[value] - Fraction(share) / total * clients) <= 1


def test_allocate_counts_halves_and_quarters_at_the_largest_population():
    # (2^63 - 1) / 4 leaves remainder 3/4 and / 2 leaves 1/2: the two quarters
    # take the two leftover units
    assert allocate_counts({"A": 0.5, "B": 0.25, "C": 0.25}, 2**63 - 1) == {
        "A": 2**62 - 1, "B": 2**61, "C": 2**61}


def fraction_allocate_counts(distribution, clients):
    """allocate_counts as it was in Fraction arithmetic, verbatim."""
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


@st.composite
def share_maps(draw):
    """Normalized float shares, or arbitrary ones that seldom sum to 1, with
    zero and subnormal shares added, and 0 or 1 sometimes as an int."""
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 2**60), min_size=1, max_size=8))
        total = sum(weights)
        shares = [w / total if total else 0.0 for w in weights]
    else:
        shares = draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
    shares += draw(st.lists(st.sampled_from([0, 0.0, 5e-324, 1e-310, 1e-300]), max_size=3))
    shares = [int(s) if s in (0, 1) and draw(st.booleans()) else s for s in shares]
    return {f"v{i}": s for i, s in enumerate(shares)}


def _allocation(allocate, distribution, clients):
    try:
        return list(allocate(distribution, clients).items())
    except InvalidParams as exc:
        return str(exc)


@given(distribution=share_maps(),
       clients=st.one_of(st.integers(0, 1000), st.integers(0, 2**63 - 1),
                         st.integers(2**53, 2**63 - 1), st.just(2**63 - 1)))
@settings(max_examples=500, deadline=None)
def test_allocate_counts_equals_fraction_arithmetic(distribution, clients):
    assert (_allocation(allocate_counts, distribution, clients)
            == _allocation(fraction_allocate_counts, distribution, clients))


def scalar_simulate(counts, params, seed):
    """The reference: make_report's stages applied client by client."""
    rng = random.Random(seed)
    reports = []
    index = 0
    for value in sorted(counts):
        filt = bloom_encode(value, params)
        for _ in range(counts[value]):
            perm = prr(filt, client_secret(seed, index), value, params)
            reports.append(irr(perm, params, rng))
            index += 1
    return reports


BATCH_PARAMS = [
    PAPER,
    RapporParams(k=16, h=2, f=0.5, q=0.75, p=0.5, hash_seed=7),
    RapporParams(k=1, h=1, f=0.5, q=0.75, p=0.25),
    RapporParams(k=9, h=3, f=1.0, q=1.0, p=0.0),
    RapporParams(k=70, h=4, f=0.0, q=0.9, p=0.1, hash_seed=2**64 - 1),
    RapporParams(k=256, h=4, f=0.5, q=0.75, p=0.5, hash_seed=12345),
]


@pytest.mark.parametrize("params", BATCH_PARAMS, ids=lambda p: f"k{p.k}")
@pytest.mark.parametrize("chunk_bits", [rappor._CHUNK_BITS, 1, 100])
def test_batch_client_matches_scalar_reference(params, chunk_bits, monkeypatch):
    monkeypatch.setattr(rappor, "_CHUNK_BITS", chunk_bits)
    counts = {"b": 23, "a": 40, "never": 0, "c": 1}
    for seed in (0, 5, -3, 2**70):
        expected = scalar_simulate(counts, params, seed)
        assert simulate_reports(counts, params, seed) == expected
        lines = b"".join(envelope_lines(simulate_packed(counts, params, seed), params))
        assert lines == "".join(
            json.dumps(r.envelope(params), sort_keys=True) + "\n" for r in expected
        ).encode("utf-8")


@pytest.mark.parametrize("t", [0.0, 5e-324, 0.1, 1 / 3, 0.25, 0.5, 0.75, 1 - 2**-53, 1.0],
                         ids=repr)
def test_integer_bounds_compare_like_the_uniforms(t):
    # PRR: the word w is the uniform w / 2^64, and float(w) rounds to the
    # nearest even. Words straddling each rounding tie near t * 2^64 must
    # compare with the bound as the uniform compares with t.
    bound = rappor._bound(t, 64)
    centre = math.floor(Fraction(t) * 2**64)
    half_ulp = 1 << max((centre - 1).bit_length() - 54, 0)
    words = {2**64 - 1, bound - 1, bound, bound + 1}
    for tie in range(centre - 4 * half_ulp, centre + 5 * half_ulp, half_ulp):
        words.update(range(tie - 2, tie + 3))
    for w in sorted(w for w in words if 0 <= w < 2**64):
        assert (w < bound) == (w / 2.0**64 < t), w
    # IRR: random() is X / 2^53 for a 53-bit integer X, so no rounding
    bound = rappor._bound(t, 53)
    assert bound == math.ceil(Fraction(t) * 2**53)
    for x in range(max(bound - 3, 0), min(bound + 4, 2**53)):
        assert (x < bound) == (x / 2**53 < t), x


def numpy_simulate_packed(counts, params, seed):
    """The numpy batch client this module replaced, verbatim."""
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


# Non-dyadic values put low bits into the integer bounds, so that top bytes
# equal to a bound's occur and only the full value decides.
PROBABILITY = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 0.5, 0.7, 0.9, 1 - 2**-53, 1.0]), st.floats(0, 1))


@given(
    k=st.integers(1, 80),
    h=st.integers(1, 4),
    f=PROBABILITY,
    qp=st.tuples(PROBABILITY, PROBABILITY).map(sorted),
    seed=st.one_of(st.integers(-2**80, -1), st.integers(2**64, 2**80), st.integers(0, 2**64)),
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    chunk_bits=st.sampled_from([1, 100, rappor._CHUNK_BITS]),
)
@settings(max_examples=150, deadline=None)
def test_batch_client_equals_numpy_kernel_and_scalar_reference(k, h, f, qp, seed, sizes,
                                                               chunk_bits):
    params = RapporParams(k=k, h=min(h, k), f=f, q=qp[1], p=qp[0])
    counts = {f"v{i}": n for i, n in enumerate(sizes)}
    with mock.patch.object(rappor, "_CHUNK_BITS", chunk_bits):
        chunks = list(simulate_packed(counts, params, seed))
        assert chunks == list(numpy_simulate_packed(counts, params, seed))
    expected = scalar_simulate(counts, params, seed)
    assert b"".join(chunks) == b"".join(bytes.fromhex(r.to_hex()) for r in expected)


@pytest.mark.parametrize("count", [-1, 2.0, "2", True, None], ids=repr)
def test_simulated_counts_must_be_non_negative_integers(count):
    counts = {"a": 3, "b": count}
    message = rf"^count of 'b' must be a non-negative integer, got {re.escape(repr(count))}$"
    with pytest.raises(InvalidParams, match=message):
        simulate_reports(counts, PAPER, seed=1)
    with pytest.raises(InvalidParams, match=message):
        next(simulate_packed(counts, PAPER, seed=1))


def test_simulate_reports_deterministic():
    counts = {"A": 30, "B": 20}
    first = simulate_reports(counts, PAPER, seed=5)
    second = simulate_reports(counts, PAPER, seed=5)
    assert first == second
    assert simulate_reports(counts, PAPER, seed=6) != first
    assert len(first) == 50


# --- wire format ---------------------------------------------------------------------

def test_report_hex_round_trip():
    report = Report((1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1))
    assert report.to_hex() == "ef0c"
    assert Report.from_hex("ef0c", 12) == report


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_report_hex_round_trip_property(bits):
    report = Report(tuple(bits))
    assert Report.from_hex(report.to_hex(), len(bits)) == report


def test_report_hex_errors():
    with pytest.raises(ReportFormatError):
        Report.from_hex("zz", 8)
    with pytest.raises(ReportFormatError):
        Report.from_hex("ff", 12)  # wrong byte count
    with pytest.raises(ReportFormatError):
        Report.from_hex("ff1f", 12)  # padding bits above k set


def test_report_envelope_round_trip():
    report = make_report("A", b"s", PAPER, random.Random(0))
    env = report.envelope(PAPER)
    assert env == {"params_digest": PAPER.digest(), "report_hex": report.to_hex()}
    assert Report.from_envelope(env, PAPER) == report
    other = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5, hash_seed=3)
    with pytest.raises(ReportFormatError):
        Report.from_envelope(env, other)


@pytest.mark.parametrize("bad", [
    {"params_digest": "0" * 16, "report_hex": "ef0c"},
    {"params_digest": PAPER.digest(), "report_hex": "zz0c"},
    {"params_digest": PAPER.digest(), "report_hex": "ef"},
    {"params_digest": PAPER.digest(), "report_hex": "ef1c"},
    {"params_digest": PAPER.digest(), "report_hex": 61196},
    {"params_digest": PAPER.digest()},
    ["ef0c"],
    "ef0c",
    None,
])
def test_bad_envelope_rejected_by_both_paths(bad):
    with pytest.raises(ReportFormatError):
        Report.from_envelope(bad, PAPER)
    good = Report((1,) * 12).envelope(PAPER)
    with pytest.raises(ReportFormatError):
        count_report_lines([json.dumps(good), json.dumps(bad)], PAPER)
