import itertools
import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from privkit.dpcheck import (
    ENUMERATION_CAP,
    MechanismDistribution,
    exact_epsilon,
    prr_distribution,
    report_distribution,
)
from privkit.errors import DomainError, FilterTooLarge, SpaceMismatch
from privkit.rappor import BloomFilter, RapporParams, epsilon_infinity, epsilon_one, lemma1

PAPER = RapporParams(k=8, h=2, f=0.5, q=0.75, p=0.5)


def params_with(k, **kw):
    base = dict(k=k, h=2, f=0.5, q=0.75, p=0.5)
    base.update(kw)
    return RapporParams(**base)


def test_prr_point_mass_when_deterministic():
    params = params_with(2, f=0.0)
    bloom = BloomFilter.from_indices(2, [0])
    dist = prr_distribution(bloom, params)
    assert dist.prob(0b01) == pytest.approx(1.0)
    assert dist.prob(0b00) == dist.prob(0b10) == dist.prob(0b11) == 0.0


def test_prr_uniform_when_fully_random():
    params = params_with(2, f=1.0)
    dist = prr_distribution(BloomFilter.from_indices(2, [0]), params)
    for outcome in range(4):
        assert dist.prob(outcome) == pytest.approx(0.25)


def test_prr_single_bit_value():
    params = params_with(1, h=1, f=0.5)
    dist = prr_distribution(BloomFilter.from_indices(1, [0]), params)
    # f/2 + (1-f) = 0.75 by direct substitution
    assert dist.as_dict() == pytest.approx({1: 0.75, 0: 0.25})


def test_report_single_bit_matches_marginal():
    params = params_with(1, h=1)
    q_star, p_star = lemma1(params)
    set_bit = report_distribution(BloomFilter.from_indices(1, [0]), params)
    assert set_bit.prob(1) == pytest.approx(q_star)
    unset_bit = report_distribution(BloomFilter.from_indices(1, []), params)
    assert unset_bit.prob(1) == pytest.approx(p_star)


def test_report_noiseless_point_mass():
    params = params_with(3, f=0.0, q=1.0, p=0.0)
    dist = report_distribution(BloomFilter.from_indices(3, [0, 2]), params)
    assert dist.prob(0b101) == pytest.approx(1.0)


def test_product_structure():
    params = params_with(2)
    joint = report_distribution(BloomFilter.from_indices(2, [0]), params)
    single_set = report_distribution(BloomFilter.from_indices(1, [0]), params_with(1, h=1))
    single_unset = report_distribution(BloomFilter.from_indices(1, []), params_with(1, h=1))
    for b0 in (0, 1):
        for b1 in (0, 1):
            assert joint.prob(b0 | (b1 << 1)) == pytest.approx(
                single_set.prob(b0) * single_unset.prob(b1)
            )


def test_exact_epsilon_identical_is_zero():
    dist = prr_distribution(BloomFilter.from_indices(4, [1]), params_with(4))
    assert exact_epsilon(dist, dist) == 0.0


def test_exact_epsilon_symmetric_nonnegative():
    d1 = prr_distribution(BloomFilter.from_indices(4, [0, 1]), params_with(4))
    d2 = prr_distribution(BloomFilter.from_indices(4, [2, 3]), params_with(4))
    eps = exact_epsilon(d1, d2)
    assert eps == exact_epsilon(d2, d1)
    assert eps >= 0.0


def test_exact_epsilon_matches_closed_forms():
    b1 = BloomFilter.from_indices(8, [0, 1])
    b2 = BloomFilter.from_indices(8, [2, 3])
    assert exact_epsilon(
        prr_distribution(b1, PAPER), prr_distribution(b2, PAPER)
    ) == pytest.approx(epsilon_infinity(PAPER), abs=1e-9)
    assert exact_epsilon(
        report_distribution(b1, PAPER), report_distribution(b2, PAPER)
    ) == pytest.approx(epsilon_one(PAPER), abs=1e-9)


def test_overlapping_filters_leak_less():
    params = params_with(8)
    disjoint = exact_epsilon(
        prr_distribution(BloomFilter.from_indices(8, [0, 1]), params),
        prr_distribution(BloomFilter.from_indices(8, [2, 3]), params),
    )
    overlapping = exact_epsilon(
        prr_distribution(BloomFilter.from_indices(8, [0, 1]), params),
        prr_distribution(BloomFilter.from_indices(8, [1, 2]), params),
    )
    assert overlapping <= disjoint + 1e-12
    assert overlapping == pytest.approx(disjoint / 2, abs=1e-9)


def test_one_sided_zero_probability_is_infinite():
    params = params_with(2, f=0.0)
    d1 = prr_distribution(BloomFilter.from_indices(2, [0]), params)
    d2 = prr_distribution(BloomFilter.from_indices(2, [1]), params)
    assert exact_epsilon(d1, d2) == math.inf


def test_space_mismatch():
    d1 = prr_distribution(BloomFilter.from_indices(2, [0]), params_with(2))
    d2 = prr_distribution(BloomFilter.from_indices(3, [0]), params_with(3))
    with pytest.raises(SpaceMismatch):
        exact_epsilon(d1, d2)
    with pytest.raises(SpaceMismatch, match=r"^log_probs has 3 entries, expected 2\^1$"):
        MechanismDistribution(1, [0.0, -math.inf, -math.inf])
    for distribution in (prr_distribution, report_distribution):
        with pytest.raises(SpaceMismatch, match="^filter has 3 bits, params say 2$"):
            distribution(BloomFilter.from_indices(3, [0]), params_with(2))


def test_enumeration_cap():
    k = ENUMERATION_CAP + 1
    params = params_with(k)
    with pytest.raises(FilterTooLarge):
        prr_distribution(BloomFilter.from_indices(k, [0, 1]), params)
    with pytest.raises(FilterTooLarge):
        MechanismDistribution.product_of_bits([0.5] * k)


def test_distribution_validates_total():
    with pytest.raises(ValueError):
        MechanismDistribution(1, np.log(np.array([0.4, 0.4])))


def test_distribution_probabilities_sum_to_one():
    dist = report_distribution(BloomFilter.from_indices(6, [0, 3]), params_with(6))
    assert sum(dist.as_dict().values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("log_probs", [
    [math.nan, math.nan], [math.nan, 0.0], [math.inf, -math.inf], [1000.0, 1000.0],
], ids=repr)
def test_distribution_rejects_bad_log_probabilities(log_probs):
    with pytest.raises(ValueError):
        MechanismDistribution(1, np.array(log_probs))


class _GeneratorChecks:
    """MechanismDistribution.__init__ as it was with generator checks and
    sum, verbatim: the reference for the checks that iterate in C."""

    def __init__(self, k, log_probs):
        log_probs = tuple(map(float, log_probs))
        if k < 0 or len(log_probs) != 1 << k:
            raise SpaceMismatch(f"log_probs has {len(log_probs)} entries, expected 2^{k}")
        if not all(x < math.inf for x in log_probs):  # NaN < inf is False too
            raise ValueError("log-probabilities must be finite or -inf")
        m = max(log_probs)
        if m == -math.inf:
            total = -math.inf
        else:
            total = m + math.log(math.fsum(math.exp(x - m) for x in log_probs))
        # total > 1 first: expm1 overflows above about 709
        if total > 1.0 or abs(math.expm1(total)) > 1e-9:
            raise ValueError(f"probabilities sum to exp({total}), not 1")
        self.k = k
        self.log_probs = log_probs


def _built(cls, k, log_probs):
    try:
        return cls(k, log_probs).log_probs
    except (ValueError, SpaceMismatch) as exc:
        return type(exc), str(exc)


@st.composite
def log_prob_vectors(draw):
    """Normalized vectors, nudged off a total of 1 or spiked with -inf, +inf
    and NaN, and vectors that are all -inf."""
    k = draw(st.integers(0, 5))
    if draw(st.integers(0, 9)) == 0:
        return k, [-math.inf] * (1 << k)
    weights = draw(st.lists(st.floats(0, 1e6), min_size=1 << k, max_size=1 << k))
    total = math.fsum(weights) or 1.0
    scale = draw(st.sampled_from([1.0, 1.0, 1 + 1e-8, 1 - 1e-8, 1 + 1e-10, 2.0]))
    probs = [w * scale / total for w in weights]
    log_probs = [math.log(p) if p > 0 else -math.inf for p in probs]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(log_probs) - 1))
        log_probs[i] = draw(st.sampled_from([-math.inf, math.inf, math.nan, 0.0, 800.0]))
    return k, log_probs


@given(log_prob_vectors())
def test_distribution_checks_match_the_generator_reference(case):
    k, log_probs = case
    assert _built(MechanismDistribution, k, log_probs) == _built(_GeneratorChecks, k, log_probs)


probabilities = st.floats(min_value=0.0, max_value=1.0)


def bit_term(p, bit):
    if bit:
        return math.log(p) if p > 0.0 else -math.inf
    return math.log(1.0 - p) if p < 1.0 else -math.inf


@given(st.lists(probabilities, max_size=6))
def test_log_probs_fold_bit_terms_in_bit_order(p_one):
    dist = MechanismDistribution.product_of_bits(p_one)
    assert isinstance(dist.log_probs, tuple)
    for outcome, log_prob in enumerate(dist.log_probs):
        folded = 0.0
        for i, p in enumerate(p_one):
            folded += bit_term(p, outcome >> i & 1)
        assert log_prob.hex() == folded.hex()


# P(bit = 1) on a grid of sixteenths: two different values differ in log by at
# least ln(15/14), so rounding in the sums stays far below 1e-12 of epsilon
grid = st.sampled_from([i / 16 for i in range(17)])


def decimal_epsilon(pairs):
    """max(sum_i max_b d_i(b), -sum_i min_b d_i(b)) to 60 digits, where
    d_i(b) = ln P1(bit i = b) - ln P2(bit i = b); infinite where exactly one
    side gives a bit value zero mass."""
    with localcontext() as ctx:
        ctx.prec = 60
        top = bottom = Decimal(0)
        for p1, p2 in pairs:
            d = []
            for q1, q2 in ((Decimal(p1), Decimal(p2)), (1 - Decimal(p1), 1 - Decimal(p2))):
                if (q1 == 0) != (q2 == 0):
                    return Decimal("Infinity")
                if q1:
                    d.append(q1.ln() - q2.ln())
            top += max(d)
            bottom += min(d)
        return max(top, -bottom)


@given(st.lists(st.tuples(grid, grid), max_size=8))
def test_exact_epsilon_matches_decimal_sum_of_bit_extremes(pairs):
    eps = exact_epsilon(MechanismDistribution.product_of_bits([p for p, _ in pairs]),
                        MechanismDistribution.product_of_bits([p for _, p in pairs]))
    expected = decimal_epsilon(pairs)
    if expected.is_infinite() or expected == 0:
        assert eps == expected
    else:
        assert abs(Decimal(eps) - expected) <= Decimal("1e-12") * expected


def numpy_product_of_bits(p_one):
    """The numpy enumeration this module used to run, verbatim."""
    log_probs = np.zeros(1)
    with np.errstate(divide="ignore"):
        for p in p_one:
            lo = np.log(1.0 - p) if p < 1.0 else -np.inf
            hi = np.log(p) if p > 0.0 else -np.inf
            log_probs = np.concatenate([log_probs + lo, log_probs + hi])
    return log_probs


def numpy_exact_epsilon(l1, l2):
    """The numpy epsilon this module used to compute, verbatim."""
    zero1 = np.isneginf(l1)
    zero2 = np.isneginf(l2)
    if np.any(zero1 != zero2):
        return math.inf
    live = ~zero1
    if not np.any(live):
        return 0.0
    return float(np.max(np.abs(l1[live] - l2[live])))


@given(st.integers(0, 6).flatmap(
    lambda k: st.tuples(st.lists(probabilities, min_size=k, max_size=k),
                        st.lists(probabilities, min_size=k, max_size=k))))
def test_bit_identical_to_numpy_where_logs_agree(p_ones):
    # numpy's vectorized log may differ from math.log in the last bit
    assume(all(np.log(x) == math.log(x)
               for p in p_ones[0] + p_ones[1] for x in (p, 1.0 - p) if x > 0.0))
    d1, d2 = map(MechanismDistribution.product_of_bits, p_ones)
    l1, l2 = map(numpy_product_of_bits, p_ones)
    assert [x.hex() for x in d1.log_probs] == [float(x).hex() for x in l1]
    assert [x.hex() for x in d2.log_probs] == [float(x).hex() for x in l2]
    enumerated = numpy_exact_epsilon(l1, l2)
    k = d1.k
    raw = exact_epsilon(MechanismDistribution(k, d1.log_probs),
                        MechanismDistribution(k, d2.log_probs))
    assert raw.hex() == enumerated.hex()
    assert_exact(exact_epsilon(d1, d2), enumerated, mp_product_epsilon(*p_ones),
                 enumeration_bound(*p_ones))


# Factors at the edges of [0, 1]: zero mass on one side, the least
# subnormal, and the largest double below 1, whose complement is 2^-53.
edge_probabilities = st.one_of(probabilities, st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53]))


@given(st.lists(edge_probabilities, max_size=8))
def test_product_of_bits_holds_the_checked_invariant(p_one):
    # product_of_bits skips __init__'s checks; __init__ must accept its result as it is
    dist = MechanismDistribution.product_of_bits(p_one)
    checked = MechanismDistribution(dist.k, dist.log_probs)
    assert (checked.k, checked.log_probs) == (dist.k, dist.log_probs)
    assert [x.hex() for x in checked.log_probs] == [x.hex() for x in dist.log_probs]


@pytest.mark.parametrize("p_one,message", [
    ([0.5, math.nan], "probability of bit 1 must be in [0, 1], got nan"),
    (["0.5"], "probability of bit 0 must be in [0, 1], got '0.5'"),
    ([0.25, 0.5, 1.5], "probability of bit 2 must be in [0, 1], got 1.5"),
    ([-1e-300], "probability of bit 0 must be in [0, 1], got -1e-300"),
    ([0.5, None], "probability of bit 1 must be in [0, 1], got None"),
    ([math.inf], "probability of bit 0 must be in [0, 1], got inf"),
], ids=["nan", "string", "above-one", "negative", "none", "infinity"])
def test_product_of_bits_names_the_bad_factor(p_one, message):
    with pytest.raises(ValueError) as info:
        MechanismDistribution.product_of_bits(p_one)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: MechanismDistribution(0, "0"), "log_probs must be a sequence of floats, got '0'"),
    (lambda: MechanismDistribution(0, b"0"), "log_probs must be a sequence of floats, got b'0'"),
    (lambda: MechanismDistribution(0, None), "log_probs must be a sequence of floats, got None"),
    (lambda: MechanismDistribution.product_of_bits("1"),
     "p_one must be a sequence of probabilities, got '1'"),
    (lambda: MechanismDistribution.product_of_bits(b"\x01"),
     "p_one must be a sequence of probabilities, got b'\\x01'"),
    (lambda: MechanismDistribution.product_of_bits(None),
     "p_one must be a sequence of probabilities, got None"),
    (lambda: MechanismDistribution.product_of_bits([True]),
     "probability of bit 0 must be in [0, 1], got True"),
    (lambda: MechanismDistribution(-1, [0.0]), "k must be >= 0, got -1"),
    (lambda: MechanismDistribution.product_of_bits({0: 0.5}),
     "p_one must be a sequence of probabilities, got {0: 0.5}"),
    (lambda: MechanismDistribution.product_of_bits({0.5}),
     "p_one must be a sequence of probabilities, got {0.5}"),
    (lambda: MechanismDistribution.product_of_bits(frozenset({0.5, 0.25})),
     f"p_one must be a sequence of probabilities, got {frozenset({0.5, 0.25})!r}"),
    (lambda: MechanismDistribution(1, {math.log(0.25), math.log(0.75)}),
     f"log_probs must be a sequence of floats, got {({math.log(0.25), math.log(0.75)})!r}"),
    (lambda: MechanismDistribution(0, {0: 0.0}),
     "log_probs must be a sequence of floats, got {0: 0.0}"),
    (lambda: MechanismDistribution(1, {0.0: 0, -math.inf: 1}.keys()),
     "log_probs must be a sequence of floats, got dict_keys([0.0, -inf])"),
    (lambda: MechanismDistribution.product_of_bits(np.array(0.5)),
     "p_one must be a sequence of probabilities, got array(0.5)"),
    (lambda: MechanismDistribution(0, np.array(0.0)),
     "log_probs must be a sequence of floats, got array(0.)"),
], ids=["log-probs-str", "log-probs-bytes", "log-probs-none", "p-one-str", "p-one-bytes",
        "p-one-none", "p-bool", "k-negative", "p-one-dict", "p-one-set", "p-one-frozenset",
        "log-probs-set", "log-probs-dict", "log-probs-keys", "p-one-0d-array",
        "log-probs-0d-array"])
def test_distribution_arguments_named_when_rejected(call, message):
    # a str or bytes was once read as its characters: "0" as the point mass
    # (0.0,), and "1" as the factor '1' of bit 0; a dict as its keys, and a
    # set in its own order, which is not the bits' or the outcomes'
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_distribution_log_probs_iterable_only_on_the_instance_is_named():
    # the class, not the instance, makes an object iterable: iter(a) fails
    class A:
        pass

    a = A()
    a.__iter__ = lambda: iter([0.0])
    with pytest.raises(ValueError) as info:
        MechanismDistribution(0, a)
    assert type(info.value) is ValueError
    assert str(info.value) == f"log_probs must be a sequence of floats, got {a!r}"


def test_product_of_bits_names_a_sized_object_that_cannot_be_iterated():
    class L:
        def __len__(self):
            return 1

    sized = L()
    with pytest.raises(ValueError) as info:
        MechanismDistribution.product_of_bits(sized)
    assert type(info.value) is ValueError
    assert str(info.value) == f"p_one must be a sequence of probabilities, got {sized!r}"


def test_distribution_vectors_are_taken_in_order():
    want = MechanismDistribution.product_of_bits([0.25, 0.5]).log_probs
    for vector in (list, tuple, np.array):
        assert MechanismDistribution.product_of_bits(vector([0.25, 0.5])).log_probs == want
        assert MechanismDistribution(2, vector(want)).log_probs == want
    assert MechanismDistribution(2, (x for x in want)).log_probs == want


@pytest.mark.parametrize("k", [None, 1.5, "1", True])
def test_distribution_k_of_the_wrong_type_is_named(k):
    with pytest.raises(TypeError) as info:
        MechanismDistribution(k, [0.0])
    assert str(info.value) == f"k must be an integer, got {k!r}"


def test_distribution_k_far_past_the_length_allocates_nothing():
    # 1 << k is not computed for a k that no tuple length can match
    with pytest.raises(SpaceMismatch, match=r"^log_probs has 1 entries, expected 2\^10{40}$"):
        MechanismDistribution(10**40, [0.0])


def folded_log_probs(p_one):
    """Every outcome's log-probability, folded bit by bit, bit 0 first: the
    full enumeration, written here."""
    log_probs = []
    for outcome in range(1 << len(p_one)):
        folded = 0.0
        for i, p in enumerate(p_one):
            folded += bit_term(p, outcome >> i & 1)
        log_probs.append(folded)
    return log_probs


def enumeration_bound(p1, p2):
    """How far the full enumeration of two products may round: 2(k + 1)
    2^-53 (T1 + T2), where T sums each bit's larger finite |term|. Each
    outcome folds k terms, and the difference rounds once more."""
    scale = math.fsum(max(-t for t in (bit_term(p, 0), bit_term(p, 1)) if t > -math.inf)
                      for p in (*p1, *p2))
    return 2 * (len(p1) + 1) * 2.0**-53 * scale


def assert_exact(eps, enumerated, oracle, bound):
    """``eps`` is within 1e-15 of max(epsilon, T_V) of the 60-digit
    ``oracle`` (epsilon, T_V), and within ``bound`` of ``enumerated``, the
    full enumeration; both are infinite where the oracle is."""
    want, magnitude = oracle
    if math.isinf(want):
        assert eps == enumerated == math.inf
    else:
        assert_close(eps, want, magnitude, 1e-15)
        assert abs(eps - enumerated) <= bound, (eps, enumerated)


def assert_products_exact(p1, p2):
    """exact_epsilon of the two products agrees with the 60-digit oracle and
    with the full enumeration of the folds above, which the raw
    distributions and numpy compute to the same bits."""
    k = len(p1)
    l1, l2 = folded_log_probs(p1), folded_log_probs(p2)
    enumerated = numpy_exact_epsilon(np.array(l1), np.array(l2))
    raw = exact_epsilon(MechanismDistribution(k, l1), MechanismDistribution(k, l2))
    assert raw.hex() == enumerated.hex()
    eps = exact_epsilon(*map(MechanismDistribution.product_of_bits, (p1, p2)))
    assert_exact(eps, enumerated, mp_product_epsilon(p1, p2), enumeration_bound(p1, p2))


def pairs_of(k, draw_p2):
    return st.lists(probabilities, min_size=k, max_size=k).flatmap(
        lambda p1: st.tuples(st.just(p1), st.tuples(*(draw_p2(p) for p in p1))))


def neighbour(p):
    """p, a float 1 to 3 ulps from it (so the per-bit log-ratios are tiny
    against the terms), or an unrelated probability."""
    return st.one_of(st.just(p), probabilities, st.tuples(
        st.integers(1, 3), st.sampled_from([0.0, 1.0])).map(lambda nw: nextafter_n(p, *nw)))


def nextafter_n(p, n, toward):
    for _ in range(n):
        p = math.nextafter(p, toward)
    return p


@given(st.integers(0, 12).flatmap(lambda k: st.tuples(
    st.lists(grid, min_size=k, max_size=k), st.lists(grid, min_size=k, max_size=k))))
def test_exact_epsilon_of_grid_products_agrees_with_both_oracles(pair):
    assert_products_exact(*pair)


@given(st.integers(1, 10).flatmap(lambda k: pairs_of(k, neighbour)))
@example(([0.07665163703845079, 0.3125, 0.8907681278553053, 0.4577692590412453, 0.875],
          [0.07665163703845078, 0.31249999999999994, 0.8907681278553052, 0.45776925904124516,
           0.8750000000000002]))
def test_exact_epsilon_of_neighbouring_products_agrees_with_both_oracles(pair):
    # the example: every bit 1 to 3 ulps apart, so epsilon (about 2^-49) is
    # of the order of the enumeration's own rounding
    assert_products_exact(*pair)


@given(st.integers(0, 8).flatmap(lambda k: st.tuples(
    st.lists(edge_probabilities, min_size=k, max_size=k),
    st.lists(edge_probabilities, min_size=k, max_size=k))))
def test_exact_epsilon_of_edge_products_agrees_with_both_oracles(pair):
    assert_products_exact(*pair)


@pytest.mark.parametrize("distribution", [prr_distribution, report_distribution])
def test_every_pair_of_h2_filters_at_k8_agrees_with_both_oracles(distribution):
    mode = "prr" if distribution is prr_distribution else "report"
    filters = [BloomFilter.from_indices(8, pair) for pair in itertools.combinations(range(8), 2)]
    p_ones = {f.bits: factors(distribution, f) for f in filters}
    folds = {bits: np.array(folded_log_probs(p_one)) for bits, p_one in p_ones.items()}
    for f1 in filters:
        for f2 in filters:
            d1, d2 = distribution(f1, PAPER), distribution(f2, PAPER)
            eps = exact_epsilon(d1, d2)
            assert "log_probs" not in vars(d1) and "log_probs" not in vars(d2)
            assert_exact(eps, numpy_exact_epsilon(folds[f1.bits], folds[f2.bits]),
                         mp_epsilon(mode, PAPER.f, PAPER.q, PAPER.p, f1.bits, f2.bits),
                         enumeration_bound(p_ones[f1.bits], p_ones[f2.bits]))


def factors(distribution, bloom):
    f = PAPER.f
    q_star, p_star = lemma1(PAPER)
    if distribution is prr_distribution:
        return [f / 2.0 + (1.0 - f) * b for b in bloom.bits]
    return [q_star if b else p_star for b in bloom.bits]


def test_products_leave_log_probs_unbuilt_until_read():
    params = params_with(16)
    bits1, bits2 = BloomFilter.from_indices(16, [0, 13]), BloomFilter.from_indices(16, [2, 7])
    d1, d2 = report_distribution(bits1, params), report_distribution(bits2, params)
    eps = exact_epsilon(d1, d2)
    assert "log_probs" not in vars(d1) and "log_probs" not in vars(d2)
    assert eps == pytest.approx(epsilon_one(params), abs=1e-9)
    # reading it builds the tuple the full fold gives, once
    assert isinstance(d1.log_probs, tuple) and d1.log_probs is d1.log_probs
    assert "log_probs" in vars(d1)
    enumerated = exact_epsilon(MechanismDistribution(16, d1.log_probs),
                               MechanismDistribution(16, d2.log_probs))
    assert_exact(eps, enumerated, mp_epsilon("report", 0.5, 0.75, 0.5, bits1.bits, bits2.bits),
                 enumeration_bound(*(factors(report_distribution, b) for b in (bits1, bits2))))


def test_products_with_a_zero_mass_bit_leave_log_probs_unbuilt():
    zero = MechanismDistribution.product_of_bits([0.0, 0.5])
    also_zero = MechanismDistribution.product_of_bits([0.0, 0.25])
    half = MechanismDistribution.product_of_bits([0.25, 0.5])
    assert exact_epsilon(zero, half) == math.inf  # bit 0 = 1 has mass on one side only
    # bit 0 = 1 has mass on neither side: its outcomes are dropped
    assert exact_epsilon(zero, also_zero) == pytest.approx(math.log(2), abs=1e-15)
    assert not any("log_probs" in vars(d) for d in (zero, also_zero, half))


def test_a_value_with_zero_mass_on_both_sides_is_dropped():
    # P(bit 0 = 0) is 0 on both sides while the pairs differ: no public
    # constructor makes such a pair, but __init__'s invariant allows one
    d1 = MechanismDistribution._from_terms([(-math.inf, 0.0)])
    d2 = MechanismDistribution._from_terms([(-math.inf, math.log1p(-2**-53))])
    raw = exact_epsilon(MechanismDistribution(1, d1.log_probs),
                        MechanismDistribution(1, d2.log_probs))
    assert exact_epsilon(d1, d2) == raw == 2**-53


def test_raw_distributions_enumerate_every_outcome():
    half = MechanismDistribution.product_of_bits([0.25, 0.5])
    other = MechanismDistribution.product_of_bits([0.5, 0.5])
    raw = MechanismDistribution(2, half.log_probs)
    enumerated = numpy_exact_epsilon(np.array(half.log_probs), np.array(other.log_probs))
    assert exact_epsilon(raw, other).hex() == enumerated.hex()
    assert "log_probs" in vars(other)  # the product side's outcomes too


@pytest.mark.parametrize("distribution", [prr_distribution, report_distribution])
def test_bits_that_neither_filter_sets_leave_exact_epsilon_as_it_is(distribution):
    # bits 0,1 against 2,3 at the paper's params: one float from k=4 to the cap
    values = {exact_epsilon(distribution(BloomFilter.from_indices(k, [0, 1]), params_with(k)),
                            distribution(BloomFilter.from_indices(k, [2, 3]), params_with(k)))
              for k in range(4, ENUMERATION_CAP + 1)}
    assert len(values) == 1, values


# --- exactness at a small f or a q* near 1 ----------------------------------
#
# The oracle takes each bit's two probabilities from f, q and p, or from a
# product's factors, in mpmath at 60 digits, and calls nothing in privkit.
# exact_epsilon of two products sums one rounded log-ratio per differing bit,
# so it is held to 1e-15 of the larger of epsilon and T_V, the sum over the
# bits whose probabilities differ of the largest |ln P|: an epsilon far below
# its bits' terms (f near 1, or p near q) keeps only the digits that the
# difference of two logs can.

def mp_bit_probabilities(mode, f, q, p):
    """(P(bit = 0), P(bit = 1)) of an output bit, keyed by its Bloom bit."""
    F, Q, P = map(mpmath.mpf, (f, q, p))  # the floats, exactly
    keep, flip = 1 - F / 2, F / 2  # P(permanent bit = Bloom bit), and the other
    if mode == "prr":
        return {1: (flip, keep), 0: (keep, flip)}
    # the permanent bit, then the report bit: P(x) = P(s = 1) P(x | 1) + P(s = 0) P(x | 0)
    return {1: (keep * (1 - Q) + flip * (1 - P), keep * Q + flip * P),
            0: (flip * (1 - Q) + keep * (1 - P), flip * Q + keep * P)}


def mp_epsilon_of(pairs):
    """The true epsilon between two products whose bit i has the
    probabilities pairs[i] = ((P1(0), P1(1)), (P2(0), P2(1))), as a float,
    and T_V; called at 60 digits."""
    top = bottom = magnitude = mpmath.mpf(0)
    for probs1, probs2 in pairs:
        if probs1 == probs2:
            continue
        d = []
        for x1, x2 in zip(probs1, probs2):
            if (x1 == 0) != (x2 == 0):
                return math.inf, math.inf
            if x1:
                d.append(mpmath.log(x1) - mpmath.log(x2))
        top += max(d)
        bottom += min(d)
        magnitude += max(-mpmath.log(x) for x in probs1 + probs2 if x)
    return float(max(top, -bottom)), float(magnitude)


def mp_epsilon(mode, f, q, p, bits1, bits2):
    """The true epsilon between the outputs of two filters, and T_V."""
    with mpmath.workdps(60):
        probs = mp_bit_probabilities(mode, f, q, p)
        return mp_epsilon_of([(probs[b1], probs[b2]) for b1, b2 in zip(bits1, bits2)])


def mp_product_epsilon(p1, p2):
    """The true epsilon between two products of independent bits with
    P(bit i = 1) = p1[i] and p2[i], and T_V."""
    with mpmath.workdps(60):
        return mp_epsilon_of([tuple((1 - x, x) for x in map(mpmath.mpf, pair))
                              for pair in zip(p1, p2)])


# f log-uniform from 1 down to the least subnormal; q up to 1 - 2^-53, as a
# float of [0, 1) or as 1 - 2^-v; p in [0, q]
small_f = st.floats(0, 1074).map(lambda u: 2.0**-u)
q_values = st.one_of(st.floats(0, 1 - 2**-53), st.floats(1, 53).map(lambda v: 1 - 2.0**-v))


@st.composite
def mechanisms(draw):
    f, q = draw(small_f), draw(q_values)
    return draw(st.sampled_from(["prr", "report"])), f, q, draw(st.floats(0, q))


def distribution(mode, bits, params):
    build = prr_distribution if mode == "prr" else report_distribution
    return build(BloomFilter(bits), params)


def assert_close(value, want, magnitude, tolerance=1e-12):
    assert abs(value - want) <= tolerance * max(want, magnitude), (value, want)


@settings(max_examples=300, deadline=None)
@given(mechanisms(), st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k),
    st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k))))
@example(("prr", 1e-17, 0.75, 0.25), ([1, 1, 0, 0], [0, 0, 1, 1]))
@example(("prr", 5e-324, 0.75, 0.25), ([1, 1, 0, 0], [0, 0, 1, 1]))
@example(("report", 5e-324, 0.75, 0.0), ([1, 0], [0, 1]))
@example(("report", 1e-17, 1 - 2**-53, 0.5), ([1, 0], [0, 1]))
@example(("prr", 0.5, 0.75, 0.5), ([1, 1] + [0] * 14, [0, 0, 1, 1] + [0] * 12))
@example(("prr", 1 - 1e-6, 0.75, 0.25), ([1, 1] + [0] * 14, [0, 0, 1, 1] + [0] * 12))
def test_exact_epsilon_matches_a_60_digit_oracle(mechanism, filters):
    mode, f, q, p = mechanism
    bits1, bits2 = filters
    params = RapporParams(k=len(bits1), h=1, f=f, q=q, p=p)
    eps = exact_epsilon(distribution(mode, bits1, params), distribution(mode, bits2, params))
    want, magnitude = mp_epsilon(mode, f, q, p, bits1, bits2)
    if math.isinf(want):
        assert eps == math.inf
    else:
        assert math.isfinite(eps)  # "infinity" only where one side has zero mass
        assert_close(eps, want, magnitude, 1e-15)


@settings(max_examples=300, deadline=None)
@given(mechanisms(), st.integers(1, 4))
@example(("prr", 1e-300, 0.75, 0.25), 2)
@example(("report", 1e-17, 1 - 2**-53, 0.5), 2)
def test_closed_forms_match_exact_epsilon_of_disjoint_filters(mechanism, h):
    # two disjoint h-bit filters attain both closed forms
    mode, f, q, p = mechanism
    params = RapporParams(k=2 * h, h=h, f=f, q=q, p=p)
    bits1, bits2 = [1] * h + [0] * h, [0] * h + [1] * h
    bound = epsilon_infinity if mode == "prr" else epsilon_one
    try:
        closed = bound(params)
    except DomainError:
        return  # not finite in floating point
    eps = exact_epsilon(distribution(mode, bits1, params), distribution(mode, bits2, params))
    assert math.isfinite(eps)
    assert_close(closed, eps, mp_epsilon(mode, f, q, p, bits1, bits2)[1])
