import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from privkit.dpcheck import (
    ENUMERATION_CAP,
    MechanismDistribution,
    exact_epsilon,
    prr_distribution,
    report_distribution,
)
from privkit.errors import FilterTooLarge, SpaceMismatch
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
    assert exact_epsilon(d1, d2).hex() == numpy_exact_epsilon(l1, l2).hex()
