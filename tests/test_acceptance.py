"""Acceptance suite: one test per release criterion, at its stated tolerance.

The conftest prints one pass/fail line per criterion at the end of the run.
Each test is self-contained, including its independent oracle where the
criterion demands one.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from privkit.anonymize import (
    GeneralizationRule,
    NoiseSpec,
    NumericBins,
    TextPrefix,
    add_noise,
    aggregate_groups,
    generalize,
    k_anonymity,
    l_diversity,
    microaggregate_univariate,
    rank_swap,
    suppress,
    swap_values,
)
from privkit.assoc import TransactionSet, solid_rules
from privkit.dataset import (
    SUPPRESSED,
    Attribute,
    AttributeRole,
    Dataset,
    Interval,
    Kind,
    MaskedText,
    Schema,
    fixture_table1,
)
from privkit.dpcheck import exact_epsilon, prr_distribution, report_distribution
from privkit.rappor import (
    BloomFilter,
    RapporParams,
    allocate_counts,
    bloom_check,
    bloom_encode,
    bloom_indices,
    client_secret,
    epsilon_infinity,
    epsilon_one,
    estimate_counts,
    irr,
    lemma1,
    prr,
    simulate_reports,
)
from privkit.smc import evaluate, run_secret_sum

QI = ["Age", "Gender", "ZIP"]
PAPER_DEFAULTS = dict(h=2, f=0.5, q=0.75, p=0.5)

# the worked medical example: grouping of the ten fixture records by
# (gender, age) and the resulting aggregated ages, in fixture record order
GROUPS_BY_GENDER_AGE = [[0, 6, 4], [7, 9], [1, 8, 5], [2, 3]]
AGGREGATED_AGES = (44, 23, 37, 37, 44, 23, 44, 24, 23, 24)


def test_criterion_01_table_fixtures_golden():
    t1 = fixture_table1()
    t2 = generalize(
        suppress(t1, ["Name"]),
        [
            GeneralizationRule("Age", NumericBins(width=10, origin=0)),
            GeneralizationRule("ZIP", TextPrefix(keep=2)),
        ],
    )
    bins = {
        (20, 29): Interval(20, 29),
        (30, 39): Interval(30, 39),
        (40, 49): Interval(40, 49),
    }
    expected = (
        (SUPPRESSED, bins[40, 49], "Female", MaskedText("12"), "Cancer"),
        (SUPPRESSED, bins[20, 29], "Male", MaskedText("12"), "Migraine"),
        (SUPPRESSED, bins[30, 39], "Male", MaskedText("12"), "Incontinence"),
        (SUPPRESSED, bins[30, 39], "Male", MaskedText("12"), "Incontinence"),
        (SUPPRESSED, bins[40, 49], "Female", MaskedText("12"), "No illness"),
        (SUPPRESSED, bins[20, 29], "Male", MaskedText("12"), "Diabetes"),
        (SUPPRESSED, bins[40, 49], "Female", MaskedText("12"), "Cancer"),
        (SUPPRESSED, bins[20, 29], "Female", MaskedText("12"), "Cancer"),
        (SUPPRESSED, bins[20, 29], "Male", MaskedText("12"), "No illness"),
        (SUPPRESSED, bins[20, 29], "Female", MaskedText("12"), "Diabetes"),
    )
    assert t2.records == expected
    assert k_anonymity(t2, QI) == 2
    assert l_diversity(t2, QI, "Diagnosis") == 1


def test_criterion_02_microaggregation_tables():
    t1 = fixture_table1()
    out = aggregate_groups(t1, ["Age"], GROUPS_BY_GENDER_AGE)
    assert out.column("Age") == AGGREGATED_AGES
    # the same means come out of the univariate path, group by group
    for members in GROUPS_BY_GENDER_AGE:
        sub = Dataset.from_records(t1.schema, tuple(t1.records[i] for i in members))
        agg = microaggregate_univariate(sub, "Age", len(members))
        assert set(agg.column("Age")) == {AGGREGATED_AGES[members[0]]}


def test_criterion_03_epsilon_infinity_worked_example():
    params = RapporParams(k=8, **PAPER_DEFAULTS)
    assert abs(epsilon_infinity(params) - 4.3945) < 1e-3
    b1 = BloomFilter.from_indices(8, [0, 1])
    b2 = BloomFilter.from_indices(8, [2, 3])
    oracle = exact_epsilon(prr_distribution(b1, params), prr_distribution(b2, params))
    assert abs(oracle - epsilon_infinity(params)) < 1e-9


def test_criterion_04_epsilon_one_oracle_arbitration():
    params = RapporParams(k=12, **PAPER_DEFAULTS)
    b1 = BloomFilter.from_indices(12, [0, 1])
    b2 = BloomFilter.from_indices(12, [2, 3])
    oracle = exact_epsilon(
        report_distribution(b1, params), report_distribution(b2, params)
    )
    formula = epsilon_one(params)
    assert abs(oracle - formula) < 1e-9
    # the published worked value does not match the published formula; the
    # enumeration oracle sides with the formula
    assert abs(formula - 1.5499) > 1e-3
    assert abs(formula - 1.0743) < 1e-3


def test_criterion_05_end_to_end_estimation():
    params = RapporParams(k=16, hash_seed=0, **PAPER_DEFAULTS)
    candidates = ["A", "B", "C", "D"]
    all_indices = [i for v in candidates for i in bloom_indices(v, params)]
    assert len(set(all_indices)) == len(all_indices)  # collision-free
    clients = 100_000
    counts = allocate_counts({"A": 0.5, "B": 0.3, "C": 0.2}, clients)
    reports = simulate_reports(counts, params, seed=424242)
    estimates = estimate_counts(reports, candidates, params)
    tolerance = 0.03 * clients  # three percentage points
    assert abs(estimates["A"] - 50_000) <= tolerance
    assert abs(estimates["B"] - 30_000) <= tolerance
    assert abs(estimates["C"] - 20_000) <= tolerance
    assert estimates["D"] <= tolerance  # never reported


def test_criterion_06_prr_memoization_and_marginals():
    params = RapporParams(k=8, **PAPER_DEFAULTS)
    filt = bloom_encode("chlamydia", params)
    set_bit = filt.set_indices[0]
    unset_bit = next(i for i in range(params.k) if i not in filt.set_indices)
    first = prr(filt, b"client-secret", "chlamydia", params)
    for _ in range(100):
        assert prr(filt, b"client-secret", "chlamydia", params).bits == first.bits

    q_star, p_star = lemma1(params)
    trials = 100_000
    rng = random.Random(20240817)
    ones = Counter()
    for i in range(trials):
        perm = prr(filt, client_secret(1, i), "chlamydia", params)
        report = irr(perm, params, rng)
        ones[1] += report.bits[set_bit]
        ones[0] += report.bits[unset_bit]
    assert abs(ones[1] / trials - q_star) <= 0.005
    assert abs(ones[0] / trials - p_star) <= 0.005


def test_criterion_07_secret_sum():
    for seed in range(50):
        assert run_secret_sum([1, 1, 0], rng=random.Random(seed)) == 2

    rng = random.Random(1701)
    for case in range(200):
        n = 2 + case % 5
        votes = [rng.randrange(0, 10) for _ in range(n)]
        got = run_secret_sum(votes, 101 if sum(votes) < 101 else 1009,
                             random.Random(rng.random()))
        assert got == sum(votes)  # oracle: ordinary summation

    # exhaustive share uniformity at P=7, n=3
    prime = 7
    for point in (1, 2, 3):
        per_secret = {}
        for secret in (0, 1):
            per_secret[secret] = Counter(
                evaluate([secret, c1, c2], point, prime)
                for c1, c2 in product(range(prime), repeat=2)
            )
            assert set(per_secret[secret].values()) == {prime}
        assert per_secret[0] == per_secret[1]


def _random_dataset(rng):
    schema = Schema(
        (
            Attribute("X", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
            Attribute("S", AttributeRole.SENSITIVE, Kind.TEXT),
        )
    )
    n = rng.randrange(2, 41)
    records = tuple(
        (rng.randrange(-100, 101), rng.choice("abcde")) for _ in range(n)
    )
    return Dataset.from_records(schema, records)


def test_criterion_08_transform_properties():
    rng = random.Random(5150)
    spec = NoiseSpec.symmetric(2)
    pooled_deltas = []
    for _ in range(500):
        ds = _random_dataset(rng)
        n = len(ds)
        column = ds.column("X")

        p = rng.randrange(1, 8)
        swapped = rank_swap(ds, "X", p, random.Random(rng.random()))
        after = swapped.column("X")
        assert Counter(after) == Counter(column)
        order = sorted(range(n), key=lambda i: column[i])
        sorted_vals = [column[i] for i in order]
        rank_of = {rec: r for r, rec in enumerate(order)}
        for rec in range(n):
            r = rank_of[rec]
            assert after[rec] in sorted_vals[max(0, r - p) : r + p + 1]

        exchanged = swap_values(ds, "S", rng.randrange(n // 2 + 1),
                                random.Random(rng.random()))
        assert Counter(exchanged.column("S")) == Counter(ds.column("S"))

        noisy = add_noise(ds, "X", spec, random.Random(rng.random()))
        deltas = [a - b for a, b in zip(noisy.column("X"), column)]
        assert all(d in spec.support() for d in deltas)
        pooled_deltas.extend(deltas)

        width = rng.randrange(1, 7)
        factor = rng.randrange(2, 5)
        fine = generalize(ds, [GeneralizationRule("X", NumericBins(width))])
        coarse = generalize(ds, [GeneralizationRule("X", NumericBins(width * factor))])
        assert k_anonymity(coarse, ["X"]) >= k_anonymity(fine, ["X"])

    sigma_of_mean = spec.stddev() / math.sqrt(len(pooled_deltas))
    mean = sum(pooled_deltas) / len(pooled_deltas)
    assert abs(mean) <= 3 * sigma_of_mean


def _brute_force_rules(transactions, min_support, min_certainty):
    items = sorted(transactions.items)
    n = len(transactions)
    sup_thr = Fraction(min_support)
    cert_thr = Fraction(min_certainty)

    def count(itemset):
        return sum(1 for t in transactions.transactions if itemset <= t)

    found = set()
    for size in range(2, len(items) + 1):
        for combo in combinations(items, size):
            whole = frozenset(combo)
            c_whole = count(whole)
            if c_whole * sup_thr.denominator < sup_thr.numerator * n:
                continue
            for r in range(1, size):
                for ante in combinations(combo, r):
                    a = frozenset(ante)
                    if c_whole * cert_thr.denominator >= cert_thr.numerator * count(a):
                        found.add((a, whole - a))
    return found


def test_criterion_09_association_rules_vs_brute_force():
    rng = random.Random(8086)
    for _ in range(100):
        universe = [f"i{j}" for j in range(rng.randrange(2, 11))]
        txs = [
            {item for item in universe if rng.random() < rng.uniform(0.2, 0.7)}
            for _ in range(rng.randrange(1, 31))
        ]
        ts = TransactionSet.from_iterables(txs, universe)
        mined = {
            (r.antecedent, r.consequent)
            for r in solid_rules(ts, 0.35, 0.60, max_itemset=len(universe) or 2)
        }
        assert mined == _brute_force_rules(ts, 0.35, 0.60)


def test_criterion_10_bloom_behavior():
    params = RapporParams(k=128, h=2, f=0.5, q=0.75, p=0.5)
    rng = random.Random(31415)
    for i in range(10_000):
        v = f"member-{i}-{rng.randrange(1 << 30)}"
        assert bloom_check(bloom_encode(v, params), v, params)

    inserted = [f"inserted-{i}" for i in range(20)]
    filt = bloom_encode(inserted, params)
    probes = 100_000
    hits = sum(
        bloom_check(filt, f"probe-{j}", params) for j in range(probes)
    )
    rate = hits / probes
    approx = (1 - math.exp(-params.h * 20 / params.k)) ** params.h
    assert approx / 2 <= rate <= approx * 2
