import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from privkit import smc
from privkit.errors import BadModulus, DuplicateX
from privkit.smc import (
    DEFAULT_MODULUS,
    evaluate,
    gen_polynomial,
    is_prime,
    lagrange_at,
    run_secret_sum,
    secret_sum_transcript,
)

P = 97


def test_is_prime():
    assert is_prime(2) and is_prime(7) and is_prime(97)
    assert is_prime(DEFAULT_MODULUS)
    assert not is_prime(1) and not is_prime(15) and not is_prime(2**31 - 3)


def test_gen_polynomial_constant_term():
    rng = random.Random(0)
    assert gen_polynomial(5, 0, P, rng) == [5]
    for seed in range(20):
        coeffs = gen_polynomial(42, 3, P, random.Random(seed))
        assert len(coeffs) == 4
        assert evaluate(coeffs, 0, P) == 42
    # three parties use a quadratic: degree 2, three coefficients
    assert len(gen_polynomial(1, 2, P, rng)) == 3


def test_evaluate():
    assert evaluate([9], 13, P) == 9
    assert evaluate([1, 1], 2, P) == 3
    assert evaluate([1, 2, 3], 2, P) == (1 + 4 + 12) % P


def test_lagrange_recovers_constant_term():
    coeffs = [17, 3, 88]  # known quadratic
    points = [(x, evaluate(coeffs, x, P)) for x in (1, 2, 3)]
    assert lagrange_at(points, 0, P) == 17


def test_lagrange_single_point():
    assert lagrange_at([(4, 29)], 4, P) == 29


def test_lagrange_duplicate_x():
    with pytest.raises(DuplicateX):
        lagrange_at([(1, 2), (1, 3)], 0, P)


@given(
    st.integers(0, 10006),
    st.lists(st.integers(0, 10006), min_size=0, max_size=4),
    st.integers(0, 10006),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lagrange_interpolation_round_trip(secret, higher, target, data):
    prime = 10007
    coeffs = [secret] + higher
    degree = len(coeffs) - 1
    xs = data.draw(
        st.lists(
            st.integers(1, prime - 1),
            min_size=degree + 1,
            max_size=degree + 3,
            unique=True,
        )
    )
    points = [(x, evaluate(coeffs, x, prime)) for x in xs]
    assert lagrange_at(points, target, prime) == evaluate(coeffs, target, prime)


def test_vaccination_vote_many_seeds():
    for seed in range(50):
        assert run_secret_sum([1, 1, 0], rng=random.Random(seed)) == 2


def test_all_zero_votes():
    for seed in range(10):
        assert run_secret_sum([0, 0, 0, 0], rng=random.Random(seed)) == 0


def test_secret_sum_matches_plain_sum():
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randrange(2, 7)
        votes = [rng.randrange(10) for _ in range(n)]
        assert run_secret_sum(votes, 101, random.Random(rng.random())) == sum(votes)


def test_transcript_structure():
    t = secret_sum_transcript([1, 1, 0], P, random.Random(9))
    assert t.total == 2
    assert len(t.shares) == 3 and all(len(row) == 3 for row in t.shares)
    for j in range(3):
        assert t.aggregated[j] == sum(t.shares[i][j] for i in range(3)) % P
    # reconstruction from the aggregated points only
    points = [(j + 1, t.aggregated[j]) for j in range(3)]
    assert lagrange_at(points, 0, P) == 2


def test_modulus_validation():
    with pytest.raises(BadModulus):
        run_secret_sum([1, 1], 15, random.Random(0))  # composite
    with pytest.raises(BadModulus):
        run_secret_sum([3, 4], 7, random.Random(0))  # sum reaches modulus
    with pytest.raises(ValueError):
        run_secret_sum([1], 7, random.Random(0))  # one party is no protocol
    with pytest.raises(ValueError):
        run_secret_sum([-1, 2], 7, random.Random(0))


def test_share_distribution_independent_of_secret():
    # exhaustive at P=7, n=3: over all coefficient choices, any single
    # outgoing share is uniform on the field and identical for secrets 0 and 1
    prime = 7
    for point in (1, 2, 3):
        histograms = {}
        for secret in (0, 1):
            counts = Counter(
                evaluate([secret, c1, c2], point, prime)
                for c1, c2 in product(range(prime), repeat=2)
            )
            histograms[secret] = counts
            assert set(counts.values()) == {prime}  # uniform: 49/7 each
        assert histograms[0] == histograms[1]


def test_two_shares_reveal_nothing_about_the_secret():
    # n-1 = 2 shares of a degree-2 polynomial are consistent with every secret
    prime = 7
    consistent = {}
    for secret, c1, c2 in product(range(prime), repeat=3):
        poly = [secret, c1, c2]
        pair = (evaluate(poly, 1, prime), evaluate(poly, 2, prime))
        consistent.setdefault(pair, set()).add(secret)
    assert all(secrets == set(range(prime)) for secrets in consistent.values())


def test_default_rng_is_not_a_seedable_mersenne_twister(monkeypatch):
    def mersenne(*args, **kwargs):
        raise AssertionError("shares drawn from random.Random")

    monkeypatch.setattr(smc.random, "Random", mersenne)
    assert run_secret_sum([3, 0, 4]) == 7
