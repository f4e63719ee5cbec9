import functools
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


# Smallest strong pseudoprimes to the first 12 and 13 prime bases, as products
# of two factors (Sorenson & Webster, Math. Comp. 86, 2017).
PSI_12 = (399165290221, 798330580441)
PSI_13 = (1287836182261, 2575672364521)


@pytest.mark.parametrize("factors", [
    PSI_12,
    (151 * 751, 28351),  # strong pseudoprime to bases 2, 3, 5, 7
    (149491 * 747451, 34233211),  # strong pseudoprime to bases 2 through 31
    (2**31 - 1, 2**61 - 1),
    (1000000007, 998244353),
    (999999999989, 1000000000039),
], ids=str)
def test_is_prime_rejects_products(factors):
    a, b = factors
    assert a > 1 and b > 1
    assert not is_prime(a * b)


def test_is_prime_beyond_its_exact_range():
    # psi_13 is the first composite the 13 bases accept, which is why larger
    # moduli are only probable primes
    assert is_prime(PSI_13[0] * PSI_13[1])
    assert all(is_prime(2**e - 1) for e in (61, 89, 107, 127))


def test_secret_sum_rejects_psi_12_modulus():
    with pytest.raises(BadModulus):
        run_secret_sum([1, 0], PSI_12[0] * PSI_12[1], random.Random(0))


def test_gen_polynomial_constant_term():
    rng = random.Random(0)
    assert gen_polynomial(5, 0, P, rng) == [5]
    for seed in range(20):
        coeffs = gen_polynomial(42, 3, P, random.Random(seed))
        assert len(coeffs) == 4
        assert evaluate(coeffs, 0, P) == 42
    # three parties use a quadratic: degree 2, three coefficients
    assert len(gen_polynomial(1, 2, P, rng)) == 3
    with pytest.raises(ValueError, match="^degree must be >= 0, got -1$"):
        gen_polynomial(1, -1, P, rng)


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
    with pytest.raises(ValueError, match="^need at least one interpolation point$"):
        lagrange_at([], 4, P)


def test_lagrange_duplicate_x():
    with pytest.raises(DuplicateX):
        lagrange_at([(1, 2), (1, 3)], 0, P)


@pytest.mark.parametrize("points,target,modulus,error,message", [
    ([(1, 2)], 0, 0, BadModulus, "modulus 0 is not prime"),
    ([(1, 2)], 0, 1.5, BadModulus, "modulus must be an integer, got 1.5"),
    ([(1, 2)], 0, 15, BadModulus, "modulus 15 is not prime"),
    ([(1, 2)], 0, True, BadModulus, "modulus must be an integer, got True"),
    ([(1, 2)], None, P, ValueError, "target must be an integer, got None"),
    ([(1, 2)], 0.5, P, ValueError, "target must be an integer, got 0.5"),
    ([(None, 2)], 0, P, ValueError, "points must hold integers, got x=None, y=2"),
    ([(1, 2), (3, "4")], 0, P, ValueError, "points must hold integers, got x=3, y='4'"),
    (5, 0, P, ValueError, "points must be a collection of (x, y) pairs, got 5"),
    (None, 0, P, ValueError, "points must be a collection of (x, y) pairs, got None"),
    ([(1, 2, 3)], 0, P, ValueError, "points must be a collection of (x, y) pairs, got [(1, 2, 3)]"),
], ids=["modulus-0", "modulus-float", "modulus-composite", "modulus-bool", "target-none",
        "target-float", "x-none", "y-str", "points-int", "points-none", "points-triple"])
def test_lagrange_arguments_named_when_rejected(points, target, modulus, error, message):
    # at the parent: ZeroDivisionError, pow()'s TypeError, a wrong value for a
    # composite modulus, and bare TypeErrors
    with pytest.raises(error) as info:
        lagrange_at(points, target, modulus)
    assert type(info.value) is error and str(info.value) == message


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


def _quadratic_lagrange(points, target, modulus):
    """lagrange_at's O(n^2) loop over every pair of points, verbatim, as it
    ran for every input before runs of consecutive x took a closed form."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = num * (target - xj) % modulus
            den = den * (xi - xj) % modulus
        total = (total + yi * num * pow(den, modulus - 2, modulus)) % modulus
    return total


_PRIMES = [2, 3, 5, 7, 11, 97, 65537, DEFAULT_MODULUS, 2**61 - 1, 2**127 - 1]


@given(st.sampled_from(_PRIMES), st.integers(-10**6, 10**6), st.integers(-10**40, 10**40),
       st.booleans(), st.data())
@example(DEFAULT_MODULUS, 1, 0, False, None)  # the secret sum of 120 parties
@example(7, 5, 0, False, None)  # 5..11 reduce to 5, 6, 0..4: no run
@example(7, -7, 3, False, None)  # -7..-1 reduce to 0..6: the whole field
@example(2**127 - 1, -3, -1, False, None)  # a run through 0 from negative x
@settings(max_examples=200, deadline=None)
def test_lagrange_at_equals_the_quadratic_loop(modulus, offset, target, reverse, data):
    if data is None:  # an explicit example: 120 points, or as many as the field holds
        n, ys = min(modulus, 120), [(7 * i * i + 3) % modulus for i in range(120)]
    else:
        n = data.draw(st.integers(1, min(modulus, 60)), label="n")
        ys = data.draw(st.lists(st.integers(-10**40, 10**40), min_size=n, max_size=n),
                       label="ys")
    points = [(offset + i, y) for i, y in zip(range(n), ys)]
    if reverse:  # not ascending: the loop
        points.reverse()
    assume(len({x % modulus for x, _ in points}) == n)
    assert lagrange_at(points, target, modulus) == _quadratic_lagrange(points, target, modulus)


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


class NoDraws(random.Random):
    def randrange(self, *args, **kwargs):
        raise AssertionError("a share was drawn")


@pytest.mark.parametrize("vote", [1.5, True, "1"], ids=repr)
def test_votes_must_be_integers(vote):
    # 1.5 used to be truncated to 1 by the int64 share table, and summed to 2
    with pytest.raises(ValueError, match=r"^votes must be integers in \[0, modulus\)$"):
        secret_sum_transcript([vote, 1, 0], DEFAULT_MODULUS, NoDraws())


@pytest.mark.parametrize("modulus", [7.0, True], ids=repr)
def test_modulus_must_be_an_integer(modulus):
    with pytest.raises(BadModulus, match="^modulus must be an integer, got "):
        secret_sum_transcript([1, 0], modulus, NoDraws())


@pytest.mark.parametrize("n", range(2, 7))
def test_modulus_must_exceed_the_party_count(n):
    # with p <= n, party p's point is 0 mod p: every share sent there is a vote
    for p in (q for q in range(2, n + 1) if is_prime(q)):
        with pytest.raises(BadModulus, match="number of parties"):
            secret_sum_transcript([0] * n, p, NoDraws())


def test_point_zero_mod_p_evaluates_to_the_constant_term():
    rng = random.Random(8)
    for p in (2, 3, 5, 7, 2**31 - 1):
        for _ in range(50):
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
            for x in (p, 2 * p, 5 * p):
                assert evaluate(coeffs, x, p) == coeffs[0]


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


def _largest_int64_prime(n):
    """The largest prime m with (m - 1) * n + m < 2**63, the last modulus at
    which a Horner step on n points stays within a signed 64-bit integer."""
    m = (2**63 + n - 1) // (n + 1)
    while not is_prime(m):
        m -= 1
    return m


def _next_prime(m):
    m += 1
    while not is_prime(m):
        m += 1
    return m


@functools.lru_cache(maxsize=None)
def _moduli(n):
    edge = _largest_int64_prime(n)
    return [7919, DEFAULT_MODULUS, edge, _next_prime(edge), 2**61 - 1, 2**127 - 1]


def scalar_shares(votes, modulus, seed):
    rng = random.Random(seed)
    n = len(votes)
    polys = [gen_polynomial(v, n - 1, modulus, rng) for v in votes]
    return tuple(
        tuple(evaluate(p, j, modulus) for j in range(1, n + 1)) for p in polys
    )


@given(
    n=st.integers(2, 60),
    which=st.integers(0, 5),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@example(n=2, which=2, seed=0, data=None)
@example(n=2, which=3, seed=0, data=None)
@example(n=120, which=2, seed=1, data=None)
@example(n=120, which=3, seed=1, data=None)
@settings(max_examples=40, deadline=None)
def test_share_table_equals_scalar_evaluation(n, which, seed, data):
    modulus = _moduli(n)[which]
    votes = [1] * n if data is None else data.draw(
        st.lists(st.integers(0, 50), min_size=n, max_size=n))
    t = secret_sum_transcript(votes, modulus, random.Random(seed))
    assert t.shares == scalar_shares(votes, modulus, seed)
    assert all(type(share) is int for row in t.shares for share in row)
    assert t.total == sum(votes)


def _largest_prime_below(m):
    m -= 1
    while not is_prime(m):
        m -= 1
    return m


@pytest.mark.parametrize("modulus", [
    _largest_prime_below(2**29), _largest_prime_below(2**31), _largest_prime_below(2**61),
    _largest_prime_below(2**64), 2**127 - 1,
], ids=lambda m: f"{m.bit_length()}-bit")
@pytest.mark.parametrize("n", [2, 127, 255])
def test_share_table_lanes_hold_the_largest_sums(n, modulus):
    # with every coefficient m - 1 the lane sums come closest to their bound
    # n * (m - 1)**2, so a lane too narrow for that bound carries into the next
    polys = [[modulus - 1] * n] * n
    expected = tuple(evaluate(polys[0], x, modulus) for x in range(1, n + 1))
    assert smc._share_table(polys, modulus) == (expected,) * n


@pytest.mark.parametrize("votes", [None, 5, "12", b"\x01\x02", iter([1, 2])],
                         ids=["none", "int", "str", "bytes", "iterator"])
@pytest.mark.parametrize("run", [secret_sum_transcript, run_secret_sum])
def test_votes_that_are_not_a_collection_are_named(run, votes):
    # None and 5 once raised a bare "object of type 'NoneType' has no len()",
    # and bytes were read as their byte values
    with pytest.raises(ValueError) as info:
        run(votes)
    assert type(info.value) is ValueError
    assert str(info.value) == f"votes must be a collection of integers, got {votes!r}"
