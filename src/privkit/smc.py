"""Secret summation by polynomial shares and Lagrange reconstruction.

Each of n parties hides its vote as the constant term of a random
degree-(n-1) polynomial, evaluates it at the fixed points 1..n, and sends
one evaluation to every peer. Each party sums what it received; the sums are
n points of the summed polynomial, whose value at 0 is the vote total.

Arithmetic runs over a prime field so that the interpolation coefficients
are exact and every share is uniformly distributed whatever the secret. The
protocol is simulated in-process with a synchronous share table; parties are
assumed honest.

The share table has two paths with equal results. While
``(modulus - 1) * n + modulus < 2**63`` no Horner step can overflow a signed
64-bit integer, so numpy evaluates all n polynomials at all n points at once,
one degree at a time. Above that bound (say, the Mersenne prime 2**127 - 1)
each share comes from the scalar ``evaluate``, in Python integers; that loop
is also the reference the array path is tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import BadModulus, DuplicateX

DEFAULT_MODULUS = 2**31 - 1

# The first 13 primes. No odd composite below psi_13 = 3317044064679887385961981
# is a strong pseudoprime to all of them (Sorenson & Webster, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41: exact for n < 3.3e24.

    A larger n that passes is only a strong probable prime to those 13
    bases. Mersenne primes such as 2**127 - 1 are accepted.
    """
    if n < 2:
        return False
    for small in _WITNESSES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_polynomial(
    secret: int, degree: int, modulus: int, rng: random.Random
) -> list[int]:
    """Coefficients [c0..c_degree] with c0 = secret and the rest uniform."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return [secret % modulus] + [rng.randrange(modulus) for _ in range(degree)]


def evaluate(coeffs: Sequence[int], x: int, modulus: int) -> int:
    """Horner evaluation of the polynomial at x, mod the field modulus."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def lagrange_at(
    points: Sequence[tuple[int, int]], target: int, modulus: int
) -> int:
    """Interpolate through the points and evaluate at target, mod modulus.

    Exact whenever the underlying polynomial has degree < len(points).
    """
    if not points:
        raise ValueError("need at least one interpolation point")
    xs = [x % modulus for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateX(f"interpolation points share an x coordinate: {xs}")
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


@dataclass(frozen=True)
class SecretSumTranscript:
    """Everything exchanged during one protocol run, for inspection."""

    modulus: int
    votes: tuple[int, ...]
    # shares[i][j] = party i's polynomial evaluated at party j's point (j+1)
    shares: tuple[tuple[int, ...], ...]
    # aggregated[j] = sum of column j = the summed polynomial at point j+1
    aggregated: tuple[int, ...]
    total: int


def secret_sum_transcript(
    votes: Sequence[int],
    modulus: int = DEFAULT_MODULUS,
    rng: random.Random | None = None,
) -> SecretSumTranscript:
    """Run the full protocol among len(votes) simulated parties.

    Shares are drawn from ``rng`` when given (for reproducible runs), else
    from the operating system's cryptographic source.
    """
    n = len(votes)
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    if not is_prime(modulus):
        raise BadModulus(f"{modulus} is not prime")
    if modulus <= n:
        # party p's point p is 0 mod p, where each polynomial evaluates to
        # its vote; with more parties than p, two points also coincide
        raise BadModulus(f"modulus {modulus} must exceed the number of parties {n}")
    if any(v < 0 or v >= modulus for v in votes):
        raise ValueError("votes must lie in [0, modulus)")
    if sum(votes) >= modulus:
        raise BadModulus(
            f"modulus {modulus} does not exceed the reachable sum {sum(votes)}"
        )
    if rng is None:
        rng = random.SystemRandom()
    polys = [gen_polynomial(v, n - 1, modulus, rng) for v in votes]
    shares = _share_table(polys, modulus)
    aggregated = tuple(sum(column) % modulus for column in zip(*shares))
    points = [(j + 1, aggregated[j]) for j in range(n)]
    total = lagrange_at(points, 0, modulus)
    return SecretSumTranscript(modulus, tuple(votes), shares, aggregated, total)


def _share_table(
    polys: Sequence[Sequence[int]], modulus: int
) -> tuple[tuple[int, ...], ...]:
    """Row i holds polynomial i evaluated at the points 1..n, n = len(polys);
    every polynomial has n coefficients."""
    n = len(polys)
    if (modulus - 1) * n + modulus >= 2**63:
        return tuple(
            tuple(evaluate(poly, j, modulus) for j in range(1, n + 1))
            for poly in polys
        )
    import numpy as np

    coeffs = np.array(polys, dtype=np.int64)
    xs = np.arange(1, n + 1, dtype=np.int64)
    acc = np.zeros((n, n), dtype=np.int64)
    for d in range(n - 1, -1, -1):
        acc = (acc * xs + coeffs[:, d, None]) % modulus
    return tuple(map(tuple, acc.tolist()))


def run_secret_sum(
    votes: Sequence[int],
    modulus: int = DEFAULT_MODULUS,
    rng: random.Random | None = None,
) -> int:
    """Sum the votes without any party revealing its own."""
    return secret_sum_transcript(votes, modulus, rng).total
