"""Secret summation by polynomial shares and Lagrange reconstruction.

Each of n parties hides its vote as the constant term of a random
degree-(n-1) polynomial, evaluates it at the fixed points 1..n, and sends
one evaluation to every peer. Each party sums what it received; the sums are
n points of the summed polynomial, whose value at 0 is the vote total.

Arithmetic runs over a prime field so that the interpolation coefficients
are exact and every share is uniformly distributed whatever the secret. The
protocol is simulated in-process with a synchronous share table; parties are
assumed honest.

The share table is exact for every modulus, in Python integers. For each
degree d, the powers x**d mod the modulus at the points x = 1..n are packed
into one integer, a fixed number of bytes per point (Kronecker
substitution). A party's row of shares is then one sum of coefficient times
packed powers, cut back into its lanes and reduced. The scalar ``evaluate``
is the reference the table is tested against.
"""

from __future__ import annotations

import random
from collections.abc import Collection
from typing import Sequence

from ._value import Frozen, _check_int, _is_collection, _is_int
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
    The modulus must be prime, and the target and each point's x and y
    integers. Points whose x values, reduced, run a, a+1, ..., as the
    protocol's 1..n do, take a closed form in O(n) (``_lagrange_run``);
    any others a loop over every pair of points.
    """
    _check_modulus(modulus)
    _check_int("target", target, ValueError)
    # an error raised while iterating a collection is the caller's own; one
    # unpacking a point, or iterating None, is a point that is not a pair
    pairs = list(points) if _is_collection(points) else None
    try:
        pairs = [(x, y) for x, y in pairs]
    except (TypeError, ValueError):
        raise ValueError(f"points must be a collection of (x, y) pairs, got {points!r}") from None
    if not pairs:
        raise ValueError("need at least one interpolation point")
    for x, y in pairs:
        if not _is_int(x) or not _is_int(y):
            raise ValueError(f"points must hold integers, got x={x!r}, y={y!r}")
    xs = [x % modulus for x, _ in pairs]
    if len(set(xs)) != len(xs):
        raise DuplicateX(f"interpolation points share an x coordinate: {xs}")
    if xs == list(range(xs[0], xs[0] + len(xs))):
        return _lagrange_run(xs[0], [y for _, y in pairs], target, modulus)
    total = 0
    for i, (xi, yi) in enumerate(pairs):
        num, den = 1, 1
        for j, (xj, _) in enumerate(pairs):
            if j == i:
                continue
            num = num * (target - xj) % modulus
            den = den * (xi - xj) % modulus
        total = (total + yi * num * pow(den, modulus - 2, modulus)) % modulus
    return total


def _lagrange_run(a: int, ys: Sequence[int], target: int, modulus: int) -> int:
    """``lagrange_at`` in O(n) through the points x_i = a + i, i < n, where
    a + n - 1 < modulus. The denominator of basis i is the product of
    (i - j) over j != i, which is (-1)**(n-1-i) * i! * (n-1-i)!: one
    modular inverse, of (n-1)!, gives the inverse of every factorial. Its
    numerator is the product of (target - x_j) over j != i, a prefix
    product times a suffix product."""
    n = len(ys)
    last = 1  # (n-1)!
    for i in range(2, n):
        last = last * i % modulus
    inverse = [1] * n  # inverse[i] = 1 / i!; each i! is nonzero as i < modulus
    inverse[-1] = pow(last, modulus - 2, modulus)
    for i in range(n - 1, 0, -1):
        inverse[i - 1] = inverse[i] * i % modulus
    terms = [(target - a - i) % modulus for i in range(n)]
    suffix = [1] * (n + 1)  # suffix[i] = the product of terms[i:]
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * terms[i] % modulus
    total, prefix = 0, 1  # prefix: the product of terms[:i]
    for i, y in enumerate(ys):
        basis = prefix * suffix[i + 1] % modulus * inverse[i] * inverse[n - 1 - i]
        total = (total + (-y if (n - 1 - i) % 2 else y) * basis) % modulus
        prefix = prefix * terms[i] % modulus
    return total


class SecretSumTranscript(Frozen):
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
    if isinstance(votes, (str, bytes)) or not isinstance(votes, Collection):
        raise ValueError(f"votes must be a collection of integers, got {votes!r}")
    n = len(votes)
    if n < 2:
        raise ValueError(f"need at least 2 parties, got {n}")
    _check_modulus(modulus)
    if modulus <= n:
        # party p's point p is 0 mod p, where each polynomial evaluates to
        # its vote; with more parties than p, two points also coincide
        raise BadModulus(f"modulus {modulus} must exceed the number of parties {n}")
    if any(not _is_int(v) or not 0 <= v < modulus for v in votes):
        raise ValueError("votes must be integers in [0, modulus)")
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


def _check_modulus(modulus) -> None:
    _check_int("modulus", modulus, BadModulus)
    if not is_prime(modulus):
        raise BadModulus(f"modulus {modulus} is not prime")


def _share_table(
    polys: Sequence[Sequence[int]], modulus: int
) -> tuple[tuple[int, ...], ...]:
    """Row i holds polynomial i evaluated at the points 1..n, n = len(polys);
    every polynomial has n coefficients in [0, modulus).

    lanes[d] packs x**d % modulus for x = 1..n into one integer, w bytes per
    point, little-endian. Each w-byte lane of a row's sum is below
    n * (modulus - 1)**2 < 2**(8 * w), so no carry crosses into the next.
    """
    n = len(polys)
    w = (2 * (modulus - 1).bit_length() + n.bit_length() + 7) // 8
    lanes, powers = [], [1] * n
    for _ in range(n):
        lanes.append(int.from_bytes(b"".join(p.to_bytes(w, "little") for p in powers), "little"))
        powers = [p * x % modulus for x, p in enumerate(powers, 1)]
    rows = (sum(c * lane for c, lane in zip(poly, lanes)).to_bytes(n * w, "little")
            for poly in polys)
    return tuple(tuple(int.from_bytes(row[j:j + w], "little") % modulus
                       for j in range(0, n * w, w)) for row in rows)


def run_secret_sum(
    votes: Sequence[int],
    modulus: int = DEFAULT_MODULUS,
    rng: random.Random | None = None,
) -> int:
    """Sum the votes without any party revealing its own."""
    return secret_sum_transcript(votes, modulus, rng).total
