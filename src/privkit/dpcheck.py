"""Exact differential-privacy oracle for small bit-vector mechanisms.

The randomized-response stages treat bits independently, so the full output
distribution over k-bit patterns is a product measure that can be enumerated
exactly for small k. The tight privacy parameter between two inputs is then
the largest absolute log-ratio of outcome probabilities, which is what the
privacy definition bounds. Probabilities live in log space to stay exact-ish
at the enumeration cap. A distribution given as raw log-probabilities is
checked when it is built; one built from its k bit probabilities is checked
through those k factors, and its 2^k outcomes are valid by construction.

Between two such product distributions, ``exact_epsilon`` returns the float
that enumerating every outcome gives, but computes it over only the outcomes
that can attain it: those whose differing bits all take the value that
pushes the log-ratio up, or all the value that pushes it down. Any other
outcome's exact log-ratio lies inside by at least the smallest per-bit gap
g, while rounding moves each enumerated value by at most about
2 * (k + 1) * 2**-53 times the terms' magnitude, so the shortcut runs only
when g exceeds 1e-9 of that magnitude. With a zero-mass bit, a smaller gap,
or a distribution given as raw log-probabilities, all 2^k outcomes are
enumerated.

The cap is 2^20 outcomes; larger filters are rejected rather than
approximated, because an approximate oracle cannot arbitrate closed forms.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Sequence

from ._value import _check_int, _is_collection
from .errors import FilterTooLarge, SpaceMismatch
from .rappor import BloomFilter, RapporParams, _check_length, _marginal_terms, _total

ENUMERATION_CAP = 20


def check_enumerable(k: int) -> None:
    """Raise FilterTooLarge if 2^k outcomes are past the enumeration cap."""
    if k > ENUMERATION_CAP:
        raise FilterTooLarge(f"k={k} exceeds the exact enumeration cap of {ENUMERATION_CAP}")


class MechanismDistribution:
    """Exact distribution over all 2^k outcome bit patterns.

    Outcome ``o`` is the integer whose bit i equals output bit i.
    ``log_probs`` is a tuple of its 2^k log-probabilities; exactly-zero mass
    is -inf. NaN and +inf are rejected, and so is a total other than 1.

    A product distribution (``product_of_bits``, ``prr_distribution``,
    ``report_distribution``) keeps its k bit terms and builds ``log_probs``
    only when it is first read, so ``exact_epsilon`` between two such
    distributions can search only the outcomes that can attain its maximum,
    without the 2^k tuple (its docstring says when it must enumerate them
    all).
    """

    # The (ln P(bit = 0), ln P(bit = 1)) term pair of each bit, when the
    # distribution is a product of independent bits; else None.
    _terms: tuple[tuple[float, float], ...] | None = None

    def __init__(self, k: int, log_probs: Sequence[float]):
        _check_int("k", k)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if not _is_collection(log_probs):
            raise ValueError(f"log_probs must be a sequence of floats, got {log_probs!r}")
        log_probs = tuple(map(float, log_probs))
        n = len(log_probs)
        if n.bit_length() != k + 1 or n != 1 << k:  # the first test keeps a huge k from shifting
            raise SpaceMismatch(f"log_probs has {n} entries, expected 2^{k}")
        # The checks and the sum iterate in C: 2^k entries, k up to 20.
        if math.inf in log_probs or any(map(math.isnan, log_probs)):
            raise ValueError("log-probabilities must be finite or -inf")
        m = max(log_probs)
        if m == -math.inf:
            total = -math.inf
        else:
            total = m + math.log(math.fsum(map(math.exp, map(operator.sub, log_probs, repeat(m)))))
        # total > 1 first: expm1 overflows above about 709
        if total > 1.0 or abs(math.expm1(total)) > 1e-9:
            raise ValueError(f"probabilities sum to exp({total}), not 1")
        self.k = k
        self.log_probs = log_probs

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        # Reached only by a product distribution: __init__ sets the
        # attribute, which shadows this descriptor.
        return tuple(_fold(self._terms))

    def prob(self, outcome: int) -> float:
        return math.exp(self.log_probs[outcome])

    def as_dict(self) -> dict[int, float]:
        return {o: self.prob(o) for o in range(1 << self.k)}

    @classmethod
    def product_of_bits(cls, p_one: Sequence[float]) -> "MechanismDistribution":
        """Joint distribution of independent bits with P(bit i = 1) = p_one[i].

        Each p must satisfy 0 <= p <= 1; any other factor, NaN or a string
        among them, raises ValueError naming its bit and value. The k factors
        are the only input, so the 2^k log-probabilities are not checked
        again: the invariant ``__init__`` checks holds by construction.

        - ``lo`` and ``hi`` lie in [-inf, 0], so no sum of them is NaN or +inf.
        - The most likely outcome sums each bit's larger term, which is at
          least ln(1/2), so it is finite.
        - Each outcome adds k rounded terms, so the total's error is about
          k*eps*(1+H) for the distribution's entropy H in nats, far below
          ``__init__``'s tolerance of 1e-9.

        The distribution keeps the k term pairs; ``log_probs`` folds them
        when it is first read.
        """
        if isinstance(p_one, (str, bytes)) or not hasattr(p_one, "__len__"):
            raise ValueError(f"p_one must be a sequence of probabilities, got {p_one!r}")
        k = len(p_one)
        check_enumerable(k)
        for i, p in enumerate(p_one):
            try:
                valid = 0.0 <= p <= 1.0 and not isinstance(p, bool)  # False for NaN
            except TypeError:
                valid = False
            if not valid:
                raise ValueError(f"probability of bit {i} must be in [0, 1], got {p!r}")
        return cls._from_terms([(_ln(1.0 - p), _ln(p)) for p in p_one])

    @classmethod
    def _from_terms(cls, terms: Sequence[tuple[float, float]]) -> "MechanismDistribution":
        """The product of independent bits whose (ln P(bit = 0), ln P(bit =
        1)) pairs are ``terms``, unchecked: each caller builds them from
        checked probabilities."""
        dist = cls.__new__(cls)
        dist.k = len(terms)
        dist._terms = tuple(terms)
        return dist


def _ln(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _ln_total(products: list) -> float:
    """ln of a sum of products of factors in [0, 1] (``_marginal_terms``):
    the log of the float sum where that sum is a normal float, so a sum of
    dyadic factors is taken exactly, and else summed from the factors' logs,
    where no product loses digits to underflow."""
    total = _total(products)
    if total >= sys.float_info.min:
        return math.log(total)
    logs = [math.fsum(map(_ln, factors)) for factors in products]
    top = max(logs)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _fold(terms: Sequence[Sequence[float]]) -> list[float]:
    """Each outcome's log-probability: its bits' terms summed left to right,
    bit 0 first, from 0.0. Bit i offers the terms in ``terms[i]``: both of a
    (lo, hi) pair, doubling the outcomes with bit i clear then set, or one
    term, pinning the bit."""
    log_probs = [0.0]
    for choices in terms:
        log_probs = [x + t for t in choices for x in log_probs]
    return log_probs


def prr_distribution(
    bloom: BloomFilter, params: RapporParams
) -> MechanismDistribution:
    """Exact distribution of the permanent response for a given true filter:
    per bit, P(1) = 1 - f/2 where the filter bit is set and f/2 elsewhere."""
    flip, keep = _ln_total([(0.5, params.f)]), math.log(1.0 - params.f / 2.0)
    return _bitwise(bloom, params, (flip, keep), (keep, flip))


def report_distribution(
    bloom: BloomFilter, params: RapporParams
) -> MechanismDistribution:
    """Exact distribution of a sent report for a given true filter: per bit,
    P(1) = q* where the filter bit is set and p* elsewhere."""
    ln_q, ln_not_q, ln_p, ln_not_p = map(_ln_total, _marginal_terms(params))
    return _bitwise(bloom, params, (ln_not_q, ln_q), (ln_not_p, ln_p))


def _bitwise(bloom: BloomFilter, params: RapporParams, set_terms: tuple[float, float],
             unset_terms: tuple[float, float]) -> MechanismDistribution:
    """The product distribution whose bit i has the terms ``set_terms``
    where bit i of the filter is set and ``unset_terms`` elsewhere."""
    _check_length("filter", bloom.bits, params, SpaceMismatch)
    check_enumerable(params.k)
    return MechanismDistribution._from_terms([set_terms if b else unset_terms for b in bloom.bits])


def exact_epsilon(
    d1: MechanismDistribution, d2: MechanismDistribution
) -> float:
    """Tight privacy parameter: max over outcomes of |ln(P1(o)/P2(o))|.

    Outcomes with zero mass on both sides are ignored; an outcome with zero
    mass on exactly one side makes every finite bound fail, reported as
    +infinity.

    The result is the float that enumerating all 2^k outcomes gives, bit for
    bit. When both are product distributions it is found among only the
    outcomes that can attain it (``_attaining_outcomes``); otherwise, or
    when that search cannot be shown exact, all 2^k outcomes are
    enumerated.
    """
    if d1.k != d2.k:
        raise SpaceMismatch(f"outcome spaces differ: k={d1.k} vs k={d2.k}")
    folds = None
    if d1._terms is not None and d2._terms is not None:
        folds = _attaining_outcomes(d1._terms, d2._terms)
    if folds is None:
        folds = ((d1.log_probs, d2.log_probs),)
    # Skipping equal pairs skips zero mass on both sides (-inf - -inf is NaN);
    # zero mass on one side gives abs(-inf - x) = inf.
    return max(
        (abs(a - b) for l1, l2 in folds for a, b in zip(l1, l2) if a != b), default=0.0
    )


# The smallest gap, relative to the terms' magnitude, that lets
# _attaining_outcomes skip outcomes. Rounding moves each enumerated
# difference by at most about 2 * (k + 1) * 2**-53 of that magnitude, below
# 5e-15 for k <= 20, so 1e-9 leaves a factor of 10^5 to spare.
_MARGIN = 1e-9


def _attaining_outcomes(
    terms1: Sequence[tuple[float, float]], terms2: Sequence[tuple[float, float]]
) -> Iterable[tuple[list[float], list[float]]] | None:
    """The outcomes of two product distributions that can attain the largest
    rounded |L1(o) - L2(o)|, as pairs of log-probability lists in matching
    outcome order; None when that set cannot be shown to hold it.

    Let V be the bits whose term pairs differ and d_i(b) = t1_i(b) - t2_i(b),
    as exact reals. The exact difference D(o) is the sum of d_i(o_i) over V,
    so it is largest (D+) only where every V-bit takes the argmax of its d_i,
    and smallest (D-) only on the opposite pattern. Every other outcome lies
    at least g = min over V of |d_i(0) - d_i(1)| inside [D-, D+], while each
    rounded fold and difference is within about 2 * (k + 1) * 2**-53 * (T1 +
    T2) of the exact value, where T sums each bit's larger |term|. So when g
    is above ``_MARGIN * (T1 + T2)`` no other outcome can reach the largest
    rounded |L1 - L2|, which is then the largest over the two patterns. Each
    pattern's outcomes fold the pinned terms at their own positions, so every
    value is the one full enumeration computes.

    A -inf term (zero mass), or a g that is too small, returns None.
    """
    differing = [i for i, pair in enumerate(terms1) if pair != terms2[i]]
    if not differing:
        return ()  # every outcome has equal log-probabilities on both sides
    if -math.inf in chain.from_iterable(terms1 + terms2):
        return None
    scale = math.fsum(-min(pair) for pair in terms1 + terms2)
    high = {}  # bit -> the value that maximizes d_i
    for i in differing:
        (lo1, hi1), (lo2, hi2) = terms1[i], terms2[i]
        gap = math.fsum((lo1, -lo2, -hi1, hi2))  # d_i(0) - d_i(1), correctly rounded
        if not abs(gap) > _MARGIN * scale:
            return None
        high[i] = 0 if gap > 0 else 1
    return (
        tuple(_fold([(pair[high[i] ^ flip],) if i in high else pair
                     for i, pair in enumerate(terms)]) for terms in (terms1, terms2))
        for flip in (0, 1)
    )

