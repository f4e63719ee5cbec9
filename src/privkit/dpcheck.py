"""Exact differential-privacy oracle for small bit-vector mechanisms.

The randomized-response stages treat bits independently, so the output
distribution over k-bit patterns is a product measure. The tight privacy
parameter between two inputs is the largest absolute log-ratio of outcome
probabilities, which is what the privacy definition bounds. Probabilities
live in log space. A distribution given as raw log-probabilities is checked
when it is built; one built from its k bit probabilities is checked through
those k factors, and its 2^k outcomes are valid by construction.

Between two product distributions, ``exact_epsilon`` sums per-bit extremes
of the bits' log-ratios and builds no outcome; a distribution given as raw
log-probabilities, on either side, has all 2^k outcomes enumerated.

The cap is 2^20 outcomes, which every distribution can list
(``log_probs``); larger filters are rejected rather than approximated,
because an approximate oracle cannot arbitrate closed forms.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

from ._value import _check_int, _index, _is_vector
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
    is -inf. NaN and +inf are rejected, and so is a total other than 1. It
    is given as a vector in outcome order (a generator too); a set or a
    mapping, whose order is not the outcomes', raises ValueError.

    A product distribution (``product_of_bits``, ``prr_distribution``,
    ``report_distribution``) keeps its k bit terms and builds ``log_probs``
    only when it is first read, which ``exact_epsilon`` between two such
    distributions never does.
    """

    # The (ln P(bit = 0), ln P(bit = 1)) term pair of each bit, when the
    # distribution is a product of independent bits; else None.
    _terms: tuple[tuple[float, float], ...] | None = None

    def __init__(self, k: int, log_probs: Sequence[float]):
        _check_int("k", k)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if not _is_vector(log_probs):
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
        """P(outcome); an outcome that is no integer raises TypeError, and
        one outside [0, 2^k) ValueError."""
        try:
            index = _index(outcome)
        except TypeError:
            raise TypeError(f"outcome must be an integer, got {outcome!r}") from None
        if not 0 <= index < 1 << self.k:
            raise ValueError(f"outcome {index} outside [0, 2^{self.k})")
        return math.exp(self.log_probs[index])

    def as_dict(self) -> dict[int, float]:
        return dict(enumerate(map(math.exp, self.log_probs)))

    @classmethod
    def product_of_bits(cls, p_one: Sequence[float]) -> "MechanismDistribution":
        """Joint distribution of independent bits with P(bit i = 1) = p_one[i].

        ``p_one`` is a sized vector read in order: a set or a mapping, whose
        order is not the bits', a str or bytes, or an object that cannot be
        iterated raises ValueError naming ``p_one``. Each p must satisfy
        0 <= p <= 1; any other factor, NaN or a string among them, raises
        ValueError naming its bit and value. The k factors are the only
        input, so the 2^k log-probabilities are not checked again: the
        invariant ``__init__`` checks holds by construction.

        - ``lo`` and ``hi`` lie in [-inf, 0], so no sum of them is NaN or +inf.
        - The most likely outcome sums each bit's larger term, which is at
          least ln(1/2), so it is finite.
        - Each outcome adds k rounded terms, so the total's error is about
          k*eps*(1+H) for the distribution's entropy H in nats, far below
          ``__init__``'s tolerance of 1e-9.

        The distribution keeps the k term pairs; ``log_probs`` folds them
        when it is first read.
        """
        if not (_is_vector(p_one) and hasattr(p_one, "__len__")):
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


def _fold(terms: Sequence[tuple[float, float]]) -> list[float]:
    """Each outcome's log-probability, in outcome order: its bits' terms
    summed left to right, bit 0 first, from 0.0."""
    log_probs = [0.0]
    for pair in terms:
        log_probs = [x + t for t in pair for x in log_probs]
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

    Between two product distributions the log-ratio of an outcome is the sum
    over bits of d_i(b) = t1_i(b) - t2_i(b), the difference of bit i's terms
    at its value b, so its largest and smallest values are sums of per-bit
    extremes (Erlingsson, Pihur & Korolova, CCS 2014, Theorem 1). The result
    is max(fsum of max_b d_i(b), -fsum of min_b d_i(b)) over the bits whose
    term pairs differ, with a value that has zero mass on both sides dropped
    and one with zero mass on one side only giving +infinity; no outcome is
    built. Each d_i(b) is one rounded difference and fsum rounds once, so
    the error is a few times 2**-53 of the larger of epsilon and T_V, the
    sum over the differing bits of their largest |term|; bits whose pairs
    are equal do not change the result. An epsilon far below T_V (f near 1,
    p near q) keeps only those digits. A raw distribution on either side
    has all 2^k outcomes enumerated.
    """
    if d1.k != d2.k:
        raise SpaceMismatch(f"outcome spaces differ: k={d1.k} vs k={d2.k}")
    if d1._terms is None or d2._terms is None:
        # Skipping equal pairs skips zero mass on both sides (-inf - -inf is
        # NaN); zero mass on one side gives abs(-inf - x) = inf.
        return max((abs(a - b) for a, b in zip(d1.log_probs, d2.log_probs) if a != b),
                   default=0.0)
    ratios = [[a - b for a, b in zip(pair1, pair2) if a != -math.inf or b != -math.inf]
              for pair1, pair2 in zip(d1._terms, d2._terms) if pair1 != pair2]
    if any(map(math.isinf, chain.from_iterable(ratios))):
        return math.inf
    return max(math.fsum(map(max, ratios)), -math.fsum(map(min, ratios)), 0.0)
