"""Exact differential-privacy oracle for small bit-vector mechanisms.

The randomized-response stages treat bits independently, so the full output
distribution over k-bit patterns is a product measure that can be enumerated
exactly for small k. The tight privacy parameter between two inputs is then
the largest absolute log-ratio of outcome probabilities, which is what the
privacy definition bounds. Probabilities live in log space to stay exact-ish
at the enumeration cap.

The cap is 2^20 outcomes; larger filters are rejected rather than
approximated, because an approximate oracle cannot arbitrate closed forms.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import FilterTooLarge, SpaceMismatch
from .rappor import BloomFilter, RapporParams, lemma1

ENUMERATION_CAP = 20


def check_enumerable(k: int) -> None:
    """Raise FilterTooLarge if 2^k outcomes are past the enumeration cap."""
    if k > ENUMERATION_CAP:
        raise FilterTooLarge(f"k={k} exceeds the exact enumeration cap of {ENUMERATION_CAP}")


class MechanismDistribution:
    """Exact distribution over all 2^k outcome bit patterns.

    Outcome ``o`` is the integer whose bit i equals output bit i. Stored as
    a tuple of log-probabilities; exactly-zero mass is -inf. NaN and +inf
    are rejected, and so is a total other than 1.
    """

    def __init__(self, k: int, log_probs: Sequence[float]):
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

    def prob(self, outcome: int) -> float:
        return math.exp(self.log_probs[outcome])

    def as_dict(self) -> dict[int, float]:
        return {o: self.prob(o) for o in range(1 << self.k)}

    @classmethod
    def product_of_bits(cls, p_one: Sequence[float]) -> "MechanismDistribution":
        """Joint distribution of independent bits with P(bit i = 1) = p_one[i]."""
        k = len(p_one)
        check_enumerable(k)
        log_probs = [0.0]
        for p in p_one:
            lo = math.log(1.0 - p) if p < 1.0 else -math.inf
            hi = math.log(p) if p > 0.0 else -math.inf
            log_probs = [x + lo for x in log_probs] + [x + hi for x in log_probs]
        return cls(k, log_probs)


def prr_distribution(
    bloom: BloomFilter, params: RapporParams
) -> MechanismDistribution:
    """Exact distribution of the permanent response for a given true filter:
    per bit, P(1) = f/2 + (1-f) * b."""
    _check_size(bloom, params)
    f = params.f
    return MechanismDistribution.product_of_bits(
        [f / 2.0 + (1.0 - f) * b for b in bloom.bits]
    )


def report_distribution(
    bloom: BloomFilter, params: RapporParams
) -> MechanismDistribution:
    """Exact distribution of a sent report for a given true filter: per bit,
    P(1) = q* where the filter bit is set and p* elsewhere."""
    _check_size(bloom, params)
    q_star, p_star = lemma1(params)
    return MechanismDistribution.product_of_bits(
        [q_star if b else p_star for b in bloom.bits]
    )


def exact_epsilon(
    d1: MechanismDistribution, d2: MechanismDistribution
) -> float:
    """Tight privacy parameter: max over outcomes of |ln(P1(o)/P2(o))|.

    Outcomes with zero mass on both sides are ignored; an outcome with zero
    mass on exactly one side makes every finite bound fail, reported as
    +infinity.
    """
    if d1.k != d2.k:
        raise SpaceMismatch(f"outcome spaces differ: k={d1.k} vs k={d2.k}")
    # Skipping equal pairs skips zero mass on both sides (-inf - -inf is NaN);
    # zero mass on one side gives abs(-inf - x) = inf.
    return max(
        (abs(a - b) for a, b in zip(d1.log_probs, d2.log_probs) if a != b), default=0.0
    )


def _check_size(bloom: BloomFilter, params: RapporParams) -> None:
    if len(bloom.bits) != params.k:
        raise SpaceMismatch(
            f"filter has {len(bloom.bits)} bits, params say {params.k}"
        )

