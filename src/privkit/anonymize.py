"""Basic anonymization transforms and the k-anonymity / l-diversity metrics.

All transforms are pure: they take a Dataset and return a new one, leaving
every column they do not target bit-identical. Randomized transforms take an
explicit ``random.Random`` so that every result is reproducible from
(input, seed).

Suppression is the most general generalization: ``suppress`` is
``generalize`` with a ``SuppressAll`` rule per column, and turns every cell
into SUPPRESSED. Bin and prefix rules pass generalized cells (Interval,
MaskedText, SUPPRESSED) through unchanged -- they are already at least as
general as the rule would make them -- while value-perturbing transforms
(``add_noise``, ``rank_swap``, microaggregation) require raw integers and
reject generalized cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, Union

from .dataset import (
    GENERALIZED,
    SUPPRESSED,
    Cell,
    Dataset,
    Interval,
    Kind,
    MaskedText,
    Suppressed,
)
from .errors import (
    BadGrouping,
    DatasetTooSmall,
    EmptyDataset,
    EmptyQiList,
    InvalidSpec,
    KindMismatch,
    TooManySwaps,
    VacuousRule,
)

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class NumericBins:
    """Replace integer x by the width-sized bin [lo, lo+width-1] containing it."""

    width: int
    origin: int = 0
    kind: ClassVar[Kind] = Kind.INTEGER

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"bin width must be >= 1, got {self.width}")

    def apply(self, x: Cell) -> Cell:
        if isinstance(x, GENERALIZED):
            return x
        if not isinstance(x, int) or isinstance(x, bool):
            raise KindMismatch(f"cannot bin non-integer cell {x!r}")
        lo = self.origin + self.width * ((x - self.origin) // self.width)
        return Interval(lo, lo + self.width - 1)


@dataclass(frozen=True)
class TextPrefix:
    """Keep the first ``keep`` characters of a text value, mask the rest."""

    keep: int
    kind: ClassVar[Kind] = Kind.TEXT

    def __post_init__(self):
        if self.keep < 0:
            raise ValueError(f"prefix length must be >= 0, got {self.keep}")

    def apply(self, t: Cell) -> Cell:
        if isinstance(t, GENERALIZED):
            return t
        if not isinstance(t, str):
            raise KindMismatch(f"cannot mask non-text cell {t!r}")
        return MaskedText(t[: self.keep])


@dataclass(frozen=True)
class SuppressAll:
    """Suppress every value of the attribute, generalized or not."""

    kind: ClassVar[Optional[Kind]] = None

    def apply(self, cell: Cell) -> Suppressed:
        return SUPPRESSED


Strategy = Union[NumericBins, TextPrefix, SuppressAll]


@dataclass(frozen=True)
class GeneralizationRule:
    attribute: str
    strategy: Strategy


@dataclass(frozen=True)
class EquivalenceClass:
    """Records agreeing on every quasi-identifier value."""

    key: tuple[Cell, ...]
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Partition:
    classes: tuple[EquivalenceClass, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean discrete noise: mapping from integer delta to probability."""

    probabilities: Mapping[int, float]

    def __post_init__(self):
        probs = dict(self.probabilities)
        if not probs:
            raise InvalidSpec("noise spec must contain at least one delta")
        for delta, prob in probs.items():
            if not isinstance(delta, int) or isinstance(delta, bool):
                raise InvalidSpec(f"delta {delta!r} is not an integer")
            if not prob >= 0:  # false for NaN as well
                raise InvalidSpec(f"probability of delta {delta} must be >= 0, got {prob}")
        total = sum(probs.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise InvalidSpec(f"probabilities sum to {total}, expected 1")
        mean = sum(d * p for d, p in probs.items())
        if abs(mean) > _PROB_TOL:
            raise InvalidSpec(f"expected delta is {mean}, must be 0")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def symmetric(cls, max_delta: int) -> "NoiseSpec":
        """Uniform over +-1..+-max_delta; symmetric(2) is 25% each on -2,-1,+1,+2."""
        if max_delta < 1:
            raise InvalidSpec("max_delta must be >= 1")
        deltas = [d for d in range(-max_delta, max_delta + 1) if d != 0]
        return cls({d: 1.0 / len(deltas) for d in deltas})

    def support(self) -> frozenset[int]:
        return frozenset(d for d, p in self.probabilities.items() if p > 0)

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        acc = 0.0
        deltas = sorted(self.probabilities)
        for delta in deltas:
            acc += self.probabilities[delta]
            if u < acc:
                return delta
        return deltas[-1]

    def stddev(self) -> float:
        return sum(d * d * p for d, p in self.probabilities.items()) ** 0.5


def suppress(dataset: Dataset, attributes: Sequence[str]) -> Dataset:
    """Replace every value of the named columns with SUPPRESSED."""
    return generalize(dataset, [GeneralizationRule(a, SuppressAll()) for a in attributes])


def generalize(dataset: Dataset, rules: Sequence[GeneralizationRule]) -> Dataset:
    """Apply bin/prefix/suppression rules column by column.

    Each rule's strategy maps every cell of its column; a TextPrefix rule
    that would not shorten any value in its column is rejected as vacuous.
    """
    out = dataset
    for rule in rules:
        strategy = rule.strategy
        kind = dataset.schema.attribute(rule.attribute).kind
        if strategy.kind not in (None, kind):
            raise KindMismatch(
                f"{type(strategy).__name__} on {kind.value} attribute {rule.attribute!r}"
            )
        column = out.column(rule.attribute)
        if isinstance(strategy, TextPrefix):
            lengths = [len(c) for c in column if isinstance(c, str)]
            if lengths and strategy.keep >= min(lengths):
                raise VacuousRule(
                    f"prefix {strategy.keep} does not shorten the shortest "
                    f"value (length {min(lengths)}) of {rule.attribute!r}"
                )
        out = out.replace_column(rule.attribute, [strategy.apply(c) for c in column])
    return out


def equivalence_classes(dataset: Dataset, qi: Sequence[str]) -> Partition:
    """Group records by exact equality of the quasi-identifier tuple.

    Classes appear in order of first appearance, members in record order.
    """
    if not qi:
        raise EmptyQiList("quasi-identifier list is empty")
    idxs = [dataset.schema.index(n) for n in qi]
    order: dict[tuple, list[int]] = {}
    for recno, rec in enumerate(dataset.records):
        key = tuple(rec[i] for i in idxs)
        order.setdefault(key, []).append(recno)
    return Partition(
        tuple(EquivalenceClass(key, tuple(members)) for key, members in order.items())
    )


def k_anonymity(dataset: Dataset, qi: Sequence[str]) -> int:
    """Minimum equivalence-class size over the quasi-identifier partition."""
    if not len(dataset):
        raise EmptyDataset("k-anonymity of an empty dataset is undefined")
    return min(equivalence_classes(dataset, qi).sizes())


def l_diversity(dataset: Dataset, qi: Sequence[str], sensitive: str) -> int:
    """Minimum count of distinct sensitive values over equivalence classes."""
    if not len(dataset):
        raise EmptyDataset("l-diversity of an empty dataset is undefined")
    sens = dataset.schema.index(sensitive)
    partition = equivalence_classes(dataset, qi)
    return min(
        len({dataset.records[m][sens] for m in cls.members})
        for cls in partition.classes
    )


def add_noise(
    dataset: Dataset, attribute: str, spec: NoiseSpec, rng: random.Random
) -> Dataset:
    """Independently shift each value of an integer column by a sampled delta."""
    column = _integer_column(dataset, attribute)
    return dataset.replace_column(
        attribute, [c + spec.sample(rng) for c in column]
    )


def swap_values(
    dataset: Dataset, attribute: str, n_swaps: int, rng: random.Random
) -> Dataset:
    """Exchange values between n_swaps disjoint record pairs chosen uniformly.

    No record participates in more than one exchange, so the column multiset
    is preserved exactly.
    """
    n = len(dataset)
    if n_swaps < 0:
        raise TooManySwaps(f"n_swaps must be >= 0, got {n_swaps}")
    if n_swaps > n // 2:
        raise TooManySwaps(f"{n_swaps} swaps need {2 * n_swaps} records, have {n}")
    column = list(dataset.column(attribute))
    chosen = rng.sample(range(n), 2 * n_swaps)
    for j in range(n_swaps):
        a, b = chosen[2 * j], chosen[2 * j + 1]
        column[a], column[b] = column[b], column[a]
    return dataset.replace_column(attribute, column)


def rank_swap(
    dataset: Dataset, attribute: str, p: int, rng: random.Random
) -> Dataset:
    """Swap each value with one at most p ranks above it in sorted order.

    Records are sorted by the attribute (ties keep original order). Scanning
    ranks upward, each not-yet-swapped rank i is paired with a uniformly
    chosen not-yet-swapped rank in (i, i+p]; both are marked swapped. A rank
    with no eligible partner keeps its value. Original record order is
    restored in the output.
    """
    if p < 1:
        raise ValueError(f"rank-swap window must be >= 1, got {p}")
    column = _integer_column(dataset, attribute)
    n = len(column)
    order = sorted(range(n), key=lambda i: column[i])
    values = [column[i] for i in order]
    swapped = [False] * n
    for i in range(n):
        if swapped[i]:
            continue
        partners = [
            j for j in range(i + 1, min(i + p, n - 1) + 1) if not swapped[j]
        ]
        if not partners:
            continue
        partner = rng.choice(partners)
        values[i], values[partner] = values[partner], values[i]
        swapped[i] = swapped[partner] = True
    out = list(column)
    for rank, recno in enumerate(order):
        out[recno] = values[rank]
    return dataset.replace_column(attribute, out)


def aggregate_groups(
    dataset: Dataset,
    attributes: Sequence[str],
    groups: Iterable[Sequence[int]],
) -> Dataset:
    """Replace integer values by their rounded group mean, per explicit group.

    ``groups`` must partition the record indices. Text attributes among
    ``attributes`` are left unchanged; they only steer grouping.
    """
    group_list = [tuple(g) for g in groups]
    seen = [i for g in group_list for i in g]
    if sorted(seen) != list(range(len(dataset))):
        raise BadGrouping("groups must partition the record indices exactly")
    out = dataset
    for name in attributes:
        if dataset.schema.attribute(name).kind is not Kind.INTEGER:
            continue
        column = list(_integer_column(out, name))
        for g in group_list:
            mean = _round_half_away(
                Fraction(sum(column[i] for i in g), len(g))
            )
            for i in g:
                column[i] = mean
        out = out.replace_column(name, column)
    return out


def microaggregate_univariate(dataset: Dataset, attribute: str, k: int) -> Dataset:
    """Group sorted ranks into runs of k (last run absorbs the remainder) and
    replace each value by the rounded group mean."""
    if k < 2:
        raise ValueError(f"group size must be >= 2, got {k}")
    if len(dataset) < k:
        raise DatasetTooSmall(f"{len(dataset)} records cannot form a group of {k}")
    column = _integer_column(dataset, attribute)
    n = len(column)
    order = sorted(range(n), key=lambda i: column[i])
    full = n // k
    groups = []
    for g in range(full):
        hi = (g + 1) * k if g < full - 1 else n
        groups.append([order[r] for r in range(g * k, hi)])
    return aggregate_groups(dataset, [attribute], groups)


def microaggregate_multivariate(
    dataset: Dataset, attributes: Sequence[str], k: int
) -> Dataset:
    """Maximum-distance-to-average grouping over several attributes at once.

    While at least 2k records remain: take the record r farthest from the
    centroid of the remainder and the record s farthest from r, then form one
    group of the k records nearest r (r included) and one of the k nearest s.
    Fewer than 2k leftovers form the last group. Integer attributes are then
    replaced by rounded group means.
    """
    if k < 2:
        raise ValueError(f"group size must be >= 2, got {k}")
    if len(dataset) < k:
        raise DatasetTooSmall(f"{len(dataset)} records cannot form a group of {k}")
    coords = _mixed_coordinates(dataset, attributes)
    groups = mdav_groups(coords, k)
    return aggregate_groups(dataset, attributes, groups)


def mdav_groups(coords: Sequence[Sequence[float]], k: int) -> list[list[int]]:
    """Maximum-distance-to-average grouping of points into groups of k to
    2k-1 points (a single smaller group when there are fewer than k).

    The loop of Domingo-Ferrer & Mateo-Sanz (2002): while at least 3k points
    remain, group k around the point farthest from the centroid and k around
    the point farthest from that one. With 2k to 3k-1 left, group k around
    the point farthest from the centroid and keep the rest as the last
    group; with fewer, they form one group. Ties in distance always resolve
    to the lowest record index, so the grouping is deterministic.
    """
    remaining = list(range(len(coords)))
    groups: list[list[int]] = []
    while len(remaining) >= 2 * k:
        centroid = _mean_point([coords[i] for i in remaining])
        r = max(remaining, key=lambda i: (_dist2(coords[i], centroid), -i))
        group_r = _nearest_group(coords, remaining, r, k)
        remaining = [i for i in remaining if i not in group_r]
        groups.append(sorted(group_r))
        if len(remaining) < 2 * k:
            break
        s = max(remaining, key=lambda i: (_dist2(coords[i], coords[r]), -i))
        group_s = _nearest_group(coords, remaining, s, k)
        remaining = [i for i in remaining if i not in group_s]
        groups.append(sorted(group_s))
    if remaining:
        groups.append(remaining)
    return groups


def _nearest_group(coords, remaining, center, k) -> set[int]:
    others = sorted(
        (i for i in remaining if i != center),
        key=lambda i: (_dist2(coords[i], coords[center]), i),
    )
    return {center, *others[: k - 1]}


def _mean_point(points: Sequence[Sequence[float]]) -> list[float]:
    dims = len(points[0])
    return [sum(p[d] for p in points) / len(points) for d in range(dims)]


def _dist2(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


_ONE_HOT = 0.5 ** 0.5  # two distinct text values sit at distance exactly 1


def _mixed_coordinates(
    dataset: Dataset, attributes: Sequence[str]
) -> list[list[float]]:
    """Embed records in Euclidean space: z-scored integers plus scaled
    one-hot text categories (distinct values at mutual distance 1)."""
    per_record: list[list[float]] = [[] for _ in dataset.records]
    for name in attributes:
        attr = dataset.schema.attribute(name)
        if attr.kind is Kind.INTEGER:
            column = _integer_column(dataset, name)
            mu = sum(column) / len(column)
            var = sum((x - mu) ** 2 for x in column) / len(column)
            sd = var ** 0.5
            for rec, x in zip(per_record, column):
                rec.append((x - mu) / sd if sd > 0 else 0.0)
        else:
            column = dataset.column(name)
            levels = {}
            for c in column:
                levels.setdefault(c, len(levels))
            for rec, c in zip(per_record, column):
                one_hot = [0.0] * len(levels)
                one_hot[levels[c]] = _ONE_HOT
                rec.extend(one_hot)
    return per_record


def _integer_column(dataset: Dataset, attribute: str) -> tuple[int, ...]:
    """The column of an integer attribute, each cell checked to be a raw int."""
    if dataset.schema.attribute(attribute).kind is not Kind.INTEGER:
        raise KindMismatch(f"{attribute!r} is not an integer attribute")
    column = dataset.column(attribute)
    for recno, cell in enumerate(column):
        if not isinstance(cell, int) or isinstance(cell, bool):
            raise KindMismatch(
                f"record {recno} of {attribute!r} holds {cell!r}, not an integer"
            )
    return column  # type: ignore[return-value]


def _round_half_away(x: Fraction) -> int:
    """Round to the nearest integer, halves away from zero."""
    if x < 0:
        return -_round_half_away(-x)
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)
