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

import math
import operator
import random
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, Union

from ._value import Frozen
from .dataset import (
    GENERALIZED,
    SUPPRESSED,
    Cell,
    Dataset,
    Interval,
    Kind,
    MaskedText,
    Schema,
    Suppressed,
    _check_int,
    check_cell_types,
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
    ValueOutOfRange,
)

_PROB_TOL = 1e-12


class NumericBins(Frozen):
    """Replace integer x by the width-sized bin [lo, lo+width-1] containing it."""

    width: int
    origin: int = 0
    kind: ClassVar[Kind] = Kind.INTEGER

    def __post_init__(self):
        _check_int("width", self.width)
        _check_int("origin", self.origin)
        if self.width < 1:
            raise ValueError(f"bin width must be >= 1, got {self.width}")

    def apply(self, x: Cell) -> Cell:
        if isinstance(x, GENERALIZED):
            return x
        if not isinstance(x, int) or isinstance(x, bool):
            raise KindMismatch(f"cannot bin non-integer cell {x!r}")
        lo = self.origin + self.width * ((x - self.origin) // self.width)
        return Interval(lo, lo + self.width - 1)


class TextPrefix(Frozen):
    """Keep the first ``keep`` characters of a text value, mask the rest; an
    empty prefix is SUPPRESSED, so the cell reads back the same from CSV."""

    keep: int
    kind: ClassVar[Kind] = Kind.TEXT

    def __post_init__(self):
        _check_int("keep", self.keep)
        if self.keep < 0:
            raise ValueError(f"prefix length must be >= 0, got {self.keep}")

    def apply(self, t: Cell) -> Cell:
        if isinstance(t, GENERALIZED):
            return t
        if not isinstance(t, str):
            raise KindMismatch(f"cannot mask non-text cell {t!r}")
        return MaskedText(t[: self.keep]) if self.keep and t else SUPPRESSED


class SuppressAll(Frozen):
    """Suppress every value of the attribute, generalized or not."""

    kind: ClassVar[Optional[Kind]] = None

    def apply(self, cell: Cell) -> Suppressed:
        return SUPPRESSED


Strategy = Union[NumericBins, TextPrefix, SuppressAll]


class GeneralizationRule(Frozen):
    attribute: str
    strategy: Strategy


class EquivalenceClass(Frozen):
    """Records agreeing on every quasi-identifier value."""

    key: tuple[Cell, ...]
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class Partition(Frozen):
    classes: tuple[EquivalenceClass, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)


class NoiseSpec(Frozen):
    """Zero-mean discrete noise: mapping from integer delta to probability.

    Probabilities are ints or floats (bool is neither), stored as floats.
    Equality, ``repr`` and pickling depend on ``probabilities`` alone."""

    probabilities: Mapping[int, float]

    def __post_init__(self):
        probs = dict(self.probabilities)
        if not probs:
            raise InvalidSpec("noise spec must contain at least one delta")
        for delta, prob in probs.items():
            if not isinstance(delta, int) or isinstance(delta, bool):
                raise InvalidSpec(f"delta {delta!r} is not an integer")
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise InvalidSpec(f"probability of delta {delta} must be a number, got {prob!r}")
            probs[delta] = prob = float(prob)  # OverflowError past the float range
            if not prob >= 0:  # false for NaN as well
                raise InvalidSpec(f"probability of delta {delta} must be >= 0, got {prob}")
        total = sum(probs.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise InvalidSpec(f"probabilities sum to {total}, expected 1")
        mean = sum(d * p for d, p in probs.items())
        if abs(mean) > _PROB_TOL:
            raise InvalidSpec(f"expected delta is {mean}, must be 0")
        object.__setattr__(self, "probabilities", probs)
        # the sampling table: fields are frozen, so it is built once per object
        deltas = tuple(sorted(probs))
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_cumulative", tuple(accumulate(probs[d] for d in deltas)))

    def __reduce__(self):  # pickle rebuilds the table rather than store it
        return type(self), (self.probabilities,)

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
        """The first delta, in ascending order, whose cumulative probability
        exceeds ``rng.random()``; the largest delta if none does."""
        i = bisect_right(self._cumulative, rng.random())
        return self._deltas[min(i, len(self._deltas) - 1)]

    def stddev(self) -> float:
        """Square root of the expected squared delta, summed left to right."""
        return _sum_left(d * d * p for d, p in self.probabilities.items()) ** 0.5


def suppress(dataset: Dataset, attributes: Sequence[str]) -> Dataset:
    """Replace every value of the named columns with SUPPRESSED."""
    return generalize(dataset, [GeneralizationRule(a, SuppressAll()) for a in attributes])


def generalize(dataset: Dataset, rules: Sequence[GeneralizationRule]) -> Dataset:
    """Apply bin/prefix/suppression rules column by column.

    Each rule's strategy maps every cell of its column; a TextPrefix rule
    that would not shorten any value in its column is rejected as vacuous.

    The rule is applied once per distinct cell, in order of first
    appearance. The cell is key enough: the cells of a dataset column are
    of one kind's exact types, and no two of those types hold equal values.
    Equal outputs are one object, so ages 20 to 29 give one
    ``Interval(20, 29)``, which a later grouping by cell hashes once and
    compares by identity.
    """
    out = dataset
    for rule in rules:
        strategy = rule.strategy
        check_rule_kind(dataset.schema, rule)
        column = out.column(rule.attribute)
        if isinstance(strategy, SuppressAll):  # it reads no cell
            out = out.replace_column(rule.attribute, [SUPPRESSED] * len(column))
            continue
        table = dict.fromkeys(column)
        if isinstance(strategy, TextPrefix):
            lengths = [len(c) for c in table if isinstance(c, str)]
            if lengths and strategy.keep >= min(lengths):
                raise VacuousRule(
                    f"prefix {strategy.keep} does not shorten the shortest "
                    f"value (length {min(lengths)}) of {rule.attribute!r}"
                )
        outputs: dict[Cell, Cell] = {}
        for cell in table:
            generalized = strategy.apply(cell)
            table[cell] = outputs.setdefault(generalized, generalized)
        out = out.replace_column(rule.attribute, map(table.__getitem__, column))
    return out


def check_rule_kind(schema: Schema, rule: GeneralizationRule) -> None:
    """Raise KindMismatch unless the rule's strategy applies to the kind of
    its attribute."""
    kind = schema.attribute(rule.attribute).kind
    if rule.strategy.kind not in (None, kind):
        raise KindMismatch(
            f"{type(rule.strategy).__name__} on {kind.value} attribute {rule.attribute!r}"
        )


def check_integer_attribute(schema: Schema, attribute: str) -> None:
    """Raise KindMismatch unless the attribute is an integer attribute."""
    if schema.attribute(attribute).kind is not Kind.INTEGER:
        raise KindMismatch(f"{attribute!r} is not an integer attribute")


def equivalence_classes(dataset: Dataset, qi: Sequence[str]) -> Partition:
    """Group records by exact equality of the quasi-identifier tuple.

    Classes appear in order of first appearance, members in record order.
    """
    if not qi:
        raise EmptyQiList("quasi-identifier list is empty")
    order: dict[tuple, list[int]] = {}
    for recno, key in enumerate(zip(*(dataset.column(n) for n in qi))):
        order.setdefault(key, []).append(recno)
    return Partition(
        tuple(EquivalenceClass(key, tuple(members)) for key, members in order.items())
    )


def k_anonymity(
    dataset: Dataset, qi: Sequence[str], partition: Optional[Partition] = None
) -> int:
    """Minimum equivalence-class size over the quasi-identifier partition.

    ``partition``, if given, must be ``equivalence_classes(dataset, qi)``;
    it saves building that partition again.
    """
    if not len(dataset):
        raise EmptyDataset("k-anonymity of an empty dataset is undefined")
    if partition is None:
        partition = equivalence_classes(dataset, qi)
    return min(partition.sizes())


def l_diversity(
    dataset: Dataset,
    qi: Sequence[str],
    sensitive: str,
    partition: Optional[Partition] = None,
) -> int:
    """Minimum count of distinct sensitive values over equivalence classes.

    ``partition`` is as for ``k_anonymity``.
    """
    if not len(dataset):
        raise EmptyDataset("l-diversity of an empty dataset is undefined")
    column = dataset.column(sensitive)
    if partition is None:
        partition = equivalence_classes(dataset, qi)
    return min(len({column[m] for m in cls.members}) for cls in partition.classes)


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
    is preserved exactly. ``n_swaps`` must be an int (not a bool): anything
    else raises TypeError.
    """
    _check_int("n_swaps", n_swaps)
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
    restored in the output. ``p`` must be an int (not a bool): anything
    else raises TypeError.
    """
    _check_int("p", p)
    if p < 1:
        raise ValueError(f"rank-swap window must be >= 1, got {p}")
    column = _integer_column(dataset, attribute)
    n = len(column)
    order = sorted(range(n), key=column.__getitem__)
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

    ``groups`` must partition the record indices: each group a non-empty
    iterable of integer indices (ints, or objects ``operator.index``
    takes, such as numpy integers), each index in exactly one group. Any
    other grouping raises BadGrouping. Text attributes among
    ``attributes`` are left unchanged; they only steer grouping.
    """
    try:
        groups = iter(groups)
    except TypeError as exc:
        raise BadGrouping(f"groups is not an iterable of groups: {exc}") from exc
    group_list = []
    for j, g in enumerate(groups):
        try:
            group = tuple(map(operator.index, g))
        except TypeError as exc:
            raise BadGrouping(f"group {j} is not a sequence of integer indices: {exc}") from exc
        if not group:
            raise BadGrouping(f"group {j} is empty")
        group_list.append(group)
    seen = [i for g in group_list for i in g]
    if sorted(seen) != list(range(len(dataset))):
        raise BadGrouping("groups must partition the record indices exactly")
    return _group_means(dataset, attributes, group_list)


def _group_means(
    dataset: Dataset, attributes: Sequence[str], groups: Sequence[Sequence[int]]
) -> Dataset:
    """``aggregate_groups`` past its partition check: ``groups`` are
    non-empty and partition the record indices."""
    out = dataset
    for name in attributes:
        if dataset.schema.attribute(name).kind is not Kind.INTEGER:
            continue
        column = list(_integer_column(out, name))
        for g in groups:
            mean = _round_half_away(sum(map(column.__getitem__, g)), len(g))
            for i in g:
                column[i] = mean
        out = out.replace_column(name, column)
    return out


def microaggregate_univariate(dataset: Dataset, attribute: str, k: int) -> Dataset:
    """Group sorted ranks into runs of k (last run absorbs the remainder) and
    replace each value by the rounded group mean. ``k`` must be an int (not
    a bool): anything else raises TypeError.

    The runs are slices of the sorted order, so they partition the records
    by construction: their means are written by ``aggregate_groups``' own
    code, without its partition check."""
    _check_group_size(dataset, k)
    column = _integer_column(dataset, attribute)
    n = len(column)
    order = sorted(range(n), key=column.__getitem__)
    full = n // k
    runs = [order[g * k : (g + 1) * k] for g in range(full - 1)] + [order[(full - 1) * k :]]
    return _group_means(dataset, [attribute], runs)


def microaggregate_multivariate(
    dataset: Dataset, attributes: Sequence[str], k: int
) -> Dataset:
    """Maximum-distance-to-average grouping over several attributes at once.

    While at least 2k records remain: take the record r farthest from the
    centroid of the remainder and the record s farthest from r, then form one
    group of the k records nearest r (r included) and one of the k nearest s.
    Fewer than 2k leftovers form the last group. Integer attributes are then
    replaced by rounded group means. ``k`` must be an int (not a bool):
    anything else raises TypeError.
    """
    _check_group_size(dataset, k)
    coords = _mixed_coordinates(dataset, attributes)
    groups = mdav_groups(coords, k)
    return aggregate_groups(dataset, attributes, groups)


def _check_group_size(dataset: Dataset, k: int) -> None:
    """Raise unless k is an int (TypeError), at least 2 (ValueError) and
    at most the number of records (DatasetTooSmall)."""
    _check_int("k", k)
    if k < 2:
        raise ValueError(f"group size must be >= 2, got {k}")
    if len(dataset) < k:
        raise DatasetTooSmall(f"{len(dataset)} records cannot form a group of {k}")


def mdav_groups(coords: Sequence[Sequence[float]], k: int) -> list[list[int]]:
    """Maximum-distance-to-average grouping of points into groups of k to
    2k-1 points (a single smaller group when there are fewer than k).

    The loop of Domingo-Ferrer & Mateo-Sanz (2002): while at least 3k points
    remain, group k around the point farthest from the centroid and k around
    the point farthest from that one. With 2k to 3k-1 left, group k around
    the point farthest from the centroid and keep the rest as the last
    group; with fewer, they form one group.

    The unassigned points are kept compacted: their record indices in
    ascending order, and one contiguous float64 array per axis, filtered
    after each group. The k nearest come from ``np.partition`` at the k-th
    distance; only the rows at or below it are sorted. The arithmetic is
    fixed so that the grouping is exactly reproducible, not merely close:

    * a squared distance adds the axes' squared differences one axis at a
      time, from the first axis to the last, and squares with C ``pow``
      (``np.float_power``), as Python's ``**`` does; ``t * t`` and
      ``np.sum`` can round differently;
    * each centroid coordinate is the left-to-right sum of the unassigned
      points' values, in record order, divided by their count;
    * ties in distance go to the lowest record index, both for the
      farthest point and for the k-1 nearest ones.

    Coordinates must be finite. Returns the groups as lists of record
    indices (plain ints), each sorted, the last one holding the leftovers.
    """
    import numpy as np

    n = len(coords)
    points = np.array(coords, dtype=np.float64).reshape(n, len(coords[0]) if n else 0)
    axes = list(np.ascontiguousarray(points.T))
    rows = np.arange(n)  # the record index of each unassigned point
    groups: list[list[int]] = []

    def dist2(centre):
        if not axes:  # zero-length points are all at distance 0
            return np.zeros(len(rows))
        d = np.float_power(axes[0] - centre[0], 2.0)
        for column, c in zip(axes[1:], centre[1:]):
            d += np.float_power(column - c, 2.0)
        return d

    def take(d, at):
        """Group row ``at`` with the k-1 other rows nearest it by d, drop
        them from the unassigned rows, and return the mask of those left."""
        nonlocal rows, axes
        d[at] = -1.0  # the centre first, ahead of other rows at distance 0 from it
        near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
        near = near[np.argsort(d[near], kind="stable")[:k]]
        groups.append(sorted(rows[near].tolist()))
        rest = np.ones(len(d), dtype=bool)
        rest[near] = False
        rows, axes = rows[rest], [column[rest] for column in axes]
        return rest

    while len(rows) >= 2 * k:
        centroid = [np.cumsum(column)[-1] / len(rows) for column in axes]
        at = int(np.argmax(dist2(centroid)))  # argmax: first of equal maxima
        d = dist2([column[at] for column in axes])
        d = d[take(d, at)]
        if len(rows) < 2 * k:  # they form the last group
            break
        at = int(np.argmax(d))  # farthest from the first centre
        take(dist2([column[at] for column in axes]), at)
    if len(rows):
        groups.append(rows.tolist())
    return groups


_ONE_HOT = 0.5 ** 0.5  # two distinct text values sit at distance exactly 1


def _mixed_coordinates(
    dataset: Dataset, attributes: Sequence[str]
) -> list[tuple[float, ...]]:
    """Embed records in Euclidean space: z-scored integers plus scaled
    one-hot text categories (distinct values at mutual distance 1).

    An integer attribute whose mean or variance does not fit in a float
    raises ValueOutOfRange; values below about 1e150 in magnitude always
    fit in tables of up to a million records.
    """
    axes: list[list[float]] = []
    for name in attributes:
        attr = dataset.schema.attribute(name)
        if attr.kind is Kind.INTEGER:
            column = _integer_column(dataset, name)
            try:
                mu = sum(column) / len(column)
                var = _sum_left((x - mu) ** 2 for x in column) / len(column)
            except OverflowError:
                var = math.inf
            if not math.isfinite(var):  # a finite variance bounds every z-score
                raise ValueOutOfRange(
                    f"integer attribute {name!r} is too large to z-score: "
                    "its mean or variance overflows a float"
                )
            sd = var ** 0.5
            axes.append([(x - mu) / sd if sd > 0 else 0.0 for x in column])
        else:
            column = dataset.column(name)
            for level in dict.fromkeys(column):  # in order of first appearance
                axes.append([_ONE_HOT if c == level else 0.0 for c in column])
    return list(zip(*axes)) or [()] * len(dataset)  # no attributes: zero-length points


def _integer_column(dataset: Dataset, attribute: str) -> tuple[int, ...]:
    """The column of an integer attribute, each cell checked to be a raw int."""
    check_integer_attribute(dataset.schema, attribute)
    column = dataset.column(attribute)
    check_cell_types(attribute, column, frozenset((int,)), "an integer")
    return column  # type: ignore[return-value]


def _sum_left(values: Iterable[float]) -> float:
    """Left-to-right float sum, one rounding per addition, as the builtin
    ``sum`` through Python 3.11 (from 3.12 it compensates, Neumaier)."""
    return reduce(operator.add, values, 0.0)


def _round_half_away(total: int, count: int) -> int:
    """total / count (count > 0) rounded to the nearest integer, halves
    away from zero, in exact integer arithmetic."""
    mean = (2 * abs(total) + count) // (2 * count)
    return -mean if total < 0 else mean
