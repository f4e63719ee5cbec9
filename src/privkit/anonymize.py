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
import sys
from bisect import bisect_right, insort
from functools import reduce
from itertools import accumulate, chain, compress
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, Union

from ._partition import (  # noqa: F401 (exported here: see privkit._EXPORTS)
    EquivalenceClass,
    Partition,
    equivalence_classes,
    k_anonymity,
    l_diversity,
)
from ._value import Frozen
from .dataset import (
    _KIND_TYPES,
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
    _name_tuple,
    check_cell_types,
)
from .errors import (
    BadGrouping,
    DatasetTooSmall,
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

    def key(self, x: Cell) -> Cell:
        """What ``apply(x)`` depends on: the low end of an integer's bin, and
        any other cell itself."""
        if isinstance(x, int) and not isinstance(x, bool):
            return self.origin + self.width * ((x - self.origin) // self.width)
        return x

    def apply(self, x: Cell) -> Cell:
        if isinstance(x, GENERALIZED):
            return x
        if not isinstance(x, int) or isinstance(x, bool):
            raise KindMismatch(f"cannot bin non-integer cell {x!r}")
        lo = self.key(x)
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

    def key(self, t: Cell) -> Cell:
        """What ``apply(t)`` depends on: the prefix of a text, and any other
        cell itself."""
        return t[: self.keep] if isinstance(t, str) else t

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
        # The sampling table (fields are frozen, so it is built once per
        # object): the draw r gives _deltas[bisect_right(_cumulative, r)].
        # The largest delta is repeated for a draw past the float total,
        # which can fall short of 1. The deltas are exact ints, so a raw
        # int plus one is an exact int.
        deltas = sorted(probs)
        object.__setattr__(self, "_cumulative", tuple(accumulate(probs[d] for d in deltas)))
        object.__setattr__(self, "_deltas", tuple(map(operator.index, deltas + deltas[-1:])))

    def __reduce__(self):  # pickle rebuilds the table rather than store it
        return type(self), (self.probabilities,)

    @classmethod
    def symmetric(cls, max_delta: int) -> "NoiseSpec":
        """Uniform over +-1..+-max_delta; symmetric(2) is 25% each on -2,-1,+1,+2.

        ``max_delta`` must be an int (not a bool), else TypeError, and at
        most ``sys.maxsize // 2``, so that the 2 * max_delta deltas can be
        counted at all; a larger one raises InvalidSpec before any table
        is built."""
        _check_int("max_delta", max_delta)
        if max_delta < 1:
            raise InvalidSpec("max_delta must be >= 1")
        if max_delta > sys.maxsize // 2:
            raise InvalidSpec(f"max_delta must be <= {sys.maxsize // 2}")
        deltas = [d for d in range(-max_delta, max_delta + 1) if d != 0]
        return cls({d: 1.0 / len(deltas) for d in deltas})

    def support(self) -> frozenset[int]:
        return frozenset(d for d, p in self.probabilities.items() if p > 0)

    def sample(self, rng: random.Random) -> int:
        """The first delta, in ascending order, whose cumulative probability
        exceeds ``rng.random()``; the largest delta if none does."""
        return self._deltas[bisect_right(self._cumulative, rng.random())]

    def stddev(self) -> float:
        """Square root of the expected squared delta, summed left to right."""
        return _sum_left(d * d * p for d, p in self.probabilities.items()) ** 0.5


def suppress(dataset: Dataset, attributes: Sequence[str]) -> Dataset:
    """Replace every value of the named columns with SUPPRESSED.
    ``attributes`` is a collection of attribute names; a str or bytes is
    not read as one."""
    attributes = _name_tuple("attributes", attributes)
    return generalize(dataset, [GeneralizationRule(a, SuppressAll()) for a in attributes])


def generalize(dataset: Dataset, rules: Sequence[GeneralizationRule]) -> Dataset:
    """Apply bin/prefix/suppression rules column by column.

    Each rule's strategy maps every cell of its column; a TextPrefix rule
    that would not shorten any value in its column is rejected as vacuous.

    The rule is applied once per distinct key of its strategy, in order of
    first appearance: the prefix of a text, the low end of an integer's
    bin, any generalized cell itself. So all the ZIP codes that share a
    prefix build one ``MaskedText``. The keys of a column cannot collide:
    its cells are of one kind's exact types, and no two of those types hold
    equal values. Equal outputs are one object, so ages 20 to 29 give one
    ``Interval(20, 29)``, which a later grouping by cell hashes once and
    compares by identity.

    Only the distinct outputs are type-checked, as a strategy may be any
    object with ``kind``, ``key`` and ``apply``: one of the wrong type for
    the column's kind raises KindMismatch naming the first record that
    holds it.
    """
    out = dataset
    for rule in rules:
        strategy = rule.strategy
        check_rule_kind(dataset.schema, rule)
        column = out.column(rule.attribute)
        if isinstance(strategy, SuppressAll):  # it reads no cell
            out = out._with_column(rule.attribute, (SUPPRESSED,) * len(column))
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
        by_key: dict[Cell, Cell] = {}
        for cell in table:
            key = strategy.key(cell)
            if key not in by_key:
                generalized = strategy.apply(cell)
                by_key[key] = outputs.setdefault(generalized, generalized)
            table[cell] = by_key[key]
        cells = tuple(map(table.__getitem__, column))
        allowed, what = _KIND_TYPES[dataset.schema.attribute(rule.attribute).kind]
        if not allowed.issuperset(map(type, outputs)):  # each value of table is a key of it
            check_cell_types(rule.attribute, cells, allowed, what)
        out = out._with_column(rule.attribute, cells)
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


def add_noise(
    dataset: Dataset, attribute: str, spec: NoiseSpec, rng: random.Random
) -> Dataset:
    """Independently shift each value of an integer column by a sampled
    delta, drawn for each record in order as ``spec.sample(rng)`` draws it."""
    column = _integer_column(dataset, attribute)
    deltas, cumulative, draw = spec._deltas, spec._cumulative, rng.random
    return dataset._with_column(
        attribute, tuple([c + deltas[bisect_right(cumulative, draw())] for c in column])
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
    return dataset._with_column(attribute, tuple(column))


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
    return dataset._with_column(attribute, tuple(out))


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
        out = out._with_column(name, tuple(column))  # each mean is an int
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

    The arithmetic is fixed so that the grouping is exactly reproducible,
    not merely close:

    * a squared distance adds the axes' squared differences one axis at a
      time, from the first axis to the last, and squares with C ``pow``, as
      Python's ``**`` does (past the float range, where ``**`` raises, the
      square is inf); ``t * t`` and ``sum`` can round differently;
    * each centroid coordinate is the left-to-right sum of the unassigned
      points' values, in record order, divided by their count;
    * ties in distance go to the lowest record index, both for the
      farthest point and for the k-1 nearest ones.

    Each search measures only the points that can win it, and still gives
    exactly what measuring every unassigned point would:

    * the k nearest: the points are sorted once along their widest axis and
      scanned outward from the centre. That axis's squared difference is a
      lower bound of the float squared distance, exactly, because adding
      non-negative floats never lowers a sum. So the scan stops once it is
      strictly above the (k-1)-th smallest distance so far, candidates
      compared as (distance, record index). Before the full distance, the
      squared differences on the next two widest axes are checked the same
      way;
    * the farthest point: the points are kept in descending order of their
      distance to an anchor a, a past centroid, and the scan stops where
      the triangle inequality |x-c| <= |x-a| + |a-c| puts every later point
      below the farthest so far. The bound holds for real numbers; the
      relative margin ``_MARGIN`` covers the rounding of float distances
      many times over. There is no pruning while the largest squared
      distance is outside ``_BAND``, where underflow or overflow breaks
      relative error bounds;
    * the centroid: exact integer sums of the unassigned coordinates give
      the true mean S/m. The left-to-right float centroid lies within
      gamma(m-1) * sum|x| / m of it on each axis (plus the rounding of the
      division), so the farthest point is searched around S/m with that
      slack. Only when the points that can win within the slack are not
      all one coordinate tuple is the centroid summed left to right.

    ``k`` must be an int (not a bool), at least 1, and ``coords`` points of
    one length with finite coordinates; anything else raises TypeError
    (``k``) or ValueError. Returns the groups as lists of record indices
    (plain ints), each sorted, the last one holding the leftovers.
    """
    _check_int("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    points = _checked_points(coords)
    n = len(points)
    dims = len(points[0]) if n else 0
    if not dims:  # every point is at distance 0 from every other: record order
        cut = max(n // k - 1, 0) * k
        groups = [list(range(i, i + k)) for i in range(0, cut, k)]
        return groups + [list(range(cut, n))] if cut < n else groups
    axes = list(zip(*points))  # each axis's values, in record order
    fixed = [tuple(map(_fixed_point, p)) for p in points]
    sums = [sum(column) for column in zip(*fixed)]
    abs_sums = [sum(map(abs, column)) for column in zip(*fixed)]
    alive = bytearray(b"\x01") * n
    m = n
    groups: list[list[int]] = []

    # the k-nearest scan: the points sorted along the widest axis, record
    # order among equal values, as a doubly linked list of the unassigned;
    # positions 0 and n + 1 are sentinels at -inf and +inf. The next two
    # widest axes are checked, one squared difference each, before the
    # full distance.
    widest = sorted(range(dims), key=lambda j: max(axes[j]) - min(axes[j]), reverse=True)
    axis, check1, check2 = (widest * 3)[:3]
    order = sorted(range(n), key=axes[axis].__getitem__)
    key = [-math.inf, *map(axes[axis].__getitem__, order), math.inf]
    rec = [-1, *order, -1]
    pos = [0] * n
    for p, i in enumerate(order, 1):
        pos[i] = p
    nxt = [*range(1, n + 2), n + 1]
    prv = [0, *range(n + 1)]

    # the farthest-point scan: the unassigned points by ascending distance
    # to the anchor, scanned from the far end, rebuilt around the current
    # centroid whenever half of the points it held are assigned
    anchor: tuple[float, ...] = ()
    ring: list[tuple[float, int]] = []
    ring_size = 0

    def reanchor(centre):
        nonlocal anchor, ring, ring_size
        anchor = centre
        ring = sorted((math.sqrt(_dist2(points[i], centre)), i)
                      for i in compress(range(n), alive))
        ring_size = len(ring)

    def farthest(centre, slack):
        """The unassigned points that can be the farthest from a point
        within ``slack`` of ``centre``, as (squared distance to ``centre``,
        record index)."""
        while not alive[ring[-1][1]]:
            ring.pop()
        gap = math.sqrt(_dist2(anchor, centre))
        stop = limit = -math.inf
        found = []
        for r, i in reversed(ring):
            if r < limit:  # r + gap < stop, so every later point is nearer
                break
            if alive[i]:
                d = _dist2(points[i], centre)
                if d >= stop * stop or stop <= 0:
                    found.append((d, i))
                    if _BAND[0] <= d <= _BAND[1]:
                        bound = (math.sqrt(d) * (1 - _MARGIN) - 2 * slack) / (1 + _MARGIN)
                        if bound > stop:
                            stop, limit = bound, bound - gap
        return [(d, i) for d, i in found if d >= stop * stop or stop <= 0]

    def farthest_index(centre):
        found = farthest(centre, 0.0)
        top = max(d for d, _ in found)
        return min(i for d, i in found if d == top)

    def nearest(at):
        """The k-1 unassigned points nearest point ``at``, as (squared
        distance, record index) in ascending order."""
        centre = points[at]
        c, c1, c2 = centre[axis], centre[check1], centre[check2]
        near: list[tuple[float, int]] = []
        kth = math.inf
        p = pos[at]
        lo, hi = prv[p], nxt[p]
        while True:
            below, above = c - key[lo], key[hi] - c
            if below < above or (below == above and lo):
                q, t, lo = lo, below, prv[lo]
            else:
                q, t, hi = hi, above, nxt[hi]
            i = rec[q]
            if i < 0 or t ** 2.0 > kth:
                return near
            x = points[i]
            if (x[check1] - c1) ** 2.0 > kth or (x[check2] - c2) ** 2.0 > kth:
                continue
            d = _dist2(x, centre)
            if len(near) < k - 1:
                insort(near, (d, i))
            elif (d, i) < near[-1]:
                near.pop()
                insort(near, (d, i))
            else:
                continue
            if len(near) == k - 1:
                kth = near[-1][0]

    def take(at):
        """Group point ``at`` with the k-1 unassigned points nearest it,
        and unassign them."""
        nonlocal m
        if k == 1:
            near = []
        else:
            try:
                near = nearest(at)
            except OverflowError:  # a square past the float range: measure every point
                centre = points[at]
                near = sorted((_dist2(points[i], centre), i)
                              for i in compress(range(n), alive) if i != at)[: k - 1]
        group = sorted([at, *(i for _, i in near)])
        for i in group:
            alive[i] = 0
            p = pos[i]
            nxt[prv[p]], prv[nxt[p]] = nxt[p], prv[p]
            for j, v in enumerate(fixed[i]):
                sums[j] -= v
                abs_sums[j] -= abs(v)
        m -= len(group)
        groups.append(group)

    while m >= 2 * k:
        scale = m << _FIXED_BITS
        centre = tuple(s / scale for s in sums)
        if 2 * m <= ring_size or not ring:
            reanchor(centre)
        if max(abs_sums).bit_length() > _FIXED_BITS + 1020:  # the float sum may overflow
            slack = math.inf
        else:
            slack = (m + 4) * _ULP * sum(a / scale for a in abs_sums) + dims * _TINY
        near = [i for _, i in farthest(centre, slack)]
        if all(points[i] == points[near[0]] for i in near):
            at = min(near)
        else:  # the rounding of the centroid decides: sum it as the spec does
            at = farthest_index(tuple(reduce(operator.add, compress(a, alive)) / m for a in axes))
        take(at)
        if m < 2 * k:  # they form the last group
            break
        take(farthest_index(points[at]))
    if m:
        groups.append(list(compress(range(n), alive)))
    return groups


_MARGIN = 1e-9  # relative; rounding moves a float distance by about 1e-15
_BAND = (1e-150, 1e150)  # squared distances whose relative rounding error is bounded
_FIXED_BITS = 1074  # every finite float times 2**1074 is an integer
_ULP = 2.0 ** -52
_TINY = 2.0 ** -1072  # covers the rounding of a subnormal centroid coordinate


def _checked_points(coords: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """The points as tuples of floats, all of one length and finite."""
    points = [tuple(map(float, p)) for p in coords]
    if points:
        dims = len(points[0])
        for j, p in enumerate(points):
            if len(p) != dims:
                raise ValueError(
                    f"coords must be points of one length: point {j} has {len(p)} "
                    f"coordinates, point 0 has {dims}"
                )
        if not all(map(math.isfinite, chain.from_iterable(points))):
            j, p = next((j, p) for j, p in enumerate(points) if not all(map(math.isfinite, p)))
            raise ValueError(f"coords must be finite: point {j} is {p!r}")
    return points


def _fixed_point(x: float) -> int:
    """x * 2**1074, exactly."""
    num, den = x.as_integer_ratio()
    return num << (_FIXED_BITS + 1 - den.bit_length())


def _dist2(p: Sequence[float], c: Sequence[float]) -> float:
    """The squared distance as ``mdav_groups`` specifies it."""
    d = 0.0
    for x, y in zip(p, c):
        try:
            d += (x - y) ** 2.0
        except OverflowError:
            d = math.inf
    return d


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
