"""Support / certainty rule mining over transaction sets.

Frequent itemsets are searched depth-first over per-item transaction
bitmaps (Eclat's vertical layout). Each frequent itemset carries its
tidset, the bitmap of the transactions that contain it, down the search:
a candidate's tidset is the AND of two sibling tidsets, and its support
count is that tidset's popcount.

Support counts are integers. Every threshold is read as an exact integer
ratio and every comparison is done by integer cross-multiplication, so
rules sitting exactly on a threshold are classified without floating-point
wobble; rules are ordered by integer keys too. The float ``support`` and
``certainty`` on returned rules are for display only.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

import privkit  # loaded already; privkit.dataset loads only if an annotation is resolved
from ._value import Frozen, _index, _is_collection
from .errors import (
    BadThreshold,
    DisjointnessViolation,
    UnknownItem,
    ZeroSupportAntecedent,
)

ItemSet = frozenset[str]


class TransactionSet(Frozen):
    """Transactions over a fixed item universe."""

    transactions: tuple[ItemSet, ...]
    items: ItemSet

    def __post_init__(self):
        for t in self.transactions:
            stray = t - self.items
            if stray:
                raise UnknownItem(f"transaction items {sorted(stray)} outside universe")

    @classmethod
    def from_iterables(
        cls,
        transactions: Iterable[Iterable[str]],
        items: Optional[Iterable[str]] = None,
    ) -> "TransactionSet":
        """Each transaction, and ``items`` if given, is a collection of item
        strings; ``items`` defaults to the union of the transactions. A str,
        bytes or non-iterable ``transactions`` raises ValueError naming it, and
        so does a basket, or ``items``, that is not a collection of strings."""
        if not _is_collection(transactions):
            raise ValueError(
                f"transactions: expected a collection of baskets, got {transactions!r}")
        txs = tuple(map(_itemset, transactions))
        return cls(txs, _itemset(items) if items is not None else frozenset().union(*txs))

    def __len__(self):
        return len(self.transactions)

    @cached_property
    def bitmaps(self) -> dict[str, int]:
        """Per-item transaction bitmaps (Eclat's vertical layout): bit n of
        an item's bitmap is set when transaction n contains the item."""
        # Each row is the bitmap's binary digits, most significant first, so
        # transaction n sets the character at n from the end.
        rows = {item: bytearray(b"0") * len(self.transactions) for item in self.items}
        one = ord("1")
        for at, t in enumerate(reversed(self.transactions)):
            for item in t:
                rows[item][at] = one
        return {item: int(b"0" + row, 2) for item, row in rows.items()}


class Rule(Frozen):
    """A -> B with its support (of A union B) and certainty P(B | A)."""

    antecedent: ItemSet
    consequent: ItemSet
    support: float
    certainty: float


def support_count(transactions: TransactionSet, itemset: Iterable[str]) -> int:
    """Number of transactions containing every item of the itemset."""
    return _count(transactions, _itemset(itemset, "itemset"))


def _count(transactions: TransactionSet, wanted: ItemSet) -> int:
    stray = wanted - transactions.items
    if stray:
        raise UnknownItem(f"items {sorted(stray)} outside universe")
    bitmaps = transactions.bitmaps
    mask = (1 << len(transactions)) - 1
    for item in wanted:
        mask &= bitmaps[item]
    return mask.bit_count()


def support(transactions: TransactionSet, itemset: Iterable[str]) -> float:
    """Fraction of transactions containing the itemset; 1.0 when it is empty."""
    wanted = _itemset(itemset, "itemset")
    if not len(transactions):
        return 0.0
    return _count(transactions, wanted) / len(transactions)


def certainty(
    transactions: TransactionSet, antecedent: Iterable[str], consequent: Iterable[str]
) -> float:
    """P(consequent | antecedent) as the ratio of support counts."""
    a = _itemset(antecedent, "antecedent")
    b = _itemset(consequent, "consequent")
    if a & b:
        raise DisjointnessViolation(
            f"antecedent and consequent share {sorted(a & b)}"
        )
    count_a = _count(transactions, a)
    if count_a == 0:
        raise ZeroSupportAntecedent(f"{sorted(a)} occurs in no transaction")
    return _count(transactions, a | b) / count_a


def solid_rules(
    transactions: TransactionSet,
    min_support: float = 0.35,
    min_certainty: float = 0.60,
    max_itemset: int = 3,
) -> list[Rule]:
    """All rules A -> B meeting both thresholds, from itemsets of at most
    max_itemset items.

    Frequent itemsets are found depth-first (Eclat): each frequent itemset
    is grown by the items of its frequent siblings that follow it in sorted
    order. So a k-itemset is counted when its two (k-1)-subsets sharing the
    first k-2 items are frequent, Apriori's join condition; its other
    subsets are not checked first. Each frequent itemset keeps its tidset
    with its entry among its siblings, so counting a candidate is one AND of
    two sibling tidsets and a popcount. Every disjoint split of each
    frequent itemset is then scored, except that a consequent is grown only
    from one whose rule held: a smaller antecedent is never more certain.

    A threshold is read from its decimal string, as ``Fraction(str(x))``
    reads it: 0.1 is 1/10, not the binary float just above it. Rules are
    ordered by certainty descending, then support descending, then
    lexicographically; certainty is compared as ``whole * n * n // count_a``,
    which orders distinct ratios with denominators of at most n strictly and
    equal ones equally.
    """
    for name, threshold in (("min_support", min_support), ("min_certainty", min_certainty)):
        # a str has no __float__; a bool has one, but is no threshold
        if isinstance(threshold, bool) or not hasattr(threshold, "__float__"):
            raise BadThreshold(f"{name} must be a number, got {threshold!r}")
    if not 0.0 < min_support <= 1.0 or not 0.0 < min_certainty <= 1.0:
        raise BadThreshold(
            f"thresholds must be in (0, 1], got support={min_support}, "
            f"certainty={min_certainty}"
        )
    try:
        max_itemset = _index(max_itemset)
    except TypeError:
        raise BadThreshold(f"max_itemset must be an integer, got {max_itemset!r}") from None
    if max_itemset < 2:
        raise BadThreshold(f"max_itemset must be >= 2, got {max_itemset}")
    sup_num, sup_den = _exact("min_support", min_support)
    cert_num, cert_den = _exact("min_certainty", min_certainty)
    n = len(transactions)
    if n == 0:
        return []
    # the least integer count with count * sup_den >= sup_num * n
    min_count = -(-sup_num * n // sup_den)
    bitmaps = transactions.bitmaps
    counts: dict[ItemSet, int] = {}

    def grow(itemset: ItemSet, extensions: list[tuple[str, int]]) -> None:
        # extensions: (item, tidset of itemset plus item) for the sorted
        # items whose addition kept itemset frequent
        for i, (item, tidset) in enumerate(extensions):
            node = itemset | {item}
            if len(node) < max_itemset:
                kept = []
                for other, other_tidset in extensions[i + 1 :]:
                    both = tidset & other_tidset
                    if _count_and_keep(node | {other}, both.bit_count(), counts, min_count):
                        kept.append((other, both))
                grow(node, kept)

    grow(frozenset(), [
        (item, bitmaps[item])
        for item in sorted(transactions.items)
        if _count_and_keep(frozenset({item}), bitmaps[item].bit_count(), counts, min_count)
    ])

    nn = n * n
    rules = []
    for itemset, whole in counts.items():
        # A -> itemset - A is solid when whole * cert_den >= cert_num * count_a,
        # that is when count_a <= limit. A smaller antecedent counts at least
        # as many transactions, so a consequent (a sorted tuple) grows by one
        # later item only from a consequent whose rule was solid. Most
        # itemsets have no solid rule: one pass rules out their one-item
        # consequents.
        if len(itemset) == 1:
            continue
        limit = whole * cert_den // cert_num
        consequents = [
            (item,) for item in itemset if counts[itemset.difference((item,))] <= limit
        ]
        while consequents and len(consequents[0]) < len(itemset):
            solid = []
            for consequent in consequents:
                antecedent = itemset.difference(consequent)
                count_a = counts[antecedent]
                if count_a <= limit:
                    solid.append(consequent)
                    rules.append((whole, count_a, tuple(sorted(antecedent)), consequent))
            consequents = [b + (item,) for b in solid for item in itemset if item > b[-1]]
    rules.sort(key=lambda r: (-(r[0] * nn // r[1]), -r[0], r[2], r[3]))
    return [
        Rule(frozenset(a), frozenset(b), whole / n, whole / count_a)
        for whole, count_a, a, b in rules
    ]


def _count_and_keep(itemset, count, counts, min_count) -> bool:
    if count >= min_count:
        counts[itemset] = count
        return True
    return False


def _exact(name: str, threshold) -> tuple[int, int]:
    """The threshold as a numerator and a positive denominator, equal to
    ``Fraction(str(threshold))`` for a float, int, Fraction or Decimal. A
    bool's string, ``True``, is no number."""
    text, slash, denominator = str(threshold).partition("/")
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, digits = mantissa.partition(".")
    try:
        if slash:
            return int(text), int(denominator)
        numerator, scale = int(whole + digits), int(exponent or 0) - len(digits)
    except ValueError:
        raise BadThreshold(f"{name} must be a number, got {threshold!r}") from None
    return (numerator * 10**scale, 1) if scale >= 0 else (numerator, 10**-scale)


def _itemset(items: Iterable[str], name: str = "") -> ItemSet:
    """The items as a set. Each must be a string, and a string is not read as
    the set of its characters; a ValueError, which the CLI reports as a data
    error, names what is wrong, a value that is not a collection included.
    ``name`` is the argument the items were given as: it starts each
    message."""
    prefix = f"{name}: " if name else ""
    if isinstance(items, str):
        raise ValueError(f"{prefix}expected a collection of item strings, "
                         f"got the string {items!r}")
    if not _is_collection(items):
        raise ValueError(f"{prefix}expected a collection of item strings, got {items!r}")
    items = tuple(items)  # a TypeError raised while iterating is the caller's own
    for item in items:
        if not isinstance(item, str):
            raise ValueError(f"{prefix}item {item!r} is not a string")
    return frozenset(items)


def transactions_from_dataset(
    dataset: privkit.dataset.Dataset, include_qi: Sequence[str] = ()
) -> TransactionSet:
    """Map each record to the set of its sensitive values, optionally joined
    by selected quasi-identifier categories. Items read ``Attribute=value``.
    ``include_qi`` is a collection of attribute names; a str or bytes, whose
    letters would be read as names, raises ValueError."""
    from .dataset import AttributeRole, _name_tuple  # only this path reads a table

    include_qi = _name_tuple("include_qi", include_qi)
    names = [
        a.name for a in dataset.schema.attributes if a.role is AttributeRole.SENSITIVE
    ]
    for name in include_qi:
        if dataset.schema.attribute(name).role is not AttributeRole.QUASI_IDENTIFIER:
            raise UnknownItem(f"{name!r} is not a quasi-identifier")
    picked = names + list(include_qi)
    txs: list[set[str]] = [set() for _ in range(len(dataset))]
    for name in picked:
        for items, cell in zip(txs, dataset.column(name)):
            items.add(f"{name}={cell}")
    return TransactionSet.from_iterables(txs)
