"""Support / certainty rule mining over transaction sets.

Frequent itemsets are searched depth-first over per-item transaction
bitmaps (Eclat's vertical layout): an itemset's support count is the
popcount of the AND of its items' bitmaps.

Support counts are integers and every threshold comparison is done by
integer cross-multiplication, so rules sitting exactly on a threshold are
classified without floating-point wobble. The float ``support`` and
``certainty`` on returned rules are for display only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .dataset import AttributeRole, Dataset, render_cell
from .errors import (
    BadThreshold,
    DisjointnessViolation,
    UnknownItem,
    ZeroSupportAntecedent,
)

ItemSet = frozenset[str]


@dataclass(frozen=True)
class TransactionSet:
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
        strings; ``items`` defaults to the union of the transactions."""
        txs = tuple(map(_itemset, transactions))
        return cls(txs, _itemset(items) if items is not None else frozenset().union(*txs))

    def __len__(self):
        return len(self.transactions)

    @cached_property
    def bitmaps(self) -> dict[str, int]:
        """Per-item transaction bitmaps (Eclat's vertical layout): bit n of
        an item's bitmap is set when transaction n contains the item."""
        rows = {item: bytearray((len(self.transactions) + 7) // 8) for item in self.items}
        for n, t in enumerate(self.transactions):
            for item in t:
                rows[item][n >> 3] |= 1 << (n & 7)
        return {item: int.from_bytes(row, "little") for item, row in rows.items()}


@dataclass(frozen=True)
class Rule:
    """A -> B with its support (of A union B) and certainty P(B | A)."""

    antecedent: ItemSet
    consequent: ItemSet
    support: float
    certainty: float


def support_count(transactions: TransactionSet, itemset: Iterable[str]) -> int:
    """Number of transactions containing every item of the itemset."""
    wanted = frozenset(itemset)
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
    if not len(transactions):
        return 0.0
    return support_count(transactions, itemset) / len(transactions)


def certainty(
    transactions: TransactionSet, antecedent: Iterable[str], consequent: Iterable[str]
) -> float:
    """P(consequent | antecedent) as the ratio of support counts."""
    a = frozenset(antecedent)
    b = frozenset(consequent)
    if a & b:
        raise DisjointnessViolation(
            f"antecedent and consequent share {sorted(a & b)}"
        )
    count_a = support_count(transactions, a)
    if count_a == 0:
        raise ZeroSupportAntecedent(f"{sorted(a)} occurs in no transaction")
    return support_count(transactions, a | b) / count_a


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
    subsets are not checked first. Every disjoint split of each frequent
    itemset is then scored. Rules are ordered by certainty descending, then
    support descending, then lexicographically.
    """
    if not 0.0 < min_support <= 1.0 or not 0.0 < min_certainty <= 1.0:
        raise BadThreshold(
            f"thresholds must be in (0, 1], got support={min_support}, "
            f"certainty={min_certainty}"
        )
    if max_itemset < 2:
        raise BadThreshold(f"max_itemset must be >= 2, got {max_itemset}")
    n = len(transactions)
    if n == 0:
        return []
    # Decimal value of the threshold as written: Fraction(0.1) > 1/10 would
    # drop itemsets sitting exactly on it.
    sup_thr = Fraction(str(min_support))
    cert_thr = Fraction(str(min_certainty))

    def frequent(count: int) -> bool:
        return count * sup_thr.denominator >= sup_thr.numerator * n

    counts: dict[ItemSet, int] = {}

    def grow(itemset: ItemSet, extensions: list[str]) -> None:
        # extensions: the sorted items whose addition kept itemset frequent
        for i, item in enumerate(extensions):
            node = itemset | {item}
            if len(node) < max_itemset:
                grow(node, [
                    other
                    for other in extensions[i + 1 :]
                    if _count_and_keep(transactions, node | {other}, counts, frequent)
                ])

    grow(frozenset(), [
        item
        for item in sorted(transactions.items)
        if _count_and_keep(transactions, frozenset({item}), counts, frequent)
    ])

    rules = []
    for itemset, whole in counts.items():
        for r in range(1, len(itemset)):
            for antecedent in combinations(sorted(itemset), r):
                a = frozenset(antecedent)
                count_a = counts[a]
                if whole * cert_thr.denominator < cert_thr.numerator * count_a:
                    continue
                rules.append(
                    (
                        Fraction(whole, count_a),
                        Fraction(whole, n),
                        tuple(sorted(a)),
                        tuple(sorted(itemset - a)),
                    )
                )
    rules.sort(key=lambda r: (-r[0], -r[1], r[2], r[3]))
    return [
        Rule(
            antecedent=frozenset(a),
            consequent=frozenset(b),
            support=float(sup),
            certainty=float(cert),
        )
        for cert, sup, a, b in rules
    ]


def _count_and_keep(transactions, itemset, counts, frequent) -> bool:
    c = support_count(transactions, itemset)
    if frequent(c):
        counts[itemset] = c
        return True
    return False


def _itemset(items: Iterable[str]) -> ItemSet:
    """The items as a set. Each must be a string, and a string is not read as
    the set of its characters; a ValueError, which the CLI reports as a data
    error, names what is wrong."""
    if isinstance(items, str):
        raise ValueError(f"expected a collection of item strings, got the string {items!r}")
    items = tuple(items)
    for item in items:
        if not isinstance(item, str):
            raise ValueError(f"item {item!r} is not a string")
    return frozenset(items)


def transactions_from_dataset(
    dataset: Dataset, include_qi: Sequence[str] = ()
) -> TransactionSet:
    """Map each record to the set of its sensitive values, optionally joined
    by selected quasi-identifier categories. Items read ``Attribute=value``."""
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
            items.add(f"{name}={render_cell(cell)}")
    return TransactionSet.from_iterables(txs)
