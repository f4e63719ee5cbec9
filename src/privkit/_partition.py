"""The quasi-identifier partition and the k-anonymity / l-diversity metrics.

``privkit.anonymize`` exports every name here. They live in a module of
their own so that the ``metrics`` command runs them without executing the
transforms.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._value import Frozen
from .dataset import Cell, Dataset, _name_tuple
from .errors import EmptyDataset, EmptyQiList


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


def equivalence_classes(dataset: Dataset, qi: Sequence[str]) -> Partition:
    """Group records by exact equality of the quasi-identifier tuple.

    Classes appear in order of first appearance, members in record order.
    ``qi`` is a collection of attribute names; a str or bytes is not read
    as one.
    """
    qi = _name_tuple("qi", qi)
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
