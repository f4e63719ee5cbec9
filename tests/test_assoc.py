import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privkit import assoc
from privkit.assoc import (
    ItemSet,
    Rule,
    TransactionSet,
    certainty,
    solid_rules,
    support,
    support_count,
    transactions_from_dataset,
)
from privkit.dataset import fixture_table1
from privkit.errors import (
    BadThreshold,
    DisjointnessViolation,
    UnknownItem,
    ZeroSupportAntecedent,
)


def brute_force_rules(transactions, min_support, min_certainty, max_size=None):
    """Oracle: enumerate the powerset, up to max_size items when given, and
    every disjoint split directly."""
    items = sorted(transactions.items)
    n = len(transactions)
    sup_thr = Fraction(min_support)
    cert_thr = Fraction(min_certainty)

    def count(itemset):
        return sum(1 for t in transactions.transactions if itemset <= t)

    found = set()
    for size in range(2, min(len(items), max_size or len(items)) + 1):
        for combo in combinations(items, size):
            whole = frozenset(combo)
            c_whole = count(whole)
            if c_whole * sup_thr.denominator < sup_thr.numerator * n:
                continue
            for r in range(1, size):
                for ante in combinations(combo, r):
                    a = frozenset(ante)
                    c_a = count(a)
                    if c_whole * cert_thr.denominator >= cert_thr.numerator * c_a:
                        found.add((a, whole - a))
    return found


# The Fraction-based miner that solid_rules replaced, verbatim but for its
# names and docstring: the reference for the integer thresholds, the carried
# tidsets and the integer rule order.
def fraction_solid_rules(
    transactions: TransactionSet,
    min_support: float = 0.35,
    min_certainty: float = 0.60,
    max_itemset: int = 3,
) -> list[Rule]:
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
                    if fraction_count_and_keep(transactions, node | {other}, counts, frequent)
                ])

    grow(frozenset(), [
        item
        for item in sorted(transactions.items)
        if fraction_count_and_keep(transactions, frozenset({item}), counts, frequent)
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


def fraction_count_and_keep(transactions, itemset, counts, frequent) -> bool:
    c = support_count(transactions, itemset)
    if frequent(c):
        counts[itemset] = c
        return True
    return False


def random_instance(rng, inclusion=0.4):
    universe = [f"i{j}" for j in range(rng.randrange(3, 11))]
    n = rng.randrange(1, 31)
    txs = [
        {item for item in universe if rng.random() < inclusion} for _ in range(n)
    ]
    return TransactionSet.from_iterables(txs, universe)


BASKET = TransactionSet.from_iterables([{"a", "b"}, {"a"}, {"a", "b", "c"}])


def test_support_values():
    assert support(BASKET, set()) == 1.0
    assert support(BASKET, {"a"}) == 1.0
    assert support(TransactionSet.from_iterables([{"a", "b"}, {"a"}, {"b"}]), {"a"}) == pytest.approx(2 / 3)
    assert support(BASKET, {"c"}) == pytest.approx(1 / 3)
    assert support(BASKET, {"a", "b", "c"}) == pytest.approx(1 / 3)
    assert support(TransactionSet.from_iterables([], ["a"]), {"a"}) == 0.0  # no transactions


def test_support_unknown_item():
    with pytest.raises(UnknownItem):
        support(BASKET, {"zz"})


def test_universe_enforced_at_construction():
    with pytest.raises(UnknownItem):
        TransactionSet.from_iterables([{"a", "b"}], items={"a"})


PAIR = TransactionSet.from_iterables([["a", "b"], ["a"]])


@pytest.mark.parametrize("call,message", [
    (lambda: support(PAIR, "ab"),
     "itemset: expected a collection of item strings, got the string 'ab'"),
    (lambda: support(PAIR, 5), "itemset: expected a collection of item strings, got 5"),
    (lambda: support(TransactionSet.from_iterables([]), "ab"),
     "itemset: expected a collection of item strings, got the string 'ab'"),
    (lambda: support_count(PAIR, "ab"),
     "itemset: expected a collection of item strings, got the string 'ab'"),
    (lambda: support_count(PAIR, None), "itemset: expected a collection of item strings, got None"),
    (lambda: support_count(PAIR, ["a", 1]), "itemset: item 1 is not a string"),
    (lambda: certainty(PAIR, "a", ["b"]),
     "antecedent: expected a collection of item strings, got the string 'a'"),
    (lambda: certainty(PAIR, ["a"], 5), "consequent: expected a collection of item strings, got 5"),
], ids=["support-str", "support-int", "support-no-transactions", "count-str", "count-none",
        "count-int-item", "certainty-str", "certainty-int"])
def test_itemset_arguments_named_when_rejected(call, message):
    # at the parent a str read as its characters (support(PAIR, "ab") was 0.5)
    # and an int raised a bare TypeError
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("min_support,min_certainty,message", [
    (None, 0.5, "min_support must be a number, got None"),
    ("0.5", 0.5, "min_support must be a number, got '0.5'"),
    (0.5, None, "min_certainty must be a number, got None"),
    (0.5, "0.5", "min_certainty must be a number, got '0.5'"),
    (0.5, 1j, "min_certainty must be a number, got 1j"),
], ids=["none-support", "str-support", "none-certainty", "str-certainty", "complex-certainty"])
def test_thresholds_that_are_not_numbers_named_before_their_range(min_support, min_certainty,
                                                                   message):
    with pytest.raises(BadThreshold) as info:
        solid_rules(PAIR, min_support, min_certainty)
    assert str(info.value) == message


def test_thresholds_of_any_number_type_are_taken():
    expected = solid_rules(PAIR, 0.5, 0.5)
    for number in (Fraction(1, 2), Decimal("0.5"), np.float64(0.5)):
        assert solid_rules(PAIR, number, number) == expected


@pytest.mark.parametrize("transactions,items,message", [
    (["ab", "ab", "b"], None, "expected a collection of item strings, got the string 'ab'"),
    ([["a"]], "ab", "expected a collection of item strings, got the string 'ab'"),
    ([["a", 1], ["a"]], None, "item 1 is not a string"),
    ([[None]], None, "item None is not a string"),
    ([[["x"]]], None, "item ['x'] is not a string"),
    ([["a"]], ["a", 2], "item 2 is not a string"),
    ([["a"]], [b"a"], "item b'a' is not a string"),
], ids=["string-transactions", "string-items", "int-item", "null-item", "list-item",
        "int-in-items", "bytes-in-items"])
def test_from_iterables_rejects_what_is_not_a_string_item(transactions, items, message):
    # ValueError, not TypeError: the CLI reports it as a data error
    with pytest.raises(ValueError) as info:
        TransactionSet.from_iterables(transactions, items)
    assert type(info.value) is ValueError and str(info.value) == message


def test_from_iterables_takes_any_collection_of_strings():
    ts = TransactionSet.from_iterables(iter([("a", "b"), {"b"}, ["a", "a"]]), ("a", "b", "c"))
    assert ts.transactions == (frozenset("ab"), frozenset("b"), frozenset("a"))
    assert ts.items == frozenset("abc")
    assert TransactionSet.from_iterables([]).items == frozenset()


def itemset_reference(items):
    """``assoc._itemset`` as it was when ``from_iterables`` mapped it over
    every basket, except that a value that is not a collection raises the
    ValueError of a str, not the TypeError of iterating it."""
    if isinstance(items, str):
        raise ValueError(f"expected a collection of item strings, got the string {items!r}")
    try:
        items = tuple(items)
    except TypeError:
        raise ValueError(f"expected a collection of item strings, got {items!r}") from None
    for item in items:
        if not isinstance(item, str):
            raise ValueError(f"item {item!r} is not a string")
    return frozenset(items)


def from_iterables_reference(transactions, items=None):
    """``TransactionSet.from_iterables`` with a Python check of every item, verbatim."""
    txs = tuple(map(itemset_reference, transactions))
    return TransactionSet(txs, itemset_reference(items) if items is not None
                          else frozenset().union(*txs))


@pytest.mark.parametrize("transactions,items,message", [
    ([5], None, "expected a collection of item strings, got 5"),
    ([["a"], None], None, "expected a collection of item strings, got None"),
    ([["a"]], 5, "expected a collection of item strings, got 5"),
    ([("a",), iter(["b"]), 2.5], None, "expected a collection of item strings, got 2.5"),
], ids=["int-basket", "null-basket", "int-items", "float-basket-after-an-iterator"])
def test_from_iterables_rejects_what_is_not_a_collection(transactions, items, message):
    with pytest.raises(ValueError) as info:
        TransactionSet.from_iterables(transactions, items)
    assert type(info.value) is ValueError and str(info.value) == message


class StrSubclass(str):
    pass


class UnhashableStr(str):
    __hash__ = None


class OneShot(tuple):
    """Stands for an iterator over these items, made anew for each side."""


def fresh(baskets):
    return [iter(b) if isinstance(b, OneShot) else b for b in baskets]


ITEMS = st.one_of(
    st.sampled_from(["a", "b", "c", "", "a b", "٤", StrSubclass("a"), UnhashableStr("u")]),
    st.sampled_from([1, None, b"a", 2.5, ("a",), ["a"], {"a": 1}]),  # not str; some not hashable
)
STR_ITEMS = st.sampled_from(["a", "b", "c"])
BASKETS = st.one_of(
    st.lists(STR_ITEMS, max_size=4),
    st.lists(st.one_of(STR_ITEMS, ITEMS), max_size=4),
    st.lists(st.one_of(STR_ITEMS, ITEMS), max_size=4).map(tuple),
    st.frozensets(STR_ITEMS, max_size=3),
    st.lists(st.one_of(STR_ITEMS, ITEMS), max_size=3).map(OneShot),
    st.sampled_from(["ab", "", 5, None]),  # a string, or not a collection
)


def built(make, transactions, items):
    try:
        ts = make(transactions, items)
    except (ValueError, TypeError, UnknownItem) as exc:
        return type(exc), str(exc)
    return ts.transactions, ts.items


@given(st.lists(BASKETS, max_size=6),
       st.one_of(st.none(), st.just("ab"), st.lists(st.one_of(STR_ITEMS, ITEMS), max_size=5)))
@example([["a", "b"], ["b", 1]], None)  # a bad item found after the union is built
@example([["a"], [["x"]]], None)  # an unhashable item stops the C-level pass
@example([OneShot(["a", 1]), 5], None)  # the first bad basket wins, read only once
@settings(max_examples=400, deadline=None)
def test_from_iterables_equals_the_per_item_reference(baskets, items):
    assert (built(TransactionSet.from_iterables, fresh(baskets), items)
            == built(from_iterables_reference, fresh(baskets), items))


def test_certainty_values():
    assert certainty(BASKET, {"a"}, {"b"}) == pytest.approx(2 / 3)
    always = TransactionSet.from_iterables([{"a", "b"}, {"a", "b"}])
    assert certainty(always, {"a"}, {"b"}) == 1.0
    never = TransactionSet.from_iterables([{"a"}, {"b"}])
    assert certainty(never, {"a"}, {"b"}) == 0.0


def test_certainty_errors():
    with pytest.raises(DisjointnessViolation):
        certainty(BASKET, {"a"}, {"a", "b"})
    with pytest.raises(ZeroSupportAntecedent):
        certainty(TransactionSet.from_iterables([{"a"}], items={"a", "b"}), {"b"}, {"a"})


def test_certainty_support_identity_exact():
    rng = random.Random(5)
    for _ in range(25):
        ts = random_instance(rng)
        items = sorted(ts.items)
        a = frozenset(items[:2])
        b = frozenset(items[2:3])
        c_a = support_count(ts, a)
        if c_a == 0:
            continue
        # certainty * support(A) == support(A|B), exactly, on counts
        assert Fraction(support_count(ts, a | b), c_a) * Fraction(c_a, len(ts)) == Fraction(
            support_count(ts, a | b), len(ts)
        )


def test_forced_extreme_thresholds():
    ts = TransactionSet.from_iterables([{"x", "y"}] * 4)
    rules = solid_rules(ts, min_support=1.0, min_certainty=1.0, max_itemset=2)
    pairs = {(tuple(sorted(r.antecedent)), tuple(sorted(r.consequent))) for r in rules}
    assert pairs == {(("x",), ("y",)), (("y",), ("x",))}


def test_planted_rule_recovered():
    # 15 transactions: {a} in 8, {a,b} in 6 of those => support 0.4, certainty 0.75
    txs = [{"a", "b"}] * 6 + [{"a"}] * 2 + [{"c"}] * 7
    ts = TransactionSet.from_iterables(txs)
    rules = solid_rules(ts, 0.35, 0.60, max_itemset=3)
    planted = [r for r in rules if r.antecedent == {"a"} and r.consequent == {"b"}]
    assert len(planted) == 1
    assert planted[0].support == pytest.approx(0.4)
    assert planted[0].certainty == pytest.approx(0.75)
    got = {(r.antecedent, r.consequent) for r in rules}
    assert got == brute_force_rules(ts, 0.35, 0.60)


def test_min_support_above_everything():
    ts = TransactionSet.from_iterables([{"a"}, {"b"}, {"a", "b"}])
    assert solid_rules(ts, min_support=0.9, min_certainty=0.1, max_itemset=2) == []


def test_threshold_validation():
    ts = BASKET
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(BadThreshold):
            solid_rules(ts, min_support=bad)
        with pytest.raises(BadThreshold):
            solid_rules(ts, min_certainty=bad)
    with pytest.raises(BadThreshold):
        solid_rules(ts, max_itemset=1)


@pytest.mark.parametrize("kwargs,message", [
    ({"min_support": True}, "min_support must be a number, got True"),
    ({"min_certainty": True}, "min_certainty must be a number, got True"),
    ({"max_itemset": 2.5}, "max_itemset must be an integer, got 2.5"),
    ({"max_itemset": "3"}, "max_itemset must be an integer, got '3'"),
], ids=["bool-support", "bool-certainty", "float-max-itemset", "str-max-itemset"])
@pytest.mark.parametrize("transactions", [BASKET, TransactionSet.from_iterables([])],
                         ids=["basket", "no-transactions"])
def test_solid_rules_rejects_arguments_that_are_not_numbers(transactions, kwargs, message):
    with pytest.raises(BadThreshold) as info:
        solid_rules(transactions, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("max_itemset", [True, False])
def test_solid_rules_takes_no_bool_as_max_itemset(max_itemset):
    with pytest.raises(BadThreshold) as info:
        solid_rules(BASKET, 0.5, 0.5, max_itemset)
    assert str(info.value) == f"max_itemset must be an integer, got {max_itemset}"


def test_max_itemset_caps_enumeration():
    ts = TransactionSet.from_iterables([{"a", "b", "c"}] * 5)
    rules = solid_rules(ts, 0.5, 0.5, max_itemset=2)
    assert all(len(r.antecedent | r.consequent) <= 2 for r in rules)
    rules3 = solid_rules(ts, 0.5, 0.5, max_itemset=3)
    assert any(len(r.antecedent | r.consequent) == 3 for r in rules3)


def test_rule_ordering():
    txs = [{"a", "b"}] * 8 + [{"a"}] * 0 + [{"c", "d"}] * 6 + [{"c"}] * 2
    ts = TransactionSet.from_iterables(txs)
    rules = solid_rules(ts, 0.3, 0.5, max_itemset=2)
    keys = [(-r.certainty, -r.support, tuple(sorted(r.antecedent))) for r in rules]
    assert keys == sorted(keys)


# Caps below the deepest frequent itemset, and sparse instances where some
# candidates have an infrequent subset that the search does not check first.
@pytest.mark.parametrize("max_itemset", [2, 3, None], ids=["max2", "max3", "full"])
@pytest.mark.parametrize("inclusion,min_support", [(0.4, 0.35), (0.15, 0.1)],
                         ids=["dense", "sparse"])
def test_matches_brute_force_on_random_instances(inclusion, min_support, max_itemset):
    rng = random.Random(99)
    for _ in range(30):
        ts = random_instance(rng, inclusion)
        cap = max_itemset or len(ts.items)
        got = {
            (r.antecedent, r.consequent)
            for r in solid_rules(ts, min_support, 0.60, max_itemset=cap)
        }
        # the decimal threshold as written: Fraction(0.1) is above 1/10
        assert got == brute_force_rules(ts, Fraction(str(min_support)), 0.60, cap)


THRESHOLDS = st.one_of(
    st.sampled_from([5e-324, 1e-05, 2.5e-3, 0.1, 1 / 3, 0.35, 1.0, 1, Fraction(1, 3),
                     Decimal("0.35"), np.float32(0.1)]),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(),  # out of range, nan and the infinities raise BadThreshold
)


@st.composite
def baskets(draw):
    """A universe of 1-10 items and 0-60 baskets, drawn from a few distinct
    baskets so that duplicates are common; any basket may be empty."""
    universe = [f"i{j}" for j in range(draw(st.integers(1, 10)))]
    pool = draw(st.lists(st.sets(st.sampled_from(universe)), min_size=1, max_size=12))
    return universe, draw(st.lists(st.sampled_from(pool), max_size=60))


def _outcome(mine, *args):
    try:
        return mine(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(baskets(), THRESHOLDS, THRESHOLDS, st.integers(2, 6))
# a -> b and c -> d are both certain 1/2, as 2/4 and as 3/6
@example((list("abcd"), [["a", "b"]] * 2 + [["a"]] * 2 + [["c", "d"]] * 3 + [["c"]] * 3),
         0.2, 0.5, 2)
# {a, b} sits exactly on support 1/10, which the float 0.1 is a little above
@example((list("abc"), [["a", "b"]] + [["c"]] * 9), 0.1, 0.6, 2)
@settings(max_examples=300, deadline=None)
def test_solid_rules_equals_the_fraction_reference(instance, min_support, min_certainty,
                                                   max_itemset):
    universe, txs = instance
    ts = TransactionSet.from_iterables(txs, universe)
    args = (ts, min_support, min_certainty, max_itemset)
    assert _outcome(solid_rules, *args) == _outcome(fraction_solid_rules, *args)


def test_dense_instance_counts_every_candidate_once(monkeypatch):
    # The benchmark's traced mode wraps these two module attributes, the way
    # this test does, to report support_count calls and the frequent ratio.
    calls = {"support_count": 0, "_count_and_keep": 0}

    def counting(name):
        inner = getattr(assoc, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(assoc, name, counting(name))
    items = [f"i{j:02d}" for j in range(12)]
    ts = TransactionSet.from_iterables([items] * 5)
    rules = solid_rules(ts, 0.5, 0.5, max_itemset=3)
    # each candidate's count is its carried tidset's popcount, not a support_count call
    assert calls == {"support_count": 0, "_count_and_keep": 12 + 66 + 220}
    assert len(rules) == 66 * 2 + 220 * 6


def test_exact_threshold_boundary():
    # support is exactly 7/20 = 0.35: the rule must be kept at threshold 0.35
    txs = [{"a", "b"}] * 7 + [{"c"}] * 13
    ts = TransactionSet.from_iterables(txs)
    got = {
        (r.antecedent, r.consequent) for r in solid_rules(ts, 0.35, 0.60, 2)
    }
    assert (frozenset({"a"}), frozenset({"b"})) in got
    assert got == brute_force_rules(ts, 0.35, 0.60)


@pytest.mark.parametrize("num", [1, 2, 9])
def test_on_threshold_decimal_thresholds(num):
    # {a, b} sits exactly on the threshold num/10, which as a binary float is
    # a little above or below num/10; the oracle counts against Fraction(num, 10)
    on_support = TransactionSet.from_iterables([{"a", "b"}] * num + [{"c"}] * (10 - num))
    on_certainty = TransactionSet.from_iterables([{"a", "b"}] * num + [{"a"}] * (10 - num))
    cases = [
        (on_support, num / 10, 0.6, Fraction(num, 10), Fraction(3, 5)),
        (on_certainty, 0.05, num / 10, Fraction(1, 20), Fraction(num, 10)),
    ]
    for ts, sup, cert, exact_sup, exact_cert in cases:
        got = {(r.antecedent, r.consequent) for r in solid_rules(ts, sup, cert, 2)}
        assert (frozenset({"a"}), frozenset({"b"})) in got
        assert got == brute_force_rules(ts, exact_sup, exact_cert)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_support_anti_monotone(data):
    universe = [f"i{j}" for j in range(6)]
    txs = data.draw(
        st.lists(st.sets(st.sampled_from(universe)), min_size=1, max_size=15)
    )
    ts = TransactionSet.from_iterables(txs, universe)
    smaller = data.draw(st.sets(st.sampled_from(universe), max_size=4))
    extra = data.draw(st.sets(st.sampled_from(universe), max_size=2))
    larger = smaller | extra
    assert support_count(ts, smaller) >= support_count(ts, larger)


# Sizes on each side of CPython's 30-bit int digits and of a 64-bit word.
@pytest.mark.parametrize("n", [0, 1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 200])
def test_support_count_at_digit_boundaries(n):
    ts = TransactionSet.from_iterables([{"a"}] * n, items={"a", "b"})
    assert support_count(ts, set()) == n
    assert support_count(ts, {"a"}) == n
    assert support_count(ts, {"b"}) == 0
    assert support_count(ts, {"a", "b"}) == 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_support_count_equals_subset_scan(data):
    # i6 and i7 are in the universe but occur in no transaction
    universe = [f"i{j}" for j in range(8)]
    n = data.draw(st.integers(0, 200))
    masks = data.draw(st.lists(st.integers(0, 2**6 - 1), min_size=n, max_size=n))
    txs = [{universe[j] for j in range(6) if m >> j & 1} for m in masks]
    ts = TransactionSet.from_iterables(txs, universe)
    for _ in range(5):
        itemset = data.draw(st.sets(st.sampled_from(universe), max_size=4))
        assert support_count(ts, itemset) == sum(1 for t in txs if itemset <= t)


def test_transactions_from_fixture():
    ts = transactions_from_dataset(fixture_table1(), include_qi=["Gender"])
    assert len(ts) == 10
    assert {"Diagnosis=Cancer", "Gender=Female"} in [set(t) for t in ts.transactions]
    with pytest.raises(UnknownItem):
        transactions_from_dataset(fixture_table1(), include_qi=["Name"])
