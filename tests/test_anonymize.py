import builtins
import csv
import functools
import io
import itertools
import math
import operator
import pickle
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from privkit import anonymize
from privkit.anonymize import (
    GeneralizationRule,
    NoiseSpec,
    NumericBins,
    SuppressAll,
    TextPrefix,
    add_noise,
    aggregate_groups,
    equivalence_classes,
    generalize,
    k_anonymity,
    l_diversity,
    mdav_groups,
    microaggregate_multivariate,
    microaggregate_univariate,
    rank_swap,
    suppress,
    swap_values,
)
from privkit.dataset import (
    SUPPRESSED,
    Attribute,
    AttributeRole,
    Dataset,
    Interval,
    Kind,
    MaskedText,
    Schema,
    Suppressed,
    fixture_table1,
    load_csv,
    write_csv,
)
from privkit.errors import (
    BadGrouping,
    DatasetTooSmall,
    EmptyDataset,
    EmptyQiList,
    InvalidSpec,
    KindMismatch,
    TooManySwaps,
    UnknownAttribute,
    VacuousRule,
    ValueOutOfRange,
)

_small_ages = st.lists(st.integers(-1000, 1000), min_size=2, max_size=40)

QI = ["Age", "Gender", "ZIP"]
TABLE2_RULES = [
    GeneralizationRule("Age", NumericBins(width=10, origin=0)),
    GeneralizationRule("ZIP", TextPrefix(keep=2)),
]


def table2():
    return generalize(suppress(fixture_table1(), ["Name"]), TABLE2_RULES)


def ages_dataset(ages):
    schema = Schema((Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),))
    return Dataset.from_records(schema, tuple((a,) for a in ages))


# --- generalization and suppression ------------------------------------------

def test_table2_golden():
    expected_ages = [
        Interval(40, 49), Interval(20, 29), Interval(30, 39), Interval(30, 39),
        Interval(40, 49), Interval(20, 29), Interval(40, 49), Interval(20, 29),
        Interval(20, 29), Interval(20, 29),
    ]
    t2 = table2()
    assert t2.column("Name") == (SUPPRESSED,) * 10
    assert list(t2.column("Age")) == expected_ages
    assert t2.column("ZIP") == (MaskedText("12"),) * 10
    assert t2.column("Gender") == fixture_table1().column("Gender")
    assert t2.column("Diagnosis") == fixture_table1().column("Diagnosis")


def test_numeric_bins_arithmetic():
    bins = NumericBins(width=10, origin=0)
    assert bins.apply(44) == Interval(40, 49)
    assert bins.apply(22) == Interval(20, 29)
    assert bins.apply(40) == Interval(40, 49)
    assert bins.apply(-5) == Interval(-10, -1)
    assert NumericBins(width=10, origin=5).apply(44) == Interval(35, 44)


@pytest.mark.parametrize("make,message", [
    (lambda: NumericBins(width=0), "bin width must be >= 1, got 0"),
    (lambda: TextPrefix(keep=-1), "prefix length must be >= 0, got -1"),
], ids=["bins-width-0", "prefix-keep-negative"])
def test_strategy_parameters_validated(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: NumericBins(2.5), "width must be an integer, got 2.5"),
    (lambda: NumericBins(10.0), "width must be an integer, got 10.0"),
    (lambda: NumericBins(True), "width must be an integer, got True"),
    (lambda: NumericBins("3"), "width must be an integer, got '3'"),
    (lambda: NumericBins(10, origin=0.5), "origin must be an integer, got 0.5"),
    (lambda: NumericBins(10, origin=None), "origin must be an integer, got None"),
    (lambda: NumericBins(0, origin="0"), "origin must be an integer, got '0'"),
    (lambda: TextPrefix(1.5), "keep must be an integer, got 1.5"),
    (lambda: TextPrefix(False), "keep must be an integer, got False"),
    (lambda: TextPrefix(None), "keep must be an integer, got None"),
], ids=["width-2.5", "width-10.0", "width-true", "width-str", "origin-0.5", "origin-null",
        "types-before-range", "keep-1.5", "keep-false", "keep-null"])
def test_strategy_field_types_validated(make, message):
    # the messages the pipeline config reader printed before it left these
    # checks to the strategies
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda t, r: rank_swap(t, "Age", True, r), "p must be an integer, got True"),
    (lambda t, r: rank_swap(t, "Age", 2.0, r), "p must be an integer, got 2.0"),
    (lambda t, r: swap_values(t, "Age", True, r), "n_swaps must be an integer, got True"),
    (lambda t, r: swap_values(t, "Age", "2", r), "n_swaps must be an integer, got '2'"),
    (lambda t, r: microaggregate_univariate(t, "Age", 2.5), "k must be an integer, got 2.5"),
    (lambda t, r: microaggregate_univariate(t, "Age", True), "k must be an integer, got True"),
    (lambda t, r: microaggregate_multivariate(t, ["Age"], 3.0),
     "k must be an integer, got 3.0"),
], ids=["rank-swap-p-true", "rank-swap-p-float", "swap-true", "swap-str", "univariate-2.5",
        "univariate-true", "multivariate-float"])
def test_transform_integer_arguments_validated(call, message):
    # True ran as p=1 and 2.5 failed inside range(); the message is the one
    # the pipeline config reader prints for the same field
    with pytest.raises(TypeError) as info:
        call(fixture_table1(), random.Random(0))
    assert str(info.value) == message


def test_suppress_idempotent_and_empty():
    t1 = fixture_table1()
    once = suppress(t1, ["Name"])
    assert suppress(once, ["Name"]) == once
    empty = Dataset.from_records(t1.schema, ())
    assert suppress(empty, ["Name"]) == empty


def test_suppress_unknown_attribute():
    with pytest.raises(UnknownAttribute):
        suppress(fixture_table1(), ["Salary"])


def test_generalize_suppress_all_strategy():
    out = generalize(fixture_table1(), [GeneralizationRule("Diagnosis", SuppressAll())])
    assert out.column("Diagnosis") == (SUPPRESSED,) * 10


def test_generalize_kind_checks():
    with pytest.raises(KindMismatch):
        generalize(fixture_table1(), [GeneralizationRule("Gender", NumericBins(10))])
    with pytest.raises(KindMismatch):
        generalize(fixture_table1(), [GeneralizationRule("Age", TextPrefix(1))])


def test_generalize_rejects_vacuous_prefix():
    # every ZIP is 5 chars; keeping 5 would change nothing
    with pytest.raises(VacuousRule):
        generalize(fixture_table1(), [GeneralizationRule("ZIP", TextPrefix(5))])


def test_generalize_passes_generalized_cells_through():
    t2 = table2()
    again = generalize(t2, TABLE2_RULES)
    assert again == t2


def reference_generalize(dataset, rules):
    """``generalize`` as it was before it keyed each rule by what the
    strategy keeps of a cell, verbatim."""
    out = dataset
    for rule in rules:
        strategy = rule.strategy
        anonymize.check_rule_kind(dataset.schema, rule)
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
        outputs = {}
        for cell in table:
            generalized = strategy.apply(cell)
            table[cell] = outputs.setdefault(generalized, generalized)
        out = out.replace_column(rule.attribute, map(table.__getitem__, column))
    return out


_AGE_ZIP = Schema((Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
                   Attribute("ZIP", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT)))
# Few widths, origins and letters, so that raw cells share keys and
# generalized cells equal the outputs built from raw ones.
_WIDTHS, _ORIGINS = st.sampled_from([1, 5, 10]), st.sampled_from([0, 3])
_AGE_CELLS = st.one_of(
    st.integers(-30, 130),
    st.builds(lambda x, width, origin: NumericBins(width, origin).apply(x),
              st.integers(-30, 130), _WIDTHS, _ORIGINS),
    st.just(SUPPRESSED),
)
_ZIP_CELLS = st.one_of(
    st.text("01", min_size=3, max_size=5),
    st.builds(MaskedText, st.text("01", min_size=1, max_size=2)),
    st.just(SUPPRESSED),
)
_RULES = st.lists(st.one_of(
    st.builds(lambda width, origin: GeneralizationRule("Age", NumericBins(width, origin)),
              _WIDTHS, _ORIGINS),
    st.builds(lambda keep: GeneralizationRule("ZIP", TextPrefix(keep)), st.integers(0, 3)),
    st.sampled_from([GeneralizationRule(name, SuppressAll()) for name in ("Age", "ZIP")]),
), max_size=3)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_AGE_CELLS, _ZIP_CELLS), max_size=30), rules=_RULES)
@example(rows=[(Interval(20, 29), MaskedText("01")), (25, "010"), (22, "011")],
         rules=[GeneralizationRule("Age", NumericBins(10)),
                GeneralizationRule("ZIP", TextPrefix(2))])
def test_generalize_equals_reference_value_and_identity(rows, rules):
    ds = Dataset.from_records(_AGE_ZIP, rows)

    def run(function):
        try:
            return function(ds, rules)
        except VacuousRule as exc:
            return str(exc)

    new, old = run(generalize), run(reference_generalize)
    assert new == old
    if isinstance(old, str):
        return

    def identities(out, name):
        """Per input and output cell, the index of its first identical one."""
        cells = [*ds.column(name), *out.column(name)]
        return [next(j for j, c in enumerate(cells) if c is cell) for cell in cells]

    for name in ("Age", "ZIP"):
        assert identities(new, name) == identities(old, name), name


def test_generalize_builds_one_output_per_kept_key(monkeypatch):
    built = []
    for strategy in (NumericBins, TextPrefix):
        def counted(self, cell, apply=strategy.apply):
            built.append(cell)
            return apply(self, cell)

        monkeypatch.setattr(strategy, "apply", counted)
    rows = [(age, f"{zip_:05d}") for age, zip_ in zip(range(20, 50), range(12000, 12300, 10))]
    out = generalize(Dataset.from_records(_AGE_ZIP, rows),
                     [GeneralizationRule("Age", NumericBins(10)),
                      GeneralizationRule("ZIP", TextPrefix(3))])
    assert built == [20, 30, 40, "12000", "12100", "12200"]
    assert len(set(map(id, out.column("ZIP")))) == 3


_ZIP_DIAGNOSIS = Schema(
    (
        Attribute("ZIP", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT),
        Attribute("Diagnosis", AttributeRole.SENSITIVE, Kind.TEXT),
    )
)


def test_text_prefix_keep_zero_is_suppression():
    assert TextPrefix(0).apply("12345") is SUPPRESSED
    assert TextPrefix(1).apply("12345") == MaskedText("1")
    ds = Dataset.from_records(_ZIP_DIAGNOSIS, (("12345", "Cancer"), (SUPPRESSED, "Flu")))
    out = generalize(ds, [GeneralizationRule("ZIP", TextPrefix(0))])
    assert out.column("ZIP") == (SUPPRESSED, SUPPRESSED)
    assert k_anonymity(out, ["ZIP"]) == 2


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["12345", "12344", "12", "92", SUPPRESSED, MaskedText("1")]),
            st.sampled_from(["Cancer", "Flu", "Diabetes"]),
        ),
        min_size=1,
        max_size=12,
    ),
    keep=st.integers(0, 3),
)
def test_metrics_survive_csv_round_trip(rows, keep):
    # the oracle is the released file: k and l must not change once the
    # generalized table is written and read back
    raw = [len(z) for z, _ in rows if isinstance(z, str)]
    assume(not raw or keep < min(raw))
    ds = generalize(
        Dataset.from_records(_ZIP_DIAGNOSIS, rows), [GeneralizationRule("ZIP", TextPrefix(keep))]
    )
    back = load_csv(write_csv(ds), _ZIP_DIAGNOSIS)
    assert k_anonymity(back, ["ZIP"]) == k_anonymity(ds, ["ZIP"])
    assert l_diversity(back, ["ZIP"], "Diagnosis") == l_diversity(ds, ["ZIP"], "Diagnosis")


def test_suppression_replaces_generalized_cells():
    schema = Schema(
        (
            Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
            Attribute("ZIP", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT),
        )
    )
    ds = Dataset.from_records(
        schema,
        ((44, "12345"), (Interval(40, 49), MaskedText("12")), (SUPPRESSED, SUPPRESSED)),
    )
    # suppression is the most general step: every cell becomes "*"
    for out in (
        suppress(ds, ["Age", "ZIP"]),
        generalize(ds, [GeneralizationRule("Age", SuppressAll()),
                        GeneralizationRule("ZIP", SuppressAll())]),
    ):
        assert out.records == ((SUPPRESSED, SUPPRESSED),) * 3
    # bins and prefixes map raw cells and leave generalized ones as they are
    out = generalize(ds, TABLE2_RULES)
    assert out.column("Age") == (Interval(40, 49), Interval(40, 49), SUPPRESSED)
    assert out.column("ZIP") == (MaskedText("12"), MaskedText("12"), SUPPRESSED)


class _HalfOddAges:
    """A strategy that is not one of privkit's: an odd age becomes half of
    itself, a float, which no integer column holds."""

    kind = Kind.INTEGER

    def key(self, x):
        return x

    def apply(self, x):
        return x / 2 if x % 2 else Interval(x, x)


def test_generalize_rejects_a_strategy_output_of_the_wrong_kind():
    # ages 44, 22, 39, ...: record 2 is the first odd one
    with pytest.raises(KindMismatch) as info:
        generalize(fixture_table1(), [GeneralizationRule("Age", _HalfOddAges())])
    assert str(info.value) == "record 2 of 'Age' holds 19.5, not a cell of kind integer"


# --- partitions and metrics ---------------------------------------------------

def test_equivalence_classes_table3():
    part = equivalence_classes(table2(), QI)
    assert Counter(part.sizes()) == Counter({3: 2, 2: 2})
    assert len(part.classes) == 4
    covered = sorted(i for cls in part.classes for i in cls.members)
    assert covered == list(range(10))
    # first class keyed by Jane's generalized tuple, in record order
    assert part.classes[0].key == (Interval(40, 49), "Female", MaskedText("12"))
    assert part.classes[0].members == (0, 4, 6)


def test_equivalence_classes_edge_cases():
    single = ages_dataset([5])
    part = equivalence_classes(single, ["Age"])
    assert part.sizes() == (1,)
    same = ages_dataset([7, 7, 7])
    assert equivalence_classes(same, ["Age"]).sizes() == (3,)
    with pytest.raises(EmptyQiList):
        equivalence_classes(single, [])
    with pytest.raises(UnknownAttribute):
        equivalence_classes(single, ["Nope"])
    assert equivalence_classes(same, iter(["Age"])).sizes() == (3,)


@pytest.mark.parametrize("metric", [
    lambda ds, qi: k_anonymity(ds, qi),
    lambda ds, qi: l_diversity(ds, qi, "Diagnosis"),
    lambda ds, qi: equivalence_classes(ds, qi),
], ids=["k_anonymity", "l_diversity", "equivalence_classes"])
@pytest.mark.parametrize("qi,message", [
    ("Age", "qi must be a collection of attribute names, got 'Age'"),
    (5, "qi must be a collection of attribute names, got 5"),
    (None, "qi must be a collection of attribute names, got None"),
    (b"Age", "qi must be a collection of attribute names, got b'Age'"),
], ids=["str", "int", "none", "bytes"])
def test_qi_that_is_not_a_collection_of_names_is_named(metric, qi, message):
    # a str was once read as its characters (no attribute named 'A'), bytes
    # as their values (no attribute named 65), and an int raised a bare
    # TypeError
    with pytest.raises(ValueError) as info:
        metric(fixture_table1(), qi)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("attributes,message", [
    ("Name", "attributes must be a collection of attribute names, got 'Name'"),
    (b"Name", "attributes must be a collection of attribute names, got b'Name'"),
    (5, "attributes must be a collection of attribute names, got 5"),
    (None, "attributes must be a collection of attribute names, got None"),
], ids=["str", "bytes", "int", "none"])
def test_suppress_attributes_that_are_not_a_collection_of_names_are_named(attributes, message):
    # a str was once read as its letters (no attribute named 'N'), and bytes
    # as their values
    with pytest.raises(ValueError) as info:
        suppress(fixture_table1(), attributes)
    assert type(info.value) is ValueError and str(info.value) == message


def test_k_anonymity_values():
    assert k_anonymity(table2(), QI) == 2
    assert k_anonymity(ages_dataset([3] * 5), ["Age"]) == 5
    # brute force: all ten raw quasi-identifier tuples are distinct
    t1 = fixture_table1()
    raw = [tuple(rec[t1.schema.index(n)] for n in QI) for rec in t1.records]
    assert len(set(raw)) == 10
    assert k_anonymity(t1, QI) == 1


def test_k_anonymity_empty():
    empty = Dataset.from_records(fixture_table1().schema, ())
    with pytest.raises(EmptyDataset):
        k_anonymity(empty, QI)
    with pytest.raises(EmptyDataset, match="l-diversity of an empty dataset is undefined"):
        l_diversity(empty, QI, "Diagnosis")


def test_l_diversity_values():
    assert l_diversity(table2(), QI, "Diagnosis") == 1
    assert l_diversity(ages_dataset([1]), ["Age"], "Age") == 1
    t1 = fixture_table1()
    # raw table: every class is a singleton, so diversity is 1
    assert l_diversity(t1, QI, "Diagnosis") == 1
    # two classes, each with two distinct diagnoses
    schema = Schema(
        (
            Attribute("G", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT),
            Attribute("D", AttributeRole.SENSITIVE, Kind.TEXT),
        )
    )
    ds = Dataset.from_records(schema, (("a", "x"), ("a", "y"), ("b", "y"), ("b", "z")))
    assert l_diversity(ds, ["G"], "D") >= 2


# --- noise addition -----------------------------------------------------------

def test_noise_spec_validation():
    NoiseSpec({0: 1.0})  # identity noise is valid: sums to 1, mean 0
    with pytest.raises(InvalidSpec):
        NoiseSpec({1: 0.5, 2: 0.5})  # mean != 0
    with pytest.raises(InvalidSpec):
        NoiseSpec({-1: 0.5, 1: 0.6})  # sum != 1
    with pytest.raises(InvalidSpec):
        NoiseSpec({-1: -0.5, 1: 1.5})
    with pytest.raises(InvalidSpec):
        NoiseSpec({-1: float("nan"), 1: float("nan")})  # sum and mean checks pass NaN
    with pytest.raises(InvalidSpec):
        NoiseSpec({})
    with pytest.raises(InvalidSpec, match=r"^delta 1.0 is not an integer$"):
        NoiseSpec({-1: 0.5, 1.0: 0.5})
    with pytest.raises(InvalidSpec, match="^max_delta must be >= 1$"):
        NoiseSpec.symmetric(0)
    sym = NoiseSpec.symmetric(2)
    assert sym.probabilities == {-2: 0.25, -1: 0.25, 1: 0.25, 2: 0.25}


# Only values past the size guard are large: a value it lets through builds
# a table of 2 * max_delta deltas.
@pytest.mark.parametrize("max_delta,error,message", [
    (None, TypeError, "max_delta must be an integer, got None"),
    ("x", TypeError, "max_delta must be an integer, got 'x'"),
    (1.5, TypeError, "max_delta must be an integer, got 1.5"),
    (math.nan, TypeError, "max_delta must be an integer, got nan"),
    (True, TypeError, "max_delta must be an integer, got True"),
    (-1, InvalidSpec, "max_delta must be >= 1"),
    (sys.maxsize // 2 + 1, InvalidSpec, f"max_delta must be <= {sys.maxsize // 2}"),
    (10**400, InvalidSpec, f"max_delta must be <= {sys.maxsize // 2}"),
], ids=["none", "str", "float", "nan", "bool", "negative", "past-the-guard", "10**400"])
def test_symmetric_max_delta_rejected_at_the_boundary(max_delta, error, message):
    # None and "x" once raised a bare '<' not supported, 1.5 and NaN a
    # TypeError about range(), True was 1, and 10**400 exhausted memory
    with pytest.raises(error) as info:
        NoiseSpec.symmetric(max_delta)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("probs,error,message", [
    ({-1: 0.5, 1: "0.5"}, InvalidSpec, "probability of delta 1 must be a number, got '0.5'"),
    ({0: True}, InvalidSpec, "probability of delta 0 must be a number, got True"),
    ({0: None}, InvalidSpec, "probability of delta 0 must be a number, got None"),
    ({0: [1.0]}, InvalidSpec, "probability of delta 0 must be a number, got [1.0]"),
    ({0: Fraction(1)}, InvalidSpec, "probability of delta 0 must be a number, got Fraction(1, 1)"),
    ({0: 10**400}, OverflowError, "int too large to convert to float"),
], ids=["str", "bool", "null", "list", "fraction", "beyond-float"])
def test_noise_spec_probability_types(probs, error, message):
    with pytest.raises(error) as info:
        NoiseSpec(probs)
    assert str(info.value) == message


def test_noise_spec_stores_float_probabilities():
    spec = NoiseSpec({-1: 0.5, 0: 0, 1: 0.5})
    assert spec == NoiseSpec({-1: 0.5, 0: 0.0, 1: 0.5})
    assert [type(p) for p in spec.probabilities.values()] == [float] * 3
    assert repr(NoiseSpec({0: 1})) == "NoiseSpec(probabilities={0: 1.0})"


def _sample_loop(self, rng):
    """``NoiseSpec.sample`` as first written, a walk over the sorted deltas:
    the reference for the bisection over the stored cumulative sums."""
    u = rng.random()
    acc = 0.0
    deltas = sorted(self.probabilities)
    for delta in deltas:
        acc += self.probabilities[delta]
        if u < acc:
            return delta
    return deltas[-1]


class _Draws:
    """An rng stand-in whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


@st.composite
def noise_specs(draw):
    """Zero-mean specs: a pair (a, b) of weight w puts w*b/(a+b) on -a and
    w*a/(a+b) on b. Zero weights and padded deltas have probability 0."""
    probs = {0: draw(st.floats(0, 1))}
    pairs = st.tuples(st.integers(1, 6), st.integers(1, 6), st.floats(0, 1))
    for a, b, w in draw(st.lists(pairs, max_size=5)):
        probs[-a] = probs.get(-a, 0.0) + w * b / (a + b)
        probs[b] = probs.get(b, 0.0) + w * a / (a + b)
    for delta in draw(st.lists(st.integers(-9, 9), max_size=3)):
        probs.setdefault(delta, 0.0)
    total = sum(probs.values())
    assume(total > 0)
    try:
        return NoiseSpec({d: p / total for d, p in probs.items()})
    except InvalidSpec:  # rounding moved the total or the mean past the tolerance
        assume(False)


@given(noise_specs(), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_noise_sample_equals_the_linear_walk(spec, seed):
    fast, slow = random.Random(seed), random.Random(seed)
    assert [spec.sample(fast) for _ in range(50)] == [_sample_loop(spec, slow) for _ in range(50)]


@pytest.mark.parametrize("probs", [
    {-1: 0.35, 0: 0.3, 1: 0.35},  # the float total is 0.9999999999999999
    {-2: 0.25, -1: 0.25, 1: 0.25, 2: 0.25},
    {-3: 0.0, -1: 0.5, 0: 0.0, 1: 0.5, 4: 0.0},
    {0: 1.0},
], ids=repr)
def test_noise_sample_at_the_cumulative_boundaries(probs):
    spec = NoiseSpec(probs)
    draws = [0.0, 0.9999999999999999]
    for c in itertools.accumulate(probs[d] for d in sorted(probs)):
        draws += [c, math.nextafter(c, 0.0)]
    fast, slow = _Draws(draws), _Draws(draws)
    assert [spec.sample(fast) for _ in draws] == [_sample_loop(spec, slow) for _ in draws]


def test_noise_sample_past_the_float_total_gives_the_largest_delta():
    spec = NoiseSpec({-1: 0.35, 0: 0.3, 1: 0.35})
    assert 0.35 + 0.3 + 0.35 == 0.9999999999999999  # so this draw passes every sum
    assert spec.sample(_Draws([0.9999999999999999])) == 1


def test_noise_spec_is_defined_by_its_probabilities():
    probs = {-1: 0.35, 0: 0.3, 1: 0.35}
    spec = NoiseSpec(probs)
    data = pickle.dumps(spec)
    assert b"_cumulative" not in data and b"_deltas" not in data
    assert pickle.loads(data) == spec == NoiseSpec(dict(probs))
    assert repr(spec) == "NoiseSpec(probabilities={-1: 0.35, 0: 0.3, 1: 0.35})"
    assert pickle.loads(data).sample(_Draws([0.5])) == 0


def _compensated_sum(values, start=0):
    """The builtin ``sum`` as Python 3.12 and later run it over floats,
    with Neumaier compensation. Integers alone still add exactly."""
    values = list(values)
    if all(type(v) is int for v in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # MDAV's embedding and NoiseSpec.stddev add floats left to right, one
    # rounding per addition, whichever summation the builtin sum uses
    rng = random.Random(1)
    ages = [int(rng.lognormvariate(3, 1)) for _ in range(200)]
    mu = sum(ages) / len(ages)
    squares = [(x - mu) ** 2 for x in ages]
    spec = NoiseSpec.symmetric(3)
    terms = [d * d * p for d, p in spec.probabilities.items()]
    left_to_right = functools.partial(functools.reduce, operator.add)
    # the two summations round both inputs differently
    assert left_to_right(squares, 0.0) != _compensated_sum(squares)
    assert left_to_right(terms, 0.0) != _compensated_sum(terms)
    sd = (left_to_right(squares, 0.0) / len(ages)) ** 0.5
    expected = ([((x - mu) / sd,) for x in ages], left_to_right(terms, 0.0) ** 0.5)
    ds = ages_dataset(ages)
    assert (anonymize._mixed_coordinates(ds, ["Age"]), spec.stddev()) == expected
    monkeypatch.setattr(anonymize, "sum", _compensated_sum, raising=False)
    assert (anonymize._mixed_coordinates(ds, ["Age"]), spec.stddev()) == expected


def test_add_noise_deltas_in_support():
    t1 = fixture_table1()
    out = add_noise(t1, "Age", NoiseSpec.symmetric(2), random.Random(4))
    deltas = [a - b for a, b in zip(out.column("Age"), t1.column("Age"))]
    assert all(abs(d) in (1, 2) for d in deltas)
    assert out.column("Name") == t1.column("Name")


def test_add_noise_identity_spec():
    t1 = fixture_table1()
    out = add_noise(t1, "Age", NoiseSpec({0: 1.0}), random.Random(1))
    assert out == t1


def test_add_noise_large_sample_mean():
    ds = ages_dataset([0] * 100_000)
    out = add_noise(ds, "Age", NoiseSpec.symmetric(2), random.Random(20240501))
    mean = sum(out.column("Age")) / 100_000
    assert -0.02 <= mean <= 0.02


def test_add_noise_kind_checks():
    with pytest.raises(KindMismatch):
        add_noise(fixture_table1(), "Gender", NoiseSpec.symmetric(1), random.Random(0))
    with pytest.raises(KindMismatch):
        add_noise(table2(), "Age", NoiseSpec.symmetric(1), random.Random(0))


# --- data swapping ------------------------------------------------------------

def test_swap_values_zero_is_identity():
    t1 = fixture_table1()
    assert swap_values(t1, "Diagnosis", 0, random.Random(0)) == t1


def test_swap_values_table5_scenario():
    # two disjoint exchanges: Jane<->Harrison and John<->Kim (seed found once,
    # pinned here; any seed must preserve the multiset)
    t1 = fixture_table1()
    out = swap_values(t1, "Diagnosis", 2, random.Random(200))
    d = out.column("Diagnosis")
    assert d[0] == "Incontinence" and d[3] == "Cancer"
    assert d[1] == "Diabetes" and d[9] == "Migraine"
    assert Counter(d) == Counter(t1.column("Diagnosis"))
    changed = sum(a != b for a, b in zip(d, t1.column("Diagnosis")))
    assert changed <= 4


def test_swap_values_changes_at_most_two_rows_per_swap():
    t1 = fixture_table1()
    before = t1.column("Diagnosis")
    for seed in range(30):
        after = swap_values(t1, "Diagnosis", 3, random.Random(seed)).column("Diagnosis")
        changed = sum(a != b for a, b in zip(after, before))
        assert changed <= 6  # a swapped pair may hold equal values
        assert Counter(after) == Counter(before)


def test_swap_values_bounds():
    t1 = fixture_table1()
    with pytest.raises(TooManySwaps):
        swap_values(t1, "Diagnosis", 6, random.Random(0))
    with pytest.raises(TooManySwaps):
        swap_values(t1, "Diagnosis", -1, random.Random(0))
    swap_values(t1, "Diagnosis", 5, random.Random(0))  # n/2 is allowed


# --- rank swapping ------------------------------------------------------------

def test_rank_swap_reproduces_published_outcome():
    # seed 6 realizes the pairing (1,2)(3,5)(4,6)(7,8)(9,10) over sorted ranks
    t1 = fixture_table1()
    out = rank_swap(t1, "Age", 2, random.Random(6))
    assert out.column("Age") == (47, 21, 42, 26, 39, 27, 44, 22, 35, 22)
    assert out.column("Name") == t1.column("Name")


def test_rank_swap_single_record_identity():
    ds = ages_dataset([41])
    assert rank_swap(ds, "Age", 3, random.Random(0)) == ds


def test_rank_swap_is_permutation():
    t1 = fixture_table1()
    for seed in range(25):
        out = rank_swap(t1, "Age", 9, random.Random(seed))
        assert Counter(out.column("Age")) == Counter(t1.column("Age"))


def test_rank_swap_kind_checks():
    with pytest.raises(KindMismatch):
        rank_swap(fixture_table1(), "Gender", 2, random.Random(0))
    with pytest.raises(ValueError):
        rank_swap(fixture_table1(), "Age", 0, random.Random(0))


def test_rank_swap_displacement_bound():
    t1 = fixture_table1()
    before = t1.column("Age")
    p = 2
    for seed in range(40):
        after = rank_swap(t1, "Age", p, random.Random(seed)).column("Age")
        # every record's value changed only with a value within p sorted ranks
        order = sorted(range(10), key=lambda i: before[i])
        pos_of_record = {rec: r for r, rec in enumerate(order)}
        sorted_vals = [before[i] for i in order]
        for rec in range(10):
            old_rank = pos_of_record[rec]
            new_val = after[rec]
            # the new value must exist within p ranks of the old one
            window = sorted_vals[max(0, old_rank - p) : old_rank + p + 1]
            assert new_val in window


# --- microaggregation -----------------------------------------------------------

def test_univariate_group_means():
    assert microaggregate_univariate(ages_dataset([44, 47, 42]), "Age", 3).column("Age") == (44, 44, 44)
    assert microaggregate_univariate(ages_dataset([27, 21]), "Age", 2).column("Age") == (24, 24)
    assert microaggregate_univariate(ages_dataset([22, 26, 22]), "Age", 3).column("Age") == (23, 23, 23)
    assert microaggregate_univariate(ages_dataset([39, 35]), "Age", 2).column("Age") == (37, 37)
    assert microaggregate_univariate(ages_dataset([5, 5, 5]), "Age", 3).column("Age") == (5, 5, 5)


def test_univariate_remainder_absorbed():
    # 10 ages, k=3: sorted groups (21,22,22) (26,27,35) (39,42,44,47)
    out = microaggregate_univariate(fixture_table1(), "Age", 3)
    assert out.column("Age") == (43, 22, 43, 29, 43, 22, 43, 29, 29, 22)


@given(_small_ages, st.integers(2, 6))
@settings(max_examples=50, deadline=None)
def test_univariate_groups_homogeneous_and_sum_preserving(ages, k):
    if len(ages) < k:
        ages = ages + [0] * (k - len(ages))
    ds = ages_dataset(ages)
    out = microaggregate_univariate(ds, "Age", k)
    before, after = ds.column("Age"), out.column("Age")
    # rounding moves each record's value by at most half a unit
    assert abs(sum(after) - sum(before)) <= 0.5 * len(ages)
    order = sorted(range(len(ages)), key=lambda i: before[i])
    full = len(ages) // k
    for g in range(full):
        hi = (g + 1) * k if g < full - 1 else len(ages)
        group_vals = {after[order[r]] for r in range(g * k, hi)}
        assert len(group_vals) == 1


@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 3) | st.integers(-10**20, 10**20), min_size=n, max_size=n),
    st.integers(2, n))))
@example(([5, 5, 5, 5, 5], 5))  # one run of equal values, k = n
@example(([3, 1, 2, 1, 3, 2, 1], 3))  # ties across runs, n % k = 1
@example(([0, -1, 0, -1, 0, -1, 0, -1], 3))  # n % k = k - 1
@settings(max_examples=300, deadline=None)
def test_univariate_is_aggregate_groups_over_sorted_runs(case):
    ages, k = case
    ranked = [i for _, i in sorted(zip(ages, range(len(ages))))]  # ties by record index
    sizes = [k] * (len(ages) // k - 1) + [k + len(ages) % k]
    runs, start = [], 0
    for size in sizes:
        runs.append(ranked[start : start + size])
        start += size
    ds = ages_dataset(ages)
    assert microaggregate_univariate(ds, "Age", k) == aggregate_groups(ds, ["Age"], runs)


def test_univariate_too_small():
    with pytest.raises(DatasetTooSmall):
        microaggregate_univariate(ages_dataset([1]), "Age", 2)
    with pytest.raises(ValueError, match="^group size must be >= 2, got 1$"):
        microaggregate_univariate(ages_dataset([1, 2, 3]), "Age", 1)


def test_aggregate_groups_published_grouping():
    # the worked medical example: grouping by (gender, age) into classes
    # {0,6,4}, {7,9}, {1,8,5}, {2,3} yields ages 44/24/23/37
    out = aggregate_groups(
        fixture_table1(), ["Age"], [[0, 6, 4], [7, 9], [1, 8, 5], [2, 3]]
    )
    assert out.column("Age") == (44, 23, 37, 37, 44, 23, 44, 24, 23, 24)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=8).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            st.lists(st.integers(-3, 3) | st.integers(-10**30, 10**30),
                     min_size=sum(sizes), max_size=sum(sizes)),
        )
    )
)
@example(([2, 2, 2, 4], [-1, -2, 1, 2, -1, 0, -3, 1, 1, 1]))  # -1.5, 1.5, -0.5, 0
@settings(max_examples=300, deadline=None)
def test_aggregate_groups_rounds_halves_away_from_zero(case):
    sizes, ages = case
    starts = [sum(sizes[:g]) for g in range(len(sizes))]
    groups = [range(start, start + size) for start, size in zip(starts, sizes)]
    out = aggregate_groups(ages_dataset(ages), ["Age"], groups)
    for g in groups:
        mean = Fraction(sum(ages[i] for i in g), len(g))
        away = math.floor(abs(mean) + Fraction(1, 2))
        rounded = -away if mean < 0 else away
        assert all(out.column("Age")[i] == rounded for i in g)


def test_aggregate_groups_requires_partition():
    t1 = fixture_table1()
    with pytest.raises(BadGrouping):
        aggregate_groups(t1, ["Age"], [[0, 1], [1, 2]])
    with pytest.raises(BadGrouping):
        aggregate_groups(t1, ["Age"], [[0, 1, 2]])


@pytest.mark.parametrize("groups,message", [
    ([tuple(range(10)), ()], "group 1 is empty"),
    ([(), tuple(range(10))], "group 0 is empty"),
    ([tuple(range(9)), (9.0,)], "group 1 is not a sequence of integer indices: "),
    ([[0, 1, "2"], range(3, 10)], "group 0 is not a sequence of integer indices: "),
    ([range(9), 9], "group 1 is not a sequence of integer indices: "),
])
def test_aggregate_groups_rejects_groups_it_cannot_aggregate(groups, message):
    with pytest.raises(BadGrouping, match=f"^{message}"):
        aggregate_groups(fixture_table1(), ["Age"], groups)


def test_aggregate_groups_rejects_groups_that_are_not_iterable():
    with pytest.raises(BadGrouping) as info:
        aggregate_groups(fixture_table1(), ["Age"], 5)
    assert str(info.value) == "groups is not an iterable of groups: 'int' object is not iterable"


@pytest.mark.parametrize("groups,message", [
    ([[True, 0], range(2, 10)], "group 0 is not a sequence of integer indices: "
                                "True is a bool, not an integer"),
    ([range(9), [False]], "group 1 is not a sequence of integer indices: "
                          "False is a bool, not an integer"),
], ids=["true", "false"])
def test_aggregate_groups_takes_no_bool_as_an_index(groups, message):
    with pytest.raises(BadGrouping) as info:
        aggregate_groups(fixture_table1(), ["Age"], groups)
    assert str(info.value) == message


def test_aggregate_groups_takes_numpy_indices():
    np = pytest.importorskip("numpy")
    groups = [np.array(g) for g in [[0, 6, 4], [7, 9], [1, 8, 5], [2, 3]]]
    out = aggregate_groups(fixture_table1(), ["Age"], groups)
    assert out.column("Age") == (44, 23, 37, 37, 44, 23, 44, 24, 23, 24)


def test_multivariate_whole_dataset_group():
    out = microaggregate_multivariate(fixture_table1(), ["Age"], 10)
    assert out.column("Age") == (33,) * 10  # mean 32.5 rounds away from zero


def test_multivariate_zero_variance():
    ds = ages_dataset([7, 7, 7, 7])
    assert microaggregate_multivariate(ds, ["Age"], 2) == ds


def test_multivariate_mixed_attributes_grouping():
    # deterministic grouping on the fixture: farthest-point pairs by
    # (gender, z-scored age)
    out = microaggregate_multivariate(fixture_table1(), ["Gender", "Age"], 2)
    assert out.column("Age") == (46, 22, 41, 31, 41, 22, 46, 24, 31, 24)
    assert out.column("Gender") == fixture_table1().column("Gender")


def test_multivariate_group_sizes():
    ages = list(range(11))
    coords = [[float(a)] for a in ages]
    groups = mdav_groups(coords, 2)
    sizes = sorted(len(g) for g in groups)
    assert sum(sizes) == 11
    assert all(s >= 2 for s in sizes[:-1]) and sizes.count(3) <= 1


# The pure-Python MDAV that the array version replaced, kept as the oracle
# that it must match group for group. Two edits: the distance sums are
# spelled out left to right, because sum() of floats is compensated from
# Python 3.12 on, and each centroid coordinate is the exact mean of its
# axis, rounded once, as mdav_groups defines it.

def oracle_mdav_groups(coords, k):
    remaining = list(range(len(coords)))
    groups = []
    while len(remaining) >= 2 * k:
        centroid = _oracle_mean_point([coords[i] for i in remaining])
        r = max(remaining, key=lambda i: (_oracle_dist2(coords[i], centroid), -i))
        group_r = _oracle_nearest_group(coords, remaining, r, k)
        remaining = [i for i in remaining if i not in group_r]
        groups.append(sorted(group_r))
        if len(remaining) < 2 * k:
            break
        s = max(remaining, key=lambda i: (_oracle_dist2(coords[i], coords[r]), -i))
        group_s = _oracle_nearest_group(coords, remaining, s, k)
        remaining = [i for i in remaining if i not in group_s]
        groups.append(sorted(group_s))
    if remaining:
        groups.append(remaining)
    return groups


def _oracle_nearest_group(coords, remaining, center, k):
    others = sorted(
        (i for i in remaining if i != center),
        key=lambda i: (_oracle_dist2(coords[i], coords[center]), i),
    )
    return {center, *others[: k - 1]}


def _oracle_mean_point(points):
    dims = len(points[0])
    return [_exact_mean([p[d] for p in points]) for d in range(dims)]


def _oracle_dist2(a, b):
    return _left_sum((x - y) ** 2 for x, y in zip(a, b))


def _left_sum(values):
    return functools.reduce(operator.add, values, 0)


def _exact_mean(values):
    """The mean of floats, exact and then rounded once. Each float is an
    integer over a power of two; the integers are summed per denominator, so
    only a few Fractions are added, not one per value, which is many times
    slower on the tables of the size tests."""
    by_denominator = defaultdict(int)
    for numerator, denominator in map(float.as_integer_ratio, values):
        by_denominator[denominator] += numerator
    return float(sum(Fraction(n, d) for d, n in by_denominator.items()) / len(values))


def parent_mdav_groups(coords, k):
    """MDAV as it ran before the 3k rule: pairs of groups while 2k points
    remain, then the rest as one group, which could hold fewer than k."""
    remaining = list(range(len(coords)))
    groups = []
    while len(remaining) >= 2 * k:
        centroid = _oracle_mean_point([coords[i] for i in remaining])
        r = max(remaining, key=lambda i: (_oracle_dist2(coords[i], centroid), -i))
        group_r = _oracle_nearest_group(coords, remaining, r, k)
        remaining = [i for i in remaining if i not in group_r]
        s = max(remaining, key=lambda i: (_oracle_dist2(coords[i], coords[r]), -i))
        group_s = _oracle_nearest_group(coords, remaining, s, k)
        remaining = [i for i in remaining if i not in group_s]
        groups += [sorted(group_r), sorted(group_s)]
    if remaining:
        groups.append(remaining)
    return groups


@st.composite
def mdav_cases(draw):
    """Points drawn from a small pool, so duplicates are common; grid values
    make exact distance ties, short decimals make centroids whose float sums
    round, and n is often in [2k, 3k), the last-pair case."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 5 * k) | st.integers(2 * k, 3 * k - 1))
    value = draw(st.sampled_from([
        st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0, 0.5 ** 0.5]),
        st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 1.3, 2.9]),
        st.floats(-1e6, 1e6),
    ]))
    point = st.tuples(*[value] * draw(st.integers(0, 3)))
    pool = draw(st.lists(point, min_size=1, max_size=max(1, n)))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), k


@given(mdav_cases())
# 1 and 2 are almost equally far from 0; squaring by t * t instead of ** 2
# rounds one of the two distances differently (with glibc's pow)
@example(([(0.0, 0.0), (0.5541073592760104, 1.8477517867186066),
           (1.622405046322486, 1.0435628857874204), (1.5, 1.5)], 2))
# the centroid's rounding changes which pair forms: these 20 points' exact
# mean is 0.655, their left-to-right sum over 20 gives 0.6549999999999997
# and np.sum's pairwise one 0.6549999999999999
@example(([(x,) for x in (2.9, 1.3, 0.1, 1.3, 0.6, 0.1, 0.7, 0.3, 0.3, 0.2,
                          1.1, 0.1, 0.2, 0.2, 0.1, 0.6, 0.1, 1.1, 0.7, 1.1)], 2))
# the squared distances between these points underflow to 0, so 0 and 4 tie
# with the centre 5 itself; the centre must still be in its own group
@example(([(1e-162,), (2e-162,), (3e-162,), (5e-162,), (1e-162,), (0.0,)], 2))
# four rows sit at or below the k-th distance from each centre, (11, 0) and
# then (0, 1), for three slots: the lowest record index takes the tied slot
@example(([(0.0, 0.0), (10.0, 1.0), (0.5, 0.0), (10.0, -1.0), (10.0, 0.0), (0.0, 0.5),
           (11.0, 0.0), (9.0, 0.0), (1.0, 1.0), (0.0, 1.0)], 3))
# zero-length points: every row is at distance 0 from every centre
@example(([()] * 7, 2))
@settings(max_examples=400, deadline=None)
def test_mdav_groups_equal_pure_python_oracle(case):
    coords, k = case
    groups = mdav_groups(coords, k)
    assert groups == oracle_mdav_groups(coords, k)
    assert all(type(i) is int for g in groups for i in g)


def test_mdav_groups_on_benchmark_sized_input():
    rng = random.Random(2007)
    ages = [rng.randint(18, 90) for _ in range(600)]
    incomes = [rng.randint(10_000, 150_000) for _ in range(600)]
    ds = Dataset.from_records(
        Schema((Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
                Attribute("Income", AttributeRole.SENSITIVE, Kind.INTEGER))),
        list(zip(ages, incomes)),
    )
    coords = anonymize._mixed_coordinates(ds, ["Age", "Income"])
    assert mdav_groups(coords, 5) == oracle_mdav_groups(coords, 5)


@pytest.mark.parametrize("ages", [
    [10**400, 1, 2],  # the mean overflows
    [10**200, -(10**200), 0],  # a squared deviation overflows
    [10**154, -(10**154)] * 2,  # only the sum of the squares overflows, to inf
])
def test_multivariate_rejects_integers_beyond_float_range(ages):
    with pytest.raises(ValueOutOfRange, match="'Age'"):
        microaggregate_multivariate(ages_dataset(ages), ["Age"], 2)


def test_multivariate_takes_large_integers_within_float_range():
    out = microaggregate_multivariate(ages_dataset([10**150, 10**150 + 2, 0, 2]), ["Age"], 2)
    assert out.column("Age") == (10**150 + 1, 10**150 + 1, 1, 1)


def test_mdav_small_last_group():
    coords = [[float(x)] for x in range(11)]
    assert sorted(len(g) for g in mdav_groups(coords, 5)) == [5, 6]
    coords = [[float(x)] for x in range(12)]
    assert sorted(len(g) for g in mdav_groups(coords, 5)) == [5, 7]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_mdav_groups_hold_at_least_k(k):
    rng = random.Random(k)
    for n in range(k, 6 * k):
        coords = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(n)]
        groups = mdav_groups(coords, k)
        assert sorted(i for g in groups for i in g) == list(range(n))
        assert all(k <= len(g) < 2 * k for g in groups)
        if n % (2 * k) >= k:
            assert groups == parent_mdav_groups(coords, k)


def numpy_mdav_groups(coords, k):
    """The numpy MDAV this module replaced, verbatim but for one line: each
    centroid coordinate is the exact mean of its axis, rounded once, as
    mdav_groups defines it, where the array version took np.cumsum's
    left-to-right sum."""
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
        centroid = [_exact_mean(column) for column in axes]
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


# the benchmark's diagnoses with their relative frequencies
_DIAGNOSES = {"Asthma": 8, "Cancer": 4, "Diabetes": 9, "Flu": 12, "Gastritis": 5,
              "Incontinence": 3, "Migraine": 7, "No illness": 30}


def patient_coordinates(n, attributes, seed):
    """MDAV coordinates of a table shaped as the benchmark's: uniform ages,
    log-normal incomes, distinct weights, two genders and eight diagnoses
    of unequal frequency. All five attributes give 3 + 2 + 8 = 13 axes."""
    rng = random.Random(seed)
    schema = Schema(tuple(
        Attribute(name, AttributeRole.QUASI_IDENTIFIER, kind)
        for name, kind in (("Age", Kind.INTEGER), ("Income", Kind.INTEGER),
                           ("Weight", Kind.INTEGER), ("Gender", Kind.TEXT),
                           ("Diagnosis", Kind.TEXT))))
    rows = [(rng.randint(18, 90), int(rng.lognormvariate(10.5, 0.5)), weight,
             rng.choice(["Female", "Male"]),
             rng.choices(list(_DIAGNOSES), list(_DIAGNOSES.values()))[0])
            for weight in rng.sample(range(40_000, 130_000), n)]
    return anonymize._mixed_coordinates(Dataset.from_records(schema, rows), attributes)


def _pool_points(n, pool, seed):
    rng = random.Random(seed)
    return [rng.choice(pool) for _ in range(n)]


def _gauss_points(n, dims, scale, seed):
    rng = random.Random(seed)
    return [tuple(rng.gauss(0, 1) * scale for _ in range(dims)) for _ in range(n)]


_AT_SIZE = {
    "benchmark 2007 x 2": lambda: (patient_coordinates(2007, ["Age", "Income"], 4242), 5),
    "2007 x 13": lambda: (patient_coordinates(
        2007, ["Age", "Income", "Weight", "Gender", "Diagnosis"], 7), 5),
    "5003 x 2": lambda: (patient_coordinates(5003, ["Age", "Income"], 11), 4),
    # 3000 records on 40 distinct points: most distances tie, many at 0
    "clustered duplicates": lambda: (_pool_points(3000, _gauss_points(40, 2, 1.0, 1), 2), 5),
    # integer and decimal grids: exact distance ties, and centroids that round
    "integer grid": lambda: (_pool_points(
        2000, [(float(x), float(y)) for x in range(-6, 7) for y in range(-4, 5)], 3), 5),
    "decimal grid": lambda: (_pool_points(
        1500, [(x / 10, y / 10, z / 10) for x in range(-3, 4) for y in range(0, 12, 3)
               for z in (1, 7)], 4), 3),
    # squared distances of about 1e-320 are subnormal, most of them 0
    "near 1e-160": lambda: (_gauss_points(1500, 3, 1e-160, 5), 5),
    "near 1e150": lambda: (_gauss_points(1500, 3, 1e150, 6), 5),
}


@pytest.mark.parametrize("case", _AT_SIZE.values(), ids=_AT_SIZE.keys())
def test_mdav_groups_equal_numpy_reference_at_size(case):
    coords, k = case()
    assert mdav_groups(coords, k) == numpy_mdav_groups(coords, k)


def test_mdav_groups_equal_numpy_reference_past_the_float_range():
    # squares of about 1e400 overflow: C's pow gives inf where ** raises
    np = pytest.importorskip("numpy")
    coords = _gauss_points(300, 2, 1e200, 8) + [(1e308, -1e308), (-1e308, 1e308)]
    with np.errstate(over="ignore"):
        expected = numpy_mdav_groups(coords, 3)
    assert mdav_groups(coords, 3) == expected


def test_mdav_groups_scan_every_point_tied_for_farthest():
    # Seven records tie as farthest from the first centre, 174.75. Their
    # distance to the anchor plus the anchor's distance to that centre
    # rounds below their distance to it, so without the margin the scan
    # would stop after the first of them it meets: the highest index.
    coords = [(174.75,)] * 2 + [(0.0,)] * 7
    groups = mdav_groups(coords, 2)
    assert groups == numpy_mdav_groups(coords, 2) == [[0, 1], [2, 3], [4, 5], [6, 7, 8]]


@pytest.mark.parametrize("k,error,message", [
    (0, ValueError, "k must be >= 1, got 0"),
    (-1, ValueError, "k must be >= 1, got -1"),
    (True, TypeError, "k must be an integer, got True"),
    (2.0, TypeError, "k must be an integer, got 2.0"),
    ("2", TypeError, "k must be an integer, got '2'"),
])
def test_mdav_groups_rejects_a_group_size_that_is_not_a_positive_int(k, error, message):
    with pytest.raises(error) as info:
        mdav_groups([(1.0,), (2.0,), (3.0,), (4.0,)], k)
    assert str(info.value) == message


@pytest.mark.parametrize("coords,message", [
    ([(1.0, 2.0), (3.0,)],
     "coords must be points of one length: point 1 has 1 coordinates, point 0 has 2"),
    ([(1.0,), (2.0,), (3.0, 4.0)],
     "coords must be points of one length: point 2 has 2 coordinates, point 0 has 1"),
    ([(1.0,), (math.nan,), (3.0,), (4.0,)], "coords must be finite: point 1 is (nan,)"),
    ([(0.0, 1.0), (2.0, -math.inf)], "coords must be finite: point 1 is (2.0, -inf)"),
    ([(math.inf, 0.0), (2.0, 1.0)], "coords must be finite: point 0 is (inf, 0.0)"),
    # a str or bytes point was once read as its characters, "12" as (1.0, 2.0)
    (["12", "34", "56", "78"], "coords must be points of numbers: point 0 is '12'"),
    ([b"12", b"34", b"56", b"78"], "coords must be points of numbers: point 0 is b'12'"),
    ([(1.0,), (2.0,), "3", (4.0,)], "coords must be points of numbers: point 2 is '3'"),
    ("ab", "coords must be a sequence of points, got 'ab'"),
    (b"ab", "coords must be a sequence of points, got b'ab'"),
    (5, "coords must be a sequence of points, got 5"),
    # a set was taken in its own order, which is not the records'
    ({(1.0,)}, "coords must be a sequence of points, got {(1.0,)}"),
    ({0: (1.0,)}, "coords must be a sequence of points, got {0: (1.0,)}"),
])
def test_mdav_groups_rejects_ragged_or_non_finite_points(coords, message):
    with pytest.raises(ValueError) as info:
        mdav_groups(coords, 2)
    assert type(info.value) is ValueError and str(info.value) == message


def test_mdav_groups_takes_numpy_arrays_and_scalars():
    np = pytest.importorskip("numpy")
    coords = [(5.0, 1.0), (1.0, 2.0), (4.0, 0.0), (1.0, 1.0)]
    expected = mdav_groups(coords, 2)
    assert mdav_groups(np.array(coords), 2) == expected
    assert mdav_groups([tuple(map(np.float64, p)) for p in coords], 2) == expected
    with pytest.raises(ValueError, match=r"^coords must be a sequence of points, got array\(5\)$"):
        mdav_groups(np.array(5), 2)


def test_mdav_groups_of_size_one_are_single_points():
    coords = [(float(x),) for x in (5, 1, 4, 1, 3)]
    groups = mdav_groups(coords, 1)
    assert groups == numpy_mdav_groups(coords, 1)
    assert sorted(map(tuple, groups)) == [(0,), (1,), (2,), (3,), (4,)]


def test_multivariate_too_small():
    with pytest.raises(DatasetTooSmall):
        microaggregate_multivariate(ages_dataset([1]), "Age", 2)
    with pytest.raises(ValueError, match="^group size must be >= 2, got 1$"):
        microaggregate_multivariate(ages_dataset([1, 2, 3]), ["Age"], 1)


# --- property tests -------------------------------------------------------------

@given(_small_ages, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_swap_values_preserves_multiset(ages, seed):
    ds = ages_dataset(ages)
    rng = random.Random(seed)
    n_swaps = rng.randrange(len(ages) // 2 + 1)
    out = swap_values(ds, "Age", n_swaps, rng)
    assert Counter(out.column("Age")) == Counter(ages)


@given(_small_ages, st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_swap_preserves_multiset(ages, p, seed):
    ds = ages_dataset(ages)
    out = rank_swap(ds, "Age", p, random.Random(seed))
    assert Counter(out.column("Age")) == Counter(ages)


@given(_small_ages, st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_generalization_monotonicity_nested_bins(ages, width, factor, seed):
    # coarser bins only merge classes when they nest, i.e. width -> width*factor
    ds = ages_dataset(ages)
    fine = generalize(ds, [GeneralizationRule("Age", NumericBins(width))])
    coarse = generalize(ds, [GeneralizationRule("Age", NumericBins(width * factor))])
    assert k_anonymity(coarse, ["Age"]) >= k_anonymity(fine, ["Age"])


@given(_small_ages, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_transforms_leave_other_columns_alone(ages, seed):
    schema = Schema(
        (
            Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
            Attribute("Tag", AttributeRole.NON_SENSITIVE, Kind.TEXT),
        )
    )
    ds = Dataset.from_records(schema, tuple((a, f"t{i}") for i, a in enumerate(ages)))
    transformed = [
        add_noise(ds, "Age", NoiseSpec.symmetric(2), random.Random(seed)),
        rank_swap(ds, "Age", 2, random.Random(seed)),
        swap_values(ds, "Age", len(ages) // 2, random.Random(seed)),
        microaggregate_univariate(ds, "Age", 2),
    ]
    for out in transformed:
        assert out.column("Tag") == ds.column("Tag")


# The exact cell types of each kind, written out here rather than taken
# from privkit: a Dataset holds no other cell.
_EXACT_TYPES = {
    Kind.INTEGER: (int, Interval, Suppressed),
    Kind.TEXT: (str, MaskedText, Suppressed),
}


def cells_not_of_their_kind(dataset):
    """Each (attribute, cell) whose cell is not exactly of a type its kind allows."""
    bad = []
    for attr, column in zip(dataset.schema.attributes, dataset.columns):
        allowed = _EXACT_TYPES[attr.kind]
        for c in column:
            if type(c) not in allowed:
                bad.append((attr.name, c))
    return bad


_TYPES_SCHEMA = Schema((
    Attribute("Name", AttributeRole.EXPLICIT_IDENTIFIER, Kind.TEXT),
    Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
    Attribute("ZIP", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT),
    Attribute("Income", AttributeRole.SENSITIVE, Kind.INTEGER),
))
_INTEGER_TEXTS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    st.just("*"),
    st.tuples(st.integers(-99, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}-{t[0] + t[1]}"),
)


@given(st.lists(st.tuples(st.text("ab *1\u00e9", max_size=4), _INTEGER_TEXTS,
                          st.text("ab,\"*\n\r1", max_size=4), _INTEGER_TEXTS), max_size=30),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_load_csv_builds_only_exact_cell_types(rows, quoted):
    # plain rows take the split-at-commas path; quoting every field (the
    # ZIP cells may hold commas, quotes and line ends) takes csv.reader's
    if not quoted:
        rows = [(a, b, c.translate({ord(ch): None for ch in ',"\n\r'}), d)
                for a, b, c, d in rows]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n",
                        quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
    writer.writerows([_TYPES_SCHEMA.names, *rows])
    dataset = load_csv(text.getvalue().encode("utf-8"), _TYPES_SCHEMA)
    assert len(dataset) == len(rows) and cells_not_of_their_kind(dataset) == []


@given(st.lists(st.tuples(st.text("ab *1", min_size=2, max_size=4), st.integers(-50, 50),
                          st.text("ab *1", min_size=2, max_size=4), st.integers(0, 10**6)),
                min_size=2, max_size=30),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_transforms_build_only_exact_cell_types(rows, seed):
    # read from CSV as the CLI reads it: a raw text ending in "*" is a mask
    dataset = load_csv(write_csv(Dataset.from_records(_TYPES_SCHEMA, rows)), _TYPES_SCHEMA)
    rng = random.Random(seed)
    binned = generalize(dataset, [GeneralizationRule("Age", NumericBins(7, 3)),
                                  GeneralizationRule("ZIP", TextPrefix(1)),
                                  GeneralizationRule("Name", SuppressAll())])
    outputs = [
        dataset,
        suppress(dataset, ["Name", "Age"]),
        binned,
        generalize(binned, [GeneralizationRule("Age", NumericBins(20)),
                            GeneralizationRule("ZIP", TextPrefix(0))]),
        add_noise(dataset, "Income", NoiseSpec.symmetric(3), rng),
        swap_values(binned, "ZIP", len(rows) // 2, rng),
        rank_swap(dataset, "Age", 2, rng),
        microaggregate_univariate(dataset, "Income", 2),
        microaggregate_multivariate(dataset, ["Age", "ZIP", "Income"], 2),
        aggregate_groups(dataset, ["Age", "ZIP", "Income"], [range(len(rows))]),
    ]
    for out in outputs:
        assert cells_not_of_their_kind(out) == []
