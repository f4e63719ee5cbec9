"""The API's value classes behave as the frozen dataclasses they replaced:
the same repr text, equality and hash by exact type and field values, no
assignment, pickling and copying by value, and dataclass argument binding.

Each repr literal below is the text the dataclass version printed.
"""

import copy
import pickle

import pytest

from privkit.anonymize import (
    EquivalenceClass,
    GeneralizationRule,
    NoiseSpec,
    NumericBins,
    Partition,
    SuppressAll,
    TextPrefix,
)
from privkit.assoc import Rule, TransactionSet
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
)
from privkit.rappor import BloomFilter, PermanentResponse, RapporParams, Report
from privkit.smc import SecretSumTranscript

AGE = Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER)
AGE_REPR = ("Attribute(name='Age', role=<AttributeRole.QUASI_IDENTIFIER: 'quasi_identifier'>, "
            "kind=<Kind.INTEGER: 'integer'>)")

# (class, fields by keyword in field order, the dataclass repr, another value)
VALUES = [
    (RapporParams, dict(k=16, h=2, f=0.5, q=0.75, p=0.5, hash_seed=0),
     "RapporParams(k=16, h=2, f=0.5, q=0.75, p=0.5, hash_seed=0)",
     RapporParams(k=16, h=2, f=0.5, q=0.75, p=0.5, hash_seed=1)),
    (BloomFilter, dict(bits=(1, 0, 1)), "BloomFilter(bits=(1, 0, 1))", BloomFilter((1, 0, 0))),
    (PermanentResponse, dict(value="flu", bits=(0, 1)),
     "PermanentResponse(value='flu', bits=(0, 1))", PermanentResponse("flu", (1, 1))),
    (Report, dict(bits=(1,)), "Report(bits=(1,))", Report((0,))),
    (Interval, dict(lo=1, hi=2), "Interval(lo=1, hi=2)", Interval(1, 3)),
    (MaskedText, dict(prefix="12"), "MaskedText(prefix='12')", MaskedText("1")),
    (Suppressed, {}, "Suppressed()", None),
    (Attribute, dict(name="Age", role=AttributeRole.QUASI_IDENTIFIER, kind=Kind.INTEGER),
     AGE_REPR, Attribute("Age", AttributeRole.SENSITIVE, Kind.INTEGER)),
    (Schema, dict(attributes=(AGE,)), f"Schema(attributes=({AGE_REPR},))",
     Schema((Attribute("Age", AttributeRole.SENSITIVE, Kind.INTEGER),))),
    (Dataset, dict(schema=Schema((AGE,)), columns=((44, Interval(20, 29)),)),
     f"Dataset(schema=Schema(attributes=({AGE_REPR},)), columns=((44, Interval(lo=20, hi=29)),))",
     Dataset(Schema((AGE,)), ((44, 45),))),
    (NumericBins, dict(width=5, origin=0), "NumericBins(width=5, origin=0)", NumericBins(5, 1)),
    (TextPrefix, dict(keep=2), "TextPrefix(keep=2)", TextPrefix(3)),
    (SuppressAll, {}, "SuppressAll()", None),
    (GeneralizationRule, dict(attribute="Age", strategy=NumericBins(10, origin=5)),
     "GeneralizationRule(attribute='Age', strategy=NumericBins(width=10, origin=5))",
     GeneralizationRule("Age", NumericBins(10))),
    (EquivalenceClass, dict(key=(Interval(20, 29), SUPPRESSED), members=(0, 2)),
     "EquivalenceClass(key=(Interval(lo=20, hi=29), Suppressed()), members=(0, 2))",
     EquivalenceClass((Interval(20, 29), SUPPRESSED), (0,))),
    (Partition, dict(classes=(EquivalenceClass(("a",), (1,)),)),
     "Partition(classes=(EquivalenceClass(key=('a',), members=(1,)),))", Partition(())),
    (NoiseSpec, dict(probabilities={-1: 0.5, 1: 0.5}),
     "NoiseSpec(probabilities={-1: 0.5, 1: 0.5})", NoiseSpec({-2: 0.5, 2: 0.5})),
    (TransactionSet, dict(transactions=(frozenset({"a"}),), items=frozenset({"a"})),
     "TransactionSet(transactions=(frozenset({'a'}),), items=frozenset({'a'}))",
     TransactionSet((), frozenset({"a"}))),
    (Rule, dict(antecedent=frozenset({"a"}), consequent=frozenset({"b"}), support=0.5,
                certainty=1.0),
     "Rule(antecedent=frozenset({'a'}), consequent=frozenset({'b'}), support=0.5, "
     "certainty=1.0)", Rule(frozenset({"a"}), frozenset({"b"}), 0.5, 0.75)),
    (SecretSumTranscript, dict(modulus=7, votes=(1, 0), shares=((3, 5), (2, 4)),
                               aggregated=(5, 2), total=1),
     "SecretSumTranscript(modulus=7, votes=(1, 0), shares=((3, 5), (2, 4)), "
     "aggregated=(5, 2), total=1)", SecretSumTranscript(7, (1, 1), ((3, 5), (3, 4)), (6, 2), 2)),
]
IDS = [cls.__name__ for cls, *_ in VALUES]
WITH_FIELDS = [entry for entry in VALUES if entry[1]]
WITH_FIELDS_IDS = [cls.__name__ for cls, *_ in WITH_FIELDS]
UNHASHABLE = {NoiseSpec}  # its dict field, as with the dataclass


def test_every_value_class_is_covered():
    assert len(VALUES) == 20


@pytest.mark.parametrize("cls,fields,text,other", VALUES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, text, other):
    assert repr(cls(**fields)) == repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls,fields,text,other", VALUES, ids=IDS)
def test_equality_and_hash_go_by_value(cls, fields, text, other):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and a is not b and not a != b
    if other is not None:
        assert a != other and not a == other
    assert a != tuple(fields.values()) and a.__eq__(tuple(fields.values())) is NotImplemented
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:  # the hash of the field tuple, as the dataclass hashed it
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in fields))


def test_equal_fields_of_another_class_are_unequal():
    assert BloomFilter((1,)) != Report((1,))
    assert Report((1,)) != BloomFilter((1,))
    assert SuppressAll() != SUPPRESSED
    assert Suppressed() == SUPPRESSED


@pytest.mark.parametrize("cls,fields,text,other", VALUES, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(cls, fields, text, other):
    value = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls,fields,text,other", VALUES, ids=IDS)
def test_pickle_and_copies_keep_the_value(cls, fields, text, other):
    value = cls(**fields)
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is cls and again == value and repr(again) == text


@pytest.mark.parametrize("cls,fields,text,other", WITH_FIELDS, ids=WITH_FIELDS_IDS)
def test_arguments_bind_as_in_the_dataclass(cls, fields, text, other):
    values = list(fields.values())
    first, *rest = fields
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, values[0])
    # positional and keyword arguments mix as in a call
    assert repr(cls(values[0], **{name: fields[name] for name in rest})) == text


@pytest.mark.parametrize("cls", [Suppressed, SuppressAll])
def test_classes_without_fields_take_no_arguments(cls):
    with pytest.raises(TypeError):
        cls(1)
    with pytest.raises(TypeError):
        cls(kind=None)


def test_defaults_hold():
    assert NumericBins(5).origin == 0 and NumericBins(5) == NumericBins(5, 0)
    assert RapporParams(16, 2, 0.5, 0.75, 0.5).hash_seed == 0
    assert NumericBins.origin == 0  # the default stays a class attribute


def test_class_variables_are_not_fields():
    assert NumericBins(5).kind is Kind.INTEGER and TextPrefix(2).kind is Kind.TEXT
    assert SuppressAll().kind is None
    with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
        TextPrefix(2, kind=Kind.TEXT)
    with pytest.raises(TypeError):
        NumericBins(5, 0, Kind.INTEGER)
    assert "kind" not in repr(NumericBins(5))


def test_post_init_normalizes_before_equality():
    # __post_init__ runs on every construction: ints become floats, values
    # become enum members, and equal values compare equal
    assert RapporParams(16, 2, 1, 1, 0) == RapporParams(16, 2, 1.0, 1.0, 0.0)
    assert Attribute("Age", "quasi_identifier", "integer") == AGE
    with pytest.raises(ValueError):
        Interval(2, 1)
