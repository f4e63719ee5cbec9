import io
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from privkit.anonymize import NumericBins, TextPrefix
from privkit.dataset import (
    SUPPRESSED,
    Attribute,
    AttributeRole,
    Dataset,
    Interval,
    Kind,
    MaskedText,
    Schema,
    fixture_table1,
    load_csv,
    parse_cell,
    render_cell,
    write_csv,
)
from privkit.errors import ArityError, HeaderMismatch, KindMismatch, ParseError, UnknownAttribute

QI = AttributeRole.QUASI_IDENTIFIER


def two_col_schema():
    return Schema(
        (
            Attribute("Name", AttributeRole.EXPLICIT_IDENTIFIER, Kind.TEXT),
            Attribute("Age", QI, Kind.INTEGER),
        )
    )


def test_load_simple_row():
    ds = load_csv(b"Name,Age\nJane Doe,44\n", two_col_schema())
    assert len(ds) == 1
    assert ds.records[0] == ("Jane Doe", 44)


def test_load_fixture_csv_round_trip():
    t1 = fixture_table1()
    ds = load_csv(write_csv(t1), t1.schema)
    assert ds == t1
    assert ds.column("Age") == (44, 22, 39, 35, 42, 22, 47, 27, 26, 21)


def test_load_rejects_short_row():
    with pytest.raises(ArityError, match="row 1"):
        load_csv(b"Name,Age\nJane Doe\n", two_col_schema())


def test_load_rejects_no_partial_dataset():
    # a bad row anywhere rejects the whole file
    with pytest.raises(ArityError, match="row 2"):
        load_csv(b"Name,Age\nJane Doe,44\noops\n", two_col_schema())


def test_load_rejects_header_mismatch():
    with pytest.raises(HeaderMismatch):
        load_csv(b"Age,Name\nJane,44\n", two_col_schema())
    with pytest.raises(HeaderMismatch):
        load_csv(b"", two_col_schema())


def test_load_rejects_bad_integer():
    with pytest.raises(ParseError, match="row 1.*Age"):
        load_csv(b"Name,Age\nJane,forty\n", two_col_schema())
    # int() quirks must not leak in: underscores and whitespace are not digits
    with pytest.raises(ParseError):
        load_csv(b"Name,Age\nJane,4_4\n", two_col_schema())


@pytest.mark.parametrize("cell", ["12\n", "3-4\n", "12\r\n", "-5--2\n"])
def test_load_rejects_integer_cell_with_final_newline(cell):
    # a quoted cell keeps its newline; it is not the integer or interval before it
    with pytest.raises(ParseError, match="row 2, column 'Age'"):
        load_csv(f'Name,Age\nJane,44\nJoe,"{cell}"\n'.encode(), two_col_schema())
    with pytest.raises(ParseError):
        parse_cell(cell, Kind.INTEGER)


def test_load_accepts_file_object():
    ds = load_csv(io.BytesIO(b"Name,Age\nJane,44\n"), two_col_schema())
    assert ds.records == (("Jane", 44),)


def test_write_empty_dataset_is_header_only():
    ds = Dataset.from_records(two_col_schema(), ())
    assert write_csv(ds) == b"Name,Age\n"


def test_generalized_cell_encodings():
    assert render_cell(Interval(40, 49)) == "40-49"
    assert render_cell(MaskedText("12")) == "12*"
    assert render_cell(SUPPRESSED) == "*"
    assert parse_cell("40-49", Kind.INTEGER) == Interval(40, 49)
    assert parse_cell("12*", Kind.TEXT) == MaskedText("12")
    assert parse_cell("*", Kind.TEXT) is SUPPRESSED
    assert parse_cell("*", Kind.INTEGER) is SUPPRESSED
    assert parse_cell("-5--2", Kind.INTEGER) == Interval(-5, -2)


def test_render_cell_rejects_foreign_values():
    for cell in (True, False, 1.5, None, b"x"):
        with pytest.raises(KindMismatch):
            render_cell(cell)


def test_interval_validates_bounds():
    with pytest.raises(ValueError):
        Interval(5, 4)
    with pytest.raises(ParseError):
        parse_cell("49-40", Kind.INTEGER)


def test_fixture_contents():
    t1 = fixture_table1()
    assert len(t1) == 10
    assert t1.records[0] == ("Jane Doe", 44, "Female", "12345", "Cancer")
    assert t1.records[5] == ("Thomas Müller", 22, "Male", "12222", "Diabetes")
    assert Counter(t1.column("Diagnosis")) == {
        "Cancer": 3,
        "Incontinence": 2,
        "Diabetes": 2,
        "Migraine": 1,
        "No illness": 2,
    }
    roles = {a.name: a.role for a in t1.schema.attributes}
    assert roles["Name"] is AttributeRole.EXPLICIT_IDENTIFIER
    assert all(roles[n] is QI for n in ("Age", "Gender", "ZIP"))
    assert roles["Diagnosis"] is AttributeRole.SENSITIVE


def test_schema_json_round_trip():
    schema = fixture_table1().schema
    assert Schema.from_json(schema.to_json()) == schema


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Schema((Attribute("A", QI, Kind.TEXT), Attribute("A", QI, Kind.TEXT)))


@pytest.mark.parametrize("raw", [
    [],
    [{"name": ["a"], "role": "sensitive", "kind": "text"}],
    [{"name": 3, "role": "sensitive", "kind": "text"}],
    [{"name": None, "role": "sensitive", "kind": "text"}],
], ids=["empty", "list-name", "int-name", "null-name"])
def test_schema_from_json_rejects(raw):
    with pytest.raises(ParseError):
        Schema.from_json(json.dumps(raw))


@pytest.mark.parametrize("name,role,kind,error,message", [
    (3, "sensitive", "text", TypeError, "attribute name 3 is not a string"),
    (None, "sensitive", "text", TypeError, "attribute name None is not a string"),
    (["a"], "sensitive", "text", TypeError, "attribute name ['a'] is not a string"),
    ("A", "secret", "text", ValueError, "'secret' is not a valid AttributeRole"),
    ("A", "text", "text", ValueError, "'text' is not a valid AttributeRole"),
    ("A", "sensitive", "float", ValueError, "'float' is not a valid Kind"),
    ("A", "sensitive", None, ValueError, "None is not a valid Kind"),
], ids=["int-name", "null-name", "list-name", "unknown-role", "kind-value-as-role",
        "unknown-kind", "null-kind"])
def test_attribute_rejects_what_the_schema_reader_rejects(name, role, kind, error, message):
    with pytest.raises(error) as direct:
        Attribute(name, role, kind)
    assert str(direct.value) == message
    with pytest.raises(ParseError) as read:
        Schema.from_json(json.dumps([{"name": name, "role": role, "kind": kind}]))
    assert str(read.value) == f"bad schema entry at index 0: {message}"


def test_attribute_takes_role_and_kind_by_value():
    age = Attribute("Age", "quasi_identifier", "integer")
    assert age == Attribute("Age", QI, Kind.INTEGER)
    assert age.role is QI and age.kind is Kind.INTEGER
    # so the column is read as integers, not as text
    assert load_csv(b"Age\n5\n", Schema((age,))).column("Age") == (5,)


@pytest.mark.parametrize("text", ['[{"name": "a"', "[" * 100_000], ids=["truncated", "deep"])
def test_schema_from_json_rejects_text_that_is_not_json(text):
    with pytest.raises(ParseError, match="^schema is not valid JSON: "):
        Schema.from_json(text)


def test_schema_needs_an_attribute():
    # without a column there is nothing to carry the row count
    with pytest.raises(ValueError, match="no attributes"):
        Schema(())


def test_dataset_is_stored_by_column():
    t1 = fixture_table1()
    assert t1.columns[1] == (44, 22, 39, 35, 42, 22, 47, 27, 26, 21)
    assert t1.column("Age") is t1.columns[1]
    out = t1.replace_column("Age", [0] * 10)
    assert out.column("Age") == (0,) * 10
    assert all(out.columns[i] is t1.columns[i] for i in (0, 2, 3, 4))
    assert t1.column("Age")[0] == 44  # the input is untouched
    with pytest.raises(ArityError):
        t1.replace_column("Age", [0] * 9)
    with pytest.raises(ArityError):
        Dataset(t1.schema, t1.columns[:4])
    with pytest.raises(ArityError):
        Dataset(t1.schema, t1.columns[:4] + ((),))
    with pytest.raises(ArityError, match="record 1"):
        Dataset.from_records(two_col_schema(), (("a", 1), ("b",)))
    assert Dataset.from_records(t1.schema, t1.records) == t1


def test_unknown_attribute():
    with pytest.raises(UnknownAttribute):
        fixture_table1().schema.index("Salary")


# Text cells that end in "*" would parse back as masks, and NUL cannot be
# written by the csv module; both sit outside the supported input domain.
_text_cell = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"
    ),
    max_size=12,
).filter(lambda s: not s.endswith("*"))


_int_cell = st.integers(-(10**9), 10**9)
# generalized cells as the transforms make them, TextPrefix(keep=0) included
_any_text_cell = st.one_of(
    _text_cell,
    st.builds(lambda t, keep: TextPrefix(keep).apply(t), _text_cell, st.integers(0, 4)),
    st.just(SUPPRESSED),
)
_any_int_cell = st.one_of(
    _int_cell,
    st.builds(
        lambda x, width, origin: NumericBins(width, origin).apply(x),
        _int_cell,
        st.integers(1, 100),
        st.integers(-50, 50),
    ),
    st.just(SUPPRESSED),
)


@given(
    st.lists(
        st.tuples(_any_text_cell, _any_int_cell),
        max_size=25,
    )
)
def test_csv_round_trip_identity(rows):
    ds = Dataset.from_records(two_col_schema(), tuple(rows))
    assert load_csv(write_csv(ds), ds.schema) == ds
