import io
from collections import Counter

import pytest
from hypothesis import given, strategies as st

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


def test_load_accepts_file_object():
    ds = load_csv(io.BytesIO(b"Name,Age\nJane,44\n"), two_col_schema())
    assert ds.records == (("Jane", 44),)


def test_write_empty_dataset_is_header_only():
    ds = Dataset(two_col_schema(), ())
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


@given(
    st.lists(
        st.tuples(_text_cell, st.integers(-(10**9), 10**9)),
        max_size=25,
    )
)
def test_csv_round_trip_identity(rows):
    ds = Dataset(two_col_schema(), tuple(rows))
    assert load_csv(write_csv(ds), ds.schema) == ds
