import io
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from privkit.anonymize import NumericBins, TextPrefix, k_anonymity, l_diversity
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
    assert str(Interval(40, 49)) == "40-49"
    assert str(MaskedText("12")) == "12*"
    assert str(SUPPRESSED) == "*"
    assert parse_cell("40-49", Kind.INTEGER) == Interval(40, 49)
    assert parse_cell("12*", Kind.TEXT) == MaskedText("12")
    assert parse_cell("*", Kind.TEXT) is SUPPRESSED
    assert parse_cell("*", Kind.INTEGER) is SUPPRESSED
    assert parse_cell("-5--2", Kind.INTEGER) == Interval(-5, -2)


class Name(str):
    pass


# Cells of no kind, and cells of the other kind: each writes a file that
# does not read back as the same table, or none at all.
FOREIGN_CELLS = [
    (Kind.INTEGER, True), (Kind.INTEGER, False), (Kind.INTEGER, 1.0), (Kind.INTEGER, None),
    (Kind.INTEGER, [1]), (Kind.INTEGER, "1"), (Kind.INTEGER, MaskedText("1")),
    (Kind.TEXT, True), (Kind.TEXT, 1.5), (Kind.TEXT, None), (Kind.TEXT, b"x"),
    (Kind.TEXT, [1]), (Kind.TEXT, Name("n")), (Kind.TEXT, 1), (Kind.TEXT, Interval(1, 2)),
]


@pytest.mark.parametrize("kind,cell", FOREIGN_CELLS,
                         ids=[f"{kind.value}-{cell!r}" for kind, cell in FOREIGN_CELLS])
def test_dataset_rejects_foreign_cells(kind, cell):
    schema = Schema((Attribute("Name", QI, Kind.TEXT), Attribute("X", QI, kind)))
    good = "a" if kind is Kind.TEXT else 7
    message = f"^record 2 of 'X' holds {re.escape(repr(cell))}, not a cell of kind {kind.value}$"
    columns = (("a", "b", "c"), (good, SUPPRESSED, cell))
    with pytest.raises(KindMismatch, match=message):
        Dataset(schema, columns)
    with pytest.raises(KindMismatch, match=message):
        Dataset.from_records(schema, list(zip(*columns)))
    ds = Dataset(schema, (("a", "b", "c"), (good, good, good)))
    with pytest.raises(KindMismatch, match=message):
        ds.replace_column("X", columns[1])


def test_interval_validates_bounds():
    with pytest.raises(ValueError):
        Interval(5, 4)
    with pytest.raises(ParseError):
        parse_cell("49-40", Kind.INTEGER)
    for lo, hi, message in [
        (1.5, 2, "interval lo must be an integer, got 1.5"),  # would write "1.5-2"
        (1, 2.0, "interval hi must be an integer, got 2.0"),
        (True, 2, "interval lo must be an integer, got True"),
        ("1", 2, "interval lo must be an integer, got '1'"),
    ]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Interval(lo, hi)


def test_masked_text_prefix_is_nonempty_text():
    with pytest.raises(ValueError, match="^masked prefix must not be empty$"):
        MaskedText("")  # would write "*", which reads back as SUPPRESSED
    for prefix in (None, 1, b"ab"):
        with pytest.raises(TypeError, match="^masked prefix must be a string, got "):
            MaskedText(prefix)
    assert str(MaskedText("ab*")) == "ab**"


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


def test_iterables_become_tuples():
    t1 = fixture_table1()
    rows = list(t1.records)
    assert Dataset.from_records(t1.schema, (r for r in rows)) == t1
    assert Dataset.from_records(t1.schema, [list(r) for r in rows]) == t1
    schema = Schema(a for a in t1.schema.attributes)
    assert schema.names == t1.schema.names and schema == t1.schema
    listed = Dataset(Schema(list(t1.schema.attributes)), [list(c) for c in t1.columns])
    assert listed == t1 and hash(listed) == hash(t1)
    assert t1.replace_column("Age", (a for a in t1.column("Age"))) == t1


def test_unknown_attribute():
    with pytest.raises(UnknownAttribute):
        fixture_table1().schema.index("Salary")


# Every cell a dataset of each kind can hold, as the transforms make them or
# built directly: text with a comma, a quote, a line end, a lone CR, a "*"
# not at its end, NUL and non-ASCII letters. Raw text ending in "*" is the
# one cell that does not read back as itself; a test below pins it.
_raw_text = st.text(
    st.sampled_from(',"\n\r*\x00 aé漢') | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
).filter(lambda t: not t.endswith("*"))
_CELLS = {
    Kind.TEXT: st.one_of(
        _raw_text,
        st.builds(lambda t, keep: TextPrefix(keep).apply(t), _raw_text, st.integers(0, 4)),
        st.builds(MaskedText, _raw_text.filter(bool)),
        st.just(SUPPRESSED),
    ),
    Kind.INTEGER: st.one_of(
        st.integers(),
        st.integers(-5, 5),
        st.builds(lambda x, width, origin: NumericBins(width, origin).apply(x),
                  st.integers(), st.integers(1, 100), st.integers(-50, 50)),
        st.builds(lambda lo, d: Interval(lo, lo + d), st.integers(), st.integers(0, 9)),
        st.just(SUPPRESSED),
    ),
}


@st.composite
def datasets(draw):
    kinds = draw(st.lists(st.sampled_from(Kind), min_size=1, max_size=4))
    schema = Schema(tuple(Attribute(f"a{i}", QI, kind) for i, kind in enumerate(kinds)))
    rows = draw(st.lists(st.tuples(*(_CELLS[kind] for kind in kinds)), max_size=12))
    return Dataset.from_records(schema, rows)


@settings(max_examples=300)
@given(datasets())
def test_csv_round_trip_identity(ds):
    """Every dataset reads back from its CSV as itself, with equal k and l."""
    back = load_csv(write_csv(ds), ds.schema)
    assert back == ds
    assert [tuple(map(type, c)) for c in back.columns] == [tuple(map(type, c)) for c in ds.columns]
    if len(ds):
        qi, sensitive = ds.schema.names[:-1] or ds.schema.names, ds.schema.names[-1]
        assert k_anonymity(back, qi) == k_anonymity(ds, qi)
        assert l_diversity(back, qi, sensitive) == l_diversity(ds, qi, sensitive)


def test_a_lone_cr_is_quoted():
    schema = Schema((Attribute("Diagnosis", QI, Kind.TEXT),))
    ds = Dataset.from_records(schema, [("Flu\rX",), (MaskedText("a\r"),), ("Cancer",)])
    assert write_csv(ds) == b'"Diagnosis"\n"Flu\rX"\n"a\r*"\n"Cancer"\n'
    assert load_csv(write_csv(ds), schema) == ds  # one record each, not two


def test_raw_text_ending_in_star_reads_back_as_a_mask():
    """The documented limit of the text encoding: "ab*" is written as it is
    and read back as the mask of "ab"; "*" alone as SUPPRESSED."""
    schema = Schema((Attribute("ZIP", QI, Kind.TEXT),))
    ds = Dataset.from_records(schema, [("ab*",), ("*",), ("a**",)])
    assert write_csv(ds) == b"ZIP\nab*\n*\na**\n"
    assert load_csv(write_csv(ds), schema).column("ZIP") == (
        MaskedText("ab"), SUPPRESSED, MaskedText("a*"))
