"""The table path by column and once per distinct value, against verbatim
copies of the cell-by-cell code it replaced: ``load_csv``, ``write_csv``,
``generalize``, ``_integer_column`` and ``microaggregate_univariate``.

Each must return an equal result, cell types included, or raise the same
error type with the same message, except that ``write_csv`` names the cell
of an int too long to write. ``load_csv`` parses in blocks of
``dataset._BLOCK_ROWS`` rows; the Hypothesis tests shrink the block so that
a short input spans several, and the fixed tests use the real size. The
datasets given to the other functions hold the cells of each column's kind,
as every ``Dataset`` does; ``test_dataset`` pins that any other is rejected.
"""

import csv
import io
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from privkit import anonymize, dataset
from privkit.anonymize import (
    GeneralizationRule,
    NumericBins,
    SuppressAll,
    TextPrefix,
    aggregate_groups,
    check_integer_attribute,
    check_rule_kind,
    generalize,
    microaggregate_univariate,
)
from privkit.dataset import (
    SUPPRESSED,
    Attribute,
    Cell,
    Dataset,
    Interval,
    Kind,
    MaskedText,
    Schema,
    Suppressed,
    load_csv,
    parse_cell,
    write_csv,
)
from privkit.errors import (
    ArityError,
    DatasetTooSmall,
    HeaderMismatch,
    KindMismatch,
    ParseError,
    TooManyDigits,
    VacuousRule,
)

DIGIT_LIMIT = sys.get_int_max_str_digits()


# --- the code replaced, verbatim ----------------------------------------------


def reference_load_csv(source, schema: Schema) -> Dataset:
    if isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at \n, \r\n or a lone \r
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(
            f"line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    header, rownum = None, 0  # rownum: the last data row read
    try:
        header = next(reader, None)
        if header is None:
            raise HeaderMismatch("empty input, expected a header row")
        if tuple(header) != schema.names:
            raise HeaderMismatch(f"header {tuple(header)} does not match schema {schema.names}")
        columns: list[list[Cell]] = [[] for _ in schema.attributes]
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(columns):
                raise ArityError(f"row {rownum} has {len(row)} cells, schema has {len(columns)}")
            for attr, text, column in zip(schema.attributes, row, columns):
                try:
                    column.append(parse_cell(text, attr.kind))
                except ParseError as exc:
                    raise ParseError(
                        f"row {rownum}, column {attr.name!r}: {exc}"
                    ) from exc
    except csv.Error as exc:
        where = "header row" if header is None else f"row {rownum + 1}"
        raise ParseError(f"{where}: {exc}") from exc
    return Dataset(schema, tuple(map(tuple, columns)))


_CELL_TYPES = (str, int, Interval, MaskedText, Suppressed)


def render_cell(cell: Cell) -> str:
    if isinstance(cell, bool) or not isinstance(cell, _CELL_TYPES):
        raise KindMismatch(f"unsupported cell value {cell!r}")
    return str(cell)


def reference_write_csv(dataset: Dataset) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.schema.names)
    writer.writerows(zip(*(map(render_cell, column) for column in dataset.columns)))
    return buf.getvalue().encode("utf-8")


def reference_generalize(dataset: Dataset, rules) -> Dataset:
    out = dataset
    for rule in rules:
        strategy = rule.strategy
        check_rule_kind(dataset.schema, rule)
        column = out.column(rule.attribute)
        if isinstance(strategy, TextPrefix):
            lengths = [len(c) for c in column if isinstance(c, str)]
            if lengths and strategy.keep >= min(lengths):
                raise VacuousRule(
                    f"prefix {strategy.keep} does not shorten the shortest "
                    f"value (length {min(lengths)}) of {rule.attribute!r}"
                )
        out = out.replace_column(rule.attribute, [strategy.apply(c) for c in column])
    return out


def reference_integer_column(dataset: Dataset, attribute: str):
    check_integer_attribute(dataset.schema, attribute)
    column = dataset.column(attribute)
    for recno, cell in enumerate(column):
        if not isinstance(cell, int) or isinstance(cell, bool):
            raise KindMismatch(
                f"record {recno} of {attribute!r} holds {cell!r}, not an integer"
            )
    return column


def reference_microaggregate_univariate(dataset: Dataset, attribute: str, k: int) -> Dataset:
    if k < 2:
        raise ValueError(f"group size must be >= 2, got {k}")
    if len(dataset) < k:
        raise DatasetTooSmall(f"{len(dataset)} records cannot form a group of {k}")
    column = reference_integer_column(dataset, attribute)
    n = len(column)
    order = sorted(range(n), key=lambda i: column[i])
    full = n // k
    groups = []
    for g in range(full):
        hi = (g + 1) * k if g < full - 1 else n
        groups.append([order[r] for r in range(g * k, hi)])
    return aggregate_groups(dataset, [attribute], groups)


# --- comparison ---------------------------------------------------------------


def typed(value):
    """A value with the type of every cell spelled out: 1, True and 1.0
    compare equal, and a Dataset compares its cells with ==."""
    if isinstance(value, Dataset):
        return value.schema, tuple(typed(column) for column in value.columns)
    if isinstance(value, tuple):
        return tuple((type(c), c) for c in value)
    return type(value), value


def outcome(fn, *args):
    try:
        return "returned", typed(fn(*args))
    except Exception as exc:  # the type and the message must both match
        return "raised", type(exc), str(exc)


def schema_of(kinds) -> Schema:
    return Schema(tuple(
        Attribute(f"c{i}", "quasi_identifier", kind) for i, kind in enumerate(kinds)
    ))


def csv_bytes(header, rows, lineterminator="\n") -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def load_both(data: bytes, schema: Schema, block: int):
    with mock.patch.object(dataset, "_BLOCK_ROWS", block):
        new = outcome(load_csv, data, schema)
    return new, outcome(reference_load_csv, data, schema)


# --- load_csv -----------------------------------------------------------------

_INT_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.builds(lambda sign, n: sign + str(n), st.sampled_from(["+", "-", "", "00", "-0"]),
              st.integers(0, 999)),
    st.builds(lambda lo, d: f"{lo}-{lo + d}", st.integers(-50, 50), st.integers(0, 50)),
    st.sampled_from(["*", "1" * 400, "9" * DIGIT_LIMIT]),
)
_TEXT_TEXT = st.one_of(
    st.text(alphabet="ab,\"*\n\r -1٤", max_size=6),
    st.sampled_from(["", "*", "x*", "**", "Ab", "12", "1-2"]),
)
# integer cells that parse_cell rejects, each for a different reason
_BAD_INT_TEXT = st.sampled_from([
    "x", "1.5", "", " 1", "1 ", "12\n", "\n12", "1\n2", "+-1", "1_000", "5-3", "0x1",
    "٤٤", "٤-٥", "1*", "9" * (DIGIT_LIMIT + 1), "1-" + "9" * (DIGIT_LIMIT + 1),
])
_KINDS = st.lists(st.sampled_from([Kind.TEXT, Kind.INTEGER]), min_size=1, max_size=4)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def tables(draw, max_rows=14):
    """(schema, rows of cell texts) that parse."""
    kinds = draw(_KINDS)
    n = draw(st.integers(0, max_rows))
    cell = {Kind.TEXT: _TEXT_TEXT, Kind.INTEGER: _INT_TEXT}
    rows = [[draw(cell[kind]) for kind in kinds] for _ in range(n)]
    return schema_of(kinds), rows


@settings(max_examples=200)
@given(tables(), _LINE_ENDS, st.integers(1, 5))
def test_load_csv_equals_cell_by_cell(table, ending, block):
    schema, rows = table
    new, old = load_both(csv_bytes(schema.names, rows, ending), schema, block)
    assert new == old


@settings(max_examples=200)
@given(tables(), _LINE_ENDS, st.integers(1, 5), st.data())
def test_load_csv_first_error_equals_cell_by_cell(table, ending, block, data):
    """Bad cells and rows of the wrong width, anywhere: the error is the
    first one in file order, with the same message."""
    schema, rows = table
    if not rows:
        rows = [[data.draw(_INT_TEXT) for _ in schema.names]]
    for _ in range(data.draw(st.integers(1, 3))):
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        if row and data.draw(st.booleans()):
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(_BAD_INT_TEXT)
        elif row and data.draw(st.booleans()):
            row.pop()
        else:
            row.append("extra")
    new, old = load_both(csv_bytes(schema.names, rows, ending), schema, block)
    assert new == old


def _mutation_rows(n, seed):
    rng = random.Random(seed)
    return [[f"name{rng.randrange(50)}", str(rng.randint(-99, 99)), rng.choice(["A", "B*", "*"]),
             f"{rng.randint(0, 9)}-{rng.randint(10, 19)}"] for _ in range(n)]


_WIDE = schema_of([Kind.TEXT, Kind.INTEGER, Kind.TEXT, Kind.INTEGER])


def test_load_csv_over_several_real_blocks_equals_cell_by_cell():
    rows = _mutation_rows(3 * dataset._BLOCK_ROWS + 5, seed=1)
    data = csv_bytes(_WIDE.names, rows)
    assert load_csv(data, _WIDE) == reference_load_csv(data, _WIDE)


@pytest.mark.parametrize("bad", [
    # (row, column, text): row counts from 0; a row in a later block first
    [(9000, 1, "x"), (5000, 3, "5-3")],
    [(4095, 3, "9" * (DIGIT_LIMIT + 1)), (4096, 1, "٤")],
    [(4097, 1, "1\n2"), (4096, 3, "٤-٥")],
    [(12000, 1, "")],
    [(3, 3, "1.5"), (3, 1, "2.5"), (8191, 1, "x")],
])
def test_load_csv_first_error_across_real_blocks(bad):
    rows = _mutation_rows(3 * dataset._BLOCK_ROWS + 5, seed=2)
    for r, c, text in bad:
        rows[r][c] = text
    data = csv_bytes(_WIDE.names, rows)
    new, old = outcome(load_csv, data, _WIDE), outcome(reference_load_csv, data, _WIDE)
    assert new == old
    assert new[1] is ParseError


@pytest.mark.parametrize("bad_row,arity_row", [(10, 20), (20, 10), (4100, 4000), (10, 5000)])
def test_load_csv_bad_cell_against_short_row(bad_row, arity_row):
    rows = _mutation_rows(2 * dataset._BLOCK_ROWS, seed=3)
    rows[bad_row][1] = "x"
    rows[arity_row].pop()
    data = csv_bytes(_WIDE.names, rows)
    new, old = outcome(load_csv, data, _WIDE), outcome(reference_load_csv, data, _WIDE)
    assert new == old


@pytest.mark.parametrize("bad_row,long_row", [(10, 20), (20, 10), (4100, 4000), (10, 5000)])
def test_load_csv_bad_cell_against_a_field_csv_rejects(bad_row, long_row):
    rows = _mutation_rows(2 * dataset._BLOCK_ROWS, seed=4)
    rows[bad_row][1] = "x"
    rows[long_row][0] = "M" * (csv.field_size_limit() + 1)
    data = csv_bytes(_WIDE.names, rows)
    new, old = outcome(load_csv, data, _WIDE), outcome(reference_load_csv, data, _WIDE)
    assert new == old
    assert new[1] is ParseError


def test_equal_text_cells_are_one_object_within_and_across_blocks():
    """The memory guard: a loaded column holds one object per distinct value."""
    schema = schema_of([Kind.TEXT, Kind.INTEGER])
    values = ["Cancer", "Flu", "Mi*", "*", "x,y", "a\nb"]
    n = 2 * dataset._BLOCK_ROWS + 7
    rows = [[values[i % len(values)], f"{i % 3}-9"] for i in range(n)]
    loaded = load_csv(csv_bytes(schema.names, rows), schema)
    text, intervals = loaded.columns
    assert len({id(c) for c in text}) == len(values)
    assert len({id(c) for c in intervals}) == 3
    assert set(text) == {"Cancer", "Flu", MaskedText("Mi"), SUPPRESSED, "x,y", "a\nb"}


def test_ascii_digits_only():
    """A Unicode digit is no integer digit: it would read as 44 and write
    back as "44", so the file would not round-trip."""
    schema = schema_of([Kind.TEXT, Kind.INTEGER])
    with pytest.raises(ParseError, match=r"^row 2, column 'c1': not an integer: '٤٤'$"):
        load_csv("c0,c1\na,1\nb,٤٤\n".encode(), schema)
    with pytest.raises(ParseError, match=r"^row 1, column 'c1': not an integer: '1-٥'$"):
        load_csv("c0,c1\na,1-٥\n".encode(), schema)
    assert parse_cell("٤٤", Kind.TEXT) == "٤٤"


# --- write_csv ----------------------------------------------------------------

# The cells a dataset column of each kind can hold. No text holds "\r": the
# cell-by-cell writer left a lone CR unquoted, so its file did not read back.
_CELLS = {
    Kind.TEXT: st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
                max_size=5),
        st.builds(MaskedText, st.text(alphabet="a,\"\n*", min_size=1, max_size=3)),
        st.just(SUPPRESSED),
    ),
    Kind.INTEGER: st.one_of(
        st.integers(-10**30, 10**30),
        st.builds(pow, st.just(10), st.just(DIGIT_LIMIT)),  # str() raises ValueError
        st.builds(lambda lo, d: Interval(lo, lo + d), st.integers(-99, 99), st.integers(0, 9)),
        st.just(SUPPRESSED),
    ),
}


@st.composite
def datasets(draw, kinds=_KINDS, cells=_CELLS, max_rows=8):
    kinds = draw(kinds)
    rows = draw(st.lists(st.tuples(*(cells[kind] for kind in kinds)), max_size=max_rows))
    return Dataset.from_records(schema_of(kinds), rows)


@settings(max_examples=200)
@given(datasets())
def test_write_csv_equals_cell_by_cell(ds):
    expected = outcome(reference_write_csv, ds)
    if expected[:2] == ("raised", ValueError):
        # where the interpreter refused an int's text, the error now names its cell
        i, name = next((i, name) for i, row in enumerate(zip(*ds.columns))
                       for name, cell in zip(ds.schema.names, row)
                       if type(cell) is int and abs(cell) >= 10**DIGIT_LIMIT)
        expected = ("raised", TooManyDigits,
                    f"record {i} of {name!r} has more than {DIGIT_LIMIT} digits")
    assert outcome(write_csv, ds) == expected


# --- generalize ---------------------------------------------------------------

_SMALL_CELLS = {
    Kind.TEXT: st.one_of(
        st.sampled_from(["1", "", "ab"]),
        st.text(alphabet="ab*", max_size=4),
        st.builds(MaskedText, st.text(alphabet="ab", min_size=1, max_size=2)),
        st.just(SUPPRESSED),
    ),
    Kind.INTEGER: st.one_of(
        st.sampled_from([1, 0, -1]),
        st.integers(-30, 30),
        st.builds(lambda lo, d: Interval(lo, lo + d), st.integers(-9, 9), st.integers(0, 9)),
        st.just(SUPPRESSED),
    ),
}
_STRATEGY = st.one_of(
    st.builds(NumericBins, st.integers(1, 10), st.integers(-5, 5)),
    st.builds(TextPrefix, st.integers(0, 3)),
    st.just(SuppressAll()),
)
_MIXED = st.just([Kind.INTEGER, Kind.TEXT])


@settings(max_examples=300)
@given(
    datasets(_MIXED, _SMALL_CELLS, max_rows=10),
    st.lists(st.builds(GeneralizationRule, st.sampled_from(["c0", "c1"]), _STRATEGY),
             max_size=3),
)
def test_generalize_equals_cell_by_cell(ds, rules):
    assert outcome(generalize, ds, rules) == outcome(reference_generalize, ds, rules)


@pytest.mark.parametrize("column", [(1, True), (True, 1), (1, 1.0), (1.0, 1), (False, 0, 0.0)])
def test_generalize_tells_equal_keys_of_other_types_apart(column):
    """1, True and 1.0 are one key of the memo; only the int gets into a dataset."""
    recno, first = next((i, c) for i, c in enumerate(column) if type(c) is not int)
    with pytest.raises(KindMismatch, match=f"^record {recno} of 'c0' holds {first!r}, "):
        Dataset.from_records(schema_of([Kind.INTEGER]), [(c,) for c in column])
    ds = Dataset.from_records(schema_of([Kind.INTEGER]), [(int(c),) for c in column])
    rules = [GeneralizationRule("c0", NumericBins(5))]
    assert outcome(generalize, ds, rules) == outcome(reference_generalize, ds, rules)


# --- _integer_column and microaggregate_univariate ------------------------------


@settings(max_examples=200)
@given(datasets(st.sampled_from([[Kind.INTEGER], [Kind.TEXT]]), _SMALL_CELLS, max_rows=10))
def test_integer_column_equals_cell_by_cell(ds):
    assert outcome(anonymize._integer_column, ds, "c0") == outcome(
        reference_integer_column, ds, "c0")


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.one_of(st.integers(-10**20, 10**20), st.integers(-5, 5)),
                       st.integers(0, 9)), max_size=25),
    st.integers(2, 7),
    st.none() | st.tuples(st.integers(0, 24), st.sampled_from([Interval(1, 2), SUPPRESSED])),
)
def test_microaggregate_univariate_equals_cell_by_cell(rows, k, bad):
    if bad and bad[0] < len(rows):
        rows[bad[0]] = (bad[1], 0)
    ds = Dataset.from_records(schema_of([Kind.INTEGER, Kind.INTEGER]), rows)
    assert outcome(microaggregate_univariate, ds, "c0", k) == outcome(
        reference_microaggregate_univariate, ds, "c0", k)
