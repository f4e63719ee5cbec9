"""Role-annotated tables, stored by column, with CSV ingestion and serialization.

Cells are plain Python values for raw data (str for text, int for integers)
plus three generalized forms produced by anonymization transforms:

* ``Interval(lo, hi)`` -- an integer replaced by the bin it falls into,
  serialized as ``lo-hi``;
* ``MaskedText(prefix)`` -- a text value reduced to a non-empty prefix,
  serialized as ``prefix*`` (an empty prefix is SUPPRESSED);
* ``SUPPRESSED`` -- a fully removed value, serialized as ``*``.

The textual encodings are reversible given the schema, so generalized
datasets round-trip through CSV. Raw text that itself ends in ``*`` is
indistinguishable from a mask and is parsed as one; such values are outside
the supported input domain.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import re
from dataclasses import dataclass
from typing import IO, Sequence, Union

from .errors import ArityError, HeaderMismatch, KindMismatch, ParseError, UnknownAttribute


class AttributeRole(enum.Enum):
    """Privacy role of one attribute."""

    EXPLICIT_IDENTIFIER = "explicit_identifier"
    QUASI_IDENTIFIER = "quasi_identifier"
    SENSITIVE = "sensitive"
    NON_SENSITIVE = "non_sensitive"


class Kind(enum.Enum):
    """Underlying value kind of one attribute."""

    TEXT = "text"
    INTEGER = "integer"


@dataclass(frozen=True)
class Interval:
    """Closed integer range replacing a generalized numeric value."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval lo {self.lo} > hi {self.hi}")

    def __str__(self):
        return f"{self.lo}-{self.hi}"


@dataclass(frozen=True)
class MaskedText:
    """Text value reduced to a prefix; renders as ``prefix*``."""

    prefix: str

    def __str__(self):
        return f"{self.prefix}*"


@dataclass(frozen=True)
class Suppressed:
    """Fully suppressed value; renders as ``*``."""

    def __str__(self):
        return "*"


SUPPRESSED = Suppressed()

GENERALIZED = (Interval, MaskedText, Suppressed)

Cell = Union[str, int, Interval, MaskedText, Suppressed]
_CELL_TYPES = (str, int, *GENERALIZED)

# Matched with fullmatch: "$" would also match before a final newline.
# ASCII: a Unicode \d would read "٤٤" as 44, which writes back as "44".
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)
_INTERVAL_RE = re.compile(r"(-?\d+)-(-?\d+)", re.ASCII)
# One block of an integer column, each cell followed by "\n". A quoted line
# end inside a cell can pass it ("1\n2"), but int() rejects such a cell.
_INT_BLOCK_RE = re.compile(r"(?:[+-]?\d+\n)*", re.ASCII)
_BLOCK_ROWS = 4096  # rows parsed per block: bounds the transposed copy


def render_cell(cell: Cell) -> str:
    """Serialize one cell to its CSV text form."""
    if isinstance(cell, bool) or not isinstance(cell, _CELL_TYPES):
        raise KindMismatch(f"unsupported cell value {cell!r}")
    return str(cell)


def parse_cell(text: str, kind: Kind) -> Cell:
    """Parse one CSV cell under the given kind, accepting generalized forms."""
    if text == "*":
        return SUPPRESSED
    if kind is Kind.INTEGER:
        if _INT_RE.fullmatch(text):
            return _int(text)
        m = _INTERVAL_RE.fullmatch(text)
        if m:
            lo, hi = _int(m.group(1)), _int(m.group(2))
            if lo > hi:
                raise ParseError(f"interval {text!r} has lo > hi")
            return Interval(lo, hi)
        raise ParseError(f"not an integer: {text!r}")
    if text.endswith("*"):
        return MaskedText(text[:-1])
    return text


def _int(digits: str) -> int:
    """int() of text the integer patterns matched; the only ValueError left
    is the interpreter's limit on digits (``sys.set_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"integer too long: {exc}") from exc


@dataclass(frozen=True)
class Attribute:
    """One column of a schema. Role and kind may be given by their values
    ("quasi_identifier", "integer"); they are stored as the enum members."""

    name: str
    role: AttributeRole
    kind: Kind

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"attribute name {self.name!r} is not a string")
        object.__setattr__(self, "role", AttributeRole(self.role))
        object.__setattr__(self, "kind", Kind(self.kind))


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list; names are unique."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if not names:
            raise ValueError("schema has no attributes")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise UnknownAttribute(f"no attribute named {name!r}")

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index(name)]

    def to_json(self) -> str:
        return json.dumps(
            [
                {"name": a.name, "role": a.role.value, "kind": a.kind.value}
                for a in self.attributes
            ],
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ParseError(f"schema is not valid JSON: {exc}") from exc
        if not isinstance(raw, list) or not raw:
            raise ParseError("schema JSON must be a non-empty list of attribute objects")
        attrs = []
        for i, entry in enumerate(raw):
            try:
                attrs.append(Attribute(entry["name"], entry["role"], entry["kind"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise ParseError(f"bad schema entry at index {i}: {exc}") from exc
        return cls(tuple(attrs))


@dataclass(frozen=True)
class Dataset:
    """Immutable table under a schema, stored by column: one equal-length
    tuple of cells per attribute, in schema order.

    Transforms never mutate; they return new datasets, which share every
    column they do not replace. ``from_records`` builds a dataset from rows,
    and ``records`` is a derived row view. Instances are safe to share
    across threads.
    """

    schema: Schema
    columns: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        lengths = [len(column) for column in self.columns]
        if len(lengths) != len(self.schema.attributes) or len(set(lengths)) > 1:
            raise ArityError(f"columns of lengths {lengths} for attributes {self.schema.names}")

    @classmethod
    def from_records(cls, schema: Schema, rows: Sequence[Sequence[Cell]]) -> "Dataset":
        width = len(schema.attributes)
        for i, rec in enumerate(rows):
            if len(rec) != width:
                raise ArityError(
                    f"record {i} has {len(rec)} values, schema has {width}"
                )
        return cls(schema, tuple(zip(*rows)) or ((),) * width)

    @property
    def records(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(zip(*self.columns))

    def __len__(self):
        return len(self.columns[0])

    def column(self, name: str) -> tuple[Cell, ...]:
        return self.columns[self.schema.index(name)]

    def replace_column(self, name: str, cells: Sequence[Cell]) -> "Dataset":
        idx = self.schema.index(name)
        if len(cells) != len(self):
            raise ArityError(f"column has {len(cells)} values for {len(self)} records")
        columns = self.columns[:idx] + (tuple(cells),) + self.columns[idx + 1 :]
        return Dataset(self.schema, columns)


def load_csv(source: Union[bytes, IO[bytes]], schema: Schema) -> Dataset:
    """Parse UTF-8 CSV whose header matches the schema names in order.

    Lines may end in LF, CRLF or a lone CR. A line end inside a quoted
    field is kept in the cell; a bare CR in an unquoted field ends the
    row. Integer cells are ASCII digits with an optional sign. Rejects the
    whole file on the first malformed row; no partial dataset is ever
    returned. Data rows count from 1, after the header; a row the ``csv``
    module cannot split (say, a field over its size limit) is a ParseError
    naming that row, and a byte that is not valid UTF-8 is one naming its
    line.

    Rows are read one by one and parsed in blocks of ``_BLOCK_ROWS``, a
    column at a time. A block of an integer column that holds only plain
    integers takes one regex match and ``int``; every other column parses
    each distinct text once, so equal cells of a column are one object. A
    block with a bad cell is parsed again row by row, so the error names
    the first bad cell in file order, as it would cell by cell.
    """
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
    attributes = schema.attributes
    header, rownum = None, 0  # rownum: the last data row read
    try:
        header = next(reader, None)
        if header is None:
            raise HeaderMismatch("empty input, expected a header row")
        if tuple(header) != schema.names:
            raise HeaderMismatch(f"header {tuple(header)} does not match schema {schema.names}")
        columns: list[list[Cell]] = [[] for _ in attributes]
        memos: list[dict[str, Cell]] = [{} for _ in attributes]  # kept across blocks
        block: list[list[str]] = []
        first = 1  # the row number of block[0]
        try:
            for rownum, row in enumerate(reader, start=1):
                if len(row) != len(columns):
                    raise ArityError(
                        f"row {rownum} has {len(row)} cells, schema has {len(columns)}"
                    )
                block.append(row)
                if len(block) == _BLOCK_ROWS:
                    _parse_block(attributes, block, first, columns, memos)
                    block, first = [], rownum + 1
        except (ArityError, csv.Error):
            _parse_block(attributes, block, first, columns, memos)  # a bad cell above wins
            raise
        _parse_block(attributes, block, first, columns, memos)
    except csv.Error as exc:
        where = "header row" if header is None else f"row {rownum + 1}"
        raise ParseError(f"{where}: {exc}") from exc
    return Dataset(schema, tuple(map(tuple, columns)))


def _parse_block(
    attributes: Sequence[Attribute],
    block: list[list[str]],
    first: int,
    columns: list[list[Cell]],
    memos: list[dict[str, Cell]],
) -> None:
    """Parse data rows ``first``, ``first + 1``, ... onto ``columns``, one
    column at a time, through each column's memo from text to cell."""
    try:
        for attr, texts, column, memo in zip(attributes, zip(*block), columns, memos):
            joined = "\n".join(texts) + "\n"
            if attr.kind is Kind.INTEGER:
                if _INT_BLOCK_RE.fullmatch(joined):
                    column.extend(map(int, texts))  # ValueError past the digit limit
                    continue
            elif "*\n" not in joined:  # no cell ends in "*": each text is its own cell
                column.extend(map(memo.setdefault, texts, texts))
                continue
            memo.update(
                {t: parse_cell(t, attr.kind) for t in dict.fromkeys(texts) if t not in memo}
            )
            column.extend(map(memo.__getitem__, texts))
    except (ParseError, ValueError):
        for rownum, row in enumerate(block, start=first):
            for attr, text in zip(attributes, row):
                try:
                    parse_cell(text, attr.kind)
                except ParseError as exc:
                    raise ParseError(f"row {rownum}, column {attr.name!r}: {exc}") from exc
        raise


_PLAIN_CELL_TYPES = frozenset(_CELL_TYPES)  # csv.writer's str() is render_cell on these


def write_csv(dataset: Dataset) -> bytes:
    """Serialize to UTF-8 CSV: header line, then one row per record.

    When every cell is of one of the cell types exactly (no bool, no
    subclass), the columns go to ``csv.writer`` as they are, and its
    ``str()`` renders them; otherwise every cell goes through
    ``render_cell``, so the first bad cell in row order raises."""
    columns = dataset.columns
    if not all(_PLAIN_CELL_TYPES.issuperset(map(type, column)) for column in columns):
        columns = tuple(map(render_cell, column) for column in columns)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.schema.names)
    writer.writerows(zip(*columns))
    return buf.getvalue().encode("utf-8")


_FIXTURE_SCHEMA = Schema(
    (
        Attribute("Name", AttributeRole.EXPLICIT_IDENTIFIER, Kind.TEXT),
        Attribute("Age", AttributeRole.QUASI_IDENTIFIER, Kind.INTEGER),
        Attribute("Gender", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT),
        Attribute("ZIP", AttributeRole.QUASI_IDENTIFIER, Kind.TEXT),
        Attribute("Diagnosis", AttributeRole.SENSITIVE, Kind.TEXT),
    )
)

_FIXTURE_ROWS = (
    ("Jane Doe", 44, "Female", "12345", "Cancer"),
    ("John Smith", 22, "Male", "12333", "Migraine"),
    ("William Wonker", 39, "Male", "12344", "Incontinence"),
    ("Harrison Seat", 35, "Male", "12355", "Incontinence"),
    ("Bettina Wonker", 42, "Female", "12344", "No illness"),
    ("Thomas Müller", 22, "Male", "12222", "Diabetes"),
    ("Sharon Carter", 47, "Female", "12544", "Cancer"),
    ("Maria Granger", 27, "Female", "12345", "Cancer"),
    ("Christian Cloud", 26, "Male", "12333", "No illness"),
    ("Kim Schmidt", 21, "Female", "12222", "Diabetes"),
)


def fixture_table1() -> Dataset:
    """Ten-row fictional medical record extract used throughout the tests.

    Name is an explicit identifier, Age/Gender/ZIP are quasi-identifiers and
    Diagnosis is the sensitive attribute.
    """
    return Dataset.from_records(_FIXTURE_SCHEMA, _FIXTURE_ROWS)
