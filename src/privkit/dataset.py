"""Role-annotated tables, stored by column, with CSV ingestion and serialization.

Cells are plain Python values for raw data (str for text, int for integers)
plus three generalized forms produced by anonymization transforms:

* ``Interval(lo, hi)`` -- an integer replaced by the bin it falls into,
  serialized as ``lo-hi``;
* ``MaskedText(prefix)`` -- a text value reduced to a non-empty prefix,
  serialized as ``prefix*`` (a prefix of no characters is SUPPRESSED);
* ``SUPPRESSED`` -- a fully removed value, serialized as ``*``.

A ``Dataset`` holds only these cells, and only those of its attribute's
kind: ``int``, ``Interval`` or ``Suppressed`` under INTEGER, ``str``,
``MaskedText`` or ``Suppressed`` under TEXT, each type exactly (no bool, no
subclass). So ``write_csv`` writes every dataset as a file that
``load_csv`` reads back equal, or raises for the two cells no file holds:
TooManyDigits, naming the cell, for an int past the interpreter's digit
limit, and ValueError for text with a lone surrogate. The one exception is
raw text that itself ends in ``*``: it is indistinguishable from a mask and
is read back as one, so such values are outside the supported input domain.

The builders that take cells from a caller check them: ``Dataset(...)``,
``Dataset.from_records`` and ``Dataset.replace_column``. The code that
makes its own cells builds through ``Dataset._trusted`` and does not check
them again, because it fixed their types as it made them: ``load_csv``
parses every cell into one of its kind's types, and the anonymize
transforms write SUPPRESSED, integer sums and means, or the column's own
cells in another order. ``generalize`` checks what its strategies return,
since a caller may pass any strategy.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import re
import sys
from itertools import repeat
from typing import IO, Iterable, Optional, Sequence, Union

from ._value import Frozen, _check_int, _is_collection, _loads
from .errors import (
    ArityError,
    HeaderMismatch,
    KindMismatch,
    ParseError,
    TooManyDigits,
    UnknownAttribute,
)


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


def _name_tuple(argument: str, names) -> tuple:
    """``names``, a collection of attribute names, as a tuple; ValueError
    naming ``argument`` for a str or bytes, whose letters or byte values
    would be read as names, and for anything that is not iterable."""
    if not _is_collection(names):
        raise ValueError(f"{argument} must be a collection of attribute names, got {names!r}")
    return tuple(names)


class Interval(Frozen):
    """Closed integer range replacing a generalized numeric value."""

    lo: int
    hi: int

    def __post_init__(self):
        _check_int("interval lo", self.lo)
        _check_int("interval hi", self.hi)
        if self.lo > self.hi:
            raise ValueError(f"interval lo {self.lo} > hi {self.hi}")

    def __str__(self):
        return f"{self.lo}-{self.hi}"


class MaskedText(Frozen):
    """Text value reduced to a prefix; renders as ``prefix*``."""

    prefix: str

    def __post_init__(self):
        if not isinstance(self.prefix, str):
            raise TypeError(f"masked prefix must be a string, got {self.prefix!r}")
        if not self.prefix:  # "*" reads back as SUPPRESSED
            raise ValueError("masked prefix must not be empty")

    def __str__(self):
        return f"{self.prefix}*"


class Suppressed(Frozen):
    """Fully suppressed value; renders as ``*``."""

    def __str__(self):
        return "*"


SUPPRESSED = Suppressed()

GENERALIZED = (Interval, MaskedText, Suppressed)

Cell = Union[str, int, Interval, MaskedText, Suppressed]
# The exact cell types of each kind, and how an error names them; csv.writer's
# str() of each type is its CSV text.
_KIND_TYPES = {
    Kind.INTEGER: (frozenset((int, Interval, Suppressed)), "a cell of kind integer"),
    Kind.TEXT: (frozenset((str, MaskedText, Suppressed)), "a cell of kind text"),
}

# Matched with fullmatch: "$" would also match before a final newline.
# ASCII: a Unicode \d would read "٤٤" as 44, which writes back as "44".
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)
_INTERVAL_RE = re.compile(r"(-?\d+)-(-?\d+)", re.ASCII)
# One block of an integer column that holds a sign, each cell followed by
# "\n". A quoted line end inside a cell can pass it ("1\n2"), but int()
# rejects such a cell.
_INT_BLOCK_RE = re.compile(r"(?:[+-]?\d+\n)*", re.ASCII)
_BLOCK_ROWS = 4096  # rows parsed per block: bounds the transposed copy


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


class Attribute(Frozen):
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


class Schema(Frozen):
    """Ordered attribute list; names are unique. ``attributes`` is a
    collection of ``Attribute`` objects: anything else raises TypeError
    naming it."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        if not _is_collection(self.attributes):
            raise TypeError(f"attributes must be a collection of Attribute objects, "
                            f"got {self.attributes!r}")
        # a list would leave the schema unhashable, an iterator empty
        object.__setattr__(self, "attributes", tuple(self.attributes))
        for a in self.attributes:
            if not isinstance(a, Attribute):
                raise TypeError(f"attributes must hold Attribute objects, got {a!r}")
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
        raw = _loads(text, ParseError, "schema is not valid JSON: ")
        if not isinstance(raw, list) or not raw:
            raise ParseError("schema JSON must be a non-empty list of attribute objects")
        attrs = []
        for i, entry in enumerate(raw):
            try:
                attrs.append(Attribute(entry["name"], entry["role"], entry["kind"]))
            except (KeyError, ValueError, TypeError) as exc:
                raise ParseError(f"bad schema entry at index {i}: {exc}") from exc
        return cls(tuple(attrs))


class Dataset(Frozen):
    """Immutable table under a schema, stored by column: one equal-length
    tuple of cells per attribute, in schema order.

    Every cell is of one of the exact types its attribute's kind allows
    (see the module docstring); any other cell, a bool or a str subclass
    included, raises KindMismatch naming the record, the attribute and the
    cell. So the table in memory is the table ``write_csv`` releases, up to
    raw text ending in ``*``, which reads back as a mask. The constructor,
    ``from_records`` and ``replace_column`` check the cells they are given;
    ``_trusted`` and ``_with_column`` are for privkit's own code, whose
    cells are of their kind's types by construction.

    Transforms never mutate; they return new datasets, which share every
    column they do not replace. ``from_records`` builds a dataset from rows,
    and ``records`` is a derived row view. Instances are safe to share
    across threads.
    """

    schema: Schema
    columns: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        # a tuple is kept as it is; lists and iterators become tuples
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        lengths = [len(column) for column in self.columns]
        if len(lengths) != len(self.schema.attributes) or len(set(lengths)) > 1:
            raise ArityError(f"columns of lengths {lengths} for attributes {self.schema.names}")
        for attr, column in zip(self.schema.attributes, self.columns):
            check_cell_types(attr.name, column, *_KIND_TYPES[attr.kind])

    @classmethod
    def from_records(cls, schema: Schema, rows: Iterable[Sequence[Cell]]) -> "Dataset":
        rows = tuple(rows)  # an iterator would be used up by the width check
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

    @classmethod
    def _trusted(cls, schema: Schema, columns: tuple[tuple[Cell, ...], ...]) -> "Dataset":
        """A dataset whose columns its caller has shown valid: one tuple per
        attribute, all of one length, each cell of its attribute's kind."""
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "schema", schema)
        object.__setattr__(dataset, "columns", columns)
        return dataset

    def replace_column(self, name: str, cells: Iterable[Cell]) -> "Dataset":
        """A copy with the named column replaced. Only the new column is
        checked: the ones it shares were checked when ``self`` was built."""
        kind = self.schema.attribute(name).kind
        cells = tuple(cells)
        if len(cells) != len(self):
            raise ArityError(f"column has {len(cells)} values for {len(self)} records")
        check_cell_types(name, cells, *_KIND_TYPES[kind])
        return self._with_column(name, cells)

    def _with_column(self, name: str, cells: tuple[Cell, ...]) -> "Dataset":
        """``replace_column`` without its checks: ``cells`` is a tuple of
        ``len(self)`` cells of the named attribute's kind."""
        idx = self.schema.index(name)
        return self._trusted(self.schema, self.columns[:idx] + (cells,) + self.columns[idx + 1 :])


def check_cell_types(
    name: str, column: Sequence[Cell], allowed: frozenset[type], what: str
) -> None:
    """Raise KindMismatch naming the first cell of column ``name`` whose type
    is not in ``allowed`` (exactly: a bool is no int). One pass over the
    types when every cell passes; only a failed pass looks for the culprit."""
    if not allowed.issuperset(map(type, column)):
        recno, cell = next((i, c) for i, c in enumerate(column) if type(c) not in allowed)
        raise KindMismatch(f"record {recno} of {name!r} holds {cell!r}, not {what}")


def load_csv(source: Union[bytes, IO[bytes]], schema: Schema) -> Dataset:
    """Parse UTF-8 CSV whose header matches the schema names in order.

    ``source`` is the file's bytes or a binary file to read them from; a
    path, a text file or anything else raises TypeError naming it.

    Lines may end in LF, CRLF or a lone CR. A line end inside a quoted
    field is kept in the cell; a bare CR in an unquoted field ends the
    row. Integer cells are ASCII digits with an optional sign. Rejects the
    whole file on the first malformed row; no partial dataset is ever
    returned. Data rows count from 1, after the header; a row the ``csv``
    module cannot split (say, a field over its size limit) is a ParseError
    naming that row, and a byte that is not valid UTF-8 is one naming its
    line.

    The text is read in blocks of up to ``_BLOCK_ROWS`` lines, the header
    in the first. A plain block, one whose every line ``csv.reader`` would
    split at each comma (see ``_plain_lines``), is split at its commas, a
    column taken as every width-th cell. From the first block that is not
    plain, the rest of the file goes row by row through ``csv.reader``,
    since a quoted field may span lines, and is gathered into blocks of
    ``_BLOCK_ROWS`` rows. Either way ``_parse_block`` parses each block a
    column at a time. A block of an integer column that holds only plain
    integers takes one regex match and ``int``; every other column parses
    each distinct text once, so equal cells of a column are one object. A
    block with a bad cell is parsed again row by row, so the error names
    the first bad cell in file order, as it would cell by cell.
    """
    data = source.read() if hasattr(source, "read") else source
    if not isinstance(data, bytes):
        raise TypeError(f"source must be bytes or a binary file, got {source!r}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at \n, \r\n or a lone \r
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(
            f"line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from exc
    attributes = schema.attributes
    width = len(attributes)
    columns: list[list[Cell]] = [[] for _ in attributes]
    memos: list[dict[str, Cell]] = [{} for _ in attributes]  # kept across blocks
    header, rownum = None, 0  # rownum: the last data row read
    rest = 0  # where the text not yet read starts
    limit = csv.field_size_limit()
    for match in re.finditer(rf"(?:[^\n]*\n){{1,{_BLOCK_ROWS}}}|[^\n]+\Z", text):
        lines = _plain_lines(match.group(), width, limit)
        if lines is None:
            break
        cells = ",".join(lines).split(",")
        skip = 0
        if header is None:
            header, skip = cells[:width], width
            _check_header(header, schema)
        texts = [cells[j::width] for j in range(skip, skip + width)]
        _parse_block(attributes, texts, rownum + 1, columns, memos)
        rownum += len(texts[0])
        rest = match.end()
    if rest < len(text):  # the first block that is not plain, and all after it
        reader = csv.reader(io.StringIO(text[rest:], newline=""))
        try:
            if header is None:
                header = next(reader)  # text[rest:] is not empty, so it has a row
                _check_header(header, schema)
            block: list[list[str]] = []
            first = rownum + 1  # the row number of block[0]
            try:
                for rownum, row in enumerate(reader, start=first):
                    if len(row) != width:
                        raise ArityError(f"row {rownum} has {len(row)} cells, schema has {width}")
                    block.append(row)
                    if len(block) == _BLOCK_ROWS:
                        _parse_block(attributes, list(zip(*block)), first, columns, memos)
                        block, first = [], rownum + 1
            except (ArityError, csv.Error):  # a bad cell above wins
                _parse_block(attributes, list(zip(*block)), first, columns, memos)
                raise
            _parse_block(attributes, list(zip(*block)), first, columns, memos)
        except csv.Error as exc:
            where = "header row" if header is None else f"row {rownum + 1}"
            raise ParseError(f"{where}: {exc}") from exc
    elif header is None:
        raise HeaderMismatch("empty input, expected a header row")
    return Dataset._trusted(schema, tuple(map(tuple, columns)))  # each cell parsed to its kind


def _plain_lines(chunk: str, width: int, limit: int) -> Optional[list[str]]:
    """The lines of ``chunk`` if ``csv.reader`` would split each of them at
    every comma and nowhere else, or None: no quote, no CR, no empty line
    (the reader gives it no cell at all), exactly ``width - 1`` commas in
    each line, and none longer than the field size limit ``limit``."""
    if '"' in chunk or "\r" in chunk:
        return None
    lines = chunk.split("\n")
    if not lines[-1]:  # the chunk ends in a line end
        lines.pop()
    if "" in lines or max(map(len, lines)) > limit:
        return None
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    return lines


def _check_header(header: Sequence[str], schema: Schema) -> None:
    if tuple(header) != schema.names:
        raise HeaderMismatch(f"header {tuple(header)} does not match schema {schema.names}")


def _parse_block(
    attributes: Sequence[Attribute],
    block: Sequence[Sequence[str]],
    first: int,
    columns: list[list[Cell]],
    memos: list[dict[str, Cell]],
) -> None:
    """Parse data rows ``first``, ``first + 1``, ... onto ``columns``, one
    column at a time, through each column's memo from text to cell.
    ``block`` holds the rows' texts by column, one sequence per attribute."""
    try:
        for attr, texts, column, memo in zip(attributes, block, columns, memos):
            joined = "\n".join(texts) + "\n"
            if attr.kind is Kind.INTEGER:
                if "+" in joined or "-" in joined:
                    plain = _INT_BLOCK_RE.fullmatch(joined)
                else:  # bytes.isdigit takes ASCII digits only, not "²" or "٤"
                    digits = "".join(texts)
                    plain = digits.isascii() and digits.encode().isdigit() and "" not in texts
                if plain:
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
        for rownum, row in enumerate(zip(*block), start=first):
            for attr, text in zip(attributes, row):
                try:
                    parse_cell(text, attr.kind)
                except ParseError as exc:
                    raise ParseError(f"row {rownum}, column {attr.name!r}: {exc}") from exc
        raise


def write_csv(dataset: Dataset) -> bytes:
    """Serialize to UTF-8 CSV: header line, then one row per record.

    The columns go to ``csv.writer`` as they are: every cell of a dataset
    is of a type whose ``str()`` is its CSV text. Fields are quoted only
    where they must be, with one exception: ``csv.writer`` leaves a lone CR
    unquoted, and ``load_csv`` ends the row there. So a table with a CR in
    any cell or name is written again with every field quoted. Raises
    TooManyDigits, naming the first such record and its attribute, for a
    cell holding an int past the interpreter's digit limit, and ValueError
    for text with a lone surrogate; ``load_csv`` makes neither."""
    try:
        text = _csv_text(dataset, csv.QUOTE_MINIMAL)
    except ValueError:
        _raise_too_many_digits(dataset)
        raise
    if "\r" in text:  # rows end in "\n": each CR is in a field
        text = _csv_text(dataset, csv.QUOTE_ALL)
    return text.encode("utf-8")


def _raise_too_many_digits(dataset: Dataset) -> None:
    """Name the first cell, row by row, whose text str() refuses to make."""
    names = dataset.schema.names
    for i, row in enumerate(zip(*dataset.columns)):
        for name, cell in zip(names, row):
            try:
                str(cell)
            except ValueError:
                raise TooManyDigits(
                    f"record {i} of {name!r} has more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None


def _csv_text(dataset: Dataset, quoting: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
    writer.writerow(dataset.schema.names)
    writer.writerows(zip(*dataset.columns))
    return buf.getvalue()


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
