"""``rappor estimate`` reads its reports file in binary, by blocks of whole
lines, through ``count_report_file``.

The oracle is ``count_report_lines`` as it was when the CLI fed it the lines
of the file opened in text mode (UTF-8, ``surrogateescape``, universal
newlines), copied verbatim with the helper it called. Every file must give
the same counts and number of reports, or the same first error. The CLI
goldens are the SHA-256 of stdout and the exact stderr of that text-mode
reader on the same files.
"""

import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from privkit import _rappor_server, rappor
from privkit.cli import main
from privkit.errors import ConfigError, PrivkitError
from privkit.rappor import RapporParams, count_report_file, envelope_lines

# --- the text-mode reader it replaced, verbatim -------------------------------

_BIT_TABLES = [bytes((x >> b) & 1 for x in range(256)) for b in range(8)]


def reference_count_report_lines(lines, params):
    k, digest = params.k, params.digest()
    head, tail = rappor._envelope_template(params)
    start, end = len(head), len(head) + 2 * ((k + 7) // 8)
    canonical = re.compile(
        re.escape(head) + f"[0-9a-f]{{{end - start}}}" + re.escape(tail) + r"\n?"
    ).fullmatch
    padding = k % 8  # bits of the last byte below k; 0 when it has no padding
    rows = rappor._chunk_rows(k)
    counts = [0] * k
    n = 0
    chunk = []
    for lineno, line in enumerate(lines, start=1):
        # a line with padding bits set takes the JSON path, which rejects it
        if canonical(line) and not (padding and int(line[end - 2 : end], 16) >> padding):
            chunk.append(line[start:end])
        elif not line.strip():
            continue
        else:
            # U+DC80-U+DCFF: a byte that errors="surrogateescape" could not decode
            if undecodable := re.search("[\udc80-\udcff]", line):
                raise ConfigError(
                    f"reports line {lineno}: byte 0x{ord(undecodable[0]) - 0xDC00:02x}"
                    " is not valid UTF-8"
                )
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                raise ConfigError(f"reports line {lineno}: {exc}") from exc
            chunk.append(rappor._envelope_bytes(obj, digest, k).hex())
        if len(chunk) == rows:
            n += reference_add_bit_counts(counts, chunk)
            chunk = []
    n += reference_add_bit_counts(counts, chunk)
    return counts, n


def reference_add_bit_counts(counts, hex_reports):
    k = len(counts)
    width = (k + 7) // 8
    packed = bytes.fromhex("".join(hex_reports))
    for j in range(width):
        column = packed[j::width]
        for b in range(min(8, k - 8 * j)):
            counts[8 * j + b] += column.translate(_BIT_TABLES[b]).count(1)
    return len(hex_reports)


def outcome(fold, *args):
    try:
        return fold(*args)
    except PrivkitError as exc:
        return type(exc), str(exc)


def both(data: bytes, params):
    """(the block reader's outcome, the text-mode reference's outcome)."""
    text = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape")
    return (outcome(count_report_file, io.BytesIO(data), params),
            outcome(reference_count_report_lines, text, params))


# --- random files --------------------------------------------------------------


def line_bytes(form, raw, digest):
    hexed = raw.hex()
    envelope = {"params_digest": digest, "report_hex": hexed}
    canonical = json.dumps(envelope, sort_keys=True)
    return {
        "canonical": canonical,
        "compact": json.dumps(envelope, separators=(",", ":")),
        "reordered": json.dumps({"report_hex": hexed, "params_digest": digest}),
        "spaced": " " + json.dumps(envelope, separators=(" , ", " : ")) + "\t",
        "upper": json.dumps({**envelope, "report_hex": hexed.upper()}, sort_keys=True),
        "digest": json.dumps({**envelope, "params_digest": "0" * 16}, sort_keys=True),
        "short": json.dumps({**envelope, "report_hex": hexed[:-2]}, sort_keys=True),
        "bad json": canonical[:-1],
        "blank": "",
        "spaces": " \t ",
    }[form].encode("utf-8")


GOOD_FORMS = ["canonical"] * 12 + ["compact", "reordered", "spaced", "upper", "blank", "spaces"]
BAD_FORMS = ["digest", "short", "bad json", "undecodable"]


@st.composite
def report_files(draw):
    k = draw(st.integers(1, 80))
    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5,
                          hash_seed=draw(st.sampled_from([0, 7, 2**64 - 1])))
    width = (k + 7) // 8
    used = k - 8 * (width - 1)  # bits of the last byte below k
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        raw = bytearray(draw(st.binary(min_size=width, max_size=width)))
        # mostly valid lines, so that files often get as far as the counts
        if draw(st.integers(0, 9)):
            raw[-1] &= (1 << used) - 1
        elif used < 8:
            raw[-1] |= 1 << draw(st.integers(used, 7))  # a padding bit set
        form = draw(st.sampled_from(BAD_FORMS if draw(st.integers(0, 20)) == 0 else GOOD_FORMS))
        if form == "undecodable":
            line = line_bytes("canonical", bytes(raw), params.digest())
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + line[at:]
        else:
            line = line_bytes(form, bytes(raw), params.digest())
        lines.append(line + draw(st.sampled_from([b"\n"] * 8 + [b"\r\n", b"\r", b""])))
    return params, b"".join(lines)


@given(report_files(), st.integers(1, 5), st.sampled_from([1, 7, 64, 1 << 16]))
@settings(max_examples=500, deadline=None)
def test_block_reader_equals_text_mode_reference(file, lines_per_block, chunk_bits):
    params, data = file
    # blocks of about 1 to 5 canonical lines; chunks of the line path shrunk too
    line_size = len(rappor._envelope_template(params)[0]) + 2 * ((params.k + 7) // 8) + 3
    old_block, old_chunk = _rappor_server._BLOCK_BYTES, rappor._CHUNK_BITS
    _rappor_server._BLOCK_BYTES, rappor._CHUNK_BITS = lines_per_block * line_size, chunk_bits
    try:
        new, reference = both(data, params)
        assert new == reference
        _rappor_server._BLOCK_BYTES = lines_per_block  # blocks shorter than a line
        assert both(data, params)[0] == reference
    finally:
        _rappor_server._BLOCK_BYTES, rappor._CHUNK_BITS = old_block, old_chunk


@pytest.mark.parametrize("k", [1, 4, 8, 12, 13, 16, 64, 256])
@pytest.mark.parametrize("block", [1 << 18, 200, 1])
def test_written_reports_counted_by_column(k, block, monkeypatch):
    import numpy as np

    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5)
    rng = np.random.default_rng(k)
    bits = rng.integers(0, 2, size=(300, k), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    data = b"".join(envelope_lines([packed[:100].tobytes(), packed[100:].tobytes()], params))
    monkeypatch.setattr(_rappor_server, "_BLOCK_BYTES", block)
    monkeypatch.setattr(_rappor_server, "_count_lines", None)  # no block takes the line path
    assert count_report_file(io.BytesIO(data), params) == (bits.sum(axis=0).tolist(), 300)


@pytest.mark.parametrize("k", [12, 16])
def test_every_byte_of_a_line_checked(k):
    # one byte changed, the line's length kept: each position of the template
    # must send the block to the line path, which names the line or counts it
    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5)
    lines = list(envelope_lines([bytes(range(3 * ((k + 7) // 8)))], params))[0]
    lines = lines.splitlines(keepends=True)
    for j in range(len(lines[1])):
        for byte in {b"0", b"f", b"A", b" ", b"\r"} - {lines[1][j : j + 1]}:
            changed = lines[1][:j] + byte + lines[1][j + 1 :]
            new, reference = both(lines[0] + changed + lines[2], params)
            assert new == reference, (j, byte)


def test_padding_bit_in_a_canonical_block_named_by_the_line_path(monkeypatch):
    params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5)
    lines = list(envelope_lines([bytes([0xFF, 0x0F]) * 6], params))[0].splitlines(keepends=True)
    lines[4] = lines[4].replace(b'"ff0f"', b'"ff1f"')
    monkeypatch.setattr(_rappor_server, "_BLOCK_BYTES", 2 * len(lines[0]))
    new, reference = both(b"".join(lines), params)
    assert new == reference == (rappor.ReportFormatError, "padding bits beyond k must be zero")


# --- the CLI, against goldens of the text-mode reader --------------------------

PARAMS = '{"k": 12, "h": 2, "f": 0.5, "q": 0.75, "p": 0.5, "hash_seed": 3}'
ESTIMATE_SHA256 = "e58f13b27d147accbfae4a4a843546e6b69513edc921b533f94a5d24d2a12e57"
ERRORS = {
    "undecodable": "error: reports line 301: byte 0xff is not valid UTF-8\n",
    "bad json": "error: reports line 333: Expecting ',' delimiter: line 2 column 1 (char 59)\n",
    "wrong digest": "error: report bound to params 099af68c8c465b6e6, expected 99af68c8c465b6e6\n",
}


@pytest.fixture
def reports(tmp_path, monkeypatch, capsys):
    """The LF reports file of 400 simulated clients, in a work directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dist.json").write_text('{"flu": 0.5, "cold": 0.3, "measles": 0.2}')
    (tmp_path / "cands.json").write_text('["flu", "cold", "measles", "mumps"]')
    assert main(["rappor", "simulate", "--params", PARAMS, "--clients", "400",
                 "--dist", "dist.json", "--seed", "5", "--output", "lf.jsonl"]) == 0
    capsys.readouterr()
    data = (tmp_path / "lf.jsonl").read_bytes()
    assert len(data) == 400 * 60  # one line length, so the blocks below hold whole lines
    return data


def estimate(data, capsys):
    with open("r.jsonl", "wb") as fh:
        fh.write(data)
    code = main(["rappor", "estimate", "--params", PARAMS, "--reports", "r.jsonl",
                 "--candidates", "cands.json"])
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err


def line_end_styles(lf):
    lines = lf.splitlines(keepends=True)
    blank = []
    for i, line in enumerate(lines):
        if i % 97 == 0:
            blank += [b"\n", b" \t \n"]
        blank.append(line)
    blank.append(b"\n")
    ends = [b"\n", b"\r\n", b"\r"]
    return {
        "lf": lf,
        "crlf": lf.replace(b"\n", b"\r\n"),
        "cr": lf.replace(b"\n", b"\r"),
        "blank and whitespace lines": b"".join(blank),
        "no final newline": lf[:-1],
        "mixed": b"".join(line[:-1] + ends[i % 3] for i, line in enumerate(lines)),
    }


def broken(data, sep, name):
    lineno, bad = {
        "undecodable": (301, lambda line: line[:20] + b"\xff" + line[20:]),
        "bad json": (333, lambda line: line[:-1]),
        "wrong digest": (350, lambda line: line.replace(b'"params_digest": "',
                                                        b'"params_digest": "0')),
    }[name]
    lines = data.split(sep)
    lines[lineno - 1] = bad(lines[lineno - 1])
    return sep.join(lines)


@pytest.mark.parametrize("block", [1 << 18, 60 * 7 + 13], ids=["one block", "blocks of 7 lines"])
@pytest.mark.parametrize("style", list(line_end_styles(b"\n")))
def test_estimate_stdout_across_line_end_styles(reports, capsys, monkeypatch, style, block):
    monkeypatch.setattr(_rappor_server, "_BLOCK_BYTES", block)
    data = line_end_styles(reports)[style]
    assert estimate(data, capsys) == (0, ESTIMATE_SHA256, "")


@pytest.mark.parametrize("block", [1 << 18, 60 * 7 + 13], ids=["one block", "blocks of 7 lines"])
@pytest.mark.parametrize("style,sep", [("blank and whitespace lines", b"\n"), ("crlf", b"\r\n")])
@pytest.mark.parametrize("name", list(ERRORS))
def test_estimate_error_in_a_later_block_names_the_same_line(reports, capsys, monkeypatch,
                                                             name, style, sep, block):
    monkeypatch.setattr(_rappor_server, "_BLOCK_BYTES", block)
    data = broken(line_end_styles(reports)[style], sep, name)
    code, _, err = estimate(data, capsys)
    assert (code, err) == (2, ERRORS[name])
