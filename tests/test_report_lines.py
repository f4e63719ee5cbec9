"""``count_report_lines`` against the two-step fold it replaced.

The oracle is the former CLI reader (``_json_lines``: one ``json.loads`` per
non-blank line) feeding the former ``count_envelopes`` (numpy bit unpacking
per chunk), copied as they were. Both must give the same counts and report
number on every stream, and on a rejected stream the same exception type and
message.
"""

import io
import json
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from privkit import rappor
from privkit.errors import ConfigError, PrivkitError, ReportFormatError
from privkit.rappor import RapporParams, Report, count_report_lines, envelope_lines


def _json_lines(fh):
    """The JSON value of each non-blank line."""
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"reports line {lineno}: {exc}") from exc


def count_envelopes(envelopes, params):
    """Fold report envelopes into (per-bit set counts, number of reports),
    one chunk at a time, rejecting any envelope ``Report.from_envelope``
    would reject. Memory is O(k) plus one chunk, whatever the stream length.
    """
    import numpy as np

    k, digest = params.k, params.digest()
    rows = rappor._chunk_rows(k)
    counts = np.zeros(k, dtype=np.int64)
    n = 0
    envelopes = iter(envelopes)
    while chunk := [rappor._envelope_bytes(e, digest, k) for e in islice(envelopes, rows)]:
        packed = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(len(chunk), -1)
        counts += np.unpackbits(packed, axis=1, count=k, bitorder="little").sum(axis=0, dtype=np.int64)
        n += len(chunk)
    return counts.tolist(), n


def oracle(lines, params):
    return count_envelopes(_json_lines(lines), params)


def outcome(fold, lines, params):
    try:
        return fold(lines, params)
    except PrivkitError as exc:
        return type(exc), str(exc)


def line_text(form, raw, digest):
    hexed = raw.hex()
    envelope = {"params_digest": digest, "report_hex": hexed}
    canonical = json.dumps(envelope, sort_keys=True)
    return {
        "canonical": canonical,
        "compact": json.dumps(envelope, separators=(",", ":")),
        "reordered": json.dumps({"report_hex": hexed, "params_digest": digest}),
        "spaced": " " + json.dumps(envelope, separators=(" , ", " : ")) + "\t",
        "upper": json.dumps({**envelope, "report_hex": hexed.upper()}, sort_keys=True),
        "version": json.dumps({**envelope, "version": 1}, sort_keys=True),
        "digest": json.dumps({**envelope, "params_digest": "0" * 16}, sort_keys=True),
        "short": json.dumps({**envelope, "report_hex": hexed[:-2]}, sort_keys=True),
        "long": json.dumps({**envelope, "report_hex": hexed + "00"}, sort_keys=True),
        "not hex": json.dumps({**envelope, "report_hex": "zz" + hexed[2:]}, sort_keys=True),
        "no hex": json.dumps({"params_digest": digest}),
        "array": json.dumps([hexed]),
        "bad json": canonical[:-1],
        "trailing": canonical + " x",
        "blank": "",
        "spaces": " \t ",
        "unicode space": "　",
    }[form]


GOOD_FORMS = ["canonical"] * 8 + [
    "compact", "reordered", "spaced", "upper", "version", "blank", "spaces", "unicode space",
]
BAD_FORMS = [
    "digest", "short", "long", "not hex", "no hex", "array", "bad json", "trailing",
]


@st.composite
def report_streams(draw):
    k = draw(st.integers(1, 40))
    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5,
                          hash_seed=draw(st.sampled_from([0, 7, 2**64 - 1])))
    width = (k + 7) // 8
    used = k - 8 * (width - 1)  # bits of the last byte below k
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        raw = bytearray(draw(st.binary(min_size=width, max_size=width)))
        # mostly valid lines, so that streams often get as far as the counts
        padding = draw(st.sampled_from(["clear"] * 8 + ["one bit", "random"]))
        if padding != "random":
            raw[-1] &= (1 << used) - 1
        if padding == "one bit" and used < 8:
            raw[-1] |= 1 << draw(st.integers(used, 7))
        form = draw(st.sampled_from(BAD_FORMS if draw(st.integers(0, 15)) == 0 else GOOD_FORMS))
        ending = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", ""]))
        lines.append(line_text(form, bytes(raw), params.digest()) + ending)
    return params, lines


@given(stream=report_streams(), chunk_bits=st.sampled_from([1, 7, 64, 1 << 16]))
@settings(max_examples=600, deadline=None)
def test_fold_equals_json_oracle(stream, chunk_bits):
    params, lines = stream
    old_chunk = rappor._CHUNK_BITS
    rappor._CHUNK_BITS = chunk_bits
    try:
        # the lines as given, and as a text-mode file splits and translates them
        assert outcome(count_report_lines, lines, params) == outcome(oracle, lines, params)
        data = "".join(lines).encode("utf-8")
        assert (outcome(count_report_lines, io.TextIOWrapper(io.BytesIO(data), "utf-8"), params)
                == outcome(oracle, io.TextIOWrapper(io.BytesIO(data), "utf-8"), params))
    finally:
        rappor._CHUNK_BITS = old_chunk


@pytest.mark.parametrize("k", range(1, 41))
def test_every_last_byte_matches_oracle(k):
    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5)
    first = bytes(range(0x5A, 0x5A + (k - 1) // 8))
    for last in range(256):
        hexed = (first + bytes([last])).hex()
        line = json.dumps({"params_digest": params.digest(), "report_hex": hexed},
                          sort_keys=True) + "\n"
        assert outcome(count_report_lines, [line], params) == outcome(oracle, [line], params)


@pytest.mark.parametrize("k", [1, 4, 8, 12, 13, 16, 64, 256])
def test_written_lines_read_without_json(k, monkeypatch):
    import numpy as np

    params = RapporParams(k=k, h=1, f=0.5, q=0.75, p=0.5)
    rng = np.random.default_rng(k)
    bits = rng.integers(0, 2, size=(300, k), dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    chunks = [packed[:100].tobytes(), packed[100:].tobytes()]
    text = b"".join(envelope_lines(chunks, params)).decode("ascii")
    calls = []
    monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s))
    counts, n = count_report_lines(io.StringIO(text), params)
    assert (counts, n) == (bits.sum(axis=0).tolist(), 300)
    assert calls == []


def test_first_bad_line_wins():
    params = RapporParams(k=12, h=2, f=0.5, q=0.75, p=0.5)
    good = json.dumps(Report((1,) * 12).envelope(params), sort_keys=True)
    padding = good.replace('"ff0f"', '"ff1f"')
    lines = [good + "\n", "\n", padding + "\n", '{"params_digest": \n', good + "\n"]
    for fold in (count_report_lines, oracle):
        with pytest.raises(ReportFormatError, match="padding bits beyond k must be zero"):
            fold(lines, params)
        # blank lines count in the line number
        with pytest.raises(ConfigError, match="^reports line 4: "):
            fold(lines[:2] + ["   \n"] + lines[3:], params)
