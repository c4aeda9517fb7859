"""The one text reader every input file goes through: ``errors.text_lines``."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nniou.errors import DataFileError, text_lines

# byte-order-mark fragments, lone multi-byte leads and continuations, whole
# characters, encoded surrogates, a byte UTF-8 never uses, and line ends
PIECES = [
    b"\xef\xbb\xbf", b"\xef", b"\xef\xbb", b"\xbb", b"\xbf",
    b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\x80", b"\xa9",
    b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80",
    b"\xed\xa0\x80", b"\xed\xbf\xbf", b"\xff", b"\r", b"\n", b"a",
]
LINE_END = re.compile(r"\r\n|\r|\n")


@settings(max_examples=500)
@given(st.lists(st.sampled_from(PIECES), max_size=12).map(lambda parts: b"".join(parts)[:12]))
def test_text_lines_reads_what_a_whole_decode_reads(data):
    """The lines of ``data`` decoded whole, one leading U+FEFF dropped and
    split at ``\\r\\n``, ``\\r`` or ``\\n``; or, where that decode fails, the
    reader's error naming the line of the first bad byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(LINE_END.split(data[:exc.start].decode("utf-8")))
        message = f"line {line}: {exc}"
        with pytest.raises(DataFileError) as raised:
            with text_lines(data, DataFileError) as lines:
                list(lines)
        assert (raised.value.line, str(raised.value)) == (line, message)
        return
    *ended, last = LINE_END.split(text.removeprefix("\ufeff"))
    with text_lines(data, DataFileError) as lines:
        assert list(lines) == [part + "\n" for part in ended] + ([last] if last else [])
