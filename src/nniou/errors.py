"""Exception hierarchy shared across the toolkit, and the one text reader.

Two broad families matter to callers: configuration problems (bad
parameters, inconsistent flags) and data problems (malformed files,
unresolvable identifiers).  The CLI maps them to distinct exit codes.

Every input file is read once, whole, and its lines come from
:func:`text_lines` over those bytes.  A byte that is not UTF-8 becomes the
reader's own data error, naming the byte's line and its offset in the
file, both found in the same bytes.
"""

from __future__ import annotations

import codecs
import io
from contextlib import contextmanager
from typing import Iterator


class NnIouError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NnIouError):
    """Invalid parameters, flags, or configuration."""


class DataError(NnIouError):
    """Malformed or inconsistent input data."""


class _LineError(DataError):
    """A data error that names the line of its file when the line is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EdgeFileError(_LineError):
    """Bad record in an edge file; carries the offending line number."""


class DataFileError(_LineError):
    """Bad record in a corpus, runs, or class-map file."""


class IndexFormatError(_LineError):
    """Neighbor-index file cannot be parsed or has the wrong version."""


class UnknownConceptError(DataError):
    """A concept identifier does not resolve to a graph node."""

    def __init__(self, concept: str):
        super().__init__(f"unknown concept: {concept!r}")
        self.concept = concept


class EvaluationError(DataError):
    """Inconsistent corpus/runs passed to an evaluation."""


@contextmanager
def text_lines(data: bytes, error: type[_LineError]) -> Iterator[io.TextIOWrapper]:
    r"""The text of a file's ``data``, read as UTF-8 with universal newlines.

    A leading byte-order mark is skipped, and a line ends at ``\n``,
    ``\r\n`` or ``\r`` and nowhere else.  A byte that is not UTF-8 raises
    ``error`` naming its line: the wrapper's own error places the byte in
    its last 8 KiB block, so ``data`` is decoded whole to place it in the
    file.
    """
    # skipped by hand: a "utf-8-sig" decoder reads a lone truncated mark
    # (b"\xef" or b"\xef\xbb") as an empty file
    stream = io.BytesIO(data)
    if data.startswith(codecs.BOM_UTF8):
        stream.seek(len(codecs.BOM_UTF8))
    try:
        with io.TextIOWrapper(stream, encoding="utf-8") as text:
            yield text
    except UnicodeDecodeError as exc:
        # the mark is a whole character, so the whole decode fails too
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(str(exc), line=line) from None
