"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: configuration problems (bad
parameters, inconsistent flags) and data problems (malformed files,
unresolvable identifiers).  The CLI maps them to distinct exit codes.
"""

from __future__ import annotations

from pathlib import Path


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

    @classmethod
    def undecodable(cls, path: str | Path, exc: UnicodeDecodeError) -> _LineError:
        """The error for a file that is not UTF-8, naming its first bad byte's line.

        A reader's ``exc`` places the byte within its last read block, so the
        file is read again to place it in the file: call this only once
        decoding failed.  Lines end as universal newlines end them.
        """
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            head = data[:whole.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            return cls(str(whole), line=line)
        # the file changed after the reader failed on it
        return cls(str(exc))


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
