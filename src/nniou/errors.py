"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: configuration problems (bad
parameters, inconsistent flags) and data problems (malformed files,
unresolvable identifiers).  The CLI maps them to distinct exit codes.
"""


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


class IndexFormatError(DataError):
    """Neighbor-index file cannot be parsed or has the wrong version."""


class UnknownConceptError(DataError):
    """A concept identifier does not resolve to a graph node."""

    def __init__(self, concept: str):
        super().__init__(f"unknown concept: {concept!r}")
        self.concept = concept


class EvaluationError(DataError):
    """Inconsistent corpus/runs passed to an evaluation."""
