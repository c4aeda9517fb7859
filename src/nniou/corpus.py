"""File formats for corpora, runs, and class maps.

Corpus (JSON Lines, one document per line)::

    {"id": "doc1", "cuis": ["C0000001", ...], "labels": {"modality": "ct"}}

Runs (JSON Lines, one query per line)::

    {"query": "doc1", "ranked": ["doc2", "doc3", ...]}

Class map (single JSON object)::

    {"modality": {"ct": ["C0000001", ...], "mri": [...]}, "organ": {...}}

JSON Lines files are read with universal newlines, so a record ends at
``\n``, ``\r\n`` or ``\r`` and at no other character.  Readers validate
shape and identifiers and report the offending line number; writers emit
deterministic, diff-friendly output.  A ``\\u`` escape that leaves a lone
surrogate (``\\ud800`` unpaired) is rejected where it is read, since no
output file could encode it in UTF-8; a paired one is one character.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError, DataFileError, EvaluationError, text_lines
from .neighbor_index import _UNSTORABLE
from .ranking_eval import Document, RankingRun


def _jsonl_records(path: str | Path):
    with text_lines(Path(path).read_bytes(), DataFileError) as stream:
        for lineno, line in enumerate(stream, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DataFileError(f"invalid JSON: {exc.msg}", line=lineno) from None
            if not isinstance(record, dict):
                raise DataFileError("record must be a JSON object", line=lineno)
            if "\\u" in stripped:
                _no_lone_surrogate(record, line=lineno)
            yield lineno, record


def _no_lone_surrogate(value, line: int | None = None, where: str = "") -> None:
    """Reject a decoded JSON value holding a lone surrogate in any key or string.

    Only a ``\\u`` escape writes one (JSON decodes a paired escape to one
    character), and no output file could encode it in UTF-8.
    """
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise DataFileError(f"{where}a \\u escape leaves a lone surrogate, which UTF-8 "
                            "cannot encode", line=line) from None


def _string_list(value, what: str, lineno: int) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataFileError(f"{what} must be a list of strings", line=lineno)
    return value


def read_corpus(path: str | Path) -> list[Document]:
    """Load a JSONL corpus; duplicate or malformed documents are rejected.

    Each ``cuis`` string is stripped, and a blank one is dropped.
    """
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for lineno, record in _jsonl_records(path):
        doc_id = record.get("id")
        if not isinstance(doc_id, str) or not doc_id.strip():
            raise DataFileError("missing or empty 'id' field", line=lineno)
        doc_id = doc_id.strip()
        if doc_id in seen:
            raise DataFileError(
                f"duplicate document id {doc_id!r} (first seen on line {seen[doc_id]})",
                line=lineno,
            )
        seen[doc_id] = lineno
        cuis = _string_list(record.get("cuis", []), "'cuis'", lineno)
        concepts = frozenset(map(str.strip, cuis))
        if "" in concepts:
            concepts -= {""}
        if _UNSTORABLE.search("".join(concepts)):
            bad = next(c.strip() for c in cuis if _UNSTORABLE.search(c.strip()))
            raise DataFileError(
                f"concept {bad!r} contains a comma, tab or line break, "
                "which a neighbor index cannot store",
                line=lineno,
            )
        labels_field = record.get("labels", {})
        if labels_field is None:
            labels_field = {}
        if not isinstance(labels_field, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in labels_field.items()
        ):
            raise DataFileError(
                "'labels' must be an object mapping category to value", line=lineno
            )
        docs.append(Document(doc_id, concepts, dict(labels_field)))
    return docs


def corpus_vocabulary(corpus: Iterable[Document]) -> set[str]:
    """Union of all concept sets in the corpus."""
    vocabulary: set[str] = set()
    for doc in corpus:
        vocabulary |= doc.concepts
    return vocabulary


def read_runs(path: str | Path) -> list[RankingRun]:
    """Load a JSONL runs file; duplicate or self-retrieving rankings are rejected."""
    runs: list[RankingRun] = []
    for lineno, record in _jsonl_records(path):
        query = record.get("query")
        if not isinstance(query, str) or not query.strip():
            raise DataFileError("missing or empty 'query' field", line=lineno)
        ranked = _string_list(record.get("ranked"), "'ranked'", lineno)
        try:
            runs.append(RankingRun(query.strip(), [r.strip() for r in ranked]))
        except EvaluationError as exc:
            raise DataFileError(str(exc), line=lineno) from None
    return runs


def write_runs(runs: Sequence[RankingRun], path: str | Path) -> None:
    """Write runs as compact JSONL, one query per line, in the given order."""
    lines = [
        json.dumps(
            {"query": run.query_id, "ranked": list(run.ranked_ids)},
            ensure_ascii=False,
            separators=(",", ":"),
        )
        for run in runs
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_class_map(path: str | Path) -> dict[str, dict[str, frozenset[str]]]:
    """Load a class map and validate that each category's value sets are disjoint."""
    # read with universal newlines, so JSON's line count matches the file's
    with text_lines(Path(path).read_bytes(), DataFileError) as stream:
        text = stream.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFileError(f"invalid JSON in class map: {exc.msg}", line=exc.lineno) from None
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("class map must be a non-empty JSON object")
    escaped = "\\u" in text
    class_map: dict[str, dict[str, frozenset[str]]] = {}
    for category, value_map in raw.items():
        if not isinstance(value_map, dict) or not value_map:
            raise ConfigError(
                f"category {category!r} must map values to concept lists"
            )
        claimed: dict[str, str] = {}
        values: dict[str, frozenset[str]] = {}
        for value, concept_list in value_map.items():
            if escaped:
                _no_lone_surrogate([category, value, concept_list],
                                   where=f"class map category {category!r} value {value!r}: ")
            if not isinstance(concept_list, list) or not all(
                isinstance(c, str) for c in concept_list
            ):
                raise ConfigError(
                    f"category {category!r} value {value!r} must list concepts as "
                    f"strings, got {concept_list!r}"
                )
            concepts = frozenset(c.strip() for c in concept_list if c.strip())
            if not concepts:
                raise ConfigError(
                    f"category {category!r} value {value!r} must list at least one concept"
                )
            for concept in concepts:
                if concept in claimed:
                    raise ConfigError(
                        f"category {category!r}: concept {concept!r} mapped to both "
                        f"{claimed[concept]!r} and {value!r}"
                    )
                claimed[concept] = value
            values[value] = concepts
        class_map[category] = values
    return class_map
