from __future__ import annotations

import json

import pytest

from nniou import (
    ConfigError,
    DataFileError,
    Document,
    RankingRun,
    corpus_vocabulary,
    derive_labels,
    read_class_map,
    read_corpus,
    read_runs,
    write_runs,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCorpus:
    def test_documents_with_and_without_labels(self, tmp_path):
        path = _write(
            tmp_path,
            "corpus.jsonl",
            '{"id": "a", "cuis": ["C1", "\\tC2\\n", "C2"], "labels": {"modality": "ct"}}\n'
            '{"id": "b", "cuis": []}\n',
        )
        docs = read_corpus(path)
        assert docs[0].id == "a"
        assert docs[0].concepts == {"C1", "C2"}
        assert docs[0].labels == {"modality": "ct"}
        assert docs[1].concepts == frozenset()
        assert docs[1].labels == {}

    def test_blank_lines_tolerated(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '\n{"id": "a", "cuis": ["C1"]}\n\n')
        assert len(read_corpus(path)) == 1

    def test_duplicate_id_reports_both_lines(self, tmp_path):
        path = _write(
            tmp_path,
            "c.jsonl",
            '{"id": "a", "cuis": []}\n{"id": "a", "cuis": []}\n',
        )
        with pytest.raises(DataFileError, match="line 2.*line 1"):
            read_corpus(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"id": "a", "cuis": []}\n{broken\n')
        with pytest.raises(DataFileError, match="line 2"):
            read_corpus(path)

    def test_missing_id_rejected(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"cuis": ["C1"]}\n')
        with pytest.raises(DataFileError, match="'id'"):
            read_corpus(path)

    def test_non_string_cuis_rejected(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"id": "a", "cuis": [1, 2]}\n')
        with pytest.raises(DataFileError, match="cuis"):
            read_corpus(path)

    @pytest.mark.parametrize("concept", ["a,b", "a\tb", "a\rb", "a\nb"])
    def test_concept_an_index_cannot_store_rejected(self, tmp_path, concept):
        path = _write(
            tmp_path,
            "c.jsonl",
            '{"id": "a", "cuis": ["C1"]}\n'
            + json.dumps({"id": "b", "cuis": ["C2", concept]})
            + "\n",
        )
        with pytest.raises(DataFileError, match=r"line 2: concept .* cannot store"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "inner", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_concept_holding_a_break_that_ends_no_record_accepted(self, tmp_path, inner):
        """``str.splitlines`` breaks at these, but a record ends only at a newline."""
        concept = f"a{inner}b"
        record = json.dumps({"id": "b", "cuis": ["C2", concept]}, ensure_ascii=False)
        text = '{"id": "a", "cuis": ["C1"]}\n' + record + "\n"
        path = _write(tmp_path, "c.jsonl", text)
        assert [doc.concepts for doc in read_corpus(path)] == [{"C1"}, {"C2", concept}]

    def test_vocabulary_union(self, tmp_path):
        path = _write(
            tmp_path,
            "c.jsonl",
            '{"id": "a", "cuis": ["C1", "C2"]}\n{"id": "b", "cuis": ["C2", "C3"]}\n',
        )
        assert corpus_vocabulary(read_corpus(path)) == {"C1", "C2", "C3"}


class TestRuns:
    def test_round_trip(self, tmp_path):
        runs = [RankingRun("a", ["b", "c"]), RankingRun("b", ["a"])]
        path = tmp_path / "runs.jsonl"
        write_runs(runs, path)
        loaded = read_runs(path)
        assert [(r.query_id, r.ranked_ids) for r in loaded] == [
            ("a", ["b", "c"]),
            ("b", ["a"]),
        ]

    def test_written_format_is_compact_jsonl(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_runs([RankingRun("a", ["b"])], path)
        assert path.read_text(encoding="utf-8") == '{"query":"a","ranked":["b"]}\n'

    def test_duplicate_ranked_id_reports_line(self, tmp_path):
        path = _write(
            tmp_path, "runs.jsonl", '{"query": "a", "ranked": ["b", "b"]}\n'
        )
        with pytest.raises(DataFileError, match="line 1.*duplicate"):
            read_runs(path)

    def test_self_retrieval_reports_line(self, tmp_path):
        path = _write(
            tmp_path, "runs.jsonl", '{"query": "a", "ranked": ["a", "b"]}\n'
        )
        with pytest.raises(DataFileError, match="line 1"):
            read_runs(path)

    def test_missing_ranked_field_rejected(self, tmp_path):
        path = _write(tmp_path, "runs.jsonl", '{"query": "a"}\n')
        with pytest.raises(DataFileError, match="ranked"):
            read_runs(path)


class TestClassMap:
    def test_valid_map(self, tmp_path):
        payload = {"modality": {"ct": ["C1"], "mri": ["C2", "C3"]}}
        path = _write(tmp_path, "map.json", json.dumps(payload))
        class_map = read_class_map(path)
        assert class_map["modality"]["mri"] == {"C2", "C3"}

    def test_overlapping_values_rejected(self, tmp_path):
        payload = {"modality": {"ct": ["C1"], "mri": ["C1"]}}
        path = _write(tmp_path, "map.json", json.dumps(payload))
        with pytest.raises(ConfigError, match="C1"):
            read_class_map(path)

    def test_empty_map_rejected(self, tmp_path):
        path = _write(tmp_path, "map.json", "{}")
        with pytest.raises(ConfigError):
            read_class_map(path)

    def test_empty_value_list_rejected(self, tmp_path):
        path = _write(tmp_path, "map.json", '{"modality": {"ct": []}}')
        with pytest.raises(ConfigError):
            read_class_map(path)

    def test_non_string_concepts_rejected(self, tmp_path):
        path = _write(tmp_path, "map.json", '{"modality": {"ct": [null, 1]}}')
        with pytest.raises(ConfigError, match=r"'modality' value 'ct'.*strings"):
            read_class_map(path)

    def test_all_blank_concepts_rejected(self, tmp_path):
        payload = {"modality": {"ct": ["C1"], "mri": ["", " "]}}
        path = _write(tmp_path, "map.json", json.dumps(payload))
        with pytest.raises(ConfigError, match=r"'modality' value 'mri'.*at least one"):
            read_class_map(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = _write(tmp_path, "map.json", "{nope")
        with pytest.raises(DataFileError):
            read_class_map(path)

    def test_byte_order_mark_gives_the_same_labels(self, tmp_path):
        payload = json.dumps({"modality": {"ct": ["C1"], "mri": ["C2", "C3"]}})
        plain = read_class_map(_write(tmp_path, "plain.json", payload))
        marked = read_class_map(_write(tmp_path, "marked.json", "\ufeff" + payload))
        assert marked == plain
        docs = [Document("a", {"C1"}), Document("b", {"C3", "C9"}), Document("c", {"C9"})]
        labels = [doc.labels for doc in derive_labels(docs, marked)]
        assert labels == [doc.labels for doc in derive_labels(docs, plain)]
        assert labels == [{"modality": "ct"}, {"modality": "mri"}, {}]
