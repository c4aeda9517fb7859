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


LONE_SURROGATE = "a \\u escape leaves a lone surrogate, which UTF-8 cannot encode"


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

    @pytest.mark.parametrize("record", ['["a"]', "42", "null", '"a"'])
    def test_non_object_line_names_its_line(self, tmp_path, record):
        path = _write(tmp_path, "c.jsonl", '{"id": "a", "cuis": []}\n\n' + record + "\n")
        with pytest.raises(DataFileError) as raised:
            read_corpus(path)
        assert str(raised.value) == "line 3: record must be a JSON object"
        assert raised.value.line == 3

    def test_blank_concepts_are_dropped(self, tmp_path):
        path = _write(tmp_path, "c.jsonl",
                      '{"id": "a", "cuis": ["C1", "", " \\t "]}\n{"id": "b", "cuis": [" "]}\n')
        assert [doc.concepts for doc in read_corpus(path)] == [{"C1"}, frozenset()]

    def test_null_labels_read_as_no_labels(self, tmp_path):
        path = _write(tmp_path, "c.jsonl", '{"id": "a", "cuis": ["C1"], "labels": null}\n')
        assert read_corpus(path) == [Document("a", frozenset({"C1"}), {})]

    @pytest.mark.parametrize("labels", ['["ct"]', '"ct"', '{"modality": 1}', '{"modality": null}'])
    def test_non_object_labels_name_their_line(self, tmp_path, labels):
        record = '{"id": "b", "cuis": [], "labels": ' + labels + "}\n"
        path = _write(tmp_path, "c.jsonl", '{"id": "a", "cuis": []}\n' + record)
        with pytest.raises(DataFileError) as raised:
            read_corpus(path)
        assert str(raised.value) == (
            "line 2: 'labels' must be an object mapping category to value"
        )
        assert raised.value.line == 2

    @pytest.mark.parametrize("record", [
        '{"id": "b\\ud800", "cuis": []}',
        '{"id": "b", "cuis": ["C2", "\\udfff"]}',
        '{"id": "b", "cuis": [], "labels": {"modality": "\\ud83dct"}}',
        '{"id": "b", "cuis": [], "labels": {"\\ude00": "ct"}}',
    ], ids=["id", "cuis", "label-value", "label-category"])
    def test_lone_surrogate_escape_names_its_line(self, tmp_path, record):
        path = _write(tmp_path, "c.jsonl", '{"id": "a", "cuis": ["C1"]}\n' + record + "\n")
        with pytest.raises(DataFileError) as raised:
            read_corpus(path)
        assert str(raised.value) == f"line 2: {LONE_SURROGATE}"
        assert raised.value.line == 2

    def test_paired_or_escaped_backslash_u_is_read(self, tmp_path):
        """A surrogate pair decodes to one character; ``\\\\ud800`` is no escape."""
        path = _write(tmp_path, "c.jsonl", '{"id": "a\\ud83d\\ude00", "cuis": ["\\\\ud800"]}\n')
        assert read_corpus(path) == [Document("a\U0001f600", frozenset({"\\ud800"}))]

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

    def test_repeated_query_reports_both_lines(self, tmp_path):
        path = _write(tmp_path, "runs.jsonl", '{"query": "a", "ranked": []}\n'
                      '{"query": "b", "ranked": ["a"]}\n{"query": " a", "ranked": ["b"]}\n')
        with pytest.raises(DataFileError) as raised:
            read_runs(path)
        assert str(raised.value) == "line 3: duplicate query 'a' (first seen on line 1)"
        assert raised.value.line == 3

    def test_repeated_query_is_named_before_its_ranking_is_read(self, tmp_path):
        path = _write(tmp_path, "runs.jsonl",
                      '{"query": "a", "ranked": []}\n{"query": "a", "ranked": ["a"]}\n')
        with pytest.raises(DataFileError, match="^line 2: duplicate query 'a'"):
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

    @pytest.mark.parametrize("query", ["", ', "query": ""', ', "query": " "', ', "query": 5'],
                             ids=["missing", "empty", "blank", "number"])
    def test_record_without_query_names_its_line(self, tmp_path, query):
        path = _write(tmp_path, "runs.jsonl",
                      '{"query": "a", "ranked": []}\n{"ranked": ["a"]' + query + "}\n")
        with pytest.raises(DataFileError) as raised:
            read_runs(path)
        assert str(raised.value) == "line 2: missing or empty 'query' field"
        assert raised.value.line == 2

    @pytest.mark.parametrize("record", ['{"query": "b\\udbff", "ranked": ["a"]}',
                                        '{"query": "b", "ranked": ["a", "\\udc00"]}'],
                             ids=["query", "ranked"])
    def test_lone_surrogate_escape_names_its_line(self, tmp_path, record):
        path = _write(tmp_path, "runs.jsonl", '{"query": "a", "ranked": []}\n' + record + "\n")
        with pytest.raises(DataFileError) as raised:
            read_runs(path)
        assert str(raised.value) == f"line 2: {LONE_SURROGATE}"
        assert raised.value.line == 2


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

    @pytest.mark.parametrize("value_map", ['["C1"]', '"ct"', "null", "{}"])
    def test_category_that_maps_no_values_rejected(self, tmp_path, value_map):
        path = _write(tmp_path, "map.json",
                      '{"organ": {"liver": ["C2"]}, "modality": ' + value_map + "}")
        with pytest.raises(ConfigError) as raised:
            read_class_map(path)
        assert str(raised.value) == "category 'modality' must map values to concept lists"

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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_json_names_its_line(self, tmp_path, end):
        path = tmp_path / "map.json"
        path.write_bytes(f'{{"modality":{end}  {{"ct": [C1]}}}}{end}'.encode())
        with pytest.raises(DataFileError, match=r"^line 2: invalid JSON in class map: ") as caught:
            read_class_map(path)
        assert caught.value.line == 2

    @pytest.mark.parametrize("payload, named", [
        ('{"modality\\ud800": {"ct": ["C1"]}}', "'modality\\ud800' value 'ct'"),
        ('{"modality": {"ct": ["C1"], "\\udfffmri": ["C2"]}}', "'modality' value '\\udfffmri'"),
        ('{"modality": {"ct": ["C1\\ud800"]}}', "'modality' value 'ct'"),
    ], ids=["category", "value", "concept"])
    def test_lone_surrogate_escape_names_its_category_and_value(self, tmp_path, payload,
                                                                named):
        path = _write(tmp_path, "map.json", payload)
        with pytest.raises(DataFileError) as raised:
            read_class_map(path)
        assert str(raised.value) == f"class map category {named}: {LONE_SURROGATE}"

    def test_paired_surrogate_escape_is_one_character(self, tmp_path):
        path = _write(tmp_path, "map.json", '{"modality\\ud83d\\ude00": {"ct": ["C1"]}}')
        assert read_class_map(path) == {"modality\U0001f600": {"ct": frozenset({"C1"})}}

    def test_byte_order_mark_gives_the_same_labels(self, tmp_path):
        payload = json.dumps({"modality": {"ct": ["C1"], "mri": ["C2", "C3"]}})
        plain = read_class_map(_write(tmp_path, "plain.json", payload))
        marked = read_class_map(_write(tmp_path, "marked.json", "\ufeff" + payload))
        assert marked == plain
        docs = [Document("a", {"C1"}), Document("b", {"C3", "C9"}), Document("c", {"C9"})]
        labels = [doc.labels for doc in derive_labels(docs, marked)]
        assert labels == [doc.labels for doc in derive_labels(docs, plain)]
        assert labels == [{"modality": "ct"}, {"modality": "mri"}, {}]
