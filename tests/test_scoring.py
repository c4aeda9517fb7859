"""The pruned scoring core against the pairwise brute force it replaces.

Every ranking the toolkit produces (retrieval runs and ablation cells)
goes through ``ScoringCore.tops``, and every nn-CUI@K gain through
``ScoringCore.gains``; these tests pin them, byte for byte, to sorting
every other document by (-nn_iou, id) and to nn_iou itself.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import replace
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nniou import (
    ConfigError,
    Document,
    EvalConfig,
    EvaluationError,
    KnowledgeGraph,
    NeighborIndex,
    RankingRun,
    build_index,
    build_indexes,
    derive_labels,
    ground_truth_ranking,
    ground_truth_rankings,
    iou,
    ndcg_at_k,
    nn_cui_at_k,
    nn_iou,
    precision_at_k,
    rel_set,
)
from nniou.cli import AblationGrid, ablation_rows, main
from nniou.ranking_eval import _precisions, scoring_core
from nniou.scoring import ScoringCore

from oracles import brute_nn_cui, brute_ranking

GRAPH_CONCEPTS = [f"c{i}" for i in range(7)]
# "zz" is in no graph; "yy" is in the graph but left out of every built index
CONCEPTS = GRAPH_CONCEPTS + ["yy", "zz"]
LAMBDAS = (0.0, 0.1, 0.5, 1.0)


@st.composite
def corpora(draw, min_docs=1):
    ids = draw(st.lists(st.sampled_from("abcdefghij"), min_size=min_docs,
                        max_size=8, unique=True))
    return [
        Document(doc_id, frozenset(draw(st.sets(st.sampled_from(CONCEPTS), max_size=4))))
        for doc_id in ids
    ]


@st.composite
def graphs(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(GRAPH_CONCEPTS + ["yy"]),
                                    st.sampled_from(GRAPH_CONCEPTS + ["yy"])),
                          max_size=10))
    edges = sorted({(a, b) for a, b in pairs if a != b})
    return KnowledgeGraph.from_edges(edges, nodes=GRAPH_CONCEPTS + ["yy"])


@st.composite
def asymmetric_indexes(draw, radius):
    """Hand-built directed neighbor lists, some naming concepts with no entry."""
    keys = draw(st.sets(st.sampled_from(CONCEPTS)))
    entries = {
        c: frozenset(draw(st.sets(st.sampled_from([x for x in CONCEPTS if x != c]),
                                  max_size=3)))
        for c in keys
    }
    return NeighborIndex(radius=radius, source_checksum="hand", entries=entries)


@st.composite
def settings_cases(draw):
    """(corpus, cfg, index) covering IoU, nn-IoU at radius 0-2 and asymmetric indexes."""
    docs = draw(corpora(min_docs=2))
    radius = draw(st.integers(0, 2))
    cfg = EvalConfig(
        k=draw(st.integers(1, len(docs) + 2)),
        lam=draw(st.sampled_from(LAMBDAS)),
        measure=draw(st.sampled_from(("iou", "nniou"))),
    )
    if draw(st.booleans()):
        index = draw(asymmetric_indexes(radius))
    else:
        vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
        index = build_index(draw(graphs()), vocabulary, radius)
    return docs, cfg, index


def _pair_score(cfg, index):
    if cfg.measure == "iou":
        return iou
    return lambda a, b: nn_iou(a, b, cfg.lam, index)


def _gains_of(core, q, lam, ranked):
    """Each ranked id's score against ``q`` at ``lam``, by ``core.gains``' lookup,
    which gives 0.0 for a document that is no candidate."""
    return core.gains(q, lam)[1](ranked)


@settings(max_examples=300)
@given(settings_cases())
def test_core_rankings_equal_brute_force(case):
    docs, cfg, index = case
    score = _pair_score(cfg, index)
    core, lam = scoring_core(docs, cfg, index)
    by_id = {d.id: d for d in docs}
    for query in docs:
        expected = brute_ranking(query, docs, score)
        top = core.tops(query.id, (lam,), cfg.k)[0]
        assert top == expected[: cfg.k]
        assert _gains_of(core, query.id, lam, top) == [
            score(by_id[i].concepts, query.concepts) for i in expected[: cfg.k]
        ]
        assert ground_truth_ranking(query, docs, cfg, index).ranked_ids == expected


@settings(max_examples=300)
@given(settings_cases())
def test_ground_truth_rankings_equal_brute_force(case):
    """One shared core ranks every query like the brute force and like one call each."""
    docs, cfg, index = case
    score = _pair_score(cfg, index)
    for k in (cfg.k, len(docs) + 1):  # the drawn cutoff, then one beyond the corpus
        cut = replace(cfg, k=k)
        runs = ground_truth_rankings(docs, cut, index)
        assert [run.query_id for run in runs] == [d.id for d in docs]
        for query, run in zip(docs, runs):
            assert run.ranked_ids == brute_ranking(query, docs, score)[:k]
            assert run.ranked_ids == (
                ground_truth_ranking(query, docs, cut, index).ranked_ids[:k]
            )


@settings(max_examples=300)
@given(corpora(min_docs=2), st.integers(0, 2), st.data())
def test_tops_equal_brute_force_for_every_lambda(docs, radius, data):
    """One scoring pass ranks like a separate brute-force sort per lambda."""
    drawn = data.draw(st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=4))
    # always 0, 1 and a repeated lambda, in a drawn order
    lams = data.draw(st.permutations(drawn + [0.0, 1.0, drawn[0]]))
    # len(docs) - 1 ranks every other document
    k = data.draw(st.just(len(docs) - 1) | st.integers(1, len(docs) + 2))
    if data.draw(st.booleans()):
        index = data.draw(asymmetric_indexes(radius))
    else:
        vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
        index = build_index(data.draw(graphs()), vocabulary, radius)
    core = ScoringCore(docs, index)
    by_id = {d.id: d for d in docs}
    for query in docs:
        rankings = core.tops(query.id, lams, k)
        assert len(rankings) == len(lams)
        for lam, ranked in zip(lams, rankings):
            def score(a, b, lam=lam):
                return nn_iou(a, b, lam, index)

            expected = brute_ranking(query, docs, score)[:k]
            assert ranked == expected
            assert _gains_of(core, query.id, lam, ranked) == [
                score(by_id[i].concepts, query.concepts) for i in expected
            ]
        assert core.tops(query.id, (lams[0],), k)[0] == rankings[0]


@settings(max_examples=200)
@given(corpora(min_docs=2), st.integers(0, 2), st.data())
def test_tops_under_many_lambdas_equal_each_alone_in_distinct_lists(docs, radius, data):
    """Each ranking is a list of its own, an inert core's copies of the first included."""
    # repeats allowed: a repeated lambda ranks alike at every radius
    lams = data.draw(st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=5))
    k = data.draw(st.integers(1, len(docs) + 1))
    vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
    core = ScoringCore(docs, build_index(data.draw(graphs()), vocabulary, radius))
    for query in docs:
        rankings = core.tops(query.id, lams, k)
        for i, lam in enumerate(lams):
            assert rankings[i] == core.tops(query.id, [lam], k)[0]
        assert len({id(ranked) for ranked in rankings}) == len(rankings)


@settings(max_examples=200)
@given(corpora(min_docs=2), st.integers(0, 2), st.data())
def test_shared_zero_fill_equals_one_lambda_at_a_time(docs, radius, data):
    """The zero-score tail, listed once per query, serves every lambda and every k."""
    if data.draw(st.booleans()):
        index = data.draw(asymmetric_indexes(radius))
    else:
        vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
        index = build_index(data.draw(graphs()), vocabulary, radius)
    core = ScoringCore(docs, index)
    by_id = {d.id: d for d in docs}
    lams = (0.0, 0.1, 0.5, 1.0)
    for query in docs:
        expected = [
            brute_ranking(query, docs, lambda a, b, lam=lam: nn_iou(a, b, lam, index))
            for lam in lams
        ]
        for k in range(1, len(docs)):
            rankings = core.tops(query.id, lams, k)
            assert rankings == [core.tops(query.id, (lam,), k)[0] for lam in lams]
            assert rankings == [ids[:k] for ids in expected]
        for lam, ids in zip(lams, expected):
            assert _gains_of(core, query.id, lam, ids) == [
                nn_iou(by_id[i].concepts, query.concepts, lam, index) for i in ids
            ]


def test_lambda_zero_candidate_sorts_by_id_between_non_candidates():
    """At lambda 0 a document holding only a neighbor scores 0 and joins the id-ordered tail."""
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={"a": frozenset({"b"}), "b": frozenset({"a"})})
    docs = [
        Document("x", frozenset({"y"})),
        Document("m", frozenset({"b"})),  # a candidate: b neighbors the query's a
        Document("q", frozenset({"a"})),
        Document("c", frozenset({"z"})),
        Document("p", frozenset({"a"})),
    ]
    core = ScoringCore(docs, index)
    named = {0.0: ["p", "c", "m", "x"], 0.5: ["p", "m", "c", "x"]}
    for lams in ((0.0, 0.5), (0.5, 0.0)):  # the fill first listed for 0 or for 0.5
        for k in range(1, 5):
            rankings = core.tops("q", lams, k)
            assert rankings == [named[lam][:k] for lam in lams]
    ranked = core.tops("q", (0.0,), 4)[0]
    assert ranked == ["p", "c", "m", "x"]
    assert _gains_of(core, "q", 0.0, ranked) == [1.0, 0.0, 0.0, 0.0]
    reached = core._reach[core._number["q"]]
    counted = [i for r, i in enumerate(core.ids) if reached >> r & 1]
    assert "m" in counted and "c" not in counted


@settings(max_examples=200)
@given(settings_cases(), st.randoms(use_true_random=False))
def test_nn_cui_reports_equal_brute_force(case, rng):
    docs, cfg, index = case
    ids = [d.id for d in docs]
    runs = []
    for doc in docs:
        others = [i for i in ids if i != doc.id]
        rng.shuffle(others)
        if rng.random() < 0.8:
            runs.append(RankingRun(doc.id, others[: rng.randint(0, cfg.k + 1)]))
    report = nn_cui_at_k(docs, runs, cfg, index)
    expected = brute_nn_cui(docs, runs, cfg.k, _pair_score(cfg, index))
    assert report.per_query == expected
    assert list(report.per_query) == sorted(expected)


TIE_CONCEPTS = ["t0", "t1", "t2"]


@st.composite
def tie_cases(draw):
    """Many documents over a 2-3 concept alphabet, so scores tie in groups.

    Five or more documents take their concept sets from a pool of at most
    four, so two of them share a set and tie in every other query's
    ranking.  Ids come in drawn order, not sorted, so corpus position is no
    stand-in for the id tie-break; empty and unrelated documents give
    zero-score tails for the candidates to stay ahead of.
    """
    alphabet = TIE_CONCEPTS[: draw(st.integers(2, 3))]
    ids = draw(st.lists(st.sampled_from("abcdefghijklmn"), min_size=5, max_size=12,
                        unique=True))
    pool = draw(st.lists(st.frozensets(st.sampled_from(alphabet)), min_size=1, max_size=4))
    docs = [Document(doc_id, draw(st.sampled_from(pool))) for doc_id in ids]
    entries = {
        c: frozenset(draw(st.sets(st.sampled_from([x for x in alphabet if x != c]))))
        for c in draw(st.sets(st.sampled_from(alphabet)))
    }
    return docs, NeighborIndex(radius=1, source_checksum="hand", entries=entries)


@settings(max_examples=200)
@given(tie_cases())
def test_ties_straddling_the_kth_place_break_by_id(case):
    """Every k, including each one that falls inside a tie group."""
    docs, index = case
    core = ScoringCore(docs, index)
    by_id = {d.id: d for d in docs}
    lams = (0.0, 0.5, 1.0)
    straddled = 0
    for query in docs:
        full = core.tops(query.id, lams, len(docs) - 1)
        for lam, ranked in zip(lams, full):
            def score(a, b, lam=lam):
                return nn_iou(a, b, lam, index)

            expected = brute_ranking(query, docs, score)
            scores = [score(by_id[i].concepts, query.concepts) for i in expected]
            assert ranked == expected
            assert _gains_of(core, query.id, lam, ranked) == scores
            straddled += sum(a == b for a, b in zip(scores, scores[1:]))
        for k in range(1, len(docs) + 1):
            assert core.tops(query.id, lams, k) == [ranked[:k] for ranked in full]
            for lam, ranked in zip(lams, full):
                assert core.tops(query.id, (lam,), k)[0] == ranked[:k]
    assert straddled
    for lam in lams:
        for k in (1, 2, 3, len(docs)):
            cfg = EvalConfig(k=k, lam=lam)
            runs = [RankingRun(d.id, [o.id for o in reversed(docs) if o is not d][:k])
                    for d in docs]
            expected = brute_nn_cui(docs, runs, k,
                                    lambda a, b, cfg=cfg: nn_iou(a, b, cfg.lam, index))
            assert nn_cui_at_k(docs, runs, cfg, index).per_query == expected


@pytest.mark.parametrize("entries", [
    # symmetric: p0 and p3 list each other, so do p1 and p2
    {"p0": {"p3"}, "p3": {"p0"}, "p1": {"p2"}, "p2": {"p1"}},
    # asymmetric: only p0 and p3 have lists, naming concepts that list nothing
    {"p0": {"p2"}, "p3": {"p1"}},
])
def test_related_concepts_on_the_first_and_last_concept_bits(entries):
    """A related concept on bit 0 and one on bit w-1 of the packed halves.

    Concepts are interned to bits in first-seen order, and each of the
    first four documents brings one new concept, so p0 takes bit 0 and p3
    bit 3 = w-1 of the w = 4 concept bits; shifting the near half by one
    bit too few or too many moves one of them onto the other half.
    """
    docs = [Document(f"d{i}", frozenset({f"p{i}"})) for i in range(4)] + [
        Document("e0", frozenset({"p0", "p1"})),
        Document("e1", frozenset({"p2", "p3"})),
        Document("e2", frozenset({"p0", "p3"})),
        Document("e3", frozenset({"p1", "p2", "p3"})),
    ]
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={c: frozenset(n) for c, n in entries.items()})
    core = ScoringCore(docs, index)
    by_id = {d.id: d for d in docs}
    related = set()
    for lam in (0.5, 1.0):
        def score(a, b, lam=lam):
            return nn_iou(a, b, lam, index)

        for query in docs:
            gains_of = core.gains(query.id, lam)[1]
            for doc in docs:
                related |= rel_set(query.concepts, doc.concepts, index)
                if doc is not query:
                    assert gains_of([doc.id]) == [score(query.concepts, doc.concepts)]
            expected = brute_ranking(query, docs, score)
            top = core.tops(query.id, (lam,), len(docs) - 1)[0]
            assert top == expected
            assert _gains_of(core, query.id, lam, top) == [
                score(by_id[i].concepts, query.concepts) for i in expected
            ]
    assert {"p0", "p3"} <= related


# Which way ScoringCore counts a query's candidates follows from the corpus
# alone: a query whose candidates are at least half of the other documents
# is summed in byte fields, any other is walked, and so is every query of a
# corpus holding a document of 128 or more concepts.  The strategies below
# build corpora on either side of that rule, and the tests check that the
# path they target is the one that ran.
SWITCH_LAMBDAS = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
# one document holding all of these has 2 * 130 > 255, so its counts need
# fields wider than a byte and its corpus is walked
WIDE = [f"w{i}" for i in range(130)]


def _shaped_index(draw, pool, linked):
    """No index, a hand-built asymmetric one over ``pool``, or one built from a
    drawn graph over ``pool``; ``linked`` concept pairs are always listed."""
    choice = draw(st.sampled_from(("none", "asymmetric", "graph")))
    if choice == "none":
        return None
    radius = draw(st.integers(1, 2))
    if choice == "asymmetric":
        keys = draw(st.sets(st.sampled_from(pool))) | {a for a, _ in linked}
        entries = {
            c: frozenset(draw(st.sets(st.sampled_from([x for x in pool if x != c]),
                                      max_size=3)))
            | {b for a, b in linked if a == c}
            for c in keys
        }
        return NeighborIndex(radius=radius, source_checksum="hand", entries=entries)
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          max_size=10))
    edges = sorted({(a, b) for a, b in pairs if a != b} | set(linked))
    return build_index(KnowledgeGraph.from_edges(edges, nodes=pool), set(pool), radius)


def _drawn_ids(draw, n):
    # drawn order, not sorted, so corpus position is no stand-in for the id
    return draw(st.lists(st.sampled_from("abcdefghijklmnopqrst"), min_size=n, max_size=n,
                         unique=True))


@st.composite
def summed_corpora(draw, linked_hub=True):
    """Every document with concepts is a candidate of every other one.

    Each holds the hub ``h`` or ``g``, which lists ``h``: a shared concept
    or a neighbor joins every pair.  Without an index, or unless
    ``linked_hub``, all hold ``h``.  At most one fewer empty documents than
    nonempty ones keeps each nonempty query's candidates at half of the
    other documents or more.
    """
    pool = GRAPH_CONCEPTS + ["g", "h", "w0", "w1"]
    index = _shaped_index(draw, pool, [("g", "h")])
    filled = draw(st.integers(3, 9))
    empty = draw(st.integers(0, min(2, filled - 1)))
    hubs = ["g", "h"] if index is not None and linked_hub else ["h"]
    concept_sets = [
        {draw(st.sampled_from(hubs))} | draw(st.sets(st.sampled_from(pool), max_size=4))
        for _ in range(filled)
    ]
    concept_sets += [set()] * empty
    order = draw(st.permutations(range(filled + empty)))
    ids = _drawn_ids(draw, filled + empty)
    return [Document(i, frozenset(concept_sets[o])) for i, o in zip(ids, order)], index


@st.composite
def walked_corpora(draw):
    """No document is a candidate of half of the other documents.

    Four or five groups of one to three documents, each group over concepts
    of its own, so a query reaches at most two others out of at least five.
    """
    groups = draw(st.lists(st.integers(1, 3), min_size=4, max_size=5))
    pool = [f"s{g}{x}" for g in range(len(groups)) for x in "abc"]
    # within-group neighbors only
    linked = [(a, b) for a in pool for b in pool if a[:2] == b[:2] and a < b]
    index = _shaped_index(draw, pool, draw(st.lists(st.sampled_from(linked), max_size=4)))
    if index is not None:  # drop any cross-group neighbor the draw added
        index = NeighborIndex(index.radius, "hand", {
            c: frozenset(x for x in n if x[:2] == c[:2]) for c, n in index.entries.items()
        })
    concept_sets = [
        draw(st.sets(st.sampled_from([c for c in pool if c[:2] == f"s{g}"])))
        for g, size in enumerate(groups) for _ in range(size)
    ]
    if draw(st.booleans()):
        concept_sets[draw(st.integers(0, len(concept_sets) - 1))] |= set(WIDE)
    concept_sets += [set()] * draw(st.integers(0, 2))
    ids = _drawn_ids(draw, len(concept_sets))
    return [Document(i, frozenset(c)) for i, c in zip(ids, concept_sets)], index


def _brute_tops(docs, index, query):
    """``query``'s full ranking under each of SWITCH_LAMBDAS, and each ranked id's score."""
    by_id = {d.id: d for d in docs}
    expected = []
    for lam in SWITCH_LAMBDAS:
        def score(a, b, lam=lam):
            return nn_iou(a, b, lam, index) if index is not None else iou(a, b)

        ranked = brute_ranking(query, docs, score)
        expected.append((ranked, [score(by_id[i].concepts, query.concepts) for i in ranked]))
    return expected


def _ranks_as_expected(core, query, expected, k):
    """``core`` ranks ``query`` at cutoff ``k`` as ``_brute_tops`` gave, each id
    with the score its ranking was built from."""
    rankings = core.tops(query.id, SWITCH_LAMBDAS, k)
    assert rankings == [ranked[:k] for ranked, _ in expected]
    for lam, top, (_, scores) in zip(SWITCH_LAMBDAS, rankings, expected):
        assert _gains_of(core, query.id, lam, top) == scores[:k]


def _walk_only(core, q):
    """``ScoringCore._walk`` in place of the sums: every count walked."""
    return core._walk(q, core._reach[q])


# a test parameter: count as the core chooses, or with _sums patched to walk
WALK = pytest.mark.parametrize("walk", [False, True], ids=["as-counted", "walk-forced"])


@contextmanager
def _summed_queries(walk=False):
    """Record the number of every summed query, in a list yielded; with
    ``walk``, every one of them is walked instead (``_walk_only``).

    Each summed count must be a row that lists every document, ``q``'s own
    code scoring 0, every document the walk skips with inter and rel 0, and
    the walk's candidates as the walk does; a forced walk must equal the
    walk.
    """
    summed = []
    sums = _walk_only if walk else ScoringCore._sums

    def recording(self, q):
        summed.append(q)
        numbers, codes = sums(self, q)
        counted = list(zip(numbers, codes))
        reach = self._reach[q]
        assert (numbers is self._row) != walk
        if not walk:
            assert counted.pop(q) == (q, 1)  # union 1, rel 0, inter 0
            skipped = [c for r, c in counted if not reach >> r & 1]
            assert all(c >> self._bits == 0 for c in skipped)
            counted = [(r, c) for r, c in counted if reach >> r & 1]
        assert counted == list(zip(*self._walk(q, reach)))
        return numbers, codes

    with mock.patch.object(ScoringCore, "_sums", recording):
        yield summed


def _ranks_like_brute_force(docs, index, walk=False):
    """Rank every query under SWITCH_LAMBDAS at every k from 1 to N + 2.

    Returns the core and the numbers of the queries that were summed (or,
    with ``walk``, would have been); each summed query's counts are also
    checked against the walk's.
    """
    core = ScoringCore(docs, index)
    with _summed_queries(walk) as summed:
        for query in docs:
            expected = _brute_tops(docs, index, query)
            for k in range(1, len(docs) + 3):
                _ranks_as_expected(core, query, expected, k)
    return core, summed


@WALK
@settings(max_examples=150)
@given(summed_corpora())
def test_summed_queries_rank_like_brute_force_and_count_like_the_walk(walk, case):
    docs, index = case
    core, summed = _ranks_like_brute_force(docs, index, walk)
    # every query with concepts took the sums, at every k; the core numbers
    # documents by id, and ids[r] names number r
    nonempty = sorted(d.id for d in docs if d.concepts)
    assert sorted({core.ids[r] for r in summed}) == nonempty


@settings(max_examples=100)
@given(walked_corpora())
def test_walked_queries_rank_like_brute_force_and_build_no_counters(case):
    docs, index = case
    core, summed = _ranks_like_brute_force(docs, index)
    assert summed == []
    assert core._spread == [] and core._meets == []


@settings(max_examples=50)
@given(summed_corpora(), st.data())
def test_a_dense_corpus_with_a_document_of_130_concepts_is_walked(case, data):
    docs, index = case
    j = data.draw(st.integers(0, len(docs) - 1))
    docs[j] = replace(docs[j], concepts=docs[j].concepts | set(WIDE))
    core, summed = _ranks_like_brute_force(docs, index)
    assert summed == []
    assert core._spread == [] and core._meets == []


@pytest.mark.parametrize("size, summed", [(127, True), (128, False)])
def test_sums_need_every_count_in_one_byte(size, summed):
    big = Document("big", frozenset({"h"} | {f"w{i}" for i in range(size - 1)}))
    docs = [big] + [Document(f"d{i}", frozenset({"h", f"x{i}"})) for i in range(3)]
    core = ScoringCore(docs)
    ranked = core.tops("d0", (0.5,), 3)[0]
    assert ranked == ["d1", "d2", "big"]
    assert _gains_of(core, "d0", 0.5, ranked) == [1 / 3, 1 / 3, 1 / (size + 1)]
    assert bool(core._spread) == summed


@settings(max_examples=200)
@given(settings_cases())
@example(([Document(i, frozenset(c)) for i, c in
           [("a", {"c0", "c1"}), ("b", {"c0"}), ("c", {"c1"}), ("d", {"c2"}), ("e", set())]],
          EvalConfig(k=1), None))
@example(([Document("a", frozenset({"c0"}))], EvalConfig(k=1), None))
def test_the_switch_rule_sums_each_document_reaching_half_of_the_others(case):
    """A query is summed exactly when the documents it scores above 0 against
    at lambda 1 are at least half of the other documents; a corpus with no
    such document, a lone document's included, builds no counters."""
    docs, _, index = case
    n = len(docs)

    def candidates(a):
        score = iou if index is None else (lambda x, y: nn_iou(x, y, 1.0, index))
        return sum(1 for b in docs if b is not a and score(a.concepts, b.concepts) > 0)

    expected = sorted(d.id for d in docs if n > 1 and 2 * candidates(d) >= n - 1)
    core = ScoringCore(docs, index)
    with _summed_queries() as summed:
        if n > 1:  # a lone document has no other to count
            for query in docs:
                core.gains(query.id, 0.5)
    assert sorted(core.ids[r] for r in summed) == expected
    assert bool(core._spread) == bool(core._meets) == bool(expected)
    if not expected:
        assert core._near_rows == b""


@settings(max_examples=100)
@given(summed_corpora())
def test_a_built_core_never_reads_its_index_again(case):
    """Every query ranks like brute force while the index cannot be read."""
    docs, index = case
    core = ScoringCore(docs, index)
    expected = [_brute_tops(docs, index, query) for query in docs]
    unreadable = AssertionError("neighbor index read after construction")
    with mock.patch.object(NeighborIndex, "neighbors", side_effect=unreadable):
        for query, brute in zip(docs, expected):
            _ranks_as_expected(core, query, brute, len(docs))


@settings(max_examples=100)
@given(summed_corpora())
def test_a_summed_core_builds_every_concepts_counters_and_its_near_table_when_made(case):
    docs, index = case
    core = ScoringCore(docs, index)  # and no query
    # the core numbers documents by id: field r is the r-th smallest id's
    by_id = sorted(docs, key=attrgetter("id"))
    names = list(dict.fromkeys(c for d in by_id for c in d.concepts))  # bit order

    def fields(holds):
        return sum(1 << 8 * r for r, d in enumerate(by_id) if holds(d.concepts))

    def listed(c):
        return index.neighbors(c) if index is not None else frozenset()

    assert core._spread == [fields(lambda a, c=c: c in a) for c in names]
    assert core._meets == [fields(lambda a, c=c: c not in a and a & listed(c))
                           for c in names]
    # so is the near table: byte B*n + q is |B & (near(q) - q)|, near(q)
    # being every concept whose neighbor list meets q; all 0, or more than
    # the counters' 2 * width * n bytes, builds none
    near = [{c for c in names if listed(c) & d.concepts} - d.concepts for d in by_id]
    table = bytes(len(b.concepts & near[q]) for b in by_id for q in range(len(by_id)))
    built = any(table) and len(docs) <= 2 * len(names)
    assert core._near_rows == (table if built else b"")


@pytest.mark.parametrize("radius", [None, 0, 1])
def test_only_a_concept_near_a_document_builds_a_near_table(radius):
    """IoU (no index) and a radius-0 index relate no concept, so they build none."""
    graph = KnowledgeGraph.from_edges([("x0", "h"), ("x1", "h"), ("x2", "h")])
    docs = [Document(f"d{i}", frozenset({"h", f"x{i}"})) for i in range(3)]
    index = None if radius is None else build_index(graph, {"h", "x0", "x1", "x2"}, radius)
    core = ScoringCore(docs, index)  # and no query
    assert core._spread
    # d1 holds x1, which lists h, so x1 is near d0 and byte 1*3 + 0 is 1
    assert core._near_rows == (b"" if radius in (None, 0) else bytes([0, 1, 1, 1, 0, 1, 1, 1, 0]))
    if radius != 1:
        # no index and a radius-0 index relate nothing, so they pack and reach alike
        other = ScoringCore(docs, build_index(graph, {"h", "x0", "x1", "x2"}, 0)
                            if radius is None else None)
        assert (other._packed, other._reach, other._summed) == (
            core._packed, core._reach, core._summed)


def test_a_near_table_larger_than_the_counters_is_not_built():
    """Five documents over two concepts: 25 table bytes against at most 20 of counters."""
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={"h": frozenset({"x"}), "x": frozenset({"h"})})
    docs = [Document(f"d{i}", frozenset({"hx"[i % 2]})) for i in range(5)]
    core = ScoringCore(docs, index)
    for query in docs:
        _ranks_as_expected(core, query, _brute_tops(docs, index, query), 4)
    assert core._spread and core._near_rows == b""


def test_score_tables_are_kept_one_per_lambda_asked():
    """An index that relates x0 and x1, so that every lambda is scored."""
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={"x0": frozenset({"x1"}), "x1": frozenset({"x0"})})
    docs = [Document(f"d{i}", frozenset({"h", f"x{i}"})) for i in range(4)]
    core = ScoringCore(docs, index)
    asked = [step / 100 for step in range(100)]
    for lam in asked:
        core.tops("d0", (lam,), 3)
    assert list(core._scores) == asked
    kept = list(core._scores.values())
    # 1.0 and 0.125 are new; the other switch lambdas reuse their tables
    core.tops("d0", SWITCH_LAMBDAS, 3)
    core.gains("d1", 0.125)
    assert list(core._scores) == asked + [1.0, 0.125]
    assert all(core._scores[table.lam] is table for table in kept)


@settings(max_examples=100)
@given(corpora(min_docs=2), graphs(), st.booleans(),
       st.lists(st.sampled_from(SWITCH_LAMBDAS), min_size=1, max_size=6, unique=True),
       st.integers(1, 9))
@example([Document(i, frozenset(c)) for i, c in
          [("a", {"c0", "c1"}), ("b", {"c0"}), ("c", {"c1", "c2"}), ("d", {"c2", "c4"}),
           ("e", set())]],
         KnowledgeGraph.from_edges([("c0", "c1"), ("c1", "c2")], nodes=GRAPH_CONCEPTS),
         False, [0.5, 0.0, 1.0], 3)
def test_an_inert_core_scores_one_table_for_every_lambda(docs, graph, no_index, lams, k):
    """At radius 0, or with no index, no concept is related, so ``tops`` scores
    the first lambda only; every ranking is its lambda's alone, in a list of
    its own.  In the example, a and c are summed, the others walked."""
    vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
    core = ScoringCore(docs, None if no_index else build_index(graph, vocabulary, 0))
    assert core._inert
    rankings = {d.id: core.tops(d.id, lams, k) for d in docs}
    assert list(core._scores) == [lams[0]]
    for q, ranked in rankings.items():
        assert len({id(r) for r in ranked}) == len(lams)
        assert ranked == [core.tops(q, (lam,), k)[0] for lam in lams]


def test_a_related_core_ranks_a_query_with_no_related_candidate_alike_at_every_lambda():
    """x0 and x1 are related, so every lambda is scored; q's candidates hold
    neither in a pair, so each ranks them alike, while d0's rankings vary."""
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={"x0": frozenset({"x1"}), "x1": frozenset({"x0"})})
    docs = [Document("q", frozenset({"h"})), Document("d0", frozenset({"h", "x0"})),
            Document("d1", frozenset({"h", "x1"})), Document("d2", frozenset({"h"})),
            Document("d3", frozenset({"z"}))]
    core = ScoringCore(docs, index)
    assert not core._inert
    rankings = core.tops("q", SWITCH_LAMBDAS, 4)
    assert rankings == [["d2", "d0", "d1", "d3"]] * len(SWITCH_LAMBDAS)
    assert list(core._scores) == list(SWITCH_LAMBDAS)
    assert core.tops("d0", (0.0, 1.0), 2) == [["d2", "q"], ["d1", "d2"]]
    for query in docs:
        _ranks_as_expected(core, query, _brute_tops(docs, index, query), 4)


def test_both_counts_agree_on_a_query_with_no_concepts_in_a_dense_corpus():
    """An empty query reaches nothing, so it is walked; its sums are a row of
    zero inter and rel counts."""
    docs = [Document("e", frozenset())] + [
        Document(f"d{i}", frozenset({"h", f"x{i}"})) for i in range(4)
    ]
    core = ScoringCore(docs)
    e = core._number["e"]
    assert core._walk(e, 0) == ([], [])
    numbers, codes = core._sums(e)
    assert numbers is core._row and codes[e] == 1  # union 1, rel 0, inter 0
    assert [c >> core._bits for r, c in enumerate(codes) if r != e] == [0] * 4
    assert core.tops("e", (0.5,), 4)[0] == ["d0", "d1", "d2", "d3"]
    scores, gains_of = core.gains("e", 0.5)
    assert list(scores) == [] and gains_of(["d0", "d3"]) == [0.0, 0.0]
    ranked = core.tops("d0", (0.5,), 4)[0]
    assert ranked == ["d1", "d2", "d3", "e"]
    assert _gains_of(core, "d0", 0.5, ranked) == [1 / 3, 1 / 3, 1 / 3, 0.0]


# h lists g, and g lists nothing back
ROW_INDEX = NeighborIndex(radius=1, source_checksum="hand", entries={"h": frozenset({"g"})})
ROW_CORPORA = {
    # a reaches every other document: b through h's list, c through h, d
    # through z; b and c reach two of three, d one
    "whole": ([Document("d", frozenset({"z"})), Document("a", frozenset({"h", "z"})),
               Document("c", frozenset({"h"})), Document("b", frozenset({"g"}))],
              {"a": "row", "b": "row", "c": "row", "d": "walked"}),
    # a, b and c each reach the two others, exactly half of the other four,
    # so they are summed; d and the empty e reach nothing
    "boundary": ([Document("e", frozenset()), Document("c", frozenset({"h", "y"})),
                  Document("a", frozenset({"h"})), Document("d", frozenset({"z"})),
                  Document("b", frozenset({"g"}))],
                 {"a": "row", "b": "row", "c": "row", "d": "walked", "e": "walked"}),
}


def _count_shape(core, q):
    """How ``q`` was counted: as its row, walked though summed (when the walk
    is forced), or walked."""
    if core._count(q)[0] is core._row:
        return "row"
    return "summed" if core._summed[core._number[q]] else "walked"


def _row_like_the_oracle(docs, index, core):
    """Every query ranks as ``brute_ranking`` at every k up to N + 1 and under
    every switch lambda; its gains, and the ideal gains, are nn_iou's; a
    row's own entry scores 0 and is never ranked or graded."""
    by_id = {d.id: d for d in docs}
    for query in docs:
        numbers, codes = core._count(query.id)
        if numbers is core._row:
            own = codes[core._number[query.id]]
            assert {core._table(lam)[own] for lam in SWITCH_LAMBDAS} == {0.0}
        expected = _brute_tops(docs, index, query)
        for k in range(1, len(docs) + 2):
            _ranks_as_expected(core, query, expected, k)
        for lam, (ranked, scores) in zip(SWITCH_LAMBDAS, expected):
            row, gains_of = core.gains(query.id, lam)
            assert gains_of(ranked) == scores
            assert sorted(filter(None, row)) == sorted(filter(None, scores))
            measure = "iou" if index is None else "nniou"
            score = _pair_score(EvalConfig(k=1, lam=lam, measure=measure), index)
            for k in (1, len(docs) - 1, len(docs) + 1):
                runs = [RankingRun(query.id, ranked[::-1][:k])]  # worst first
                want = brute_nn_cui(docs, runs, k, score)
                cfg = EvalConfig(k=k, lam=lam, measure=measure)
                assert nn_cui_at_k(docs, runs, cfg, index).per_query == want
                assert ndcg_at_k(gains_of(runs[0].ranked_ids),
                                 heapq.nlargest(k, row), k) == want[query.id]


@pytest.mark.parametrize("name", ROW_CORPORA)
@WALK
def test_the_row_ranks_and_grades_like_the_oracle(name, walk):
    """A query reaching every other document, queries summed at the switch
    boundary, and walked queries, over an asymmetric index, at every k up
    to one past the corpus; then the same with every count walked."""
    docs, shapes = ROW_CORPORA[name]
    core = ScoringCore(docs, ROW_INDEX)
    assert {q: _count_shape(core, q) for q in shapes} == shapes
    with _summed_queries(walk):
        if walk:
            assert {_count_shape(core, q) for q in shapes} <= {"summed", "walked"}
        _row_like_the_oracle(docs, ROW_INDEX, core)


@settings(max_examples=100)
@given(summed_corpora(linked_hub=False), st.sampled_from(SWITCH_LAMBDAS), st.data())
def test_dense_rankings_and_nn_cui_equal_brute_force(case, lam, data):
    """Summed even where IoU or lambda 0 leaves the index out: all share ``h``."""
    docs, index = case
    measure = "iou" if index is None else data.draw(st.sampled_from(("iou", "nniou")))
    cfg = EvalConfig(k=data.draw(st.integers(1, len(docs) + 2)), lam=lam, measure=measure)
    score = _pair_score(cfg, index)
    rng = data.draw(st.randoms(use_true_random=False))
    runs = []
    for doc in docs:
        others = [d.id for d in docs if d is not doc]
        rng.shuffle(others)
        runs.append(RankingRun(doc.id, others[: rng.randint(0, cfg.k + 1)]))
    with _summed_queries() as summed:
        rankings = ground_truth_rankings(docs, cfg, index)
        report = nn_cui_at_k(docs, runs, cfg, index)
    for query, run in zip(docs, rankings):
        assert run.ranked_ids == brute_ranking(query, docs, score)[: cfg.k]
    assert report.per_query == brute_nn_cui(docs, runs, cfg.k, score)
    assert len(summed) == 2 * sum(1 for d in docs if d.concepts)


def _gains_equal_nn_iou(docs, index, lams, walk=False):
    """Every pair q != j: the gain, 0.0 for a non-candidate, is nn_iou's float,
    and the scores hold the positive ones; a summed query's scores are its
    row, whose own entry scores 0, unless ``walk`` walks it.

    Returns the ids of the queries whose count was summed (or, with
    ``walk``, would have been).
    """
    core = ScoringCore(docs, index)
    with _summed_queries(walk) as summed:
        for lam in lams:
            for query in docs:
                scores, gains_of = core.gains(query.id, lam)
                r = core._number[query.id]
                reached = core._reach[r]
                counted = {core.ids[j] for j in range(len(docs)) if reached >> j & 1}
                if core._summed[r] and not walk:
                    assert len(scores) == len(docs) and scores[r] == 0.0
                else:
                    assert len(scores) == len(counted)
                positive = []
                for doc in docs:
                    if doc is query:
                        continue
                    expected = (nn_iou(query.concepts, doc.concepts, lam, index)
                                if index is not None else iou(query.concepts, doc.concepts))
                    (got,) = gains_of([doc.id])
                    assert got == expected and type(got) is float
                    positive += [got] if got else []
                    if doc.id not in counted:  # a non-candidate: no shared or related concept
                        assert not query.concepts & doc.concepts
                        assert index is None or not rel_set(query.concepts, doc.concepts,
                                                            index)
                assert sorted(filter(None, scores)) == sorted(positive)
                assert list(core.gains(query.id, lam)[0]) == list(scores)
    assert list(core._scores) == list(lams)  # one table per lambda, all kept
    return [core.ids[r] for r in summed]


@WALK
@settings(max_examples=150)
@given(summed_corpora())
def test_gains_of_summed_queries_equal_nn_iou(walk, case):
    docs, index = case
    summed = _gains_equal_nn_iou(docs, index, SWITCH_LAMBDAS, walk)
    nonempty = sorted(d.id for d in docs if d.concepts)
    assert summed and sorted(set(summed)) == nonempty


@settings(max_examples=100)
@given(walked_corpora())
def test_gains_of_walked_queries_equal_nn_iou(case):
    docs, index = case
    assert _gains_equal_nn_iou(docs, index, SWITCH_LAMBDAS) == []


@settings(max_examples=150)
@given(settings_cases())
def test_gains_equal_nn_iou_on_graph_and_asymmetric_indexes(case):
    docs, _, index = case
    _gains_equal_nn_iou(docs, index, SWITCH_LAMBDAS)


def test_nn_cui_ranks_no_query(monkeypatch):
    """The ideal DCG comes from the k largest gains, so tops is never called."""
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={"a": frozenset({"b"}), "b": frozenset({"a"})})
    docs = [Document(i, frozenset(c)) for i, c in
            (("q", "ab"), ("r", "a"), ("s", "b"), ("t", "c"), ("u", ""))]
    runs = [RankingRun(d.id, [o.id for o in reversed(docs) if o is not d][:2])
            for d in docs]
    cfg = EvalConfig(k=3, lam=0.5)
    ranked = []
    tops = ScoringCore.tops

    def counting(core, q, lams, k):
        ranked.append(q)
        return tops(core, q, lams, k)

    monkeypatch.setattr(ScoringCore, "tops", counting)
    report = nn_cui_at_k(docs, runs, cfg, index)
    assert ranked == []
    assert report.per_query == brute_nn_cui(docs, runs, cfg.k,
                                            lambda a, b: nn_iou(a, b, cfg.lam, index))


GROUPS = {"group": {"low": frozenset({"c0", "c1", "zz"}),
                    "high": frozenset({"c4", "c5", "c6"})}}
# "tier" cuts across "group": a document of c1 or c6 alone carries no tier,
# and one of c2 alone no group
TIERS = {**GROUPS, "tier": {"top": frozenset({"c0", "c2", "c4"}),
                            "bottom": frozenset({"c5", "zz"})}}


def _brute_ablation_rows(graph, docs, grid, class_map=GROUPS, categories=("group",)):
    labeled = derive_labels(docs, class_map)
    vocabulary = set().union(*(d.concepts for d in docs))
    expected = []
    for radius in grid.radii:
        index = build_index(graph, vocabulary, radius)
        for lam in grid.lambdas:
            runs = [
                RankingRun(doc.id, brute_ranking(
                    doc, docs, lambda a, b: nn_iou(a, b, lam, index))[: max(grid.ks)])
                for doc in docs
            ]
            for k in grid.ks:
                expected.append(
                    (radius, lam, k, precision_at_k(labeled, runs, k, categories).aggregate)
                )
    return expected


@settings(max_examples=100)
@given(
    corpora(min_docs=2),
    graphs(),
    st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True),
    st.sampled_from([["group", "tier"], ["group"]]),
)
def test_ablation_rows_equal_brute_force(docs, graph, lambdas, radii, ks, categories):
    """One category or the joint key of two, where some documents carry only one."""
    labeled = derive_labels(docs, TIERS)
    if not all(any(c in d.labels for d in labeled) for c in categories):
        return
    grid = AblationGrid(lambdas=tuple(lambdas), radii=tuple(radii), ks=tuple(ks))
    assert ablation_rows(graph, docs, grid, TIERS, categories) == (
        _brute_ablation_rows(graph, docs, grid, TIERS, categories)
    )


def test_ablation_rows_grade_the_joint_label_key(monkeypatch):
    """A document lacking one of two categories is neither ranked nor matched."""
    graph = KnowledgeGraph.from_edges([], nodes=GRAPH_CONCEPTS)
    docs = [
        Document("a", frozenset({"c0"})),  # low, top
        Document("b", frozenset({"c1"})),  # low, no tier
        Document("c", frozenset({"c0", "c1"})),  # low, top
        Document("d", frozenset({"c4"})),  # high, top
        Document("e", frozenset({"c2"})),  # no group, top
    ]
    ranked = []
    tops = ScoringCore.tops

    def counting(core, q, lams, k):
        ranked.append(q)
        return tops(core, q, lams, k)

    monkeypatch.setattr(ScoringCore, "tops", counting)
    grid = AblationGrid(lambdas=(0.0,), radii=(0,), ks=(1, 4))
    rows = ablation_rows(graph, docs, grid, TIERS, ["group", "tier"])
    assert ranked == ["a", "c", "d"]
    # a ranks c, b, d, e and c ranks a, b, d, e: each matches only its first,
    # b though it shares the group; d, alone in (high, top), matches none
    assert rows == [(0, 0.0, 1, 2 / 3), (0, 0.0, 4, 1 / 6)]
    monkeypatch.undo()
    assert rows == _brute_ablation_rows(graph, docs, grid, TIERS, ["group", "tier"])


def test_ablation_rows_with_every_k_beyond_a_two_document_corpus():
    """Each run is one document wide, whatever the largest k asks for."""
    graph = KnowledgeGraph.from_edges([("c0", "c1"), ("c1", "c4")], nodes=GRAPH_CONCEPTS)
    docs = [Document("a", frozenset({"c0"})), Document("b", frozenset({"c1"}))]
    grid = AblationGrid(lambdas=(0.0, 0.5, 1.0), radii=(0, 1, 2), ks=(1, 3, 10))
    rows = ablation_rows(graph, docs, grid, GROUPS, ["group"])
    assert rows == _brute_ablation_rows(graph, docs, grid)
    # both are "low", and each one's single result is the other
    assert [precision for *_, precision in rows] == [1.0] * 27


def test_ablation_rows_reject_a_radius_zero_precision_that_varies_with_lambda():
    """Approximate matching is inert at radius 0, so a core whose radius-0
    rankings differ by lambda is an internal error."""

    class Skewed(ScoringCore):
        def tops(self, q, lams, k):
            # every lambda after the first ranks the first one's order reversed
            first, *rest = super().tops(q, lams, len(self.ids))
            return [first[:k], *(ranked[::-1][:k] for ranked in rest)]

    graph = KnowledgeGraph.from_edges([], nodes=GRAPH_CONCEPTS)
    docs = [Document("a", frozenset({"c0"})), Document("b", frozenset({"c1"})),
            Document("h", frozenset({"c4"}))]
    grid = AblationGrid(lambdas=(0.0, 0.5), radii=(0,), ks=(1,))
    # at lambda 0, "a" and "b" each rank the other first; reversed, "h" first
    with mock.patch("nniou.ranking_eval.ScoringCore", Skewed):
        with pytest.raises(RuntimeError) as caught:
            ablation_rows(graph, docs, grid, GROUPS, ["group"])
    assert str(caught.value) == (
        f"precision varies with lambda at radius 0 (k=1: {2 / 3!r} != 0.0)"
    )


def test_ablation_rows_rank_only_labelled_queries(monkeypatch):
    """A query Precision@K excludes is never ranked, yet still ranks as a result."""
    graph = KnowledgeGraph.from_edges([("c0", "c2"), ("c2", "c4")], nodes=GRAPH_CONCEPTS)
    docs = [
        Document("u", frozenset({"c2"})),  # in no group
        Document("h", frozenset({"c4"})),
        Document("both", frozenset({"c0", "c4"})),  # in two groups: no label
        Document("a", frozenset({"c0"})),
        Document("b", frozenset({"c1", "c2"})),
    ]
    ranked = []
    tops = ScoringCore.tops

    def counting(core, q, lams, k):
        ranked.append(q)
        return tops(core, q, lams, k)

    monkeypatch.setattr(ScoringCore, "tops", counting)
    grid = AblationGrid(lambdas=(0.0, 0.5), radii=(0, 1, 2), ks=(1, 2, 4))
    rows = ablation_rows(graph, docs, grid, GROUPS, ["group"])
    assert ranked == ["a", "b", "h"] * 3
    monkeypatch.undo()
    assert rows == _brute_ablation_rows(graph, docs, grid)


@settings(max_examples=100)
@given(graphs(), st.sets(st.sampled_from(CONCEPTS)),
       st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
def test_build_indexes_equal_build_index_at_each_radius(graph, vocabulary, radii):
    """Radii in any order, 0 and past the graph's depth among them; "zz" is in no graph."""
    lookups = mock.patch.object(KnowledgeGraph, "neighbor_lists", autospec=True,
                                side_effect=KnowledgeGraph.neighbor_lists)
    with lookups as counted:
        indexes = build_indexes(graph, vocabulary, radii)
    assert indexes == [build_index(graph, vocabulary, radius) for radius in radii]
    assert counted.call_count <= max(radii)


@pytest.mark.parametrize("radii, most", [((0, 1, 2), 2), ((2, 0, 1), 2), ((0,), 0)])
def test_ablation_rows_walk_the_graph_once(radii, most):
    """One batched lookup per hop to the largest radius; radius 0 alone asks nothing."""
    graph = KnowledgeGraph.from_edges([("c0", "c1"), ("c1", "c2"), ("c2", "c4")],
                                      nodes=GRAPH_CONCEPTS)
    docs = [Document("a", frozenset({"c0"})), Document("b", frozenset({"c2"})),
            Document("h", frozenset({"c4", "zz"}))]
    grid = AblationGrid(lambdas=(0.0, 0.5), radii=radii, ks=(1, 2))
    lookups = mock.patch.object(KnowledgeGraph, "neighbor_lists", autospec=True,
                                side_effect=KnowledgeGraph.neighbor_lists)
    known = mock.patch.object(KnowledgeGraph, "has_node", autospec=True,
                              side_effect=KnowledgeGraph.has_node)
    with lookups as counted, known as has_node:
        rows = ablation_rows(graph, docs, grid, GROUPS, ["group"])
    assert counted.call_count <= most
    if not most:
        assert has_node.call_count == 0
    assert rows == _brute_ablation_rows(graph, docs, grid)


def test_a_radius_zero_sweep_grades_each_query_once():
    """Every lambda ranks alike at radius 0, so each graded query is graded once."""
    graph = KnowledgeGraph.from_edges([("c0", "c1"), ("c1", "c4")], nodes=GRAPH_CONCEPTS)
    docs = [Document("a", frozenset({"c0"})), Document("b", frozenset({"c1", "c2"})),
            Document("h", frozenset({"c4"})), Document("u", frozenset({"c2"}))]
    grid = AblationGrid(lambdas=(0.0, 0.1, 0.5, 1.0), radii=(0,), ks=(1, 3))
    with mock.patch("nniou.ranking_eval._precisions", wraps=_precisions) as graded:
        rows = ablation_rows(graph, docs, grid, GROUPS, ["group"])
    # "u" holds no grouped concept, so only a, b and h are graded
    assert [c.args[1] for c in graded.call_args_list] == [{"a", "b"}, {"a", "b"}, {"h"}]
    assert rows == _brute_ablation_rows(graph, docs, grid)


@settings(max_examples=60)
@given(
    st.lists(st.sets(st.sampled_from(CONCEPTS), max_size=4), min_size=3, max_size=8),
    graphs(),
    st.lists(st.sampled_from(SWITCH_LAMBDAS), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True),
)
def test_ablation_rows_on_a_summed_corpus_equal_brute_force(concept_sets, graph, lambdas,
                                                            ks):
    """Every document holds ``h``, so every graded query is summed at every radius."""
    docs = [Document(f"d{i}", frozenset(c | {"h"})) for i, c in enumerate(concept_sets)]
    docs.append(Document("low", frozenset({"h", "c0"})))  # one graded query at least
    graded = [d for d in derive_labels(docs, GROUPS) if "group" in d.labels]
    grid = AblationGrid(lambdas=tuple(lambdas), radii=(0, 1, 2), ks=tuple(ks))
    with _summed_queries() as summed:
        rows = ablation_rows(graph, docs, grid, GROUPS, ["group"])
    assert rows == _brute_ablation_rows(graph, docs, grid)
    assert len(summed) == 3 * len(graded)


class TestErrorPaths:
    """Errors once raised from each nn_iou call keep their type and message."""

    CORPUS = [Document("q", frozenset({"x"})), Document("d", frozenset({"y"}))]

    def test_one_document_corpus_has_no_candidates(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        corpus.write_text('{"id": "only", "cuis": ["x"]}\n', encoding="utf-8")
        code = main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "3", "--out", str(tmp_path / "x.runs")])
        assert code == 2
        assert "no candidate documents for query 'only'" in capsys.readouterr().err

    def test_one_document_corpus_has_no_gains_either(self):
        docs = [Document("only", frozenset({"x"}))]
        core = ScoringCore(docs)
        message = "no candidate documents for query 'only' (corpus too small)"
        for call in (lambda: core.tops("only", (0.5,), 1), lambda: core.gains("only", 0.5),
                     lambda: nn_cui_at_k(docs, [RankingRun("only", [])],
                                         EvalConfig(k=1, measure="iou"))):
            with pytest.raises(EvaluationError) as raised:
                call()
            assert str(raised.value) == message

    def test_missing_index_raises_the_nn_iou_config_error(self):
        with pytest.raises(ConfigError) as pairwise:
            nn_iou({"x"}, {"y"}, 0.5, None)
        cfg = EvalConfig(k=1, lam=0.5)
        with pytest.raises(ConfigError) as evaluated:
            nn_cui_at_k(self.CORPUS, [RankingRun("q", ["d"])], cfg, None)
        assert str(evaluated.value) == str(pairwise.value)
        assert "neighbor index is required" in str(evaluated.value)
