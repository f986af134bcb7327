import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pir.attack_catalog import load_default_catalog, map_finding
from pir.detection import DetectorParams, detect_bruteforce
from pir.errors import ConfigInvalidError, EmptyDocumentError, EmptyQueryError
from pir.policy_index import (
    DOC_KIND_BASELINE,
    DOC_KIND_ORGANISATION,
    build_index,
    ingest_document,
    load_policy_documents,
    retrieve,
    technique_query,
    tokenize,
)

from conftest import make_auth


# --- tokenizer -----------------------------------------------------------------


def test_tokenize_lowercases_splits_and_drops_noise():
    assert tokenize("Account lockout threshold is 10!") == [
        "account",
        "lockout",
        "threshold",
        "10",
    ]


def test_tokenize_drops_short_tokens_and_stopwords():
    assert tokenize("a an it of the") == []
    assert tokenize("x") == []
    # hyphen splits: multi-factor becomes two tokens
    assert tokenize("multi-factor") == ["multi", "factor"]


# --- segmentation --------------------------------------------------------------


def test_paragraphs_become_line_addressed_clauses():
    text = "First rule here.\n\nSecond rule\nspans two lines.\n"
    doc = ingest_document("pol", DOC_KIND_ORGANISATION, text)
    assert [c.clause_id for c in doc.clauses] == ["pol:1-1", "pol:3-4"]
    assert doc.clauses[1].text == "Second rule\nspans two lines."
    assert doc.clauses[1].line_start == 3
    assert doc.clauses[1].line_end == 4


def test_markdown_heading_labels_following_clauses():
    text = "# Policy\n\n## Account Lockout\n\nLock after 5 failures.\n"
    doc = ingest_document("pol", DOC_KIND_BASELINE, text)
    assert doc.title == "Policy"
    [clause] = doc.clauses
    assert clause.section_heading == "Account Lockout"
    assert clause.clause_id == "pol:5-5"


def test_all_caps_line_is_a_heading():
    text = "ACCOUNT LOCKOUT\n\nLock after 5 failures.\n"
    doc = ingest_document("pol", DOC_KIND_BASELINE, text)
    [clause] = doc.clauses
    assert clause.section_heading == "ACCOUNT LOCKOUT"
    assert "ACCOUNT" not in clause.text


def test_whitespace_only_document_rejected():
    with pytest.raises(EmptyDocumentError):
        ingest_document("pol", DOC_KIND_ORGANISATION, " \n\t\n")


def test_unknown_document_kind_rejected():
    with pytest.raises(ConfigInvalidError):
        ingest_document("pol", "Vendor", "Some text.\n")


def test_load_policy_documents_reads_org_then_baseline(tmp_path):
    (tmp_path / "base.md").write_text("# Baseline\n\nLockout after 5 attempts.\n")
    (tmp_path / "org.txt").write_text("Lockout after 10 attempts.\n")
    docs = load_policy_documents([tmp_path / "org.txt"], [tmp_path / "base.md"])
    assert [(d.doc_id, d.kind) for d in docs] == [
        ("org", DOC_KIND_ORGANISATION),
        ("base", DOC_KIND_BASELINE),
    ]
    assert docs[1].clauses[0].clause_id == "base:3-3"
    with pytest.raises(ConfigInvalidError, match="not found"):
        load_policy_documents([tmp_path / "absent.md"], [])


_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=8)
_LINE = st.lists(_WORD, min_size=1, max_size=6).map(" ".join)
_PARA = st.lists(_LINE, min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(paras=st.lists(_PARA, min_size=1, max_size=5))
def test_clause_text_matches_cited_source_lines(paras):
    text = "\n\n".join("\n".join(p) for p in paras) + "\n"
    doc = ingest_document("pol", DOC_KIND_ORGANISATION, text)
    lines = text.splitlines()
    assert len(doc.clauses) == len(paras)
    for clause in doc.clauses:
        cited = lines[clause.line_start - 1 : clause.line_end]
        assert clause.text == "\n".join(cited)


# --- index construction --------------------------------------------------------


def two_doc_corpus():
    org = ingest_document(
        "org", DOC_KIND_ORGANISATION, "alpha beta beta\n\ngamma delta\n"
    )
    base = ingest_document("base", DOC_KIND_BASELINE, "alpha gamma gamma gamma\n")
    return [org, base]


def test_df_counts_clauses_not_occurrences():
    index = build_index(two_doc_corpus())
    assert index.clause_count == 3
    assert index.df("gamma") == 2  # three occurrences in one clause count once
    assert index.df("alpha") == 2
    assert index.df("beta") == 1
    assert index.df("absent") == 0


def test_empty_corpus_rejected():
    with pytest.raises(ConfigInvalidError):
        build_index([])


def test_duplicate_doc_id_rejected():
    doc = ingest_document("org", DOC_KIND_ORGANISATION, "alpha\n")
    with pytest.raises(ConfigInvalidError):
        build_index([doc, doc])


def test_rebuild_produces_identical_json():
    a = build_index(two_doc_corpus()).to_json()
    b = build_index(two_doc_corpus()).to_json()
    assert a == b


# --- retrieval -----------------------------------------------------------------


def test_scores_match_hand_computed_bm25():
    index = build_index(two_doc_corpus())
    hits = retrieve(index, "alpha gamma", 3)

    # N=3 clauses, avgdl=3; df(alpha)=df(gamma)=2 so idf=ln(1 + 1.5/2.5)
    idf = math.log(1.6)
    norm = lambda dl: 1.2 * (0.25 + 0.75 * dl / 3.0)
    expected = {
        "org:1-1": idf * 2.2 / (1 + norm(3)),
        "org:3-3": idf * 2.2 / (1 + norm(2)),
        "base:1-1": idf * 2.2 / (1 + norm(4)) + idf * 3 * 2.2 / (3 + norm(4)),
    }
    assert len(hits) == 3
    for hit in hits:
        assert hit.score == pytest.approx(expected[hit.clause.clause_id], abs=1e-9)
    assert hits[0].clause.clause_id == "base:1-1"


def test_ties_break_by_doc_then_clause_id():
    a = ingest_document("aaa", DOC_KIND_ORGANISATION, "alpha beta\n")
    b = ingest_document("bbb", DOC_KIND_BASELINE, "alpha beta\n")
    hits = retrieve(build_index([a, b]), "alpha", 2)
    assert [h.clause.doc_id for h in hits] == ["aaa", "bbb"]
    assert hits[0].score == hits[1].score
    assert [h.rank for h in hits] == [1, 2]


def test_k_larger_than_corpus_returns_everything_ranked():
    index = build_index(two_doc_corpus())
    hits = retrieve(index, "alpha", 50)
    assert len(hits) == index.clause_count
    assert [h.rank for h in hits] == [1, 2, 3]
    assert hits[-1].score == 0.0  # zero-score clauses still rank


def test_repeated_query_terms_count_once():
    index = build_index(two_doc_corpus())
    once = retrieve(index, "alpha", 3)
    thrice = retrieve(index, "alpha alpha ALPHA", 3)
    assert once == thrice


def test_a_corpus_without_tokens_scores_every_clause_zero():
    # "the" and "of" are stop words and "a" is too short, so no clause has a
    # token and the corpus has no average clause length
    text = "# Policy\n\nThe of a.\n"
    index = build_index([
        ingest_document("org", DOC_KIND_ORGANISATION, text),
        ingest_document("base", DOC_KIND_BASELINE, text),
    ])
    assert index.avg_clause_length == 0
    hits = retrieve(index, "account lockout", 5)
    assert [(h.clause.clause_id, h.score, h.rank) for h in hits] == [("base:3-3", 0.0, 1), ("org:3-3", 0.0, 2)]


def test_stopword_only_query_rejected():
    index = build_index(two_doc_corpus())
    with pytest.raises(EmptyQueryError):
        retrieve(index, "the of is a", 3)


def test_k_below_one_rejected():
    index = build_index(two_doc_corpus())
    with pytest.raises(ConfigInvalidError):
        retrieve(index, "alpha", 0)


def test_ingestion_order_does_not_change_ranking():
    docs = [
        ingest_document("d1", DOC_KIND_ORGANISATION, "alpha beta\n\ngamma\n"),
        ingest_document("d2", DOC_KIND_BASELINE, "alpha gamma gamma\n"),
        ingest_document("d3", DOC_KIND_BASELINE, "beta beta delta\n"),
    ]
    reference = retrieve(build_index(docs), "alpha beta", 10)
    rng = random.Random(5)
    for _ in range(6):
        shuffled = list(docs)
        rng.shuffle(shuffled)
        assert retrieve(build_index(shuffled), "alpha beta", 10) == reference


# --- technique query expansion ---------------------------------------------------


def _mapping():
    events = [make_auth(i + 1, seconds=i * 10) for i in range(6)]
    [finding] = detect_bruteforce(events, DetectorParams())
    return map_finding(finding, load_default_catalog())


def test_technique_query_expands_with_control_vocabulary():
    query = technique_query(_mapping(), load_default_catalog())
    assert "Brute Force" in query
    assert "account lockout" in query
    assert "password" in query
    assert "multi-factor" in query
