"""Line-addressed policy clause ingestion and deterministic BM25 retrieval.

Documents are segmented into paragraph clauses under headings; every clause
keeps its exact 1-based source line range so conclusions can cite policy text
at line granularity (clause_id = "<doc_id>:<line_start>-<line_end>").

Retrieval is lexical BM25 (k1=1.2, b=0.75) with the Lucene idf variant

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

over clause token bags. Tokenization: lowercase, split on non-alphanumerics,
drop tokens shorter than 2 characters, drop bundled stop words. Scoring sums
query terms in sorted order, so ingestion order never affects scores.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .canon import Canonical, sha256_hex
from .errors import ConfigInvalidError, EmptyDocumentError, EmptyQueryError

BM25_K1 = 1.2
BM25_B = 0.75
INDEX_SCHEMA_VERSION = 1

DOC_KIND_ORGANISATION = "Organisation"
DOC_KIND_BASELINE = "Baseline"

_MARKDOWN_HEADING = re.compile(r"^ {0,3}(#{1,6})\s+(.*\S)\s*$")
_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")

# Fixed control vocabulary appended to every technique query so retrieval
# reaches the authentication-control clauses the gap analysis needs.
CONTROL_VOCABULARY = ("account lockout", "password", "authentication", "multi-factor")


def _load_stopwords() -> frozenset[str]:
    text = resources.files("pir").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


STOPWORDS = _load_stopwords()


def tokenize(text: str) -> list[str]:
    return [
        t
        for t in _TOKEN_SPLIT.split(text.lower())
        if len(t) >= 2 and t not in STOPWORDS
    ]


@dataclass(frozen=True)
class PolicyClause(Canonical):
    doc_id: str
    clause_id: str
    section_heading: str | None
    line_start: int
    line_end: int
    text: str


@dataclass(frozen=True)
class PolicyDocument(Canonical):
    doc_id: str
    title: str
    kind: str
    clauses: tuple[PolicyClause, ...]
    source_digest: str


@dataclass(frozen=True)
class RetrievalHit:
    clause: PolicyClause
    score: float
    rank: int


def _is_all_caps_heading(line: str) -> bool:
    stripped = line.strip()
    if not stripped or len(stripped) > 80:
        return False
    if not any(c.isupper() for c in stripped):
        return False
    return not any(c.islower() for c in stripped)


def _heading_text(line: str) -> str | None:
    m = _MARKDOWN_HEADING.match(line)
    if m:
        return m.group(2)
    if _is_all_caps_heading(line):
        return line.strip()
    return None


def ingest_document(doc_id: str, kind: str, text: str) -> PolicyDocument:
    """Segment a UTF-8 text/Markdown policy into line-addressed clauses.

    Headings (Markdown syntax, or ALL-CAPS lines of at most 80 characters)
    separate sections and label the clauses that follow; blank lines separate
    paragraph clauses. Heading lines never become clause text. Raises
    EmptyDocument when the text is whitespace-only.
    """
    if kind not in (DOC_KIND_ORGANISATION, DOC_KIND_BASELINE):
        raise ConfigInvalidError(f"unknown document kind {kind!r}")
    if not text.strip():
        raise EmptyDocumentError(f"document {doc_id!r} has no content")

    lines = text.splitlines()
    clauses: list[PolicyClause] = []
    heading: str | None = None
    title: str | None = None
    para: list[tuple[int, str]] = []  # (1-based line number, stripped text)

    def flush() -> None:
        if not para:
            return
        start, end = para[0][0], para[-1][0]
        clause_text = "\n".join(t for _, t in para)
        clauses.append(
            PolicyClause(
                doc_id=doc_id,
                clause_id=f"{doc_id}:{start}-{end}",
                section_heading=heading,
                line_start=start,
                line_end=end,
                text=clause_text,
            )
        )
        para.clear()

    for lineno, raw in enumerate(lines, start=1):
        head = _heading_text(raw)
        if head is not None:
            flush()
            heading = head
            if title is None:
                title = head
            continue
        if not raw.strip():
            flush()
            continue
        para.append((lineno, raw.rstrip()))
    flush()

    return PolicyDocument(
        doc_id=doc_id,
        title=title if title is not None else doc_id,
        kind=kind,
        clauses=tuple(clauses),
        source_digest=sha256_hex(text),
    )


def load_policy_documents(
    org_paths: list[Path], baseline_paths: list[Path]
) -> list[PolicyDocument]:
    """Ingest the organisation files, then the baseline files; each file's
    stem is its doc_id. Raises ConfigInvalidError for a missing file or
    one that is not UTF-8."""
    documents = []
    for kind, paths in (
        (DOC_KIND_ORGANISATION, org_paths),
        (DOC_KIND_BASELINE, baseline_paths),
    ):
        for path in paths:
            if not path.is_file():
                raise ConfigInvalidError(f"policy path not found: {path}")
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigInvalidError(f"policy {path} is not UTF-8: {exc}") from exc
            documents.append(ingest_document(path.stem, kind, text))
    return documents


class Index:
    """Immutable inverted index over policy clauses."""

    def __init__(
        self,
        documents: dict[str, dict],
        clauses: dict[str, PolicyClause],
        postings: dict[str, dict[str, int]],
        clause_lengths: dict[str, int],
    ):
        self.documents = documents
        self.clauses = clauses
        self.postings = postings
        self.clause_lengths = clause_lengths
        self.clause_count = len(clauses)
        total = sum(clause_lengths.values())
        self.avg_clause_length = total / self.clause_count if self.clause_count else 0.0

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def to_dict(self) -> dict:
        return {
            "schema_version": INDEX_SCHEMA_VERSION,
            "k1": BM25_K1,
            "b": BM25_B,
            "documents": self.documents,
            "clauses": {cid: c.to_dict() for cid, c in self.clauses.items()},
            "postings": self.postings,
            "clause_lengths": self.clause_lengths,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def build_index(docs: list[PolicyDocument]) -> Index:
    """Build the inverted index; requires at least one document."""
    if not docs:
        raise ConfigInvalidError("cannot build an index from zero documents")
    seen_docs: set[str] = set()
    documents: dict[str, dict] = {}
    clauses: dict[str, PolicyClause] = {}
    postings: dict[str, dict[str, int]] = {}
    clause_lengths: dict[str, int] = {}

    for doc in docs:
        if doc.doc_id in seen_docs:
            raise ConfigInvalidError(f"duplicate doc_id {doc.doc_id!r} in index")
        seen_docs.add(doc.doc_id)
        documents[doc.doc_id] = {
            "title": doc.title,
            "kind": doc.kind,
            "source_digest": doc.source_digest,
        }
        for clause in doc.clauses:
            tokens = tokenize(clause.text)
            clauses[clause.clause_id] = clause
            clause_lengths[clause.clause_id] = len(tokens)
            for tok in tokens:
                bucket = postings.setdefault(tok, {})
                bucket[clause.clause_id] = bucket.get(clause.clause_id, 0) + 1
    return Index(documents, clauses, postings, clause_lengths)


def idf(index: Index, term: str) -> float:
    n = index.clause_count
    df = index.df(term)
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def score_clause(index: Index, clause_id: str, query_terms: list[str]) -> float:
    """BM25 score of one clause for sorted unique query terms."""
    dl = index.clause_lengths[clause_id]
    if dl == 0:
        # no query term occurs in it, and a corpus of such clauses has no
        # average length to divide by
        return 0.0
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / index.avg_clause_length)
    total = 0.0
    for term in query_terms:
        tf = index.postings.get(term, {}).get(clause_id, 0)
        if tf == 0:
            continue
        total += idf(index, term) * tf * (BM25_K1 + 1.0) / (tf + norm)
    return total


def retrieve(index: Index, query: str, k: int) -> list[RetrievalHit]:
    """Top-k clauses by (score desc, doc_id, clause_id).

    Every indexed clause participates (zero-score clauses rank last), so a k
    larger than the corpus returns the whole corpus ranked. Repeated query
    terms count once. Raises EmptyQuery when nothing survives tokenization.
    """
    if k < 1:
        raise ConfigInvalidError(f"retrieval k must be >= 1, got {k}")
    terms = sorted(set(tokenize(query)))
    if not terms:
        raise EmptyQueryError(f"query {query!r} tokenizes to nothing")

    scored = [
        (-score_clause(index, cid, terms), clause.doc_id, cid)
        for cid, clause in index.clauses.items()
    ]
    scored.sort()
    hits = []
    for rank, (neg, _doc_id, cid) in enumerate(scored[:k], start=1):
        hits.append(RetrievalHit(clause=index.clauses[cid], score=-neg, rank=rank))
    return hits


def technique_query(mapping, catalog) -> str:
    """Deterministic retrieval query for a technique mapping.

    Expansion: "<technique name> <indicator tags...> <control vocabulary...>"
    with the fixed vocabulary account lockout / password / authentication /
    multi-factor.
    """
    entry = catalog[mapping.technique_id]
    parts = [entry.name, *entry.indicator_tags, *CONTROL_VOCABULARY]
    return " ".join(parts)
