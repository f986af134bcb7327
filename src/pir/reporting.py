"""Render a completed review as canonical JSON and Markdown.

The JSON form is byte-deterministic for identical state (sorted keys, fixed
float precision, defined array orders), so replay runs can be compared by
digest. build_report builds the report once, as the plain dict that is its
JSON document, with each narrated text derived from the state's transcripts
by one rule (:func:`narrated_texts`); render_json dumps exactly that dict
and render_markdown reads it, so the document that passes the closure check
is the one written.
Citation closure has one rule, :func:`collect_citations`: the reference keys
below plus the citation markers in any string, outside the ``_EXEMPT_KEYS``
sections. build_report applies it to that document, as any reader of a
report.json can. A record citation must resolve against the records that
the findings rest on, the state's ``cited_records``, and a clause citation
against the policy clauses. One that does not aborts build_report, and with
it the writing of the report, by GenerateReport or by ``pir render``, rather
than shipping an audit artifact with dangling references.

The report's size follows its conclusions, not its evidence: the evidence
appendix holds a row for each cited record only, taken from the state's
``cited_records``, and the policy appendix one for each cited clause, with
the sha256 of its text. An uncited record is covered by ``evidence_digest``,
the sha256 of records.json, and ``record_count``; building a report reads no
record. Each transcript keeps what the model said and how narration
judged it (TRANSCRIPT_KEYS), not its prompt or grounding report, which
``pir verify`` re-derives. :func:`check_report` checks a re-read report
against its own appendices and against the report of a fresh review of
the same config whose model answers with the re-read transcripts'
responses, as ``pir verify`` does: every field but the report's time.
"""

from __future__ import annotations

import itertools
import json
import typing
from collections.abc import Iterator
from datetime import datetime

from .attack_catalog import rule_rationale
from .canon import canon_dumps, digest_of, format_instant, sha256_hex
from .detection import fallback_summary
from .errors import ReportMismatchError, UnresolvedReferenceError
from .gap_analysis import deterministic_rationale
from .llm_gateway import EVT_MARKER, POL_MARKER, TEMPLATES, sections

if typing.TYPE_CHECKING:
    from .orchestrator import ReviewState

REPORT_SCHEMA_VERSION = 3

# The keys of each transcript in a report: what the model said and how
# narration judged it. Its prompt and grounding report are left out, since
# ``pir verify`` re-derives both from the review's state.
TRANSCRIPT_KEYS = ("transcript_id", "stage", "template_id", "response", "mode", "degraded", "latency_ms")

KIND_FINDING = "finding"
KIND_MAPPING = "mapping"
KIND_GAP = "gap"
_LEDGER_KEYS = (
    "conclusion_id", "conclusion_kind", "event_refs", "clause_refs", "confidence"
)

# Dict keys whose string (or list-of-string) values are structural citations.
# With the markers in strings they are the closure rule, for build_report and
# for a re-read report.json alike.
_RECORD_REF_KEYS = frozenset(
    {
        "event_refs",
        "evidence",
        "evidence_events",
        "record_refs",
        "record_ref",
        "success_record",
        "success_record_ref",
        "injected_record_refs",
    }
)
_CLAUSE_REF_KEYS = frozenset(
    {"clause_refs", "evidence_clauses", "clause_ids", "clause_ref", "clause_id"}
)
# Sections that cite nothing. Transcripts and degradation notes are the audit
# trail and may quote rejected model output; the two appendices hold the rows
# of the cited records and clauses, which a re-read report's citations are
# checked against.
_EXEMPT_KEYS = frozenset(
    {"transcripts", "degradation_notes", "evidence_appendix", "policy_appendix"}
)


def build_trace_ledger(state: "ReviewState") -> list[dict]:
    """One row per finding, mapping, and gap; every row must cite something.

    Rows come back sorted by (conclusion_kind, conclusion_id).
    """
    rows = [
        (f"finding-{i + 1:03d}", KIND_FINDING, finding.cited_refs(), [], None)
        for i, finding in enumerate(state.findings)
    ]
    rows.extend(
        (f"mapping-{i + 1:03d}", KIND_MAPPING, list(mapping.evidence), [], None)
        for i, mapping in enumerate(state.mappings)
    )
    rows.extend(
        (
            f"gap-{i + 1:03d}",
            KIND_GAP,
            list(gap.evidence_events),
            list(gap.evidence_clauses),
            gap.confidence,
        )
        for i, gap in enumerate(state.gaps)
    )
    for conclusion_id, _, event_refs, clause_refs, _ in rows:
        if not event_refs and not clause_refs:
            raise UnresolvedReferenceError(
                f"{conclusion_id} carries no supporting references"
            )
    rows.sort(key=lambda r: (r[1], r[0]))
    return [dict(zip(_LEDGER_KEYS, row)) for row in rows]


def narrated_texts(state: "ReviewState") -> tuple[list[str], list[str], list[tuple[str, str]], str]:
    """Every narrated text of ``state``: the finding summaries, the mapping
    rationales, each gap's rationale and remediation, and the incident
    summary. Each is the response of its stage's transcript at its
    position, a gap's its RATIONALE and REMEDIATION paragraphs (sections),
    unless that transcript is degraded or absent; then it is its narration
    site's deterministic fallback, computed only then. The incident summary
    is "" until GenerateReport sets report_generated_at, which it does
    before it builds the report and before its stage_log entry exists."""
    responses: dict[str, list[str | None]] = {}
    for t in state.transcripts:
        responses.setdefault(t.stage, []).append(None if t.degraded else t.response)

    def told(stage: str) -> Iterator[str | None]:
        """The response at each of ``stage``'s positions: None for a
        degraded transcript, and past its last one."""
        return itertools.chain(responses.get(stage, ()), itertools.repeat(None))

    findings, template = state.findings, TEMPLATES["gap_rationale"]
    summaries = [text or fallback_summary(f) for f, text in zip(findings, told("ProcessEvidence"))]
    rationales = [text or rule_rationale(m, findings[m.finding_ref]) for m, text in zip(state.mappings, told("MapAttack"))]
    gap_texts = [
        sections(template, text) if text else deterministic_rationale(gap)
        for gap, text in zip(state.gaps, told("ValidatePolicies"))
    ]
    incident = ""
    if state.report_generated_at is not None:
        incident = next(told("GenerateReport")) or deterministic_incident_summary(state)
    return summaries, rationales, gap_texts, incident


def build_report(state: "ReviewState", generated_at: datetime) -> dict:
    """Build the report document, the dict that :func:`render_json` dumps
    and :func:`render_markdown` reads, and check its citation closure
    against the state's cited records and its clauses: a record citation
    resolves only against a record that a finding rests on.

    The sections in ``_EXEMPT_KEYS`` are not checked: a degraded transcript
    and its degradation note record the rejected model output, fabricated
    citations included, as the audit trail of why the fallback text was used.

    Its narrated texts follow from the state's transcripts (narrated_texts).
    The citations are collected once. The evidence appendix is the rows of
    ``cited_records`` that the report cites, in record order, and the policy
    appendix the cited clauses, in document order; ``evidence_digest`` and
    ``record_count`` cover all the records. The state and its items are frozen,
    and the document shares no list with them: the items' ``to_dict`` turns
    their tuples into new lists.
    """
    summaries, rationales, gap_texts, incident = narrated_texts(state)
    report = {
        "run_id": state.run_id,
        "config_digest": state.config_digest,
        "generated_at": format_instant(generated_at),
        "incident_summary": incident,
        "findings": [f.to_dict() for f in state.findings],
        "finding_summaries": summaries,
        "technique_section": [{**m.to_dict(), "rationale": r} for m, r in zip(state.mappings, rationales)],
        "gaps_section": [
            {**g.to_dict(), "rationale": rationale, "remediation": remediation}
            for g, (rationale, remediation) in zip(state.gaps, gap_texts)
        ],
        "trace_ledger": build_trace_ledger(state),
        "transcripts": [{key: getattr(t, key) for key in TRANSCRIPT_KEYS} for t in state.transcripts],
        "degradation_notes": list(state.degradation_notes),
        "notes": list(state.notes),
        "schema_version": REPORT_SCHEMA_VERSION,
    }
    refs, clauses = collect_citations(report)
    known_refs = {row[0] for row in state.cited_records}
    missing = _unresolved(refs, clauses, known_refs, state.clause_ids())
    if missing:
        raise UnresolvedReferenceError(
            f"report cites unknown references: {', '.join(missing)}"
        )
    cited_refs, cited_clauses = set(refs), set(clauses)
    report["evidence_appendix"] = [
        {"record_ref": ref, "event_id": event_id, "timestamp_utc": ts, "digest": digest}
        for ref, event_id, ts, digest, _start, _end in state.cited_records
        if ref in cited_refs
    ]
    report["evidence_digest"] = state.records_digest
    report["record_count"] = state.record_count
    report["policy_appendix"] = [
        {"clause_id": c.clause_id, "doc_id": c.doc_id, "line_start": c.line_start, "line_end": c.line_end,
         "digest": sha256_hex(c.text)}
        for doc in state.policy_documents
        for c in doc.clauses
        if c.clause_id in cited_clauses
    ]
    return report


def render_json(report: dict) -> str:
    """Canonical JSON text of the report (trailing newline included)."""
    return canon_dumps(report) + "\n"


def json_report_digest(text: str) -> str:
    """Digest of a rendered report.json's document with the clock field
    masked. It digests the re-parsed document in canonical form, so equal
    digests mean equal documents, not equal bytes: text that parses to the
    same document, such as an extra trailing newline, gives the same digest."""
    doc = json.loads(text)
    doc["generated_at"] = None
    return digest_of(doc)


def collect_citations(doc) -> tuple[list[str], list[str]]:
    """Every record ref and clause id cited in a report document, outside the
    ``_EXEMPT_KEYS`` sections: structural reference fields plus citation
    markers inside any string."""
    refs: dict[str, None] = {}
    clauses: dict[str, None] = {}

    def take(bucket: dict[str, None], value) -> None:
        if isinstance(value, str):
            bucket[value] = None
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, str):
                    bucket[item] = None

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key in _EXEMPT_KEYS:
                    continue
                if key in _RECORD_REF_KEYS:
                    take(refs, value)
                elif key in _CLAUSE_REF_KEYS:
                    take(clauses, value)
                else:
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, str):
            for ref in EVT_MARKER.findall(node):
                refs[ref] = None
            for cid in POL_MARKER.findall(node):
                clauses[cid] = None

    walk(doc)
    return list(refs), list(clauses)


def _unresolved(refs, clauses, known_refs, known_clauses) -> list[str]:
    missing = [r for r in refs if r not in known_refs]
    missing.extend(c for c in clauses if c not in known_clauses)
    return missing


def verify_citation_closure(
    doc: dict, known_refs: set[str], known_clauses: set[str]
) -> list[str]:
    """Re-parse closure check: returns the citations that fail to resolve."""
    return _unresolved(*collect_citations(doc), known_refs, known_clauses)


def appendix_closure(doc: dict) -> list[str]:
    """The citations of a report document that have no row in its own
    evidence or policy appendix."""
    return verify_citation_closure(
        doc,
        {row["record_ref"] for row in doc["evidence_appendix"]},
        {row["clause_id"] for row in doc["policy_appendix"]},
    )


# The fields that check_report compares apart, the appendices, or not at
# all: the report's time, which no re-run can reproduce.
_UNCOMPARED = frozenset({"evidence_appendix", "policy_appendix", "generated_at"})


def check_report(doc: dict, expected: dict) -> None:
    """Check a re-read report document against ``expected``, the re-read
    report of a review of the same config whose model gave the responses
    of the document's transcripts (``pir verify``, which has checked its
    config digest and schema version): first its closure against its own
    appendices, and each appendix row against ``expected``'s row for the
    same record or clause; then its transcripts; then every other field
    but the report's time (_first_difference). Raises ReportMismatchError
    naming the first difference, by section and index."""
    refs, clauses = collect_citations(doc)
    for kind, key, cited, section in (
        ("record", "record_ref", refs, "evidence_appendix"),
        ("clause", "clause_id", clauses, "policy_appendix"),
    ):
        fresh = {row[key]: row for row in expected[section]}
        written = {row[key]: row for row in doc[section]}
        for name in dict.fromkeys([*cited, *written]):
            if name not in cited:
                raise ReportMismatchError(f"{kind} {name} has an appendix row but is not cited")
            if name not in written:
                raise ReportMismatchError(f"{name} is cited but has no appendix row")
            if name not in fresh:
                raise ReportMismatchError(f"no conclusion of a review of the config's files rests on cited {kind} {name}")
            if _first_difference(written[name], fresh[name]) is not None:
                raise ReportMismatchError(f"cited {kind} {name} does not match its appendix row")
        if doc[section] != [row for row in expected[section] if row[key] in written]:
            raise ReportMismatchError(f"the {kind} appendix repeats a row or is out of order")
    path = _first_difference(doc.get("transcripts"), expected["transcripts"], "transcripts")
    path = path or _first_difference(doc, expected)
    if path is not None:
        raise ReportMismatchError(f"{path} does not match what a review of the config's files gives")


def _first_difference(written, expected, path: str = "") -> str | None:
    """The path, as ``findings[0].failure_count``, of the first place in
    ``expected``'s order, outside the top-level fields of ``_UNCOMPARED``,
    where ``written`` differs: a key or item that one side lacks, or a
    value of another type or value, so 1 is not 1.0."""
    if isinstance(expected, list) and isinstance(written, list):
        written, expected = dict(enumerate(written)), dict(enumerate(expected))
    if not (isinstance(expected, dict) and isinstance(written, dict)):
        return None if type(written) is type(expected) and written == expected else path
    for key in dict.fromkeys([*expected, *written]):
        where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        if where in _UNCOMPARED:
            continue
        if key not in written or key not in expected:
            return where
        if (found := _first_difference(written[key], expected[key], where)) is not None:
            return found
    return None


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|")


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_md_escape(cell) for cell in row) + " |")
    return lines


def render_markdown(report: dict) -> str:
    """Human-readable rendering; fixed section order, same content as JSON."""
    lines: list[str] = []
    lines.append("# Post-Incident Review")
    lines.append("")
    lines.append(f"- Run: `{report['run_id']}`")
    lines.append(f"- Generated: {report['generated_at']}")
    lines.append(f"- Config digest: `{report['config_digest']}`")
    lines.append("")

    lines.append("## Incident Summary")
    lines.append("")
    lines.append(report["incident_summary"])
    lines.append("")
    if report["findings"]:
        for i, (finding, summary) in enumerate(
            zip(report["findings"], report["finding_summaries"])
        ):
            lines.append(
                f"### finding-{i + 1:03d}: {finding['kind']} "
                f"('{finding['account']}', {finding['failure_count']} failures)"
            )
            lines.append("")
            lines.append(summary)
            lines.append("")
    else:
        lines.append(
            "No findings: the evidence contains no qualifying authentication "
            "behaviour."
        )
        lines.append("")

    lines.append("## Technique Attribution")
    lines.append("")
    if report["technique_section"]:
        for i, mapping in enumerate(report["technique_section"]):
            lines.append(
                f"### mapping-{i + 1:03d}: {mapping['technique_id']} "
                f"{mapping['technique_name']} (tactic: {mapping['tactic']})"
            )
            lines.append("")
            lines.append(mapping["rationale"])
            lines.append("")
    else:
        lines.append("No technique attribution: nothing to map.")
        lines.append("")

    lines.append("## Policy Gap Findings")
    lines.append("")
    if report["gaps_section"]:
        for i, gap in enumerate(report["gaps_section"]):
            lines.append(
                f"### gap-{i + 1:03d}: {gap['control']} ({gap['gap_kind']}, "
                f"severity {gap['severity']})"
            )
            lines.append("")
            lines.append(f"- Confidence: {gap['confidence']}")
            lines.append(f"- Rationale: {gap['rationale']}")
            lines.append(f"- Remediation: {gap['remediation']}")
            lines.append("")
    else:
        lines.append("No policy gaps identified against baseline.")
        lines.append("")

    lines.append("## Trace Ledger")
    lines.append("")
    if report["trace_ledger"]:
        lines.extend(
            _md_table(
                ["Conclusion", "Kind", "Event refs", "Clause refs", "Confidence"],
                [
                    [
                        row["conclusion_id"],
                        row["conclusion_kind"],
                        ", ".join(row["event_refs"]) or "-",
                        ", ".join(row["clause_refs"]) or "-",
                        row["confidence"] or "-",
                    ]
                    for row in report["trace_ledger"]
                ],
            )
        )
    else:
        lines.append("Empty: no conclusions were drawn.")
    lines.append("")

    lines.append("## Evidence Appendix")
    lines.append("")
    lines.append(
        f"{len(report['evidence_appendix'])} of {report['record_count']} "
        f"ingested record(s) cited. Evidence digest (sha256 of records.json): "
        f"`{report['evidence_digest']}`"
    )
    lines.append("")
    if report["evidence_appendix"]:
        lines.extend(
            _md_table(
                ["Record ref", "Event ID", "Timestamp (UTC)", "Digest"],
                [
                    [
                        row["record_ref"],
                        str(row["event_id"]),
                        row["timestamp_utc"],
                        row["digest"][:16],
                    ]
                    for row in report["evidence_appendix"]
                ],
            )
        )
        lines.append("")

    lines.append("## Policy Appendix")
    lines.append("")
    if report["policy_appendix"]:
        lines.extend(
            _md_table(
                ["Clause", "Document", "Lines", "Digest"],
                [
                    [
                        row["clause_id"],
                        row["doc_id"],
                        f"{row['line_start']}-{row['line_end']}",
                        row["digest"][:16],
                    ]
                    for row in report["policy_appendix"]
                ],
            )
        )
    else:
        lines.append("No policy clause is cited.")
    lines.append("")

    lines.append("## Degradation Notes")
    lines.append("")
    if report["degradation_notes"]:
        for note in report["degradation_notes"]:
            lines.append(f"- {note}")
    else:
        lines.append("None: no narrative fell back to deterministic text.")
    lines.append("")

    # The join makes every line break; one inside a line came from a value,
    # so it is written as the visible two characters and starts no line.
    return "\n".join(line.replace("\r", "\\r").replace("\n", "\\n") for line in lines)


def deterministic_incident_summary(state: "ReviewState") -> str:
    """Clock-free fallback incident summary built from structured state."""
    if not state.findings:
        return (
            f"Review of {state.record_count} event record(s) found no "
            f"qualifying authentication behaviour; no technique mapping or "
            f"policy gap analysis was performed."
        )
    parts: list[str] = []
    for finding in state.findings:
        span = int(
            (finding.window_end - finding.window_start).total_seconds()
        )
        sentence = (
            f"Account '{finding.account}' recorded {finding.failure_count} "
            f"failed logons within {span} seconds "
            f"([EVT:{finding.evidence[0]}] through [EVT:{finding.evidence[-1]}])"
        )
        if finding.success_record:
            sentence += (
                f", followed by a successful logon [EVT:{finding.success_record}]"
            )
        parts.append(sentence + ".")
    if state.mappings:
        ids = ", ".join(
            f"{m.technique_id} ({m.technique_name})" for m in state.mappings
        )
        parts.append(f"The behaviour maps to {ids}.")
    if state.gaps:
        gap_bits = ", ".join(
            f"{g.control} ({g.gap_kind}, severity {g.severity})" for g in state.gaps
        )
        parts.append(f"Policy comparison against baseline identified: {gap_bits}.")
    else:
        parts.append("No policy gaps were identified against the baseline.")
    return " ".join(parts)
