"""Render a completed review as canonical JSON and Markdown.

The JSON form is byte-deterministic for identical state (sorted keys, fixed
float precision, defined array orders), so replay runs can be compared by
digest. build_report builds the report once, as the plain dict that is its
JSON document; render_json dumps exactly that dict and render_markdown reads
it, so the document that passes the closure check is the one written.
Citation closure has one rule, :func:`collect_citations`: the reference keys
below plus the citation markers in any string, outside the ``_EXEMPT_KEYS``
sections. build_report applies it to that document, as any reader of a
report.json can. A citation that does not resolve against the ingested
evidence and policy clauses aborts build_report, and with it the writing of
the report, by GenerateReport or by ``pir render``, rather than shipping an
audit artifact with dangling references.
"""

from __future__ import annotations

import json
import typing
from datetime import datetime

from .canon import canon_dumps, digest_of, format_instant
from .errors import UnresolvedReferenceError
from .llm_gateway import EVT_MARKER, POL_MARKER

if typing.TYPE_CHECKING:
    from .orchestrator import ReviewState

REPORT_SCHEMA_VERSION = 1

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
# trail and may quote rejected model output; the evidence appendix is the set
# of records citations are checked against.
_EXEMPT_KEYS = frozenset({"transcripts", "degradation_notes", "evidence_appendix"})


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


def build_report(state: "ReviewState", generated_at: datetime) -> dict:
    """Build the report document, the dict that :func:`render_json` dumps
    and :func:`render_markdown` reads, and check it with
    :func:`verify_citation_closure`, the check a re-read report.json gets.

    The sections in ``_EXEMPT_KEYS`` are not checked: a degraded transcript
    and its degradation note record the rejected model output, fabricated
    citations included, as the audit trail of why the fallback text was used.

    The evidence appendix is the state's record rows. The state and its
    items are frozen, and the document shares no list with them: the items'
    ``to_dict`` turns their tuples into new lists.
    """
    report = {
        "run_id": state.run_id,
        "config_digest": state.config_digest,
        "generated_at": format_instant(generated_at),
        "incident_summary": state.incident_summary or "",
        "findings": [f.to_dict() for f in state.findings],
        "finding_summaries": list(state.finding_summaries),
        "technique_section": [m.to_dict() for m in state.mappings],
        "gaps_section": [g.to_dict() for g in state.gaps],
        "trace_ledger": build_trace_ledger(state),
        "evidence_appendix": [
            {"record_ref": ref, "event_id": event_id, "timestamp_utc": ts, "digest": digest}
            for ref, event_id, ts, digest in state.records
        ],
        "transcripts": [t.to_dict() for t in state.transcripts],
        "degradation_notes": list(state.degradation_notes),
        "notes": list(state.notes),
        "schema_version": REPORT_SCHEMA_VERSION,
    }
    missing = verify_citation_closure(report, state.record_refs(), state.clause_ids())
    if missing:
        raise UnresolvedReferenceError(
            f"report cites unknown references: {', '.join(missing)}"
        )
    return report


def render_json(report: dict) -> str:
    """Canonical JSON text of the report (trailing newline included)."""
    return canon_dumps(report) + "\n"


def json_report_digest(text: str) -> str:
    """Digest of a rendered report.json with the clock field masked."""
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


def verify_citation_closure(
    doc: dict, known_refs: set[str], known_clauses: set[str]
) -> list[str]:
    """Re-parse closure check: returns the citations that fail to resolve."""
    refs, clauses = collect_citations(doc)
    missing = [r for r in refs if r not in known_refs]
    missing.extend(c for c in clauses if c not in known_clauses)
    return missing


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
    else:
        lines.append("No event records were ingested.")
    lines.append("")

    lines.append("## Degradation Notes")
    lines.append("")
    if report["degradation_notes"]:
        for note in report["degradation_notes"]:
            lines.append(f"- {note}")
    else:
        lines.append("None: no narrative fell back to deterministic text.")
    lines.append("")

    return "\n".join(lines)


def deterministic_incident_summary(state: "ReviewState") -> str:
    """Clock-free fallback incident summary built from structured state."""
    if not state.findings:
        return (
            f"Review of {len(state.records)} event record(s) found no "
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
