"""Fixed five-stage review pipeline over a frozen shared state.

Stages run strictly in order: ProcessEvidence, MapAttack, RetrievePolicies,
ValidatePolicies, GenerateReport. A stage returns its additions; the state
and its items are frozen. Each stage body reads the state before it and
fills a fresh ``out`` dict: the fields it owns (OWNED_FIELDS) and the items
it appends to each shared list (SHARED_FIELDS). run_stage fails the stage
when ``out`` names any other field, and folds ``out`` into a new state.

run_review writes a canonical JSON checkpoint after every stage under
<output>/state/, and each fact goes into one checkpoint only: <Stage>.json
holds that stage's delta, its own fields and the items it appended to each
shared list, plus previous_digest, the sha256 of the previous stage's
checkpoint bytes, which run_review takes as it writes them. No state holds
a narrated text: a report derives each from the transcripts when it is
built (reporting.narrated_texts). A checkpoint writes as null what a load
reads from elsewhere in the checkpoints: a mapping's evidence that is its
finding's, and a gap's evidence that is the union of the findings' in
first-seen order. It writes each transcript without its stage, template
id, rendered prompt and grounding report: a load knows the first two from
the transcript's position, and each narration site makes its request from
the state alone, so a load renders the prompt and judges the response as
narrate does, refusing a transcript whose ``degraded`` is not what
narration decides. Loading a checkpoint checks the chain back to
ProcessEvidence.json, folds the deltas into the state and restores what
was written as null or left out.

ProcessEvidence and ``pir detect`` read the evidence by one pass,
read_evidence; ``pir verify`` runs the whole review with the gateway
disabled, re-derives a report's transcripts from its state, as a load
re-derives a checkpoint's, and builds the report of that state with them
(verify_report). Each
record is encoded once as it is parsed (log_ingest.encode_record, with its
parse's time text), and the bytes of records.json go in batches through a
running sha256 to the caller's ``write``: into the file (write_records) or
nowhere (detect). Only a logon record, the one kind a finding can cite,
keeps a row and has its auth event projected from the record's parts; the
auth events are then normalised and run through the detector. Only the
cited pieces are hashed (digest_rows).

The state keeps only the record count and the rows of the records its
findings cite; ProcessEvidence.json names the file's sha256 as its
records_digest, and each cited row the byte range of its record's piece,
but not the piece's sha256. Loading hashes the file in blocks against that
digest, checks each cited row against the piece in its range, which it
decodes, and takes the piece's sha256 for the row; it decodes no other
record. Every record's ref and every logon record's auth event stay
answerable on any state (``records``, ``record_refs``, ``auth_events``):
read_records, the one reader of every record, reads them from the file when
first asked, once per state. The state keeps only the report's time:
write_report_files builds the report from the count and the cited rows,
which checks its citation closure, and writes it, for GenerateReport and
for ``pir render`` alike.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import mmap
import tempfile
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import reporting
from .attack_catalog import (
    TechniqueEntry,
    TechniqueMapping,
    justify_mapping,
    load_default_catalog,
    map_finding,
    mapping_request,
)
from .canon import (
    Canonical,
    canon_dumps,
    decode_fields,
    digest_of,
    encode_fields,
    parse_instant,
    sha256_hex,
    utc_now,
)
from .config import ReviewConfig
from .detection import BehaviorFinding, detect_bruteforce, finding_request, narrative_for_finding
from .errors import (
    MalformedCheckpointError,
    RecordsFileError,
    ReportMismatchError,
    ReviewError,
    StageFailureError,
    StageOrderViolationError,
    UnresolvedReferenceError,
)
from .gap_analysis import (
    PolicyGap,
    assign_confidence,
    compare_controls,
    dedupe_gaps,
    draft_rationale,
    extract_control_parameters,
    gap_request,
    load_default_rules,
    select_effective,
)
from .llm_gateway import (
    MODE_DISABLED,
    MODE_RECORD,
    MODE_REPLAY,
    TEMPLATES,
    Gateway,
    NarrativeResult,
    Request,
    Transcript,
    render,
    scoped,
    transcript_id_for,
    verdict,
)
from .log_ingest import (
    AUTH_EVENT_IDS,
    AuthEvent,
    EventRecord,
    auth_event,
    encode_record,
    load_evidence,
    normalize_auth_events,
)
from .policy_index import (
    DOC_KIND_BASELINE,
    DOC_KIND_ORGANISATION,
    PolicyDocument,
    build_index,
    load_policy_documents,
    retrieve,
    technique_query,
)

logger = logging.getLogger(__name__)

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"

RECORDS_FILE = "records.json"
RecordRow = tuple[str, int, str, str, int, int]  # a cited row: see ReviewState.cited_records
# A row without the piece's sha256: as encode_records makes it, before
# digest_rows takes the sha256, and as a checkpoint stores a cited row.
PieceRow = tuple[str, int, str, int, int]
# encode_records hands records.json to its ``write`` in batches of about
# this many bytes.
WRITE_BATCH_BYTES = 64 * 1024


@dataclass(frozen=True)
class StageRecord(Canonical):
    stage: str
    started: datetime
    finished: datetime | None = None
    status: str = STATUS_OK
    note: str | None = None


@dataclass(frozen=True)
class ReviewState:
    """Shared state threaded through the stages. A stage returns its
    additions; the state and its items are frozen, and each list is a tuple,
    so a stage gets a new state with its additions folded in (run_stage)."""

    run_id: str
    config_digest: str
    # The records are streamed to records.json, never held. The state keeps
    # their number, the sha256 of the file's bytes, and one row for each
    # record that a finding cites (BehaviorFinding.cited_refs), in record
    # order: record_ref, event_id, timestamp_utc as canonical text, the
    # sha256 of the record's piece of records.json, and the start and end
    # byte offsets of the piece in the file, by which a load checks the row.
    # A checkpoint stores the row without the sha256, which a load takes
    # from the piece. The report's evidence appendix is made from these rows.
    record_count: int = 0
    records_digest: str | None = None
    cited_records: tuple[RecordRow, ...] = ()
    # where records.json lies; not stored, and no part of equality or hashing
    records_file: Path | None = field(default=None, compare=False)
    findings: tuple[BehaviorFinding, ...] = ()
    mappings: tuple[TechniqueMapping, ...] = ()
    policy_documents: tuple[PolicyDocument, ...] = ()
    # the ids of the clauses retrieve ranked, best first
    retrieval: tuple[str, ...] = ()
    gaps: tuple[PolicyGap, ...] = ()
    transcripts: tuple[Transcript, ...] = ()
    stage_log: tuple[StageRecord, ...] = ()
    notes: tuple[str, ...] = ()
    degradation_notes: tuple[str, ...] = ()
    report_generated_at: datetime | None = None

    # Every record's ref and every logon record's auth event, read from
    # records.json on demand. Neither a review nor a render asks for them.

    @functools.cached_property
    def _read(self) -> tuple[tuple[str, ...], tuple[AuthEvent, ...]]:
        """The refs of all records, in file order, and the normalised auth
        events of the logon records, read once per state (read_records)."""
        if self.records_digest is None:
            return (), ()
        refs, projected = read_records(self.records_file, self.records_digest)
        auth_events, _skipped = normalize_auth_events(projected)
        return tuple(refs), tuple(auth_events)

    @property
    def records(self) -> "RecordRefs":
        return RecordRefs(self)

    @property
    def auth_events(self) -> tuple[AuthEvent, ...]:
        return self._read[1]

    def record_refs(self) -> set[str]:
        return set(self.records)

    def clause_ids(self) -> set[str]:
        return {
            c.clause_id for doc in self.policy_documents for c in doc.clauses
        }

    def to_dict(self) -> dict:
        return encode_fields(ReviewState, {k: getattr(self, k) for k in _CODEC_FIELDS})

    @classmethod
    def from_dict(cls, d: dict, records_file: Path) -> "ReviewState":
        """Rebuild a state from a checkpoint dict; its records are in
        ``records_file``. A retrieval that names a clause of no policy
        document is a ValueError."""
        state = cls(records_file=records_file, **decode_fields(cls, {k: d[k] for k in _CODEC_FIELDS}))
        unknown = set(state.retrieval) - state.clause_ids()
        if unknown:
            raise ValueError(f"retrieval names no clause of the policy documents: {', '.join(sorted(unknown))}")
        return state


class RecordRefs(Sequence):
    """``ReviewState.records``: the refs of all records, in file order. Its
    length is the state's record_count and reads no file; a ref is read on
    demand."""

    def __init__(self, state: ReviewState):
        self._state = state

    def __len__(self) -> int:
        return self._state.record_count

    def __getitem__(self, index):
        return self._state._read[0][index]


# A checkpoint stores every ReviewState field as the codec writes it, except
# the records file, which is the one beside the checkpoint.
_CODEC_FIELDS = tuple(f.name for f in dataclasses.fields(ReviewState) if f.name != "records_file")


# The fields each stage sets in its ``out``; no other stage may set them.
OWNED_FIELDS = {
    "ProcessEvidence": ("run_id", "config_digest", "record_count", "records_digest", "cited_records",
                        "records_file", "findings"),
    "MapAttack": ("mappings",),
    "RetrievePolicies": ("policy_documents", "retrieval"),
    "ValidatePolicies": ("gaps",),
    "GenerateReport": ("report_generated_at",),
}
# The lists every stage appends to, through the lists its ``out`` starts with;
# a stage owns the items it appended.
SHARED_FIELDS = ("transcripts", "notes", "degradation_notes", "stage_log")
# The keys of each stage's own fields in its checkpoint
_STORED_KEYS = {stage: [k for k in names if k in _CODEC_FIELDS] for stage, names in OWNED_FIELDS.items()}


def state_digest(state: ReviewState) -> str:
    """Digest of the state with volatile clock fields masked, so identical
    replay runs compare equal."""
    d = state.to_dict()
    for entry in d["stage_log"]:
        entry["started"] = None
        entry["finished"] = None
    for t in d["transcripts"]:
        t["latency_ms"] = 0
    d["report_generated_at"] = None
    return digest_of(d)


@dataclass
class StageDeps:
    config: ReviewConfig
    gateway: Gateway
    catalog: dict[str, TechniqueEntry]


def build_deps(config: ReviewConfig, transport=None) -> StageDeps:
    gateway = Gateway(config.gateway_mode, config.generation, config.cache_dir, transport=transport)
    return StageDeps(config=config, gateway=gateway, catalog=load_default_catalog())


def _absorb(out: dict, result: NarrativeResult) -> None:
    if result.transcript is not None:
        out["transcripts"].append(result.transcript)
    if result.degraded and result.note:
        out["degradation_notes"].append(result.note)


# --- stage bodies -----------------------------------------------------------
# Each body reads the state before it and puts what the stage adds into
# ``out`` (see run_stage); it returns the stage's status and note.


def _stage_process_evidence(state: ReviewState, deps: StageDeps, out: dict):
    config = deps.config
    out["records_file"] = records_file = state_dir(config.output_dir) / RECORDS_FILE
    out["records_digest"], out["record_count"], rows, _auth_events, skipped, findings = write_records(
        lambda write: read_evidence(config, write), records_file
    )
    if skipped:
        out["notes"].append(
            f"{skipped} auth record(s) skipped during normalization "
            f"(missing TargetUserName)"
        )

    out["findings"] = findings
    if not findings:
        out["notes"].append("no qualifying behaviour detected in evidence")
    cited = {ref for finding in findings for ref in finding.cited_refs()}
    with records_file.open("rb") as stream, mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) as data:
        out["cited_records"] = digest_rows(rows, cited, data)

    for finding in findings:
        _absorb(out, narrative_for_finding(finding, deps.gateway))
    return STATUS_OK, None


def _stage_map_attack(state: ReviewState, deps: StageDeps, out: dict):
    if not state.findings:
        return STATUS_OK, "no findings to map"
    out["mappings"] = mappings = []
    for i, finding in enumerate(state.findings):
        mapping = map_finding(finding, deps.catalog, finding_ref=i)
        _absorb(out, justify_mapping(mapping, finding, deps.gateway))
        mappings.append(mapping)
    return STATUS_OK, None


def _stage_retrieve_policies(state: ReviewState, deps: StageDeps, out: dict):
    config = deps.config
    out["policy_documents"] = documents = load_policy_documents(
        config.org_policy_paths, config.baseline_policy_paths
    )
    index = build_index(documents)
    if not state.mappings:
        return STATUS_OK, "no technique mapping; retrieval skipped"
    query = technique_query(state.mappings[0], deps.catalog)
    out["retrieval"] = [hit.clause.clause_id for hit in retrieve(index, query, config.retrieval_k)]
    return STATUS_OK, None


def _stage_validate_policies(state: ReviewState, deps: StageDeps, out: dict):
    if not state.findings:
        return STATUS_SKIPPED, "no findings; incident-driven gap analysis skipped"

    # every clause of each kind: the ranked ones in rank order, then the
    # rest in document order, so no verdict hangs on the retrieval cut-off
    by_id = {c.clause_id: (doc.kind, c) for doc in state.policy_documents for c in doc.clauses}
    clauses = {DOC_KIND_ORGANISATION: [], DOC_KIND_BASELINE: []}
    for clause_id in dict.fromkeys([*state.retrieval, *by_id]):
        kind, clause = by_id[clause_id]
        clauses[kind].append(clause)
    org_params = extract_control_parameters(clauses[DOC_KIND_ORGANISATION])
    baseline_params = extract_control_parameters(clauses[DOC_KIND_BASELINE])

    rules = load_default_rules()
    effective_org, org_warnings = select_effective(org_params, rules)
    effective_base, base_warnings = select_effective(baseline_params, rules)
    for warning in org_warnings + base_warnings:
        logger.warning("%s", warning)
        out["notes"].append(warning)

    all_gaps: list[PolicyGap] = []
    for mapping in state.mappings:
        finding = state.findings[mapping.finding_ref]
        all_gaps.extend(
            compare_controls(effective_org, effective_base, mapping, finding.evidence, rules)
        )
    # in place before the narrations, so a failed one leaves the gaps before it
    out["gaps"] = gaps = []
    for gap in dedupe_gaps(all_gaps):
        gap = assign_confidence(gap, min_evidence=deps.config.detector.min_failures)
        _absorb(out, draft_rationale(gap, deps.gateway))
        gaps.append(gap)
    if not gaps:
        return STATUS_OK, "no gaps against baseline"
    return STATUS_OK, None


def incident_request(state: ReviewState) -> Request:
    """The bindings, record refs and clause ids of the incident summary's
    narration, from the findings, mappings and gaps of ``state``."""
    bindings = {
        "findings_digest": "; ".join(
            f"{f.failure_count} failed logons for '{f.account}'" for f in state.findings
        ),
        "technique_digest": "; ".join(
            f"{m.technique_id} {m.technique_name}" for m in state.mappings
        )
        or "none",
        "gap_digest": "; ".join(
            f"{g.control} ({g.gap_kind}, severity {g.severity})" for g in state.gaps
        )
        or "none identified",
    }
    refs = [ref for finding in state.findings for ref in finding.cited_refs()]
    clause_ids = list(dict.fromkeys(cid for gap in state.gaps for cid in gap.evidence_clauses))
    return bindings, refs, clause_ids


def _stage_generate_report(state: ReviewState, deps: StageDeps, out: dict):
    if state.findings:
        _absorb(out, deps.gateway.narrate("incident_summary", *incident_request(state)))

    # the report covers this stage's additions, the summary's transcript too
    out["report_generated_at"] = utc_now()
    write_report_files(_fold(state, out), deps.config.output_dir)
    return STATUS_OK, None


_STAGE_FUNCS = {
    "ProcessEvidence": _stage_process_evidence,
    "MapAttack": _stage_map_attack,
    "RetrievePolicies": _stage_retrieve_policies,
    "ValidatePolicies": _stage_validate_policies,
    "GenerateReport": _stage_generate_report,
}

STAGES = tuple(_STAGE_FUNCS)


def check_stage_order(stage_log: tuple[StageRecord, ...], stage: str) -> None:
    """Raise unless ``stage`` is exactly the next pending stage and no
    predecessor failed."""
    if stage not in STAGES:
        raise StageOrderViolationError(f"unknown stage {stage!r}")
    for record in stage_log:
        if record.status == STATUS_FAILED:
            raise StageOrderViolationError(
                f"cannot run {stage}: stage {record.stage} previously failed"
            )
    done = [r.stage for r in stage_log]
    if done != list(STAGES[: STAGES.index(stage)]):
        raise StageOrderViolationError(
            f"stage {stage} invoked out of order; completed so far: {done or '[]'}"
        )


def _fold(state: ReviewState, out: dict) -> ReviewState:
    """A new state: ``state`` with each shared list extended by the items in
    ``out`` and every other field in ``out`` set, lists as tuples."""
    fields = {}
    for name, value in out.items():
        value = tuple(value) if isinstance(value, list) else value
        fields[name] = getattr(state, name) + value if name in SHARED_FIELDS else value
    return dataclasses.replace(state, **fields)


def run_stage(state: ReviewState, stage: str, deps: StageDeps) -> ReviewState:
    """Run one stage's body on ``state`` and return the state with what the
    body put into its ``out`` folded in, plus the stage's stage_log entry.

    ``out`` starts with an empty list per shared field. Raises
    StageOrderViolation when invoked out of order, and StageFailure, carrying
    the state with the body's partial ``out`` folded in, when the body raises
    a ReviewError, an OSError or a ValueError. ``out`` naming a field the
    stage does not own is a ValueError, a bug in the body; an attempt to
    change the frozen state raises as it is.
    """
    check_stage_order(state.stage_log, stage)
    out = {name: [] for name in SHARED_FIELDS}
    started = datetime.now(timezone.utc)  # stage times keep their microseconds
    try:
        status, note = _STAGE_FUNCS[stage](state, deps, out)
        unowned = out.keys() - {*OWNED_FIELDS[stage], *SHARED_FIELDS}
        if unowned:
            out = {name: value for name, value in out.items() if name not in unowned}
            raise ValueError(f"{stage} set {', '.join(sorted(unowned))}, which it does not own")
    except (ReviewError, OSError, ValueError) as exc:
        note = f"{type(exc).__name__}: {exc}"
        out["stage_log"].append(StageRecord(stage, started, datetime.now(timezone.utc), STATUS_FAILED, note))
        raise StageFailureError(stage, exc, partial_state=_fold(state, out)) from exc
    out["stage_log"].append(StageRecord(stage, started, datetime.now(timezone.utc), status, note))
    return _fold(state, out)


def state_dir(output_dir: Path) -> Path:
    """<output>/state, created on first use; holds the checkpoints and the
    records."""
    path = output_dir / "state"
    path.mkdir(parents=True, exist_ok=True)
    return path


def encode_records(load, write) -> tuple[str, int, list[PieceRow], list[AuthEvent]]:
    """Encode the records that ``load(keep)`` hands to ``keep``, each once
    (encode_record, with the time text the parse gave), into the
    bytes of records.json, passing them to ``write`` in batches of about
    WRITE_BATCH_BYTES as they are made. For a logon record, the only kind
    a finding can cite, ``keep`` also makes its PieceRow and projects its
    auth event from the record's parts. ``load`` returns a list of one item
    per record. Returns the sha256 of the bytes, the number of records, and
    the logon records' PieceRows and auth events. The bytes are the
    canonical JSON of the record list: the pieces joined by commas inside
    brackets."""
    sha = hashlib.sha256()
    rows: list[PieceRow] = []
    auth_events: list[AuthEvent] = []
    batch: list[bytes] = []
    separator = b"["
    start = 1  # where the next piece starts, just past its separator
    flush_at = WRITE_BATCH_BYTES

    def emit() -> None:
        data = b"".join(batch)
        batch.clear()
        write(data)
        sha.update(data)

    def keep(record: EventRecord, time_text: str) -> None:
        nonlocal separator, start, flush_at
        data = encode_record(record, time_text).encode("utf-8")
        batch.append(separator)
        batch.append(data)
        separator = b","
        ref, event_id = record.record_ref, record.event_id
        if event_id in AUTH_EVENT_IDS:
            auth_events.append(auth_event(ref, event_id, record.fields, record.timestamp_utc))
            rows.append((ref, event_id, time_text, start, start + len(data)))
        start += len(data) + 1
        if start > flush_at:
            emit()
            flush_at = start + WRITE_BATCH_BYTES

    count = len(load(keep))
    batch.append(b"]\n" if separator == b"," else b"[]\n")
    emit()
    return sha.hexdigest(), count, rows, auth_events


def digest_rows(rows: Iterable[PieceRow], refs: Iterable[str], data) -> list[RecordRow]:
    """The RecordRows of the rows whose ref is in ``refs``: each gains the
    sha256 of its piece's bytes in ``data``, the bytes of records.json,
    before their offsets. No other piece is hashed."""
    cited = set(refs)
    return [(ref, event_id, ts, sha256_hex(data[start:end]), start, end) for ref, event_id, ts, start, end in rows if ref in cited]


def read_evidence(config: ReviewConfig, write) -> tuple[str, int, list[PieceRow], list[AuthEvent], int, list[BehaviorFinding]]:
    """The one pass over the config's evidence: encode_records over
    load_evidence, handing the bytes of records.json to ``write``, then
    normalize_auth_events and detect_bruteforce. Returns the bytes' sha256,
    the record count, the logon records' PieceRows, the auth events, the
    count normalisation skipped and the findings."""
    digest, count, rows, projected = encode_records(lambda keep: load_evidence(config.evidence_paths, keep), write)
    auth_events, skipped = normalize_auth_events(projected)
    return digest, count, rows, auth_events, skipped, detect_bruteforce(auth_events, config.detector)


def write_records(encode, path: Path):
    """Return ``encode(write)``, whose ``write`` writes ``path``.tmp: renamed
    to ``path`` once ``encode`` returns, and removed when it raises, so a
    failed encode writes nothing at ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as out:
            result = encode(out.write)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)
    return result


def read_records(path: Path, digest: str) -> tuple[list[str], list[AuthEvent]]:
    """Read a records.json that write_records wrote, after checking its bytes
    against ``digest``; returns every record's ref, in file order, and the
    logon records' auth events, as encode_records returned them, each
    projected from the parts of its record's decoded JSON form. This is the
    one reader of every record, behind ReviewState.records and
    ReviewState.auth_events."""
    if not path.is_file():
        raise RecordsFileError(f"records file not found: {path}")
    data = path.read_bytes()
    if sha256_hex(data) != digest:
        raise RecordsFileError(f"{path} does not match the checkpoint's records_digest")
    refs: list[str] = []
    auth_events: list[AuthEvent] = []
    try:
        for item in json.loads(data):
            ref, event_id = item["record_ref"], item["event_id"]
            refs.append(ref)
            if event_id in AUTH_EVENT_IDS:
                auth_events.append(auth_event(ref, event_id, item["fields"], parse_instant(item["timestamp_utc"])))
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise RecordsFileError(f"{path} is not a JSON array of records") from exc
    return refs, auth_events


def check_records_file(path: Path, digest: str, rows: Iterable[PieceRow]) -> list[RecordRow]:
    """The RecordRows of ``rows``, each with the sha256 of the bytes in its
    range, once ``path`` is found to be a file whose sha256 is ``digest``
    and the bytes in each row's range the piece of the record the row
    names: they decode to a record of the row's ref, event id and time.
    Raises RecordsFileError otherwise. The file is hashed in blocks and
    never held whole; of the pieces, only the rows' are read.

    A row's sha256 needs no stored copy: ``digest`` pins the file's bytes,
    and a range that decodes to a record holds exactly its piece, since a
    quote inside a JSON string is always escaped."""
    if not path.is_file():
        raise RecordsFileError(f"records file not found: {path}")
    sha = hashlib.sha256()
    checked: list[RecordRow] = []
    with path.open("rb") as stream:
        for block in iter(lambda: stream.read(1 << 16), b""):
            sha.update(block)
        if sha.hexdigest() != digest:
            raise RecordsFileError(f"{path} does not match the checkpoint's records_digest")
        for ref, event_id, ts, start, end in rows:
            piece = b""
            if 0 <= start <= end:
                stream.seek(start)
                piece = stream.read(end - start)
            try:
                item = json.loads(piece)
                named = item["record_ref"], item["event_id"], item["timestamp_utc"]
            except (ValueError, LookupError, TypeError):
                named = None
            if named != (ref, event_id, ts):
                raise RecordsFileError(f"{path}: bytes {start}-{end} are not the piece of cited record {ref}")
            checked.append((ref, event_id, ts, sha256_hex(piece), start, end))
    return checked


# --- checkpoint codec ---------------------------------------------------------
# A checkpoint writes as null what a load reads from elsewhere in the
# checkpoints (_write_once), and a load restores it (_read_back). It leaves
# out each transcript's stage, template id, prompt and grounding report,
# which a load re-derives from its position and the state (_rederived).


def _narrations(stage: str, state: ReviewState) -> list[Request]:
    """The request of each of ``stage``'s narrations, in the order the
    stage makes them, made from ``state``, a state after the stage, by the
    function its narration site calls."""
    if stage == "ProcessEvidence":
        return [finding_request(f) for f in state.findings]
    if stage == "MapAttack":
        return [mapping_request(m, state.findings[m.finding_ref]) for m in state.mappings]
    if stage == "ValidatePolicies":
        return [gap_request(gap) for gap in state.gaps]
    if stage == "GenerateReport":
        return [incident_request(state)] if state.findings else []
    return []


# the template of each narrating stage, which names its stage
_STAGE_TEMPLATES = {template.stage: template for template in TEMPLATES.values()}


def _evidence_union(evidences: Iterable[Iterable[str]]) -> list[str]:
    """The refs of ``evidences`` in first-seen order: a gap's evidence when
    every finding's mapping gave it (dedupe_gaps)."""
    return list(dict.fromkeys(ref for evidence in evidences for ref in evidence))


def _write_once(doc: dict, findings: Sequence[BehaviorFinding]) -> None:
    """Write as null, in a stage's checkpoint dict ``doc``, each mapping's
    evidence that is its finding's, of ``findings``, and each gap's
    evidence that is the union of theirs. Drop each transcript's stage,
    template id, prompt and grounding report, and the sha256 from each
    cited row."""
    for transcript in doc["transcripts"]:
        del transcript["stage"], transcript["template_id"], transcript["rendered_prompt"], transcript["grounding"]
    for mapping in doc.get("mappings", ()):
        if tuple(mapping["evidence"]) == findings[mapping["finding_ref"]].evidence:
            mapping["evidence"] = None
    if doc.get("gaps"):
        union = _evidence_union(f.evidence for f in findings)
        for gap in doc["gaps"]:
            if gap["evidence_events"] == union:
                gap["evidence_events"] = None
    if "cited_records" in doc:
        doc["cited_records"] = [row[:3] + row[4:] for row in doc["cited_records"]]


def _read_back(doc: dict, findings: list[dict]) -> None:
    """Restore in a stage's checkpoint dict ``doc`` what _write_once wrote
    as null: a mapping's evidence from its finding's, of the checkpoint
    dicts ``findings``, and a gap's evidence from the union of theirs."""
    for mapping in doc.get("mappings", ()):
        if mapping["evidence"] is None:
            mapping["evidence"] = findings[mapping["finding_ref"]]["evidence"]
    for gap in doc.get("gaps", ()):
        if gap["evidence_events"] is None:
            gap["evidence_events"] = _evidence_union(f["evidence"] for f in findings)


def _rederived(state: ReviewState, stored: dict[str, list[dict]]) -> tuple[Transcript, ...]:
    """The transcripts that each stage holds in ``stored``, as its
    checkpoint or a report's transcripts hold them, each completed by its
    stage, its stage's template and its narration's request at its position
    (_narrations) on ``state``: the prompt rendered and the response judged
    as narrate renders and judges them (verdict), which gives ``degraded``.
    A transcript with no narration at its position is a ValueError. A
    marker resolves against its narration's scope alone, so a scope that
    names a record or clause the state does not hold is an
    UnresolvedReferenceError, as it is when the report is built."""
    known_refs = {row[0] for row in state.cited_records}
    known_clauses = state.clause_ids()
    transcripts = []
    for stage, docs in stored.items():
        requests, template = _narrations(stage, state), _STAGE_TEMPLATES.get(stage)
        if len(docs) > len(requests):
            raise ValueError(f"{stage} holds {len(docs)} transcripts for {len(requests)} narrations")
        for t, (bindings, record_refs, clause_ids) in zip(docs, requests):
            unknown = sorted({*record_refs} - known_refs | {*clause_ids} - known_clauses)
            if unknown:
                raise UnresolvedReferenceError(f"{stage} narration scope names unknown references: {', '.join(unknown)}")
            grounding, fault = verdict(template, t["response"], record_refs, clause_ids)
            prompt = render(template, scoped(bindings, record_refs, clause_ids))
            transcripts.append(Transcript(
                stage=stage, template_id=template.template_id, rendered_prompt=prompt, grounding=grounding,
                **{**t, "degraded": fault is not None},
            ))
    return tuple(transcripts)


def save_checkpoint(
    state: ReviewState, output_dir: Path, stage: str, base: ReviewState | None = None,
    previous_digest: str | None = None,
) -> bytes:
    """Write <stage>.json: the fields ``stage`` owns, the items it appended to
    each shared list after ``base`` (the state it started from, None for an
    empty one), each fact that the other checkpoints hold written as null
    and each transcript without what a load re-derives (_write_once), and
    ``previous_digest``, the sha256 of the bytes of the
    previous stage's checkpoint (None for the first stage). Returns the
    bytes written."""
    if state.record_count and state.records_digest is None:
        raise RecordsFileError(f"{stage}: the state holds records but no records_digest")
    values = {k: getattr(state, k) for k in _STORED_KEYS[stage]}
    for name in SHARED_FIELDS:
        values[name] = getattr(state, name)[len(getattr(base, name)) if base else 0 :]
    d = encode_fields(ReviewState, values)
    _write_once(d, state.findings)
    d["previous_digest"] = previous_digest
    data = (canon_dumps(d) + "\n").encode("utf-8")
    (state_dir(output_dir) / f"{stage}.json").write_bytes(data)
    return data


def load_checkpoint(path: Path) -> ReviewState:
    """Load the state after the stage that ``path``'s own stage_log entry
    names, folding the checkpoints from ProcessEvidence's on, restoring
    what each wrote as null (_read_back) and re-deriving each transcript's
    stage, template, prompt and grounding (_rederived). The earlier ones
    must sit beside it, each matching the previous_digest after it, else
    MalformedCheckpointError names it; so must records.json, which must
    match the records_digest and hold the piece of each cited row in the
    row's byte range (RecordsFileError). Only the cited records are
    decoded, and each cited row gains its piece's sha256 from the file. A
    transcript that its narration does not give is a
    MalformedCheckpointError."""
    path = Path(path)
    try:
        docs = [json.loads(path.read_bytes())]
        for previous in reversed(STAGES[: STAGES.index(docs[0]["stage_log"][0]["stage"])]):
            previous_path = path.parent / f"{previous}.json"
            data = previous_path.read_bytes() if previous_path.is_file() else None
            if data is None or sha256_hex(data) != docs[-1]["previous_digest"]:
                raise MalformedCheckpointError(
                    f"{previous_path} is missing or does not match the previous_digest of the checkpoint after it"
                )
            docs.append(json.loads(data))
        d = ReviewState(run_id="", config_digest="").to_dict()
        transcripts = {}
        for stage, doc in zip(STAGES, reversed(docs)):
            _read_back(doc, d["findings"])
            transcripts[stage] = doc["transcripts"]
            d.update((k, doc[k]) for k in _STORED_KEYS[stage])
            d.update((k, d[k] + doc[k]) for k in SHARED_FIELDS if k != "transcripts")
        if [r["stage"] for r in d["stage_log"]] != list(STAGES[: len(docs)]):
            raise ValueError("the stage_log entries are not the stages in order")
        records_file = path.parent / RECORDS_FILE
        if d["records_digest"] or d["cited_records"]:
            d["cited_records"] = check_records_file(records_file, d["records_digest"], d["cited_records"])
        state = ReviewState.from_dict(d, records_file)
        rederived = _rederived(state, transcripts)
        for t, stored in zip(rederived, (t for docs in transcripts.values() for t in docs)):
            if t.degraded is not stored["degraded"]:
                raise ValueError(f"{t.stage} transcript {t.transcript_id} is stored with degraded {stored['degraded']}")
        return dataclasses.replace(state, transcripts=rederived)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedCheckpointError(f"{path}: {type(exc).__name__}: {exc}") from exc


def run_review(config: ReviewConfig, transport=None, checkpoints: bool = True) -> ReviewState:
    """Run the whole pipeline, checkpointing each stage if ``checkpoints``;
    GenerateReport writes the report files into the configured output
    directory. Nothing is written before the deps and the config pass their checks."""
    deps = build_deps(config, transport=transport)
    config.validate()
    state = ReviewState(run_id=f"run-{config.digest[:12]}", config_digest=config.digest)
    previous_digest = None
    for stage in STAGES:
        started = time.perf_counter()
        try:
            next_state, failure = run_stage(state, stage, deps), None
        except StageFailureError as exc:
            next_state, failure = exc.partial_state, exc
        elapsed_ms = (time.perf_counter() - started) * 1000
        data = save_checkpoint(next_state, config.output_dir, stage, state, previous_digest) if checkpoints else None
        previous_digest = sha256_hex(data) if checkpoints else None
        saved = f"checkpoint {len(data)} bytes, " if checkpoints else ""
        logger.info("%s %s: %s%.1f ms", stage, next_state.stage_log[-1].status, saved, elapsed_ms)
        if failure is not None:
            raise failure
        state = next_state
    return state


def write_report_files(state: ReviewState, output_dir: Path) -> tuple[Path, Path]:
    """Build the state's report from its record count and cited rows, which
    checks its citation closure, and render it in both formats. The report
    is dated report_generated_at; a state from before GenerateReport has
    none, so it is dated now."""
    report = reporting.build_report(state, generated_at=state.report_generated_at or utc_now())
    output_dir.mkdir(parents=True, exist_ok=True)
    json_path = output_dir / "report.json"
    md_path = output_dir / "report.md"
    json_path.write_text(reporting.render_json(report), encoding="utf-8")
    md_path.write_text(reporting.render_markdown(report), encoding="utf-8")
    return json_path, md_path


def verify_report(config: ReviewConfig, doc: dict) -> None:
    """Check a re-read report document against the report that build_report
    builds from the state of a review of the config's files, run with the
    gateway disabled, no checkpoint and a temporary output directory, and,
    unless the config disables the gateway, with the document's transcripts
    re-derived into it (_as_narrated; reporting.check_report). A stage that
    fails raises its cause; a document that lacks a section the check reads
    is a ReportMismatchError."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            state = run_review(dataclasses.replace(config, output_dir=Path(tmp), gateway_mode=MODE_DISABLED), checkpoints=False)
        except StageFailureError as exc:
            raise exc.cause
    try:
        transcripts = [] if config.gateway_mode == MODE_DISABLED else _as_narrated(state, doc["transcripts"], config)
        narrated = dataclasses.replace(state, transcripts=tuple(t for t in transcripts if t is not None))
        expected = json.loads(reporting.render_json(reporting.build_report(narrated, state.report_generated_at)))
        expected["transcripts"] = [t and {key: getattr(t, key) for key in reporting.TRANSCRIPT_KEYS} for t in transcripts]
        reporting.check_report(doc, expected)
    except (LookupError, TypeError, AttributeError) as exc:
        raise ReportMismatchError(f"malformed report: {type(exc).__name__}: {exc}") from exc


def _as_narrated(state: ReviewState, written: list[dict], config: ReviewConfig) -> list[Transcript | None]:
    """The transcripts of a review of ``state`` whose model gave the
    responses of ``written``, a report's transcripts: split by each
    stage's narration count, each is re-derived at its position
    (_rederived) under the id of its template, prompt and the config's
    generation parameters, and None stands for a missing one. In a replay
    or record config, a response that the config's cache holds for that id
    takes the place of the written one and is judged in its stead."""
    gateway = Gateway(config.gateway_mode, config.generation, config.cache_dir)
    transcripts: list[Transcript | None] = []
    for stage in STAGES:
        count, at = len(_narrations(stage, state)), len(transcripts)
        kept = [{key: t.get(key) for key in ("transcript_id", "response", "mode", "latency_ms")} for t in written[at : at + count]]
        for t, rederived in zip(kept, _rederived(state, {stage: kept})):
            t["transcript_id"] = transcript_id_for(rederived.template_id, rederived.rendered_prompt, config.generation)
            cached = gateway.recorded(t["transcript_id"]) if config.gateway_mode in (MODE_REPLAY, MODE_RECORD) else None
            if cached is not None:
                t["response"] = cached
        transcripts.extend(_rederived(state, {stage: kept}))
        transcripts.extend([None] * (count - len(kept)))
    return transcripts
