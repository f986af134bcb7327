import dataclasses
import json
import re
import shutil
from datetime import timedelta

import pytest

from pir.canon import canon_dumps, digest_of, sha256_hex, utc_now
from pir.config import ReviewConfig
from pir.errors import UnresolvedReferenceError
from pir.llm_gateway import GroundingReport, Transcript
from pir.orchestrator import run_review
from pir.reporting import (
    appendix_closure,
    build_report,
    build_trace_ledger,
    collect_citations,
    json_report_digest,
    render_json,
    render_markdown,
    verify_citation_closure,
)
from pir.scenario_gen import ScenarioSpec, generate

from conftest import FIXTURES, as_schema_2


@pytest.fixture(scope="module")
def replay_config(tmp_path_factory):
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    return ReviewConfig.from_dict(
        raw,
        FIXTURES,
        overrides={"output_dir": str(tmp_path_factory.mktemp("report-out"))},
    )


@pytest.fixture(scope="module")
def replay_state(replay_config):
    return run_review(replay_config)


@pytest.fixture
def state(replay_state):
    # frozen: a test that poisons a reference builds a changed state
    return replay_state


def replace_item(state, name, **changes):
    """``state`` with the first item of its field ``name`` changed."""
    first, *rest = getattr(state, name)
    return dataclasses.replace(state, **{name: (dataclasses.replace(first, **changes), *rest)})


# --- trace ledger -----------------------------------------------------------------


def test_ledger_covers_every_conclusion(state):
    ledger = build_trace_ledger(state)
    assert [(r["conclusion_id"], r["conclusion_kind"]) for r in ledger] == [
        ("finding-001", "finding"),
        ("gap-001", "gap"),
        ("gap-002", "gap"),
        ("mapping-001", "mapping"),
    ]

    finding_row = ledger[0]
    [finding] = state.findings
    assert finding_row["event_refs"] == [*finding.evidence, finding.success_record]
    assert finding_row["clause_refs"] == []
    assert finding_row["confidence"] is None

    gap_row = ledger[1]
    assert gap_row["confidence"] == state.gaps[0].confidence
    assert gap_row["clause_refs"] == list(state.gaps[0].evidence_clauses)
    assert gap_row["event_refs"] == list(state.gaps[0].evidence_events)


def test_fabricated_clause_ref_fails_the_ledger(state):
    clauses = (*state.gaps[0].evidence_clauses, "org_policy:99-99")
    state = replace_item(state, "gaps", evidence_clauses=clauses)
    with pytest.raises(UnresolvedReferenceError, match="org_policy:99-99"):
        build_report(state, generated_at=utc_now())


def test_fabricated_record_ref_fails_the_ledger(state):
    state = replace_item(state, "mappings", evidence=(*state.mappings[0].evidence, "ghost#1"))
    with pytest.raises(UnresolvedReferenceError, match="ghost#1"):
        build_report(state, generated_at=utc_now())


@pytest.mark.parametrize("side", ["org_value", "baseline_value"])
def test_fabricated_control_clause_ref_fails_the_report(state, side):
    control = dataclasses.replace(getattr(state.gaps[0], side), clause_ref="org_policy:99-99")
    state = replace_item(state, "gaps", **{side: control})
    with pytest.raises(UnresolvedReferenceError, match="org_policy:99-99"):
        build_report(state, generated_at=utc_now())


def test_conclusion_without_references_is_rejected(state):
    state = replace_item(state, "mappings", evidence=())
    with pytest.raises(UnresolvedReferenceError, match="no supporting references"):
        build_trace_ledger(state)


# --- narrative closure ---------------------------------------------------------------


def replace_transcript(state, index, response):
    """``state`` with the response of its transcript at ``index`` changed,
    its verdict left as it was."""
    transcripts = list(state.transcripts)
    transcripts[index] = dataclasses.replace(transcripts[index], response=response)
    return dataclasses.replace(state, transcripts=tuple(transcripts))


def test_fabricated_marker_in_summary_fails_the_report(state):
    # the incident summary is the response of GenerateReport's transcript
    summary = state.transcripts[-1]
    assert (summary.stage, summary.degraded) == ("GenerateReport", False)
    state = replace_transcript(state, -1, summary.response + " Also [EVT:ghost#42].")
    with pytest.raises(UnresolvedReferenceError, match="ghost#42"):
        build_report(state, generated_at=utc_now())


def test_fabricated_marker_in_gap_rationale_fails_the_report(state):
    # the first gap's rationale is the RATIONALE paragraph of the first
    # ValidatePolicies transcript
    index = [t.stage for t in state.transcripts].index("ValidatePolicies")
    rationale = build_report(state, generated_at=utc_now())["gaps_section"][0]["rationale"]
    response = state.transcripts[index].response
    assert rationale in response
    state = replace_transcript(state, index, response.replace(rationale, rationale + " See [POL:nowhere:1-1].", 1))
    with pytest.raises(UnresolvedReferenceError, match="nowhere:1-1"):
        build_report(state, generated_at=utc_now())


def test_degraded_transcripts_are_exempt_from_closure(state):
    # the rejected output keeps its fabricated citation as the audit record
    transcript = Transcript(
        transcript_id="t" * 64,
        stage="GenerateReport",
        template_id="incident_summary",
        rendered_prompt="prompt",
        response="Fabricated [EVT:ghost#1] [POL:fake:9-9].",
        mode="Replay",
        grounding=GroundingReport(
            markers_found=["[EVT:ghost#1]", "[POL:fake:9-9]"],
            resolved=[],
            unresolved=["[EVT:ghost#1]", "[POL:fake:9-9]"],
            passed=False,
        ),
        degraded=True,
    )
    state = dataclasses.replace(state, transcripts=(*state.transcripts, transcript))
    report = build_report(state, generated_at=utc_now())
    assert report["transcripts"][-1]["response"].startswith("Fabricated")


def test_degraded_review_report_passes_the_closure_check(tmp_path):
    # its degradation note quotes the rejected marker, an audit record
    raw = json.loads((FIXTURES / "review_config_bad_citation.json").read_text())
    config = ReviewConfig.from_dict(
        raw, FIXTURES, overrides={"output_dir": str(tmp_path)}
    )
    state = run_review(config)
    assert state.degradation_notes
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert verify_citation_closure(doc, state.record_refs(), state.clause_ids()) == []


# --- report document -------------------------------------------------------------------


def test_report_structure(state):
    report = build_report(state, generated_at=utc_now())
    assert report["run_id"] == state.run_id
    refs, clauses = collect_citations(report)
    # the appendix holds exactly the cited records, in record order
    appendix_refs = [row["record_ref"] for row in report["evidence_appendix"]]
    assert appendix_refs == [ref for ref in state.records if ref in refs]
    assert sorted(appendix_refs) == sorted(refs)
    assert len(appendix_refs) < len(state.records)
    assert all(len(row["digest"]) == 64 for row in report["evidence_appendix"])
    assert report["record_count"] == len(state.records)
    assert report["evidence_digest"] == state.records_digest
    # and the policy appendix exactly the cited clauses, in document order
    clause_by_id = {c.clause_id: c for d in state.policy_documents for c in d.clauses}
    assert [row["clause_id"] for row in report["policy_appendix"]] == [
        cid for cid in clause_by_id if cid in clauses
    ]
    assert sorted(row["clause_id"] for row in report["policy_appendix"]) == sorted(clauses)
    for row in report["policy_appendix"]:
        clause = clause_by_id[row["clause_id"]]
        assert (row["doc_id"], row["line_start"], row["line_end"]) == (
            clause.doc_id, clause.line_start, clause.line_end
        )
        assert row["digest"] == sha256_hex(clause.text)
    assert appendix_closure(report) == []
    assert report["schema_version"] == 3


def test_report_transcripts_keep_what_the_model_said(state):
    # the prompt and grounding report are re-derived by pir verify, so a
    # report leaves both out
    report = build_report(state, generated_at=utc_now())
    assert len(report["transcripts"]) == len(state.transcripts) > 0
    for written, transcript in zip(report["transcripts"], state.transcripts):
        assert list(written) == [
            "transcript_id", "stage", "template_id", "response", "mode", "degraded", "latency_ms"
        ]
        assert written == {key: getattr(transcript, key) for key in written}


@pytest.mark.parametrize("digests", ["one short", "one over"])
def test_report_refuses_digests_that_do_not_match_the_records(
    state, replay_config, digests
):
    # each cited row's digest is that of the record's piece of records.json
    records_path = replay_config.output_dir / "state" / "records.json"
    pieces = json.loads(records_path.read_text(encoding="utf-8"))
    report = build_report(state, generated_at=utc_now())
    piece_by_ref = {d["record_ref"]: d for d in pieces}
    appendix = report["evidence_appendix"]
    assert appendix
    assert [row["digest"] for row in appendix] == [
        digest_of(piece_by_ref[row["record_ref"]]) for row in appendix
    ]

    # and a cited record's row carries exactly one
    row = state.cited_records[-1]
    row = row[:-1] if digests == "one short" else (*row, "0" * 64)
    state = dataclasses.replace(state, cited_records=(*state.cited_records[:-1], row))
    with pytest.raises(ValueError, match="unpack"):
        build_report(state, generated_at=utc_now())


def test_render_json_is_deterministic_for_a_state(state):
    # the state carries its report's time (GenerateReport ran), so no fresh
    # clock is read
    assert state.report_generated_at is not None
    text = render_json(build_report(state, state.report_generated_at))
    assert text == render_json(build_report(state, state.report_generated_at))
    assert text.endswith("\n")


def test_report_digest_masks_the_clock(state):
    now = utc_now()
    a = build_report(state, generated_at=now)
    b = build_report(state, generated_at=now + timedelta(hours=3))
    assert a["generated_at"] != b["generated_at"]
    assert json_report_digest(render_json(a)) == json_report_digest(render_json(b))


# --- citation collection ----------------------------------------------------------------


def test_collect_citations_walks_structure_and_markers(state):
    doc = json.loads(render_json(build_report(state, state.report_generated_at)))
    refs, clauses = collect_citations(doc)
    [finding] = state.findings
    assert set(finding.evidence) <= set(refs)
    assert finding.success_record in refs
    assert set(state.gaps[0].evidence_clauses) <= set(clauses)
    # markers inside narrative strings are collected too
    assert any(r in doc["incident_summary"] for r in refs)


def test_verify_citation_closure_reports_missing():
    doc = {
        "evidence": ["src#1", "src#9"],
        "rationale": "see [POL:org:5-5] and [EVT:src#1]",
    }
    missing = verify_citation_closure(doc, {"src#1"}, {"org:5-5"})
    assert missing == ["src#9"]
    assert verify_citation_closure(doc, {"src#1", "src#9"}, {"org:5-5"}) == []


# --- markdown ---------------------------------------------------------------------------


def test_markdown_sections_in_fixed_order(state):
    md = render_markdown(build_report(state, state.report_generated_at))
    positions = [
        md.index("## Incident Summary"),
        md.index("## Technique Attribution"),
        md.index("## Policy Gap Findings"),
        md.index("## Trace Ledger"),
        md.index("## Evidence Appendix"),
        md.index("## Policy Appendix"),
        md.index("## Degradation Notes"),
    ]
    assert positions == sorted(positions)
    assert "T1110" in md
    assert "### finding-001:" in md
    assert "LockoutThreshold" in md and "PasswordMaxAgeDays" in md
    assert "None: no narrative fell back to deterministic text." in md


def test_markdown_no_gap_statement(fixture_config_raw, tmp_path):
    raw = json.loads((FIXTURES / "review_config_nogap.json").read_text())
    config = ReviewConfig.from_dict(
        raw, FIXTURES, overrides={"output_dir": str(tmp_path / "out")}
    )
    state = run_review(config)
    assert state.gaps == ()
    md = render_markdown(build_report(state, state.report_generated_at))
    assert "No policy gaps identified against baseline." in md


def test_markdown_lists_degradation_notes(fixture_config_raw, tmp_path):
    config = ReviewConfig.from_dict(
        fixture_config_raw,
        FIXTURES,
        overrides={
            "output_dir": str(tmp_path / "out"),
            "gateway_mode": "disabled",
        },
    )
    state = run_review(config)
    md = render_markdown(build_report(state, state.report_generated_at))
    section = md.split("## Degradation Notes")[1]
    assert "gateway disabled" in section
    assert "None: no narrative fell back to deterministic text." not in section


# --- pinned fixture outputs ---------------------------------------------------------------

# Digests of the committed fixtures' reports: report.json by
# json_report_digest, report.md by sha256 with its Generated line masked.
# The config digest (and so the run id) covers the config's own relative
# paths, so the review runs on a copy of the fixtures with no overrides.
# report.json re-taken when its transcripts came to keep only what the
# model said and how narration judged it (schema_version 3); report.md,
# which never rendered a transcript, did not move.
PINNED_REPORTS = {
    "review_config.json": (
        "ca42e3d221307a1bf640224b6d479e1fe9b83daa20dce3b55299848665058995",
        "3b42a716fa8409b10658f390612407b534155020dee13a195fefddd339b2f8ad",
    ),
    "review_config_nogap.json": (
        "cbac5cf73d464050feb82e8a3a9f38cfb1ec622cafa7fb6656d345f6f727ea5a",
        "eff6de1cd8ad9a2fbbe037a30c0fb442d095afdde9efa8bc63514246df59eb11",
    ),
}
# json_report_digest of each report.json that schema_version 2 wrote, taken
# when the appendices came to hold only the cited records and clauses: each
# report with every transcript's rendered_prompt and grounding put back from
# the final checkpoint, and schema_version 2, gives it, so nothing else moved.
PINNED_SCHEMA_2_REPORTS = {
    "review_config.json": "8ceaa7e82a6d9b4d39a7c61289b3239d9348c69318889b221c315c65f04848b5",
    "review_config_nogap.json": "a32d4fea84c885d8015e70ddffd2bb99b50d63adaad0fe6cb75063f6cb1fc168",
}
# The sections schema_version 2 changed. json_report_digest of each
# schema_version 2 report without them was taken at the commit before the
# change, so every other section is byte for byte what schema_version 1 wrote.
SCHEMA_2_KEYS = ("evidence_appendix", "policy_appendix", "evidence_digest", "record_count", "schema_version")
PINNED_SCHEMA_1_SECTIONS = {
    "review_config.json": "ccff72683216afb1e23faff5a06d6e7b1b9ba501d7161e023812a94e58912907",
    "review_config_nogap.json": "a3554f93fecc359fac0aa999932b07387e052a3c375e5df4f1e7278e3c561f59",
}
FIXTURE_RECORDS_DIGEST = "82c8465488d0683b57ad5231bb877d22b77c36bf862352fbc0ed70f54817c3b3"


@pytest.mark.parametrize("config_name", sorted(PINNED_REPORTS))
def test_fixture_reports_match_pinned_digests(config_name, tmp_path):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = ReviewConfig.from_file(tmp_path / "fixtures" / config_name)
    run_review(config)
    report_json = (config.output_dir / "report.json").read_text(encoding="utf-8")
    report_md = (config.output_dir / "report.md").read_text(encoding="utf-8")
    masked_md = re.sub(r"^- Generated: .*$", "- Generated: <masked>", report_md, flags=re.M)
    assert (json_report_digest(report_json), sha256_hex(masked_md)) == PINNED_REPORTS[
        config_name
    ]

    doc = as_schema_2(json.loads(report_json), config.output_dir / "state" / "GenerateReport.json")
    assert json_report_digest(canon_dumps(doc)) == PINNED_SCHEMA_2_REPORTS[config_name]
    changed = {key: doc.pop(key) for key in SCHEMA_2_KEYS}
    assert json_report_digest(canon_dumps(doc)) == PINNED_SCHEMA_1_SECTIONS[config_name]
    assert (changed["evidence_digest"], changed["record_count"], changed["schema_version"]) == (
        FIXTURE_RECORDS_DIGEST, 19, 2
    )


# --- report size ---------------------------------------------------------------------------


def test_report_size_follows_the_citations_not_the_records(fixture_config_raw, tmp_path):
    # bytes only, never seconds: one seed and burst under 1,000 and 4,000
    # noise records give report.json files whose sizes differ by no more
    # than the digits of record_count
    reports = []
    for noise in (1_000, 4_000):
        base = tmp_path / str(noise)
        shutil.copytree(FIXTURES / "policies", base / "policies")
        (base / "evidence").mkdir()
        spec = ScenarioSpec(seed=3, noise_events=noise, noise_accounts=("alice", "bob", "carol", "dave"))
        xml, _truth = generate(spec, source_name="bulk")
        (base / "evidence" / "bulk.xml").write_text(xml, encoding="utf-8")
        raw = {
            **fixture_config_raw,
            "evidence_paths": ["evidence/bulk.xml"],
            "output_dir": "out",
            "gateway_mode": "disabled",
        }
        run_review(ReviewConfig.from_dict(raw, base))
        report = (base / "out" / "report.json").read_bytes()
        reports.append((len(report), json.loads(report)))
    (small, small_doc), (large, large_doc) = reports
    # the default burst adds six failures and a success
    assert (small_doc["record_count"], large_doc["record_count"]) == (1_007, 4_007)
    assert small_doc["evidence_appendix"] == large_doc["evidence_appendix"]
    digits = len(str(large_doc["record_count"])) - len(str(small_doc["record_count"]))
    assert 0 <= large - small <= digits

