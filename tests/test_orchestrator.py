import copy
import csv
import dataclasses
import functools
import io
import json
import logging
import operator
import os
import re
import shutil
import sys
import tempfile
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pir import canon, gap_analysis, log_ingest, orchestrator, policy_index, reporting
from pir.attack_catalog import rule_rationale
from pir.canon import format_instant, sha256_hex
from pir.config import ReviewConfig
from pir.errors import (
    DuplicateRecordRefError,
    ProviderError,
    RecordsFileError,
    StageFailureError,
    StageOrderViolationError,
    XmlSyntaxError,
)
from pir.detection import fallback_summary
from pir.gap_analysis import deterministic_rationale, select_effective
from pir.log_ingest import (
    AUTH_EVENT_IDS,
    CSV_FIXED_COLUMNS,
    EventRecord,
    flatten_to_csv,
    load_evidence,
    parse_event_xml,
)
from pir.orchestrator import (
    OWNED_FIELDS,
    RECORDS_FILE,
    SHARED_FIELDS,
    STAGES,
    WRITE_BATCH_BYTES,
    ReviewState,
    build_deps,
    check_stage_order,
    digest_rows,
    encode_records,
    load_checkpoint,
    read_records,
    run_review,
    run_stage,
    save_checkpoint,
    state_digest,
    write_records,
    write_report_files,
)
from pir.scenario_gen import ScenarioSpec, generate

from conftest import FIXTURES, event_xml, make_record, project

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import workloads  # noqa: E402
from cross_python_review import masked_checkpoint_digest  # noqa: E402


def fresh_state(config):
    return ReviewState(run_id=f"run-{config.digest[:12]}", config_digest=config.digest)


def volatile_free(state):
    d = state.to_dict()
    d.pop("stage_log")
    d["transcripts"] = [dict(t, latency_ms=0) for t in d["transcripts"]]
    return d


def assert_extends(old, new):
    """Append-only contract: lists grow by suffix, scalars set at most once."""
    for key, before in old.items():
        after = new[key]
        if isinstance(before, list):
            assert after[: len(before)] == before, f"{key} rewrote existing items"
        elif before not in (None, 0):
            assert after == before, f"{key} changed after being set"


# --- full pipeline -----------------------------------------------------------------


def test_replay_pipeline_populates_every_stage(demo_config):
    state = run_review(demo_config)
    assert [r.stage for r in state.stage_log] == list(STAGES)
    assert [r.status for r in state.stage_log] == ["ok"] * 5
    assert state.run_id == f"run-{demo_config.digest[:12]}"
    assert len(state.findings) == 1
    assert state.mappings[0].technique_id == "T1110"
    assert [g.control for g in state.gaps] == [
        "LockoutThreshold",
        "PasswordMaxAgeDays",
    ]
    out = demo_config.output_dir
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["incident_summary"]
    assert report["generated_at"] == format_instant(state.report_generated_at)

    for stage in STAGES:
        assert (out / "state" / f"{stage}.json").is_file()
    assert (out / "report.json").is_file()
    assert (out / "report.md").is_file()


def test_replay_runs_are_reproducible(fixture_config_raw, tmp_path):
    digests = []
    for _ in range(2):
        config = ReviewConfig.from_dict(
            fixture_config_raw,
            FIXTURES,
            overrides={"output_dir": str(tmp_path / "out")},
        )
        digests.append(state_digest(run_review(config)))
    assert digests[0] == digests[1]


def test_stages_only_append_to_state(demo_config):
    deps = build_deps(demo_config)
    state = fresh_state(demo_config)
    for stage in STAGES:
        next_state = run_stage(state, stage, deps)
        assert_extends(volatile_free(state), volatile_free(next_state))
        assert len(next_state.stage_log) == len(state.stage_log) + 1
        state = next_state


def test_every_state_field_has_one_owner_or_is_shared():
    owned = [name for names in OWNED_FIELDS.values() for name in names]
    assert list(OWNED_FIELDS) == list(STAGES)
    assert sorted([*owned, *SHARED_FIELDS]) == sorted(
        f.name for f in dataclasses.fields(ReviewState)
    )


@pytest.mark.parametrize(
    "change",
    [
        "append to findings",
        "reassign findings",
        "set records_digest",
        "replace an earlier transcript",
        "drop an earlier note",
        "rename the account of a finding",
    ],
)
def test_a_stage_that_changes_what_it_does_not_own_fails(demo_config, monkeypatch, change):
    deps = build_deps(demo_config)
    state = run_stage(fresh_state(demo_config), "ProcessEvidence", deps)
    state = dataclasses.replace(state, notes=(*state.notes, "an earlier note"))
    map_attack = orchestrator._STAGE_FUNCS["MapAttack"]

    def overreaching(state, deps, out):
        if change == "rename the account of a finding":
            state.findings[0].account = "mallory"
        result = map_attack(state, deps, out)
        if change == "append to findings":
            state.findings.append(state.findings[0])
        elif change == "reassign findings":
            state.findings = list(state.findings)
        elif change == "set records_digest":
            state.records_digest = "0" * 64
        elif change == "replace an earlier transcript":
            state.transcripts[0] = dataclasses.replace(state.transcripts[0])
        elif change == "drop an earlier note":
            state.notes.pop(0)
        return result

    monkeypatch.setitem(orchestrator._STAGE_FUNCS, "MapAttack", overreaching)
    # the state and its items are frozen: the change itself raises, and a
    # review stops there
    with pytest.raises((AttributeError, TypeError)):
        run_stage(state, "MapAttack", deps)
    with pytest.raises((AttributeError, TypeError)):
        run_review(demo_config)
    out = demo_config.output_dir
    assert not (out / "report.json").exists()
    assert not (out / "state" / "MapAttack.json").exists()
    loaded = load_checkpoint(out / "state" / "ProcessEvidence.json")
    assert [f.account for f in loaded.findings] == ["administrator"]


def test_a_stage_that_sets_a_field_it_does_not_own_fails(demo_config, monkeypatch):
    deps = build_deps(demo_config)
    state = run_stage(fresh_state(demo_config), "ProcessEvidence", deps)
    map_attack = orchestrator._STAGE_FUNCS["MapAttack"]

    def overreaching(state, deps, out):
        out["findings"] = [*state.findings, state.findings[0]]
        return map_attack(state, deps, out)

    monkeypatch.setitem(orchestrator._STAGE_FUNCS, "MapAttack", overreaching)
    with pytest.raises(StageFailureError) as err:
        run_stage(state, "MapAttack", deps)
    assert isinstance(err.value.cause, ValueError)
    assert "MapAttack set findings, which it does not own" in str(err.value)
    partial = err.value.partial_state
    assert partial.stage_log[-1].status == "failed"
    assert partial.findings == state.findings
    assert len(partial.mappings) == 1


def test_review_logs_one_line_per_stage(demo_config, caplog):
    with caplog.at_level(logging.INFO, logger="pir.orchestrator"):
        run_review(demo_config)
    lines = [r.getMessage() for r in caplog.records if r.name == "pir.orchestrator"]
    assert len(lines) == len(STAGES)
    for stage, line in zip(STAGES, lines):
        match = re.fullmatch(rf"{stage} ok: checkpoint (\d+) bytes, \d+\.\d ms", line)
        assert match, line
        checkpoint = demo_config.output_dir / "state" / f"{stage}.json"
        assert int(match.group(1)) == checkpoint.stat().st_size


def test_review_reads_back_no_checkpoint(demo_config, monkeypatch):
    # each previous_digest is the sha256 of the bytes just written
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    run_review(demo_config)
    assert [name for name in reads if name.removesuffix(".json") in STAGES] == []
    monkeypatch.undo()
    assert state_digest(load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json"))


def many_incidents_config(tmp_path, monkeypatch, hosts):
    """The record-mode config of a seed-1 many-incidents set-up of ``hosts``
    hosts in ``tmp_path``, as test_traced_runs_give_metrics_without_errors
    builds it."""
    monkeypatch.setattr(workloads, "HOSTS", hosts)
    for name in ("HOST_FAILURES", "HOST_SPACING_S", "HOST_SUCCESS"):
        monkeypatch.setattr(workloads, name, getattr(workloads, name)[:hosts])
    manifest = workloads.set_up("many-incidents", 1, tmp_path)
    return workloads.review_config(tmp_path, manifest["evidence"], "record")


def test_checkpoints_hold_each_fact_once(tmp_path, monkeypatch):
    # a many-incidents review of 20 hosts in record mode; gated on bytes,
    # never on seconds
    hosts = 20
    config = many_incidents_config(tmp_path, monkeypatch, hosts)
    state = run_review(config, transport=workloads.scripted_transport)
    assert len(state.findings) >= hosts
    state_dir = config.output_dir / "state"
    total = sum((state_dir / f"{stage}.json").stat().st_size for stage in STAGES)
    assert total <= 1.05 * len(canon.canon_dumps(state.to_dict()))


def test_placeholder_text_in_evidence_is_narrated_as_text(tmp_path):
    # an account name shaped like a prompt placeholder is evidence, not a
    # binding the template lacks
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name in workloads.POLICIES.values():
        shutil.copyfile(FIXTURES / "policies" / name, inputs / name)
    xml, _truth = generate(ScenarioSpec(target_account="{{evil}}"), source_name="host")
    (inputs / "host.xml").write_text(xml, encoding="utf-8")
    config = workloads.review_config(tmp_path, ["inputs/host.xml"], "record")
    state = run_review(config, transport=workloads.scripted_transport)
    assert [f.account for f in state.findings] == ["{{evil}}"]
    assert state.degradation_notes == ()
    assert "Account: {{evil}}\n" in state.transcripts[0].rendered_prompt


# --- ordering ------------------------------------------------------------------------


def test_stages_must_run_in_declared_order(demo_config):
    deps = build_deps(demo_config)
    state = fresh_state(demo_config)
    for stage in STAGES[1:]:
        with pytest.raises(StageOrderViolationError):
            run_stage(state, stage, deps)
    state = run_stage(state, "ProcessEvidence", deps)
    with pytest.raises(StageOrderViolationError):
        run_stage(state, "ProcessEvidence", deps)  # no repeats
    with pytest.raises(StageOrderViolationError):
        run_stage(state, "RetrievePolicies", deps)  # no skipping


def test_unknown_stage_rejected():
    with pytest.raises(StageOrderViolationError, match="unknown stage"):
        check_stage_order([], "Detect")


def test_failed_stage_blocks_successors(fixture_config_raw, tmp_path):
    bad = tmp_path / "broken.xml"
    bad.write_text("<Events><Event>...", encoding="utf-8")
    raw = dict(fixture_config_raw, evidence_paths=[str(bad)])
    config = ReviewConfig.from_dict(
        raw, FIXTURES, overrides={"output_dir": str(tmp_path / "out")}
    )
    deps = build_deps(config)
    with pytest.raises(StageFailureError) as err:
        run_stage(fresh_state(config), "ProcessEvidence", deps)
    partial = err.value.partial_state
    assert err.value.stage == "ProcessEvidence"
    assert partial.stage_log[-1].status == "failed"
    with pytest.raises(StageOrderViolationError, match="previously failed"):
        check_stage_order(partial.stage_log, "MapAttack")


def test_failed_run_still_checkpoints(fixture_config_raw, tmp_path):
    bad = tmp_path / "broken.xml"
    bad.write_text("<Events><Event><System></Events>", encoding="utf-8")
    raw = dict(fixture_config_raw, evidence_paths=[str(bad)])
    config = ReviewConfig.from_dict(
        raw, FIXTURES, overrides={"output_dir": str(tmp_path / "out")}
    )
    with pytest.raises(StageFailureError):
        run_review(config)
    checkpoint = tmp_path / "out" / "state" / "ProcessEvidence.json"
    assert checkpoint.is_file()
    saved = json.loads(checkpoint.read_text())
    assert saved["stage_log"][-1]["status"] == "failed"
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("fault", ["syntax error in the last event", "duplicate ref"])
def test_a_failed_stream_leaves_no_records_file(fixture_config_raw, tmp_path, fault):
    xml, _truth = generate(ScenarioSpec(noise_events=20, noise_accounts=("jdoe",)), "host")
    good = tmp_path / "host.xml"
    good.write_text(xml, encoding="utf-8")
    if fault == "duplicate ref":
        # the second file repeats the first file's last record
        bad = tmp_path / "again.csv"
        last = parse_event_xml(xml, source="host")[-1:]
        bad.write_text(flatten_to_csv(last), encoding="utf-8", newline="")
        cause = DuplicateRecordRefError
    else:
        bad = tmp_path / "broken.xml"
        head, _, tail = xml.rpartition("</System>")
        bad.write_text(head + "</Sytsem>" + tail, encoding="utf-8")
        cause = XmlSyntaxError
    raw = dict(fixture_config_raw, evidence_paths=[str(good), str(bad)])
    config = ReviewConfig.from_dict(
        raw, FIXTURES, overrides={"output_dir": str(tmp_path / "out")}
    )
    with pytest.raises(StageFailureError) as err:
        run_review(config)
    assert isinstance(err.value.__cause__, cause)
    state_files = tmp_path / "out" / "state"
    assert os.listdir(state_files) == ["ProcessEvidence.json"]
    saved = json.loads((state_files / "ProcessEvidence.json").read_text())
    assert saved["stage_log"][-1]["status"] == "failed"
    assert saved["records_digest"] is None


def test_process_evidence_memory_grows_by_under_800_bytes_per_record(
    tmp_path, monkeypatch
):
    # bulk-replay evidence at two sizes; gated on bytes, never on seconds
    peaks = []
    for noise in (2_000, 8_000):
        monkeypatch.setattr(workloads, "BULK_NOISE_EVENTS", noise)
        manifest = workloads.set_up("bulk-replay", 1, tmp_path / str(noise))
        config = workloads.review_config(
            tmp_path / str(noise), manifest["evidence"], "replay"
        )
        deps = build_deps(config)
        tracemalloc.start()
        try:
            run_stage(fresh_state(config), "ProcessEvidence", deps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 6_000 <= 800


# --- zero findings ---------------------------------------------------------------------


@pytest.fixture
def quiet_config(fixture_config_raw, tmp_path):
    spec = ScenarioSpec(
        seed=11,
        failure_count=0,
        include_success=False,
        noise_events=30,
        noise_accounts=("jdoe", "svc-backup"),
    )
    records, _truth = generate(spec, source_name="quiet")
    (tmp_path / "quiet.xml").write_text(records, encoding="utf-8")
    raw = dict(fixture_config_raw, evidence_paths=[str(tmp_path / "quiet.xml")])
    return ReviewConfig.from_dict(
        raw,
        FIXTURES,
        overrides={
            "output_dir": str(tmp_path / "out"),
            "gateway_mode": "disabled",
        },
    )


def test_zero_findings_skip_validation(quiet_config):
    state = run_review(quiet_config)
    statuses = {r.stage: r.status for r in state.stage_log}
    assert statuses["ValidatePolicies"] == "skipped"
    assert state.findings == ()
    assert state.gaps == ()
    assert state.transcripts == ()
    report = json.loads((quiet_config.output_dir / "report.json").read_text(encoding="utf-8"))
    assert report["generated_at"] == format_instant(state.report_generated_at)


# --- disabled gateway --------------------------------------------------------------------


def test_disabled_gateway_degrades_every_narrative(fixture_config_raw, tmp_path):
    config = ReviewConfig.from_dict(
        fixture_config_raw,
        FIXTURES,
        overrides={
            "output_dir": str(tmp_path / "out"),
            "gateway_mode": "disabled",
        },
    )
    state = run_review(config)
    assert state.transcripts == ()
    # finding summary, mapping justification, two gaps, incident summary
    assert len(state.degradation_notes) == 5
    assert len(state.gaps) == 2
    report = reporting.build_report(state, state.report_generated_at)
    assert report["degradation_notes"] == list(state.degradation_notes)


# --- effective controls ------------------------------------------------------------------


def test_each_policy_conflict_is_logged_and_noted_once(
    fixture_config_raw, tmp_path, caplog, monkeypatch
):
    evidence = []
    for name, account in (("host_a", "administrator"), ("host_b", "jdoe")):
        xml, _truth = generate(ScenarioSpec(target_account=account), source_name=name)
        (tmp_path / f"{name}.xml").write_text(xml, encoding="utf-8")
        evidence.append(str(tmp_path / f"{name}.xml"))
    org = tmp_path / "org_policy.md"
    org.write_text(
        (FIXTURES / "policies" / "org_policy.md").read_text(encoding="utf-8")
        + "\nPrivileged accounts are locked after 3 failed logon attempts.\n",
        encoding="utf-8",
    )
    raw = dict(fixture_config_raw, evidence_paths=evidence, org_policy_paths=[str(org)])
    config = ReviewConfig.from_dict(
        raw,
        FIXTURES,
        overrides={"output_dir": str(tmp_path / "out"), "gateway_mode": "disabled"},
    )
    calls = []

    def counted_select_effective(params, rules):
        calls.append(params)
        return select_effective(params, rules)

    # count calls made through either module's name for it
    for module in (orchestrator, gap_analysis):
        monkeypatch.setattr(module, "select_effective", counted_select_effective)
    with caplog.at_level(logging.WARNING):
        state = run_review(config)
    assert len(state.mappings) == 2
    assert len(calls) == 2  # once per side, not once per mapping
    conflicts = [n for n in state.notes if n.startswith("conflicting values")]
    assert len(conflicts) == 1
    assert "LockoutThreshold" in conflicts[0]
    logged = [r.getMessage() for r in caplog.records]
    assert [m for m in logged if m.startswith("conflicting values")] == conflicts


# --- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(demo_config):
    state = run_review(demo_config)
    loaded = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    assert state_digest(loaded) == state_digest(state)
    # checkpoints hold canonical JSON (floats normalized), so compare there
    from pir.canon import canon_dumps

    assert canon_dumps(loaded.to_dict()) == canon_dumps(state.to_dict())


def test_checkpoint_rederives_auth_events_and_report(fixture_config_raw, tmp_path):
    # an extra 4625 without TargetUserName is skipped, and a note counts it;
    # a second one has a seven-digit fraction and a numeric offset
    extra = tmp_path / "nameless.xml"
    extra.write_text(
        event_xml(
            [
                {"event_id": 4625, "time": "2026-06-01T12:00:00Z"},
                {
                    "event_id": 4625,
                    "time": "2026-06-01T14:00:00.1234567+02:00",
                    "fields": {"TargetUserName": "fraction"},
                },
            ]
        ),
        encoding="utf-8",
    )
    raw = dict(
        fixture_config_raw,
        evidence_paths=[*fixture_config_raw["evidence_paths"], str(extra)],
    )
    config = ReviewConfig.from_dict(
        raw,
        FIXTURES,
        overrides={"output_dir": str(tmp_path / "out"), "gateway_mode": "disabled"},
    )
    state = run_review(config)
    skipped = "1 auth record(s) skipped during normalization (missing TargetUserName)"
    assert skipped in state.notes

    path = config.output_dir / "state" / "GenerateReport.json"
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert "auth_events" not in saved
    assert "skipped_auth_records" not in saved
    assert "report" not in saved
    assert saved["report_generated_at"] == format_instant(state.report_generated_at)

    loaded = load_checkpoint(path)
    assert loaded.auth_events == state.auth_events
    [event] = [e for e in loaded.auth_events if e.record_ref == "nameless#2"]
    assert format_instant(event.timestamp_utc) == "2026-06-01T12:00:00.123456Z"
    assert skipped in loaded.notes
    assert reporting.build_report(loaded, loaded.report_generated_at) == reporting.build_report(
        state, state.report_generated_at
    )


def test_earlier_checkpoint_renders_a_freshly_built_report(demo_config, tmp_path):
    state = run_review(demo_config)
    loaded = load_checkpoint(demo_config.output_dir / "state" / "ValidatePolicies.json")
    assert loaded.report_generated_at is None
    assert loaded.auth_events == state.auth_events

    json_path, md_path = write_report_files(loaded, tmp_path / "early")
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["incident_summary"] == ""
    review_doc = json.loads((demo_config.output_dir / "report.json").read_text(encoding="utf-8"))
    assert doc["trace_ledger"] == review_doc["trace_ledger"]
    assert "## Trace Ledger" in md_path.read_text(encoding="utf-8")


def test_written_report_is_the_checked_report(demo_config, tmp_path):
    state = run_review(demo_config)
    json_path = demo_config.output_dir / "report.json"
    written = json_path.read_bytes()
    assert json.loads(written) == reporting.build_report(state, state.report_generated_at)

    # the state and its items are frozen, so no change after GenerateReport
    # can reach the report
    edits = [
        lambda: setattr(state.findings[0], "account", "mallory"),
        lambda: state.findings[0].evidence.append("ghost#1"),
        lambda: state.mappings[0].evidence.append("ghost#1"),
        lambda: state.gaps[0].evidence_events.append("ghost#1"),
        lambda: state.transcripts[0].grounding.resolved.append("ghost#1"),
    ]
    for edit in edits:
        with pytest.raises((AttributeError, TypeError)):
            edit()
    write_report_files(state, demo_config.output_dir)
    assert json_path.read_bytes() == written


def test_review_builds_report_and_index_once(demo_config, monkeypatch):
    calls = {"build_report": 0, "build_index": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        reporting, "build_report", counted("build_report", reporting.build_report)
    )
    index_counter = counted("build_index", policy_index.build_index)
    monkeypatch.setattr(policy_index, "build_index", index_counter)
    monkeypatch.setattr(orchestrator, "build_index", index_counter)

    run_review(demo_config)
    assert calls == {"build_report": 1, "build_index": 1}
    # loading builds no report; rendering builds one
    loaded = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    assert calls == {"build_report": 1, "build_index": 1}
    write_report_files(loaded, demo_config.output_dir)
    assert calls == {"build_report": 2, "build_index": 1}


def test_final_states_hold_no_mutable_value(demo_config):
    state = run_review(demo_config)
    loaded = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    assert isinstance(hash(state), int)
    assert isinstance(hash(loaded), int)


def test_stage_log_times_keep_their_microseconds(demo_config):
    state = run_review(demo_config)
    times = [t for r in state.stage_log for t in (r.started, r.finished)]
    # five stages' ten clock reads all falling on whole seconds is a 1e-60 chance
    assert any(t.microsecond for t in times)
    loaded = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    assert [t for r in loaded.stage_log for t in (r.started, r.finished)] == times
    assert state.report_generated_at.microsecond == 0


def rows_of(pieces: list[dict]) -> list[tuple]:
    """The rows of the records whose JSON forms are ``pieces``, written to
    records.json in order: ref, event id, time text, and the sha256 and the
    byte range of the record's piece, the pieces joined by commas after "[".
    """
    rows, start = [], 1
    for d in pieces:
        data = canon.canon_dumps(d).encode("utf-8")
        rows.append((d["record_ref"], d["event_id"], d["timestamp_utc"], sha256_hex(data), start, start + len(data)))
        start += len(data) + 1
    return rows


def logon_rows(rows: list[tuple]) -> list[tuple]:
    """The rows of logon records, the only ones encode_records keeps a row
    for."""
    return [row for row in rows if row[1] in AUTH_EVENT_IDS]


def test_records_are_stored_once_in_records_json(demo_config):
    state = run_review(demo_config)
    state_dir = demo_config.output_dir / "state"
    texts = {p.name: p.read_text(encoding="utf-8") for p in state_dir.iterdir()}
    assert sorted(texts) == sorted(
        [*(f"{stage}.json" for stage in STAGES), "records.json"]
    )
    records_text = texts.pop("records.json")
    digest = sha256_hex(records_text.encode("utf-8"))
    # the file holds each record once, and the state one ref per record
    assert [d["record_ref"] for d in json.loads(records_text)] == list(state.records)

    # checkpoints name the records file by digest and cite refs, never records
    cited = {ref for f in state.findings for ref in f.evidence}
    cited.update(f.success_record for f in state.findings if f.success_record)
    assert state.record_refs() - cited  # some records are cited nowhere
    assert json.loads(texts["ProcessEvidence.json"])["records_digest"] == digest
    for stage in STAGES:
        saved = json.loads(texts[f"{stage}.json"])
        assert "records" not in saved
        assert load_checkpoint(state_dir / f"{stage}.json").records_digest == digest
    for name, text in texts.items():
        assert set(re.findall(r"[\w.-]+#\d+", text)) <= cited, name


RECORD_KEYS = {f.name for f in dataclasses.fields(EventRecord)}


def count_record_encodings(monkeypatch) -> dict[str, int]:
    """Count encode_record calls through any pir module's name for it,
    EventRecord.to_dict calls, and digest_of calls on a record's dict
    through any pir module's name for digest_of."""
    counts = {"encode_record": 0, "to_dict": 0, "digest_of": 0}
    encode, to_dict, digest = log_ingest.encode_record, EventRecord.to_dict, canon.digest_of

    def counted_encode(record, time_text=None):
        counts["encode_record"] += 1
        return encode(record, time_text)

    def counted_to_dict(self):
        counts["to_dict"] += 1
        return to_dict(self)

    def counted_digest(obj):
        if isinstance(obj, dict) and set(obj) == RECORD_KEYS:
            counts["digest_of"] += 1
        return digest(obj)

    monkeypatch.setattr(EventRecord, "to_dict", counted_to_dict)
    for name, module in list(sys.modules.items()):
        if not name.startswith("pir."):
            continue
        if getattr(module, "encode_record", None) is encode:
            monkeypatch.setattr(module, "encode_record", counted_encode)
        if getattr(module, "digest_of", None) is digest:
            monkeypatch.setattr(module, "digest_of", counted_digest)
    return counts


def test_review_encodes_each_record_once(demo_config, monkeypatch):
    counts = count_record_encodings(monkeypatch)
    state = run_review(demo_config)
    assert state.records
    assert counts == {"encode_record": len(state.records), "to_dict": 0, "digest_of": 0}
    records_path = demo_config.output_dir / "state" / RECORDS_FILE
    text = records_path.read_text(encoding="utf-8")
    assert text == canon.canon_dumps(json.loads(text)) + "\n"


def test_rerender_encodes_no_record(demo_config, monkeypatch, tmp_path):
    run_review(demo_config)
    counts = count_record_encodings(monkeypatch)
    state = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    write_report_files(state, tmp_path / "rendered")
    assert state.records
    assert counts == {"encode_record": 0, "to_dict": 0, "digest_of": 0}


def test_rerender_rebuilds_no_record(demo_config, monkeypatch, tmp_path):
    run_review(demo_config)
    rebuilt = []
    from_dict = EventRecord.from_dict.__func__

    def counted_from_dict(cls, d):
        rebuilt.append(d["record_ref"])
        return from_dict(cls, d)

    monkeypatch.setattr(EventRecord, "from_dict", classmethod(counted_from_dict))
    state = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    write_report_files(state, tmp_path / "rendered")
    assert state.auth_events
    assert rebuilt == []


def count_records_reads(monkeypatch) -> list[Path]:
    """Record the path of each read_records call, made through the
    orchestrator's name for it."""
    reads = []
    read = orchestrator.read_records

    def counted(path, digest):
        reads.append(path)
        return read(path, digest)

    monkeypatch.setattr(orchestrator, "read_records", counted)
    return reads


def test_rerender_reads_no_record(demo_config, monkeypatch, tmp_path):
    run_review(demo_config)
    reads = count_records_reads(monkeypatch)
    state = load_checkpoint(demo_config.output_dir / "state" / "GenerateReport.json")
    json_path, md_path = write_report_files(state, tmp_path / "rendered")
    assert reads == []
    for path in (json_path, md_path):
        assert path.read_bytes() == (demo_config.output_dir / path.name).read_bytes()


def test_records_are_read_on_demand_once_per_state(demo_config, monkeypatch, tmp_path):
    review = run_review(demo_config)
    state_files = demo_config.output_dir / "state"
    loaded = load_checkpoint(state_files / "GenerateReport.json")
    records_path = state_files / RECORDS_FILE
    data = records_path.read_bytes()
    reads = count_records_reads(monkeypatch)

    # the record count is the state's own: with no records.json to read,
    # both states still answer it
    records_path.unlink()
    for state in (review, loaded):
        assert len(state.records) == state.record_count == 19
        assert state.records
    assert reads == []

    # the refs and auth events come from one read per state
    records_path.write_bytes(data)
    refs = [d["record_ref"] for d in json.loads(data)]
    for state in (review, loaded):
        assert list(state.records) == refs
        assert state.record_refs() == set(refs)
        assert state.auth_events
        assert not any("skipped during normalization" in note for note in state.notes)
    assert reads == [records_path, records_path]

    # where records.json lies is no part of a state's equality or hash
    shutil.copytree(state_files, tmp_path / "state")
    moved = load_checkpoint(tmp_path / "state" / "GenerateReport.json")
    assert moved.records_file != loaded.records_file
    assert moved == loaded
    assert hash(moved) == hash(loaded)
    # a checkpoint stores what the review held, so its load is that state
    assert review == loaded


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_RECORDS = st.lists(
    st.builds(
        EventRecord,
        record_ref=_TEXT,
        event_id=st.sampled_from(sorted(AUTH_EVENT_IDS)) | st.integers(0, 2**31),
        timestamp_utc=st.datetimes(
            min_value=datetime(1970, 1, 1), timezones=st.just(timezone.utc)
        ),
        channel=_TEXT,
        provider=_TEXT,
        fields=st.dictionaries(_TEXT, _TEXT, max_size=4),
    ),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(records=_RECORDS)
@example(records=[])
@example(
    records=[
        EventRecord(
            record_ref="hôte#1",
            event_id=4625,
            timestamp_utc=datetime(2026, 6, 1, tzinfo=timezone.utc),
            channel="Sécurité",
            provider="Überwachung",
            fields={"TargetUserName": "管理者", "Note": 'naïve "quote" \\ \n'},
        )
    ]
)
@example(
    records=[
        EventRecord(
            record_ref="ctl\x00\x01\x1f\x7f#2",
            event_id=4624,
            timestamp_utc=datetime(2026, 6, 1, tzinfo=timezone.utc),
            channel="\t\r\n\b\f",
            provider="\x1b[0m\x85",
            fields={"\x00": "\x1f", "TargetUserName": "line\u2028sep\u2029para"},
        ),
        EventRecord(
            record_ref="\U0001F600#3",
            event_id=4625,
            timestamp_utc=datetime(2026, 6, 1, tzinfo=timezone.utc),
            channel="\U0001D518",
            provider="\U00010348\ud7ff\ue000",
            fields={'Na"me': "\\", "Back\\slash": '"', '\\"': "", "\U0001F600": "\U0001F600"},
        ),
    ]
)
@example(
    records=[
        EventRecord(
            record_ref="big#1",
            event_id=2**63,
            timestamp_utc=datetime(2026, 6, 1, tzinfo=timezone.utc),
            channel="",
            provider="",
        )
    ]
)
@example(
    records=[
        EventRecord(
            record_ref="micro#1",
            event_id=4625,
            timestamp_utc=datetime(2026, 6, 1, 12, 0, 0, 123456, tzinfo=timezone.utc),
            channel="Security",
            provider="",
            fields={"TargetUserName": "jdoe"},
        )
    ]
)
@example(
    records=[
        # one shape twice, then another: % in every literal of the template
        # and in every interpolated value
        EventRecord(
            record_ref="%s#1",
            event_id=4625,
            timestamp_utc=datetime(2026, 6, 1, tzinfo=timezone.utc),
            channel="%(x)s",
            provider="100%",
            fields={"%s": "%d", "%%": "%", "a%(x)s": "%%s", "TargetUserName": "%"},
        ),
        EventRecord(
            record_ref="%%#2",
            event_id=4624,
            timestamp_utc=datetime(2026, 6, 1, 0, 0, 0, 1, tzinfo=timezone.utc),
            channel="%(x)s",
            provider="100%",
            fields={"%s": "%(x)s", "%%": "%s%s", "a%(x)s": "", "TargetUserName": "%(x)s"},
        ),
        EventRecord(
            record_ref="%(x)s#3",
            event_id=7,
            timestamp_utc=datetime(2026, 6, 1, tzinfo=timezone.utc),
            channel="%",
            provider="%%",
            fields={"%(x)s": "%s", "%": "%%"},
        ),
    ]
)
def test_record_digests_agree_at_write_at_load_and_with_digest_of(records):
    with tempfile.TemporaryDirectory() as tmp:
        file_digest, count, written, auth_events = write_records(
            lambda write: encode_records(lambda keep: [keep(r, format_instant(r.timestamp_utc)) for r in records], write),
            Path(tmp) / RECORDS_FILE,
        )
        path = Path(tmp) / RECORDS_FILE
        assert os.listdir(path.parent) == [RECORDS_FILE]
        data = path.read_bytes()
        read, read_auth_events = read_records(path, file_digest)
    assert data == (canon.canon_dumps([r.to_dict() for r in records]) + "\n").encode("utf-8")
    assert file_digest == sha256_hex(data)
    if not records:
        assert data == b"[]\n"
    assert count == len(records)
    assert read == [r.record_ref for r in records]
    assert digest_rows(written, read, data) == logon_rows(rows_of([r.to_dict() for r in records]))
    projected = [project(r) for r in records]
    assert auth_events == read_auth_events == [e for e in projected if e is not None]


# Text that a %-template or the JSON escaping could get wrong; CSV cells
# can also hold the control characters that XML 1.0 cannot.
_TRICKY = ["%", "%s", "%%", "%(x)s", "%d", '"', "\\", "\t", "\n", "\x7f", "\x85", "é", "\u2028", "\U0001F600", "a"]
_CSV_ONLY = ["\x01", "\x1f", "\x1b", "\r", "\r\n", "\b"]
# every form of time the grammar reads: the canonical text of some is put
# together from the match, of the offset-bearing ones by format_instant
_TIMES = [
    "2026-06-01T12:00:00Z",
    "2026-06-01 12:00:00.1234567z",
    "2026-06-01T12:00:00.000000000",
    "2026-12-31T23:30:00.5-01:00",
    "2027-01-01 00:15:00+23:59",
]


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _xml_attr(text: str) -> str:
    return _xml_text(text).replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")


@st.composite
def _evidence(draw, alphabet):
    """Events of at most three shapes, interleaved, each shape a channel, a
    provider and distinct Data names, as the record rule requires: (channel,
    provider, event id, time, [(name, value), ...]) for each."""
    text = st.lists(st.sampled_from(alphabet), max_size=4).map("".join)
    name = st.lists(st.sampled_from(alphabet), min_size=1, max_size=3).map("".join)
    shapes = draw(st.lists(st.tuples(text, text, st.lists(name, max_size=4, unique=True)), min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(0, 8))):
        channel, provider, names = draw(st.sampled_from(shapes))
        event_id = draw(st.sampled_from(sorted(AUTH_EVENT_IDS)) | st.integers(0, 9999))
        fields = [(n, draw(text)) for n in names]
        events.append((channel, provider, event_id, draw(st.sampled_from(_TIMES)), fields))
    return events


def _xml_export(events) -> str:
    parts = ["<Events>"]
    for channel, provider, event_id, time, fields in events:
        data = "".join(f'<Data Name="{_xml_attr(n)}">{_xml_text(v)}</Data>' for n, v in fields)
        parts.append(
            f'<Event><System><Provider Name="{_xml_attr(provider)}"/><EventID>{event_id}</EventID>'
            f'<TimeCreated SystemTime="{time}"/><Channel>{_xml_text(channel)}</Channel></System>'
            f"<EventData>{data}</EventData></Event>"
        )
    return "".join(parts) + "</Events>"


def _csv_export(events) -> str:
    columns = list(dict.fromkeys(n for *_, fields in events for n, _ in fields))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow([*CSV_FIXED_COLUMNS, *columns])
    for i, (channel, provider, event_id, time, fields) in enumerate(events, start=1):
        cells = dict(fields)
        writer.writerow([f"%s{channel}#{i}", event_id, time, channel, provider, *(cells.get(c, "") for c in columns)])
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(xml_events=_evidence(_TRICKY), csv_events=_evidence(_TRICKY + _CSV_ONLY))
def test_parsed_records_are_written_as_canon_dumps_writes_them(xml_events, csv_events):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "x%s.xml", Path(tmp) / "c%(x)s.csv"]
        paths[0].write_text(_xml_export(xml_events), encoding="utf-8")
        paths[1].write_text(_csv_export(csv_events), encoding="utf-8", newline="")
        records = load_evidence(paths)
        digest, count, rows, auth_events = write_records(
            lambda write: encode_records(lambda keep: load_evidence(paths, keep), write), Path(tmp) / RECORDS_FILE
        )
        data = (Path(tmp) / RECORDS_FILE).read_bytes()
    assert len(records) == len(xml_events) + len(csv_events) == count
    assert data == (canon.canon_dumps([r.to_dict() for r in records]) + "\n").encode("utf-8")
    assert digest == sha256_hex(data)
    assert digest_rows(rows, [r.record_ref for r in records], data) == logon_rows(rows_of([r.to_dict() for r in records]))
    assert auth_events == [e for e in map(project, records) if e is not None]


def test_records_json_is_handed_to_write_in_batches():
    records = [
        make_record(i, event_id=4688 if i % 5 == 0 else 4625, fields={"TargetUserName": f"user{i}", "Note": "é" * (i % 7)})
        for i in range(1, 3_001)
    ]
    writes = []
    digest, count, rows, _auth_events = encode_records(lambda keep: [keep(r, format_instant(r.timestamp_utc)) for r in records], writes.append)
    data = b"".join(writes)
    pieces = [canon.canon_dumps(r.to_dict()).encode("utf-8") for r in records]
    assert data == b"[" + b",".join(pieces) + b"]\n"
    assert (digest, count) == (sha256_hex(data), len(records))
    assert digest_rows(rows, [r.record_ref for r in records], data) == logon_rows(rows_of([r.to_dict() for r in records]))
    # each batch but the last ends with the piece that took it to the size
    assert len(writes) == len(data) // WRITE_BATCH_BYTES + 1
    longest = max(map(len, pieces)) + 1
    assert all(WRITE_BATCH_BYTES <= len(w) < WRITE_BATCH_BYTES + longest for w in writes[:-1])


def test_read_records_refuses_bytes_that_are_not_a_json_array_of_records(tmp_path):
    # a records.json written by hand, with a checkpoint naming its digest
    piece = canon.canon_dumps(make_record(1).to_dict())
    data = f"[{piece} {piece}]\n".encode("utf-8")
    path = tmp_path / RECORDS_FILE
    path.write_bytes(data)
    with pytest.raises(RecordsFileError, match="not a JSON array of records"):
        read_records(path, sha256_hex(data))


def test_read_records_refuses_a_logon_record_whose_fields_are_not_an_object(tmp_path):
    piece = canon.canon_dumps(dict(make_record(1).to_dict(), fields=[]))
    data = f"[{piece}]\n".encode("utf-8")
    path = tmp_path / RECORDS_FILE
    path.write_bytes(data)
    with pytest.raises(RecordsFileError, match="not a JSON array of records"):
        read_records(path, sha256_hex(data))


def test_check_records_file_refuses_a_range_that_starts_inside_its_record(tmp_path):
    # A record with a field named channel holds a second {"channel": inside
    # its piece. The range from there to the piece's end starts as a piece
    # does, holds one "record_ref": and ends with the row's ref and time, so
    # a check of those bytes alone would take it; the decode refuses it.
    record = make_record(1, fields={"channel": "Security", "logon": "3"})
    piece = canon.canon_dumps(record.to_dict()).encode("utf-8")
    data = b"[" + piece + b"]\n"
    path = tmp_path / RECORDS_FILE
    path.write_bytes(data)
    time_text = format_instant(record.timestamp_utc)
    start, end = 1 + piece.index(b'{"channel":', 1), 1 + len(piece)
    inner = data[start:end]
    assert inner.startswith(b'{"channel":') and inner.count(b'"record_ref":') == 1
    assert inner.endswith(f'"record_ref":"{record.record_ref}","timestamp_utc":"{time_text}"}}'.encode("utf-8"))
    assert orchestrator.check_records_file(path, sha256_hex(data), [(record.record_ref, 4625, time_text, 1, end)])
    with pytest.raises(RecordsFileError, match="are not the piece of cited record src#1"):
        orchestrator.check_records_file(path, sha256_hex(data), [(record.record_ref, 4625, time_text, start, end)])


def test_checkpoint_of_records_without_digest_is_refused(demo_config, tmp_path):
    state = dataclasses.replace(fresh_state(demo_config), record_count=1)
    with pytest.raises(RecordsFileError, match="no records_digest"):
        save_checkpoint(state, tmp_path, "ProcessEvidence")
    assert not (tmp_path / "state" / "ProcessEvidence.json").exists()


# The query and the clause ids that retrieve ranks for the fixture review,
# best first: all 12 clauses, since retrieval_k is 16.
FIXTURE_QUERY = (
    "Brute Force auth-failure-burst credential-guessing repeated-failed-logons "
    "account lockout password authentication multi-factor"
)
FIXTURE_RETRIEVAL = (
    "org_policy:17-17", "org_policy:5-5", "baseline_policy:17-17", "baseline_policy:21-21",
    "org_policy:7-7", "baseline_policy:5-5", "baseline_policy:11-11", "baseline_policy:13-13",
    "baseline_policy:7-7", "org_policy:11-11", "org_policy:13-13", "org_policy:21-21",
)


def test_retrieval_is_the_ranked_clause_ids(demo_config):
    state = run_review(demo_config)
    assert state.retrieval == FIXTURE_RETRIEVAL
    loaded = load_checkpoint(demo_config.output_dir / "state" / "RetrievePolicies.json")
    assert loaded.retrieval == FIXTURE_RETRIEVAL
    # the order retrieve gives on the fixture's documents and query
    catalog = build_deps(demo_config).catalog
    assert policy_index.technique_query(state.mappings[0], catalog) == FIXTURE_QUERY
    documents = policy_index.load_policy_documents(demo_config.org_policy_paths, demo_config.baseline_policy_paths)
    hits = policy_index.retrieve(policy_index.build_index(documents), FIXTURE_QUERY, demo_config.retrieval_k)
    assert [(h.clause.clause_id, h.rank) for h in hits] == [(cid, rank) for rank, cid in enumerate(FIXTURE_RETRIEVAL, 1)]


# Words of the fixture query, which rank a clause high, and filler; no
# digit and no obligation word, so no clause of them states a control.
PADDING_WORDS = (*re.findall(r"[a-z]+", FIXTURE_QUERY.lower()), "the", "of", "for", "users", "guidance", "should")


@settings(max_examples=25, deadline=None)
@given(
    policy=st.sampled_from(["org_policy.md", "baseline_policy.md"]),
    padding=st.lists(st.lists(st.sampled_from(PADDING_WORDS), min_size=1, max_size=12), max_size=30),
    retrieval_k=st.integers(1, 16),
)
def test_clauses_that_state_no_control_change_no_gap(policy, padding, retrieval_k):
    clauses = [" ".join(words) + "." for words in padding]
    assert gap_analysis.extract_control_parameters(
        [policy_index.PolicyClause("pad", f"pad:{i}-{i}", None, i, i, text) for i, text in enumerate(clauses, 1)]
    ) == []
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(FIXTURES, Path(tmp) / "fixtures")
        path = Path(tmp) / "fixtures" / "policies" / policy
        path.write_text(path.read_text(encoding="utf-8") + "".join(f"\n{text}\n" for text in clauses), encoding="utf-8")
        overrides = {"gateway_mode": "disabled", "retrieval_k": retrieval_k}
        gaps = run_review(ReviewConfig.from_file(Path(tmp) / "fixtures" / "review_config.json", overrides)).gaps
    assert [(g.control, g.gap_kind, g.severity, g.evidence_clauses) for g in gaps] == [
        ("LockoutThreshold", "Insufficient", "High", ("org_policy:5-5", "baseline_policy:5-5")),
        ("PasswordMaxAgeDays", "Insufficient", "Medium", ("org_policy:11-11", "baseline_policy:11-11")),
    ]


# Digests of the state/ files a review of the committed fixtures writes:
# records.json by sha256 of its bytes, taken before the record types shared
# one codec, and each <Stage>.json by digest_of its JSON with the stage
# clock, previous_digest and report_generated_at masked, taken
# when each checkpoint became that stage's delta (PINNED_STAGE_STATES pins the
# states they load); ProcessEvidence.json re-taken when it gained
# record_count and cited_records, and again when each cited row gained the
# byte range of its piece, without which it gives the pin before.
# ProcessEvidence.json, MapAttack.json and GenerateReport.json re-taken when
# a checkpoint began to write as null each narrated text that is its
# transcript's response and each mapping's evidence that is its finding's,
# and to store a cited row without its piece's sha256; with those restored,
# each gives the pin before. RetrievePolicies.json and ValidatePolicies.json
# re-taken when the state dropped retrieval_query, org_params and
# baseline_params and began to store retrieval as the ranked clause ids;
# the checkpoints before, with those keys dropped and each hit as its
# clause_id, are the checkpoints now. ProcessEvidence.json, MapAttack.json,
# ValidatePolicies.json and GenerateReport.json re-taken when a checkpoint
# began to write each transcript without its rendered_prompt and grounding,
# and as null each gap's evidence_events that is the union of the findings'
# evidence; with those restored from the loaded state, each gives the pin
# before. ProcessEvidence.json, MapAttack.json, ValidatePolicies.json and
# GenerateReport.json re-taken when a checkpoint began to write each
# transcript without its stage and template_id; with those restored from
# the checkpoint's stage and its template, each gives the pin before.
# Every <Stage>.json but RetrievePolicies.json, and ValidatePolicies.json
# of the no-gap review, re-taken when the narrated texts left the state
# (a report derives them from the transcripts): with the finding
# summaries, mapping rationales, gap rationales and remediations and the
# incident summary put back from report.json, each written as null where
# it is its transcript's response, each gives the pin before. The review
# runs on a copy of the fixtures with no overrides, as
# test_fixture_reports_match_pinned_digests does.
PINNED_STATE_FILES = {
    "review_config.json": {
        "records.json": (
            "82c8465488d0683b57ad5231bb877d22b77c36bf862352fbc0ed70f54817c3b3"
        ),
        "ProcessEvidence.json": (
            "a5dd0872dc647b35b5b1dc18c4818779a3e071cf7f3de024d55c989549ab4562"
        ),
        "MapAttack.json": (
            "f51c887d01d52b0aff58ae2dc957a22ea2a698bbae21a606987b8c7a30554c41"
        ),
        "RetrievePolicies.json": (
            "2959be32055eebdc3adfbc31b91737d35a86a0a4a1e7800597a66efe269d0e89"
        ),
        "ValidatePolicies.json": (
            "ec0ec394544e0d8114eb5ad9107688d275384ed516c8b659c738f06bb3904cf8"
        ),
        "GenerateReport.json": (
            "67ae250b96139263be599d10d517b532e1aa3bd87bb94f76b5c36c7d029a3e0a"
        ),
    },
    "review_config_nogap.json": {
        "records.json": (
            "82c8465488d0683b57ad5231bb877d22b77c36bf862352fbc0ed70f54817c3b3"
        ),
        "ProcessEvidence.json": (
            "8f235d44c9e55c5e7574d75625284ea58600cf6c12e951a9992ab58552a7c2db"
        ),
        "MapAttack.json": (
            "f51c887d01d52b0aff58ae2dc957a22ea2a698bbae21a606987b8c7a30554c41"
        ),
        "RetrievePolicies.json": (
            "113afc5081af6d996a9379997977aabec392d9ac3b54e273317e69fbf1b4905f"
        ),
        "ValidatePolicies.json": (
            "4a0babe620052aab1be86881ec72501eff44ba835d11bfb75cc28a087ae988b1"
        ),
        "GenerateReport.json": (
            "386500c83479b236e42c013ca49d1cbc3ef09a6a0c22680d2e14e71a1123679b"
        ),
    },
}


@pytest.mark.parametrize("config_name", sorted(PINNED_STATE_FILES))
def test_fixture_state_files_match_pinned_digests(config_name, tmp_path):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = ReviewConfig.from_file(tmp_path / "fixtures" / config_name)
    run_review(config)
    state_dir = config.output_dir / "state"
    digests = {RECORDS_FILE: sha256_hex((state_dir / RECORDS_FILE).read_bytes())}
    for stage in STAGES:
        text = (state_dir / f"{stage}.json").read_text(encoding="utf-8")
        digests[f"{stage}.json"] = masked_checkpoint_digest(text)
    assert digests == PINNED_STATE_FILES[config_name]


# state_digest of the state after each stage, as load_checkpoint rebuilds it
# from that stage's <Stage>.json; taken while every checkpoint still held the
# whole state, so a change of checkpoint format must load the same states.
# Re-taken when the state gained record_count and cited_records, and again
# when each cited row gained the byte range of its piece; without the
# ranges each state gives the pin taken before. Re-taken when the state
# lost retrieval_query, org_params and baseline_params and retrieval became
# the ranked clause ids, which the state dict of every stage shows.
# Re-taken when the state lost finding_summaries and incident_summary, and
# each mapping its rationale and each gap its rationale and remediation;
# with those put back from report.json (the incident summary only after
# GenerateReport), each state gives the pin taken before.
PINNED_STAGE_STATES = {
    "review_config.json": {
        "ProcessEvidence": "502bda90b8fc9ce0d59dde9582ab68c0231d7f9f879af6c9f2addd31835b0e8d",
        "MapAttack": "1dced8b3d9af6ff24f2a04fb9d2d6ea9a2e8ce2a6e88d3a2462c0c22bf0e4abd",
        "RetrievePolicies": "cd655db17f272f840798494b8c7677f86dc7d68687c2b628891352f432f91156",
        "ValidatePolicies": "13bef4c34166417547494e4347cde31a2991c630a78bf5126137da8e92f950f4",
        "GenerateReport": "989da79b6408dd04adf76facbb2778b4fafe0e67af509fddd77f3649fc38018d",
    },
    "review_config_nogap.json": {
        "ProcessEvidence": "94ed0d5a624de92f40c9f43433df1016e81db46f0318eb37cf16bc3ee24c6e36",
        "MapAttack": "84da1c8c550f073d9b58e881a2aa5ea7dc6f3be9ee113d8736bc0551d74787f8",
        "RetrievePolicies": "1ee6ff4447ace0329eec2158a936d9b4a0cabe758054cf87d59569e313ba5db0",
        "ValidatePolicies": "16b4beedbf1d46e17016b4a3902899a7fab42183cb85111b87b673f43ed23e37",
        "GenerateReport": "770f352f5ad3bd4202c99c4a435dd1351b898117238608371efc392cd15d9df3",
    },
}


@pytest.mark.parametrize("config_name", sorted(PINNED_STAGE_STATES))
def test_each_checkpoint_loads_the_pinned_state(config_name, tmp_path):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = ReviewConfig.from_file(tmp_path / "fixtures" / config_name)
    run_review(config)
    state_dir = config.output_dir / "state"
    digests = {
        stage: state_digest(load_checkpoint(state_dir / f"{stage}.json"))
        for stage in STAGES
    }
    assert digests == PINNED_STAGE_STATES[config_name]


def _ungrounded_mappings(request_body):
    """The scripted model, except that a mapping justification cites
    nothing, so its fallback is used."""
    if "ATT&CK" in request_body["messages"][0]["content"]:
        return "The behaviour matches the technique."
    return workloads.scripted_transport(request_body)


def _unformatted_gap_rationales(request_body):
    """The scripted model, except that a gap rationale, still grounded,
    lacks its RATIONALE/REMEDIATION paragraphs, so its fallback is used."""
    text = workloads.scripted_transport(request_body)
    if "Control:" in request_body["messages"][0]["content"]:
        return text.replace("RATIONALE: ", "").replace("REMEDIATION: ", "")
    return text


# Reviews of the committed fixture configs, of a disabled gateway (every text
# a fallback, no transcript), of a model whose mapping justifications
# fail grounding (fallbacks beside transcripts), of one whose gap rationales
# fail only the format check, and of a 3-host many-incidents set-up (three
# findings, each gap's evidence the union of theirs).
FIXTURE_REVIEWS = {
    "review_config.json": ("review_config.json", None, None),
    "review_config_bad_citation.json": ("review_config_bad_citation.json", None, None),
    "review_config_nogap.json": ("review_config_nogap.json", None, None),
    "disabled": ("review_config.json", "disabled", None),
    "ungrounded mappings": ("review_config.json", "live", _ungrounded_mappings),
    "unformatted gap rationales": ("review_config.json", "live", _unformatted_gap_rationales),
    "many incidents": (None, "record", workloads.scripted_transport),
}


def review_fixture_copy(tmp_path, review, monkeypatch):
    """Run one of FIXTURE_REVIEWS on a copy of the fixtures, or on a
    many-incidents set-up; returns the config."""
    config_name, mode, transport = FIXTURE_REVIEWS[review]
    if config_name is None:
        config = many_incidents_config(tmp_path, monkeypatch, hosts=3)
    else:
        shutil.copytree(FIXTURES, tmp_path / "fixtures")
        overrides = {"gateway_mode": mode} if mode else None
        config = ReviewConfig.from_file(tmp_path / "fixtures" / config_name, overrides)
    run_review(config, transport=transport)
    return config


@pytest.mark.parametrize("review", sorted(FIXTURE_REVIEWS))
def test_each_checkpoint_loads_the_state_the_review_held(review, tmp_path, monkeypatch):
    held = {}
    save = orchestrator.save_checkpoint

    def recording_save(state, output_dir, stage, *args):
        held[stage] = state_digest(state)
        return save(state, output_dir, stage, *args)

    monkeypatch.setattr(orchestrator, "save_checkpoint", recording_save)
    config = review_fixture_copy(tmp_path, review, monkeypatch)
    state_dir = config.output_dir / "state"
    loaded = {stage: load_checkpoint(state_dir / f"{stage}.json") for stage in STAGES}
    assert {stage: state_digest(state) for stage, state in loaded.items()} == held
    assert list(held) == list(STAGES)
    if review == "unformatted gap rationales":
        # grounded, yet degraded by the format check alone
        gap_transcripts = [t for t in loaded["GenerateReport"].transcripts if t.template_id == "gap_rationale"]
        assert gap_transcripts
        assert all(t.degraded and t.grounding.passed for t in gap_transcripts)


@pytest.mark.parametrize("review", sorted(FIXTURE_REVIEWS))
def test_verify_passes_on_each_fixture_review(review, tmp_path, monkeypatch):
    # degraded, absent and recorded transcripts alike re-derive to what the
    # review wrote, and so do the texts they narrated
    config = review_fixture_copy(tmp_path, review, monkeypatch)
    orchestrator.verify_report(config, json.loads((config.output_dir / "report.json").read_bytes()))


def test_a_failed_gap_narration_leaves_the_gaps_before_it(tmp_path):
    # the fixture review has two gaps; the model refuses the second
    gap_prompts = []

    def fails_on_the_second_gap(request_body):
        if "Control:" in request_body["messages"][0]["content"]:
            gap_prompts.append(request_body["messages"][0]["content"])
            if len(gap_prompts) == 2:
                raise ProviderError(400, "refused")
        return workloads.scripted_transport(request_body)

    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = ReviewConfig.from_file(tmp_path / "fixtures" / "review_config.json", {"gateway_mode": "live"})
    with pytest.raises(StageFailureError) as err:
        run_review(config, transport=fails_on_the_second_gap)
    assert err.value.stage == "ValidatePolicies"
    partial = err.value.partial_state
    loaded = load_checkpoint(config.output_dir / "state" / "ValidatePolicies.json")
    assert state_digest(loaded) == state_digest(partial)
    [gap] = loaded.gaps
    assert gap.control == "LockoutThreshold"
    transcript = loaded.transcripts[-1]
    assert transcript.template_id == "gap_rationale"
    assert transcript.rendered_prompt == gap_prompts[0]
    assert transcript.grounding.passed


def test_a_failed_finding_narration_leaves_every_finding_a_text(tmp_path, monkeypatch):
    # three findings in record mode; the model refuses the second summary,
    # so the render of ProcessEvidence.json has one transcript for three
    summaries = []

    def fails_on_the_second_summary(request_body):
        if "Summarise" in request_body["messages"][0]["content"]:
            summaries.append(request_body)
            if len(summaries) == 2:
                raise ProviderError(400, "refused")
        return workloads.scripted_transport(request_body)

    config = many_incidents_config(tmp_path, monkeypatch, hosts=3)
    with pytest.raises(StageFailureError) as err:
        run_review(config, transport=fails_on_the_second_summary)
    assert err.value.stage == "ProcessEvidence"
    loaded = load_checkpoint(config.output_dir / "state" / "ProcessEvidence.json")
    [transcript] = loaded.transcripts
    json_path, md_path = write_report_files(loaded, tmp_path / "rendered")
    doc = json.loads(json_path.read_bytes())
    assert len(doc["findings"]) == 3
    assert doc["finding_summaries"] == [transcript.response, *map(fallback_summary, loaded.findings[1:])]
    assert md_path.read_text(encoding="utf-8").count("\n### finding-") == 3


def narration_paths(state, transcript):
    """The report paths of the text(s) that ``transcript`` of ``state``
    narrates, each with its narration site's fallback."""
    i = [t for t in state.transcripts if t.stage == transcript.stage].index(transcript)
    if transcript.stage == "ProcessEvidence":
        return {("finding_summaries", i): fallback_summary(state.findings[i])}
    if transcript.stage == "MapAttack":
        mapping = state.mappings[i]
        return {("technique_section", i, "rationale"): rule_rationale(mapping, state.findings[mapping.finding_ref])}
    if transcript.stage == "ValidatePolicies":
        rationale, remediation = deterministic_rationale(state.gaps[i])
        return {("gaps_section", i, "rationale"): rationale, ("gaps_section", i, "remediation"): remediation}
    return {("incident_summary",): reporting.deterministic_incident_summary(state)}


@pytest.mark.parametrize("review", sorted(FIXTURE_REVIEWS))
def test_a_degraded_or_absent_transcript_gives_its_narrations_fallback_alone(review, tmp_path, monkeypatch):
    config = review_fixture_copy(tmp_path, review, monkeypatch)
    state = load_checkpoint(config.output_dir / "state" / "GenerateReport.json")
    report = reporting.build_report(state, state.report_generated_at)
    lasts = {t.stage: t for t in state.transcripts}.values()
    changes = [("degraded", t) for t in state.transcripts] + [("dropped", t) for t in lasts]
    assert changes or review == "disabled"
    for change, transcript in changes:
        if change == "degraded":
            kept = tuple(dataclasses.replace(t, degraded=True) if t is transcript else t for t in state.transcripts)
        else:
            kept = tuple(t for t in state.transcripts if t is not transcript)
        changed = dataclasses.replace(state, transcripts=kept)
        expected = copy.deepcopy({**report, "transcripts": None})
        for path, fallback in narration_paths(state, transcript).items():
            holder = functools.reduce(operator.getitem, path[:-1], expected)
            holder[path[-1]] = fallback
        assert {**reporting.build_report(changed, state.report_generated_at), "transcripts": None} == expected


HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def keys_of(node):
    """Every dict key in ``node``, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from keys_of(value)
    elif isinstance(node, list):
        for item in node:
            yield from keys_of(item)


@pytest.mark.parametrize("review", sorted(FIXTURE_REVIEWS))
def test_checkpoints_write_no_fact_that_another_holds(review, tmp_path, monkeypatch):
    config = review_fixture_copy(tmp_path, review, monkeypatch)
    docs = {stage: json.loads((config.output_dir / "state" / f"{stage}.json").read_bytes()) for stage in STAGES}
    transcripts = [t for doc in docs.values() for t in doc["transcripts"]]
    # a load re-derives each prompt and grounding report from the state
    assert [t for t in transcripts if "rendered_prompt" in t or "grounding" in t] == []
    # a report derives each narrated text from the transcripts
    assert set(keys_of(docs)).isdisjoint({"finding_summaries", "incident_summary", "rationale", "remediation"})
    mappings = docs["MapAttack"]["mappings"]
    # each mapping's evidence is its finding's
    assert mappings
    assert all(m["evidence"] is None for m in mappings)
    # each gap's evidence is the union of the findings'
    gaps = docs["ValidatePolicies"]["gaps"]
    assert all(g["evidence_events"] is None for g in gaps)
    if review == "many incidents":
        assert len(docs["ProcessEvidence"]["findings"]) == 3
        assert len(gaps) == 2
    rows = docs["ProcessEvidence"]["cited_records"]
    assert rows
    assert all(len(row) == 5 and not any(HEX_DIGEST.fullmatch(str(v)) for v in row) for row in rows)


def test_save_checkpoint_is_canonical(demo_config, tmp_path):
    state = fresh_state(demo_config)
    data_a = save_checkpoint(state, tmp_path / "a", "ProcessEvidence")
    data_b = save_checkpoint(state, tmp_path / "b", "ProcessEvidence")
    assert data_a == data_b == (tmp_path / "a" / "state" / "ProcessEvidence.json").read_bytes()


# --- dependency wiring ------------------------------------------------------------------


def test_build_deps_injects_transport(demo_config):
    def transport(request_body):
        return "unused"

    deps = build_deps(demo_config, transport=transport)
    assert deps.gateway._transport is transport
    assert "T1110" in deps.catalog
    assert deps.config is demo_config
