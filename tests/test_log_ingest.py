import logging
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pir.detection import DetectorParams, detect_bruteforce

from pir.errors import (
    ConfigInvalidError,
    CsvSchemaError,
    DuplicateRecordRefError,
    MalformedContainerError,
    MissingSystemFieldError,
    XmlSyntaxError,
)
from pir.log_ingest import (
    flatten_to_csv,
    load_csv,
    load_evidence,
    normalize_auth_events,
    parse_event_xml,
    validate_evtx_container,
)
from pir.scenario_gen import ScenarioSpec, generate

from conftest import evtx_bytes, event_xml, make_record


# --- container framing ------------------------------------------------------


def test_empty_bytes_rejected():
    with pytest.raises(MalformedContainerError):
        validate_evtx_container(b"")


def test_wrong_magic_rejected():
    data = evtx_bytes(magic=b"NotEvtx\x00")
    with pytest.raises(MalformedContainerError):
        validate_evtx_container(data)


def test_short_header_rejected():
    with pytest.raises(MalformedContainerError):
        validate_evtx_container(evtx_bytes(chunks=0)[:4095])


def test_single_valid_chunk_counted():
    summary = validate_evtx_container(evtx_bytes(chunks=1, next_record_id=4))
    assert summary.header_magic_valid
    assert summary.chunk_count == 1
    assert summary.declared_record_count == 3
    assert summary.warnings == []


def test_corrupted_chunk_signature_warns():
    summary = validate_evtx_container(
        evtx_bytes(chunks=1, corrupt_chunk_sigs=(0,), declared_chunks=0)
    )
    assert summary.chunk_count == 0
    assert any("invalid signature" in w for w in summary.warnings)


def test_declared_count_mismatch_warns():
    summary = validate_evtx_container(evtx_bytes(chunks=2, declared_chunks=5))
    assert summary.chunk_count == 2
    assert any("declares 5" in w for w in summary.warnings)


def test_truncated_trailing_chunk_warns():
    summary = validate_evtx_container(evtx_bytes(chunks=2, truncate_last_chunk=100))
    assert summary.chunk_count == 1
    assert any("shorter than a full chunk" in w for w in summary.warnings)


# --- event XML ---------------------------------------------------------------


def test_zero_events_parse_to_empty_list():
    assert parse_event_xml(event_xml([]), source="s") == []


def test_single_4625_event_fields_flattened():
    text = event_xml(
        [
            {
                "event_id": 4625,
                "time": "2026-06-01T12:00:00.0000000Z",
                "fields": {"TargetUserName": "admin", "IpAddress": "10.0.0.9"},
            }
        ]
    )
    records = parse_event_xml(text, source="s")
    assert len(records) == 1
    r = records[0]
    assert r.record_ref == "s#1"
    assert r.event_id == 4625
    assert r.fields["TargetUserName"] == "admin"
    assert r.channel == "Security"
    assert r.provider == "Microsoft-Windows-Security-Auditing"
    assert r.timestamp_utc.isoformat() == "2026-06-01T12:00:00+00:00"


def test_identical_timestamps_keep_document_order():
    text = event_xml(
        [
            {"event_id": 4625, "time": "2026-06-01T12:00:00Z"},
            {"event_id": 4624, "time": "2026-06-01T12:00:00Z"},
        ]
    )
    records = parse_event_xml(text, source="s")
    assert [r.record_ref for r in records] == ["s#1", "s#2"]
    assert [r.event_id for r in records] == [4625, 4624]


def test_bare_event_element_without_wrapper_parses():
    text = event_xml([{"event_id": 4624, "time": "2026-06-01T12:00:00Z"}])
    inner = text.split("\n", 2)[2].rsplit("\n", 1)[0]
    records = parse_event_xml(inner, source="s")
    assert len(records) == 1


def test_malformed_markup_reports_position():
    with pytest.raises(XmlSyntaxError) as err:
        parse_event_xml("<Events><Event></Events>", source="s")
    assert err.value.line >= 1


def test_missing_event_id_rejected():
    text = event_xml([{"time": "2026-06-01T12:00:00Z"}])
    with pytest.raises(MissingSystemFieldError):
        parse_event_xml(text, source="s")


def test_missing_timestamp_rejected():
    text = event_xml([{"event_id": 4625}])
    with pytest.raises(MissingSystemFieldError):
        parse_event_xml(text, source="s")


def test_unparseable_timestamp_rejected():
    text = event_xml([{"event_id": 4625, "time": "not-a-time"}])
    with pytest.raises(MissingSystemFieldError):
        parse_event_xml(text, source="s")


def test_offset_bearing_timestamp_converted_to_utc():
    text = event_xml([{"event_id": 4625, "time": "2026-06-01T14:00:00+02:00"}])
    [r] = parse_event_xml(text, source="s")
    assert r.timestamp_utc.isoformat() == "2026-06-01T12:00:00+00:00"


@pytest.mark.parametrize(
    "time_text, warns",
    [
        ("2026-06-01T12:00:00Z", False),
        ("2026-06-01T14:00:00+02:00", False),
        ("2026-06-01T07:00:00-05:00", False),
        ("2026-06-01T12:00:00", True),
    ],
)
def test_only_offset_free_timestamps_warn(time_text, warns, caplog):
    text = event_xml([{"event_id": 4625, "time": time_text}])
    with caplog.at_level(logging.WARNING, logger="pir.log_ingest"):
        [r] = parse_event_xml(text, source="s")
    assert r.timestamp_utc.isoformat() == "2026-06-01T12:00:00+00:00"
    assert any("assumed UTC" in m for m in caplog.messages) == warns


# --- CSV ----------------------------------------------------------------------


def test_empty_list_flattens_to_header_only():
    text = flatten_to_csv([])
    assert text == "record_ref,event_id,timestamp_utc,channel,provider\r\n"


def test_field_columns_sorted_lexicographically():
    r = make_record(1, fields={"B": "2", "A": "1"})
    header = flatten_to_csv([r]).splitlines()[0]
    assert header == "record_ref,event_id,timestamp_utc,channel,provider,A,B"


def test_round_trip_preserves_records():
    records = [
        make_record(1, fields={"TargetUserName": "admin", "Status": "0xc000006d"}),
        make_record(2, event_id=4624, seconds=5, fields={"TargetUserName": "admin"}),
        make_record(3, event_id=4688, seconds=9.5, fields={"NewProcessName": "x, y"}),
    ]
    assert load_csv(flatten_to_csv(records)) == records


def test_round_trip_handles_quoting_and_newlines():
    r = make_record(1, fields={"Msg": 'quote " comma , cr\nlf', "Plain": "v"})
    assert load_csv(flatten_to_csv([r])) == [r]


def test_header_only_loads_empty():
    assert load_csv("record_ref,event_id,timestamp_utc,channel,provider\r\n") == []


def test_unknown_header_rejected():
    with pytest.raises(CsvSchemaError):
        load_csv("bogus,event_id\r\nx,1\r\n")


def test_non_integer_event_id_rejected():
    text = (
        "record_ref,event_id,timestamp_utc,channel,provider\r\n"
        "s#1,abc,2026-06-01T12:00:00Z,Security,P\r\n"
    )
    with pytest.raises(CsvSchemaError):
        load_csv(text)


def test_empty_cells_become_absent_fields():
    records = [
        make_record(1, fields={"A": "1"}),
        make_record(2, fields={"B": "2"}),
    ]
    loaded = load_csv(flatten_to_csv(records))
    assert loaded[0].fields == {"A": "1"}
    assert loaded[1].fields == {"B": "2"}


def test_flatten_is_byte_deterministic():
    records = [make_record(i, fields={"K": str(i)}) for i in range(1, 6)]
    assert flatten_to_csv(records) == flatten_to_csv(list(records))


# --- normalization ------------------------------------------------------------


def test_non_auth_event_ids_excluded():
    records = [
        make_record(1, event_id=4688),
        make_record(2, event_id=7045),
    ]
    events, skipped = normalize_auth_events(records)
    assert events == [] and skipped == 0


def test_failure_then_success_pattern():
    records = [
        make_record(1, event_id=4625, fields={"TargetUserName": "admin"}),
        make_record(2, event_id=4624, seconds=5, fields={"TargetUserName": "admin"}),
    ]
    events, skipped = normalize_auth_events(records)
    assert [e.outcome for e in events] == ["Failure", "Success"]
    assert skipped == 0


def test_missing_account_counted_as_skipped():
    records = [make_record(1, event_id=4625, fields={"TargetUserName": ""})]
    events, skipped = normalize_auth_events(records)
    assert events == [] and skipped == 1


def test_conservation_of_auth_records():
    records = [
        make_record(1, event_id=4625, fields={"TargetUserName": "a"}),
        make_record(2, event_id=4624, fields={}),
        make_record(3, event_id=4688, fields={"TargetUserName": "a"}),
        make_record(4, event_id=4625, fields={"TargetUserName": "b"}),
    ]
    events, skipped = normalize_auth_events(records)
    auth_total = sum(1 for r in records if r.event_id in (4624, 4625))
    assert len(events) + skipped == auth_total


def test_sorted_by_timestamp_then_ref():
    records = [
        make_record(2, event_id=4625, seconds=10, fields={"TargetUserName": "a"}),
        make_record(1, event_id=4625, seconds=10, fields={"TargetUserName": "a"}),
        make_record(3, event_id=4625, seconds=0, fields={"TargetUserName": "a"}),
    ]
    events, _ = normalize_auth_events(records)
    assert [e.record_ref for e in events] == ["src#3", "src#1", "src#2"]


def test_placeholder_ip_normalized_to_none():
    records = [
        make_record(
            1, event_id=4625, fields={"TargetUserName": "a", "IpAddress": "-"}
        ),
        make_record(
            2,
            event_id=4625,
            fields={"TargetUserName": "a", "IpAddress": "10.1.2.3", "LogonType": "x"},
        ),
    ]
    events, _ = normalize_auth_events(records)
    assert events[0].source_ip is None
    assert events[1].source_ip == "10.1.2.3"
    assert events[1].logon_type is None


# --- evidence sets ------------------------------------------------------------------


def test_load_evidence_reads_each_format_in_order(tmp_path):
    xml = tmp_path / "host.xml"
    xml.write_text(event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z"}]))
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text(flatten_to_csv([make_record(1, source="other")]))
    evtx = tmp_path / "raw.evtx"
    evtx.write_bytes(evtx_bytes(1, declared_chunks=2))
    records, notes = load_evidence([xml, evtx, csv_path])
    assert [r.record_ref for r in records] == ["host#1", "other#1"]
    assert notes == [
        "container raw.evtx: 1 chunk(s), 0 declared record(s); framing "
        "validated, records not decoded",
        "container raw.evtx: header declares 2 chunk(s) but 1 valid chunk "
        "signature(s) found",
    ]


def test_load_evidence_rejects_missing_file_and_unknown_suffix(tmp_path):
    with pytest.raises(ConfigInvalidError, match="not found"):
        load_evidence([tmp_path / "absent.xml"])
    odd = tmp_path / "events.json"
    odd.write_text("[]")
    with pytest.raises(ConfigInvalidError, match="unsupported evidence suffix"):
        load_evidence([odd])


def test_load_evidence_rejects_duplicate_record_refs(tmp_path):
    xml = tmp_path / "host.xml"
    xml.write_text(event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z"}]))
    copy = tmp_path / "copy.csv"
    copy.write_text(flatten_to_csv(parse_event_xml(xml.read_text(), source="host")))
    with pytest.raises(DuplicateRecordRefError) as err:
        load_evidence([xml, copy])
    assert err.value.record_ref == "host#1"
    assert str(xml) in str(err.value) and str(copy) in str(err.value)


def _findings(records):
    events, _skipped = normalize_auth_events(records)
    return [f.to_dict() for f in detect_bruteforce(events, DetectorParams())]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    noise=st.integers(0, 30),
    cut_fraction=st.floats(0.0, 1.0),
)
def test_a_stream_split_into_two_csv_files_loads_as_one(seed, noise, cut_fraction):
    spec = ScenarioSpec(seed=seed, noise_events=noise, noise_accounts=("jdoe", "svc"))
    xml, _truth = generate(spec, source_name="host")
    whole = parse_event_xml(xml, source="host")
    cut = round(cut_fraction * len(whole))
    with tempfile.TemporaryDirectory() as tmp:
        xml_path, head, tail = Path(tmp, "host.xml"), Path(tmp, "a.csv"), Path(tmp, "b.csv")
        xml_path.write_text(xml, encoding="utf-8")
        head.write_text(flatten_to_csv(whole[:cut]), encoding="utf-8")
        tail.write_text(flatten_to_csv(whole[cut:]), encoding="utf-8")

        records, _notes = load_evidence([head, tail])
        assert records == whole
        findings = _findings(whole)
        assert findings and _findings(records) == findings

        # the XML and any non-empty part of its CSV name the same refs
        with pytest.raises(DuplicateRecordRefError):
            load_evidence([xml_path, head if cut else tail])
