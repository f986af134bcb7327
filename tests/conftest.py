"""Shared builders for tests: EVTX container bytes, event XML, auth events."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from pir.canon import sha256_hex
from pir.log_ingest import (
    EVTX_CHUNK_MAGIC,
    EVTX_CHUNK_SIZE,
    EVTX_FILE_MAGIC,
    EVTX_HEADER_SIZE,
    AuthEvent,
    EventRecord,
    auth_event,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BASE_TIME = datetime(2026, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


def evtx_bytes(
    chunks: int = 1,
    *,
    magic: bytes = EVTX_FILE_MAGIC,
    next_record_id: int = 1,
    declared_chunks: int | None = None,
    corrupt_chunk_sigs: tuple[int, ...] = (),
    truncate_last_chunk: int = 0,
    header_size: int = EVTX_HEADER_SIZE,
) -> bytes:
    """Craft container bytes; the written layout is the test oracle."""
    header = bytearray(header_size)
    header[: len(magic)] = magic
    header[24:32] = next_record_id.to_bytes(8, "little")
    count = chunks if declared_chunks is None else declared_chunks
    header[42:44] = count.to_bytes(2, "little")
    body = bytearray()
    for i in range(chunks):
        chunk = bytearray(EVTX_CHUNK_SIZE)
        sig = b"XXXXXXXX" if i in corrupt_chunk_sigs else EVTX_CHUNK_MAGIC
        chunk[:8] = sig
        body += chunk
    data = bytes(header) + bytes(body)
    if truncate_last_chunk:
        data = data[:-truncate_last_chunk]
    return data


def event_xml(events: list[dict]) -> str:
    """Render a Windows-export-style XML document from event dicts."""
    parts = ['<?xml version="1.0" encoding="utf-8"?>', "<Events>"]
    for e in events:
        fields = "".join(
            f'<Data Name="{k}">{v}</Data>' for k, v in e.get("fields", {}).items()
        )
        system = []
        if "event_id" in e:
            system.append(f"<EventID>{e['event_id']}</EventID>")
        if "time" in e:
            system.append(f'<TimeCreated SystemTime="{e["time"]}" />')
        system.append(f"<Channel>{e.get('channel', 'Security')}</Channel>")
        system.append(
            f'<Provider Name="{e.get("provider", "Microsoft-Windows-Security-Auditing")}" />'
        )
        parts.append(
            '<Event xmlns="http://schemas.microsoft.com/win/2004/08/events/event">'
            f"<System>{''.join(system)}</System>"
            f"<EventData>{fields}</EventData></Event>"
        )
    parts.append("</Events>")
    return "\n".join(parts)


def project(record: EventRecord) -> AuthEvent | None:
    """The auth_event of a record, given the record's parts."""
    return auth_event(record.record_ref, record.event_id, record.fields, record.timestamp_utc)


def make_record(
    ordinal: int = 1,
    *,
    source: str = "src",
    event_id: int = 4625,
    seconds: float = 0.0,
    channel: str = "Security",
    provider: str = "Microsoft-Windows-Security-Auditing",
    fields: dict[str, str] | None = None,
) -> EventRecord:
    return EventRecord(
        record_ref=f"{source}#{ordinal}",
        event_id=event_id,
        timestamp_utc=BASE_TIME + timedelta(seconds=seconds),
        channel=channel,
        provider=provider,
        fields=dict(fields or {}),
    )


def make_auth(
    ordinal: int,
    *,
    account: str = "admin",
    outcome: str = "Failure",
    seconds: float = 0.0,
    source: str = "src",
    source_ip: str | None = "203.0.113.77",
) -> AuthEvent:
    return AuthEvent(
        record_ref=f"{source}#{ordinal}",
        outcome=outcome,
        account=account,
        source_ip=source_ip,
        timestamp_utc=BASE_TIME + timedelta(seconds=seconds),
    )


def as_schema_2(doc: dict, checkpoint, cache_dir: Path) -> dict:
    """A schema_version 3 report document as schema_version 2 wrote it: each
    transcript with its rendered_prompt, from the model cache entry in
    ``cache_dir`` for its id, and its grounding, from the state that
    ``checkpoint`` loads."""
    from pir.orchestrator import load_checkpoint

    loaded = load_checkpoint(checkpoint).transcripts
    assert len(loaded) == len(doc["transcripts"])
    transcripts = []
    for written, t in zip(doc["transcripts"], loaded):
        entry = json.loads((cache_dir / f"{t.transcript_id}.json").read_text(encoding="utf-8"))
        transcripts.append({**written, "rendered_prompt": entry["rendered_prompt"], "grounding": t.to_dict()["grounding"]})
    return {**doc, "transcripts": transcripts, "schema_version": 2}


def rewrite_checkpoint(path: Path, doc: dict) -> None:
    """Write ``doc`` as the <Stage>.json at ``path``, then re-seal the chain:
    each later stage's checkpoint gets the previous_digest of its
    predecessor's new bytes, as a review would have written it."""
    from pir.orchestrator import STAGES

    path.write_text(json.dumps(doc), encoding="utf-8")
    later = STAGES[STAGES.index(path.stem) :]
    for previous, stage in zip(later, later[1:]):
        successor = path.with_name(f"{stage}.json")
        doc = json.loads(successor.read_text(encoding="utf-8"))
        doc["previous_digest"] = sha256_hex(path.with_name(f"{previous}.json").read_bytes())
        successor.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture
def fixture_config_raw() -> dict:
    return json.loads((FIXTURES / "review_config.json").read_text(encoding="utf-8"))


@pytest.fixture
def demo_config(fixture_config_raw, tmp_path):
    from pir.config import ReviewConfig

    return ReviewConfig.from_dict(
        fixture_config_raw,
        FIXTURES,
        overrides={"output_dir": str(tmp_path / "out")},
    )
