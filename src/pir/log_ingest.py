"""Evidence ingestion: event XML and flattened CSV.

Two input formats feed the review with the same normalized records:

* XML exports in the standard Windows event schema, parsed as a stream,
* flattened CSV (as produced by :func:`flatten_to_csv`), which round-trips
  back.

A raw ``.evtx`` log is refused: its record bodies are binary XML, which
``pir`` does not decode, so it is exported as XML first.
:func:`validate_evtx_container` checks only the framing of such a file, and
nothing in the review calls it.

Every record carries a stable ``record_ref`` of the form
``<source_file>#<ordinal>`` (ordinals are 1-based document positions) so
downstream findings and reports can cite it; :func:`load_evidence` rejects
evidence sets in which two records share one.
"""

from __future__ import annotations

import csv
import gc
import io
import logging
import re
import xml.etree.ElementTree as ET
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from datetime import datetime
from functools import lru_cache, partial
from itertools import chain, compress
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, TextIO
from xml.parsers import expat

from .canon import Canonical, format_instant, read_instant
from .errors import (
    ConfigInvalidError,
    CsvSchemaError,
    DuplicateRecordRefError,
    MalformedContainerError,
    MissingSystemFieldError,
    XmlSyntaxError,
)

logger = logging.getLogger(__name__)

# EVTX framing constants; only these facts about the binary format are used.
EVTX_FILE_MAGIC = b"ElfFile\x00"
EVTX_CHUNK_MAGIC = b"ElfChnk\x00"
EVTX_HEADER_SIZE = 4096
EVTX_CHUNK_SIZE = 65536

# Windows Security-log identifiers for failed / successful logons.
EVENT_ID_LOGON_SUCCESS = 4624
EVENT_ID_LOGON_FAILURE = 4625
AUTH_EVENT_IDS = frozenset({EVENT_ID_LOGON_SUCCESS, EVENT_ID_LOGON_FAILURE})

# The evidence formats pir reads, by file suffix.
EVIDENCE_SUFFIXES = (".xml", ".csv")

# Fixed leading columns of the flattened CSV; event fields follow, sorted.
CSV_FIXED_COLUMNS = ("record_ref", "event_id", "timestamp_utc", "channel", "provider")


@dataclass
class ContainerSummary:
    """Integrity report for a raw EVTX file (framing only)."""

    file_path: str
    header_magic_valid: bool
    chunk_count: int
    declared_record_count: int
    warnings: list[str] = field(default_factory=list)


@dataclass
class EventRecord(Canonical):
    """One parsed log record; the evidence atom everything else cites."""

    record_ref: str
    event_id: int
    timestamp_utc: datetime
    channel: str
    provider: str
    fields: dict[str, str] = field(default_factory=dict)


# Piece templates are kept for at most this many record shapes (a record's
# channel, provider and field names in document order), whatever the
# evidence holds; an export repeats a few shapes, one per kind of event.
TEMPLATE_SHAPES = 256


@lru_cache(maxsize=TEMPLATE_SHAPES)
def _piece_template(channel: str, provider: str, *names: str) -> tuple[str, Callable]:
    """The %-template of the records.json piece of a record of this shape,
    and the function that puts the record's escaped field values, in
    document order, into the sorted order of their names. The template's
    literal text (the keys, the escaped channel, provider and field names)
    has every ``%`` doubled; it interpolates the event id, the escaped field
    values, the escaped record ref and the time text."""
    order = sorted(range(len(names)), key=names.__getitem__)

    def literal(text: str) -> str:
        return encode_basestring(text).replace("%", "%%")

    template = (
        '{"channel":' + literal(channel)
        + ',"event_id":%d,"fields":{'
        + ",".join([literal(names[i]) + ":%s" for i in order])
        + '},"provider":' + literal(provider)
        + ',"record_ref":%s,"timestamp_utc":"%s"}'
    )
    # itemgetter of one index returns the item itself, not a 1-tuple
    return template, itemgetter(*order) if len(order) > 1 else tuple


def encode_record(record: EventRecord, time_text: str | None = None) -> tuple[str, str]:
    """The record's time as canonical text and the record's canonical JSON,
    ``canon_dumps(record.to_dict())`` byte for byte, written directly from
    the template of the record's shape (_piece_template): the keys in
    sorted order, the fields sorted by name, and every string escaped as
    canon_dumps escapes it (``encode_basestring``, no ASCII escaping).
    ``time_text`` is the time's canonical text when the parse that built
    the record gave it (``canon.read_instant``); a record built any other
    way has its time rendered by ``format_instant``. Each record's piece of
    records.json is made here."""
    if time_text is None:
        time_text = format_instant(record.timestamp_utc)
    fields = record.fields
    template, in_sorted_order = _piece_template(record.channel, record.provider, *fields)
    return time_text, template % (
        record.event_id,
        *in_sorted_order([*map(encode_basestring, fields.values())]),
        encode_basestring(record.record_ref),
        time_text,
    )


class AuthEvent(NamedTuple):
    """Normalized view of a 4624/4625 record, projected by auth_event from
    the record's parts; never stored, always re-derived from the records
    as they are encoded or read back. Immutable like every item of the
    review state, but a named tuple: one is made per logon record, and a
    frozen dataclass takes about 2.5 times as long to build."""

    record_ref: str
    outcome: str  # "Failure" (4625) or "Success" (4624)
    account: str
    source_ip: str | None
    timestamp_utc: datetime


def validate_evtx_container(data: bytes, file_path: str = "<bytes>") -> ContainerSummary:
    """Check EVTX framing: header magic, declared counts, chunk census.

    Record bodies are never decoded. Raises MalformedContainerError when the
    file is shorter than the 4096-byte header or the header magic is wrong.
    """
    if len(data) < EVTX_HEADER_SIZE:
        raise MalformedContainerError(
            f"{file_path}: {len(data)} bytes is shorter than the "
            f"{EVTX_HEADER_SIZE}-byte EVTX header"
        )
    if data[:8] != EVTX_FILE_MAGIC:
        raise MalformedContainerError(
            f"{file_path}: header magic {data[:8]!r} != {EVTX_FILE_MAGIC!r}"
        )

    warnings: list[str] = []
    # Header fields consumed for the census: next record id (uint64 LE at
    # offset 24) and declared chunk count (uint16 LE at offset 42).
    next_record_id = int.from_bytes(data[24:32], "little")
    declared_record_count = max(next_record_id - 1, 0)
    declared_chunks = int.from_bytes(data[42:44], "little")

    chunk_count = 0
    offset = EVTX_HEADER_SIZE
    region = 0
    while offset < len(data):
        region += 1
        chunk = data[offset : offset + EVTX_CHUNK_SIZE]
        if len(chunk) < EVTX_CHUNK_SIZE:
            warnings.append(
                f"trailing {len(chunk)}-byte region after chunk {region - 1} "
                f"is shorter than a full chunk"
            )
            break
        if chunk[:8] == EVTX_CHUNK_MAGIC:
            chunk_count += 1
        else:
            warnings.append(f"chunk region {region} has invalid signature")
        offset += EVTX_CHUNK_SIZE

    if declared_chunks != chunk_count:
        warnings.append(
            f"header declares {declared_chunks} chunk(s) but {chunk_count} "
            f"valid chunk signature(s) found"
        )
    return ContainerSummary(
        file_path=file_path,
        header_magic_valid=True,
        chunk_count=chunk_count,
        declared_record_count=declared_record_count,
        warnings=warnings,
    )


# XML evidence is fed to the parser this many characters at a time.
CHUNK_CHARS = 64 * 1024

# Every document is parsed inside this synthetic root, so exports that
# concatenate <Event> elements with no root of their own parse as they are.
# It is fed right after any leading BOM and XML declaration.
_WRAPPER_START, _WRAPPER_END = "<Events>", "</Events>"
_DECLARATION = re.compile(r"\ufeff?(?:<\?xml\s.*?\?>)?", re.S)


def _pieces(document: str | TextIO) -> Iterator[str]:
    """The document's text in pieces of at most CHUNK_CHARS characters."""
    if isinstance(document, str):
        return (
            document[start : start + CHUNK_CHARS]
            for start in range(0, len(document), CHUNK_CHARS)
        )
    return iter(partial(document.read, CHUNK_CHARS), "")


def _split_prolog(pieces: Iterator[str]) -> tuple[str, str]:
    """Read from ``pieces`` until a leading BOM and XML declaration are
    known; return them and the rest of the text read so far."""
    head = ""
    for piece in pieces:
        head += piece
        # seven characters tell "<?xml " (after a BOM) from anything else
        declared = head.lstrip("\ufeff").startswith("<?xml")
        if len(head) > 6 and ("?>" in head or not declared):
            break
    end = _DECLARATION.match(head).end()
    return head[:end], head[end:]


def _syntax_error(exc: ET.ParseError, prolog: str) -> XmlSyntaxError:
    """Translate a parse error's position from the wrapped text back into
    the original: only columns after the wrapper, on its line, move."""
    line, column = exc.position
    wrapper_line = 1 + prolog.count("\n")
    wrapper_column = len(prolog) - (prolog.rfind("\n") + 1)
    if line == wrapper_line and column >= wrapper_column:
        column = max(wrapper_column, column - len(_WRAPPER_START))
    return XmlSyntaxError(
        f"malformed event XML at line {line}, column {column}: "
        f"{expat.ErrorString(exc.code)}",
        line=line,
        column=column,
    )


def _itself(record: EventRecord, time_text: str) -> EventRecord:
    return record


def parse_event_xml(document: str | TextIO, source: str = "<string>", keep=_itself) -> list:
    """Parse Windows event-export XML into records, in document order, and
    return the list of what ``keep(record, time_text)`` returns for each
    record (by default the record itself); ``time_text`` is the canonical
    text of the record's time, as ``canon.read_instant`` gave it.

    ``document`` is the XML text or an open text file; either is parsed
    incrementally, CHUNK_CHARS characters at a time. The export may have one
    root element or none (concatenated Event elements).

    The C parser builds the tree under a holder element that this function
    opens itself. After each piece is fed, every element that has a later
    sibling is complete: the walk down the last-child path from the holder
    hands the Events in those subtrees to ``keep`` and takes the subtrees
    off the tree. It never steps into an Event, which may still be open.
    What the tree holds does not grow with the file, and unless Events nest
    or other elements stand between them, no Python step runs per element.

    ``source`` names the originating file; ordinals are assigned by position
    so ``record_ref`` is ``<source>#<n>`` with n starting at 1. Records are
    numbered as their Event end tags are read, so an Event nested inside
    another is a record of its own and takes the lower ordinal. EventData
    ``Data`` elements flatten into ``fields`` keyed by their Name attribute.

    Raises XmlSyntaxError, with the line and column in the original text, on
    malformed markup and MissingSystemFieldError when an Event lacks a
    usable EventID or TimeCreated (records are never silently dropped). The
    first problem in document order is the one raised: on a syntax error,
    every Event that ended before it reaches ``keep`` first.

    The cyclic garbage collector is paused while the parse and ``keep`` run,
    as timeit pauses it: the parse allocates about a dozen short-lived
    Elements per record, which would set off collections, and makes no
    reference cycles, since an Element holds no parent pointer. A caller that
    had disabled the collector finds it still disabled.
    """
    pieces = _pieces(document)
    prolog, head = _split_prolog(pieces)
    builder = ET.TreeBuilder()
    parser = ET.XMLParser(target=builder)
    holder = builder.start("", {})  # no parsed tag is empty
    event_tags = _EventTags()
    names = event_tags.names
    records: list = []

    def prune(into_events: bool) -> None:
        # Below the holder, the open elements are a last-child path.
        node = holder
        while len(node):
            last = node[-1]
            if len(node) > 1:
                done = node[:-1]
                del node[:-1]
                for event in _events_in(done, event_tags):
                    records.append(keep(*_event_record(event, f"{source}#{len(records) + 1}", names)))
            if event_tags[last.tag] and not into_events:
                return
            node = last

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        error = None
        try:
            for piece in chain((prolog + _WRAPPER_START + head,), pieces, (_WRAPPER_END,)):
                parser.feed(piece)
                prune(into_events=False)
            parser.close()
        except ET.ParseError as exc:
            error = exc
        # An element opened now lands under the innermost open one, so every
        # element on the path to it is open, and everything else complete.
        builder.start("", {})
        prune(into_events=True)
        if error is not None:
            raise _syntax_error(error, prolog) from error
    finally:
        if gc_was_enabled:
            gc.enable()
    return records


class _EventTags(dict):
    """Tag -> whether it names an Event, filled in on first lookup, when
    the tag without its namespace is entered in ``names``."""

    def __init__(self):
        self.names: dict[str, str] = {}

    def __missing__(self, tag: str) -> bool:
        name = self.names[tag] = tag.rsplit("}", 1)[-1]
        is_event = self[tag] = name == "Event"
        return is_event


_TAG = attrgetter("tag")


def _events_in(done: list[ET.Element], event_tags: _EventTags) -> list[ET.Element]:
    """The Event elements in the complete subtrees ``done``, in the order of
    their end tags."""
    elements = list(chain.from_iterable(map(ET.Element.iter, done)))
    events = list(compress(elements, map(event_tags.__getitem__, map(_TAG, elements))))
    if events == done:  # a run of Events with none inside another
        return events
    # iter() is pre-order, which puts an Event before those nested in it;
    # walk in post-order instead, with a stack, as nesting has no bound
    events = []
    stack = [(None, iter(done))]
    while stack:
        parent, children = stack[-1]
        child = next(children, None)
        if child is not None:
            stack.append((child, iter(child)))
        else:
            stack.pop()
            if parent is not None and event_tags[parent.tag]:
                events.append(parent)
    return events


def _event_record(event: ET.Element, ref: str, names: dict[str, str]) -> tuple[EventRecord, str]:
    """Build the record of one complete Event element from its first System
    and every EventData child, found in one pass over its children, and
    give the canonical text of its time with it. The scan that found the
    Event entered every tag in it in ``names``."""
    system = None
    event_data = []
    for child in event:
        name = names[child.tag]
        if name == "System":
            if system is None:
                system = child
        elif name == "EventData":
            event_data.append(child)
    if system is None:
        raise MissingSystemFieldError(f"{ref}: Event has no System section")

    event_id_text: str | None = None
    system_time: str | None = None
    channel = ""
    provider = ""
    for child in system:
        name = names[child.tag]
        if name == "EventID":
            event_id_text = (child.text or "").strip()
        elif name == "TimeCreated":
            system_time = child.get("SystemTime")
        elif name == "Channel":
            channel = (child.text or "").strip()
        elif name == "Provider":
            provider = child.get("Name", "").strip()

    if not event_id_text:
        raise MissingSystemFieldError(f"{ref}: EventID absent")
    try:
        event_id = int(event_id_text)
    except ValueError:
        raise MissingSystemFieldError(
            f"{ref}: EventID {event_id_text!r} is not an integer"
        ) from None
    if event_id < 0:
        raise MissingSystemFieldError(f"{ref}: EventID {event_id} is negative")
    if not system_time:
        raise MissingSystemFieldError(f"{ref}: TimeCreated/@SystemTime absent")
    try:
        timestamp, zoned, time_text = read_instant(system_time)
    except ValueError:
        raise MissingSystemFieldError(
            f"{ref}: TimeCreated {system_time!r} is not a parseable timestamp"
        ) from None
    if not zoned:
        logger.warning("%s: offset-free timestamp %r assumed UTC", ref, system_time)

    fields: dict[str, str] = {}
    for child in event_data:
        for data in child:
            if names[data.tag] != "Data":
                continue
            name = data.get("Name")
            if name:
                fields[name] = data.text or ""

    return EventRecord(ref, event_id, timestamp, channel, provider, fields), time_text


def flatten_to_csv(records: list[EventRecord]) -> str:
    """Flatten records to deterministic RFC-4180 CSV.

    Column order is the fixed prefix followed by the union of field keys
    sorted lexicographically; output is byte-identical for identical input.
    """
    field_keys = sorted({k for r in records for k in r.fields})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(list(CSV_FIXED_COLUMNS) + field_keys)
    for r in records:
        row = [
            r.record_ref,
            str(r.event_id),
            format_instant(r.timestamp_utc),
            r.channel,
            r.provider,
        ]
        row.extend(r.fields.get(k, "") for k in field_keys)
        writer.writerow(row)
    return out.getvalue()


def load_csv(document: str | TextIO, keep=_itself) -> list:
    """Rebuild records from flattened CSV, in row order, and return the list
    of what ``keep(record, time_text)`` returns for each (by default the
    record itself), as parse_event_xml does; empty cells become absent
    fields.

    ``document`` is the CSV text or a text file opened with ``newline=""``,
    which is read row by row.

    Raises CsvSchemaError when the fixed header prefix is wrong or a cell
    violates its column type.
    """
    reader = csv.reader(io.StringIO(document) if isinstance(document, str) else document)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvSchemaError("CSV has no header row") from None
    if tuple(header[: len(CSV_FIXED_COLUMNS)]) != CSV_FIXED_COLUMNS:
        raise CsvSchemaError(
            f"header must start with {','.join(CSV_FIXED_COLUMNS)}; "
            f"got {','.join(header[:len(CSV_FIXED_COLUMNS)])}"
        )
    field_keys = header[len(CSV_FIXED_COLUMNS) :]

    records: list = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvSchemaError(f"row {lineno}: {len(row)} cells, header has {len(header)}")
        ref, event_id_text, ts_text, channel, provider = row[: len(CSV_FIXED_COLUMNS)]
        try:
            event_id = int(event_id_text)
        except ValueError:
            raise CsvSchemaError(
                f"row {lineno}: event_id {event_id_text!r} is not an integer"
            ) from None
        try:
            timestamp, zoned, time_text = read_instant(ts_text)
        except ValueError:
            raise CsvSchemaError(f"row {lineno}: timestamp_utc {ts_text!r} unparseable") from None
        if not zoned:
            logger.warning("%s: offset-free timestamp %r assumed UTC", ref, ts_text)
        fields = {k: v for k, v in zip(field_keys, row[len(CSV_FIXED_COLUMNS) :]) if v != ""}
        records.append(keep(EventRecord(ref, event_id, timestamp, channel, provider, fields), time_text))
    return records


def auth_event(
    record_ref: str, event_id: int, fields: dict[str, str], timestamp_utc: datetime
) -> AuthEvent | None:
    """Project a record, given by its parts, into an AuthEvent; None unless
    it is a 4624/4625 record. A record without a TargetUserName gets an
    empty account, which normalize_auth_events counts and drops."""
    if event_id not in AUTH_EVENT_IDS:
        return None
    source_ip = fields.get("IpAddress", "").strip()
    # by position: a named tuple takes about twice as long to build by keyword
    return AuthEvent(
        record_ref,
        "Failure" if event_id == EVENT_ID_LOGON_FAILURE else "Success",
        fields.get("TargetUserName", "").strip(),
        None if source_ip in ("", "-") else source_ip,
        timestamp_utc,
    )


def normalize_auth_events(projected: Iterable[AuthEvent | None]) -> tuple[list[AuthEvent], int]:
    """Sort the auth_event projections of records by (time, ref), passing
    over a None (not an auth record); returns the events plus a count of auth
    records skipped for lacking a TargetUserName (counted, never lost)."""
    auth = [e for e in projected if e is not None]
    events = sorted((e for e in auth if e.account), key=attrgetter("timestamp_utc", "record_ref"))
    return events, len(auth) - len(events)


def check_evidence_path(path: Path) -> None:
    """Raise ConfigInvalidError unless ``path`` is a file ending in one of
    EVIDENCE_SUFFIXES."""
    if not path.is_file():
        raise ConfigInvalidError(f"evidence path not found: {path}")
    if path.suffix.lower() not in EVIDENCE_SUFFIXES:
        raise ConfigInvalidError(
            f"unsupported evidence suffix: {path} must end in one of "
            f"{EVIDENCE_SUFFIXES}; export a raw .evtx log as XML first"
        )


def load_evidence(paths: list[Path], keep=_itself) -> list:
    """Read evidence files in order, handing each record and the canonical
    text of its time to ``keep`` as it is parsed; returns the list of what
    ``keep`` returned (by default the records).

    Raises ConfigInvalidError, before any file is read, for a missing file or
    a suffix outside EVIDENCE_SUFFIXES (an ``.evtx`` file among them), and
    DuplicateRecordRefError when two records share a record_ref, before the
    second of them reaches ``keep``.
    """
    for path in paths:
        check_evidence_path(path)
    kept: list = []
    source_of: dict[str, Path] = {}

    def keep_new(record: EventRecord, time_text: str):
        # called only while ``path``, the file being read, is current
        if record.record_ref in source_of:
            raise DuplicateRecordRefError(
                record.record_ref, str(source_of[record.record_ref]), str(path)
            )
        source_of[record.record_ref] = path
        return keep(record, time_text)

    for path in paths:
        # newline="" hands line ends to the parsers untranslated: the csv
        # module needs that for quoted fields, and XML normalises them itself.
        with path.open(encoding="utf-8", newline="") as stream:
            if path.suffix.lower() == ".xml":
                kept.extend(parse_event_xml(stream, path.stem, keep_new))
            else:
                kept.extend(load_csv(stream, keep_new))
    return kept
