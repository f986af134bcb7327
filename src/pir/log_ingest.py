"""Evidence ingestion: event XML and flattened CSV.

Two input formats feed the review with the same normalized records, each
built by one record rule (``_record``):

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
    ReviewError,
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


def encode_record(record: EventRecord, time_text: str) -> str:
    """The record's canonical JSON, ``canon_dumps(record.to_dict())`` byte
    for byte, written directly from the template of the record's shape
    (_piece_template): the keys in sorted order, the fields sorted by name,
    and every string escaped as canon_dumps escapes it
    (``encode_basestring``, no ASCII escaping). ``time_text`` is the
    canonical text of the record's time, as the parse that built the record
    gave it (``canon.read_instant``). Each record's piece of records.json is
    made here."""
    fields = record.fields
    template, in_sorted_order = _piece_template(record.channel, record.provider, *fields)
    return template % (
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


def _record(
    error: Callable[[str], ReviewError], where: object, ref: str, event_id: str | None, time: str,
    channel: str | None, provider: str, data: Iterable[tuple[str | None, str | None]],
) -> tuple[EventRecord, str]:
    """The record rule, one for XML and CSV evidence: the record built from
    the raw texts of its parts, and the canonical text of its time; or the
    exception that ``error`` makes of a message with ``where`` (the
    record's ref, or its CSV row number) in front, raised. ``where`` is
    formatted only then.

    The ref must not be empty. The event id, stripped of surrounding
    whitespace, must be ASCII digits only: no sign, ``_`` or non-ASCII
    digit, all of which ``int`` reads. The time is read by
    ``canon.read_instant``, and one with no offset is logged as assumed UTC.
    Channel and provider are stripped. A ``(name, value)`` pair of ``data``
    is a field only when both are non-empty, so an empty value is an absent
    field; a name with two such values is refused, so no value is lost.
    """
    if not ref:
        raise error(f"{where}: record_ref is empty")
    digits = (event_id or "").strip()
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        number = int(digits)  # ValueError beyond the interpreter's digit limit
    except ValueError:
        raise error(f"{where}: event id {digits!r} is not a number in ASCII digits") from None
    try:
        timestamp, zoned, time_text = read_instant(time)
    except ValueError:
        raise error(f"{where}: time {time!r} is not a parseable timestamp") from None
    if not zoned:
        logger.warning("%s: offset-free timestamp %r assumed UTC", ref, time)
    fields = {}
    for name, value in data:
        if name and value:
            if name in fields:
                raise error(f"{where}: field {name!r} has two values")
            fields[name] = value
    return EventRecord(ref, number, timestamp, (channel or "").strip(), provider.strip(), fields), time_text


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
    What the tree holds does not grow with the file, and unless other
    elements stand between the Events, no Python step runs per element.

    ``source`` names the originating file; ordinals are assigned by position
    so ``record_ref`` is ``<source>#<n>`` with n starting at 1. Each Event's
    record follows the record rule (_record); EventData ``Data`` elements
    give its fields, keyed by their Name attribute.

    Raises XmlSyntaxError, with the line and column in the original text, on
    malformed markup, and MissingSystemFieldError when an Event has no
    System section, holds another Event or breaks the record rule (records
    are never silently dropped). An Event's problems are found at its end
    tag, and the first problem in document order is the one raised: on a
    syntax error, every Event that ended before it reaches ``keep`` first.

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

    def prune() -> None:
        # Below the holder, the open elements are a last-child path.
        node = holder
        while len(node):
            last = node[-1]
            if len(node) > 1:
                done = node[:-1]
                del node[:-1]
                events, nested = _events_in(done, event_tags)
                for event in events:
                    records.append(keep(*_event_record(event, f"{source}#{len(records) + 1}", names)))
                if nested:
                    raise MissingSystemFieldError(f"{source}#{len(records) + 1}: Event holds another Event")
            if event_tags[last.tag]:
                return
            node = last

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        error = None
        try:
            for piece in chain((prolog + _WRAPPER_START + head,), pieces, (_WRAPPER_END,)):
                parser.feed(piece)
                prune()
            parser.close()
        except ET.ParseError as exc:
            error = exc
        # An element opened now lands under the innermost open one, so every
        # element on the path to it is open, and everything else complete.
        builder.start("", {})
        prune()
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


def _events_in(done: list[ET.Element], event_tags: _EventTags) -> tuple[list[ET.Element], bool]:
    """The Event elements in the complete subtrees ``done``, in document
    order up to the first that holds another Event, and whether one does."""
    elements = list(chain.from_iterable(map(ET.Element.iter, done)))
    events = list(compress(elements, map(event_tags.__getitem__, map(_TAG, elements))))
    if events == done:  # a run of Events, none inside another
        return events, False
    # iter() is pre-order, so an Event that holds others comes right before
    # the first of them; ``in`` finds an Element by identity
    for i, (event, after) in enumerate(zip(events, events[1:])):
        if after in event.iter():
            return events[:i], True
    return events, False


def _event_record(event: ET.Element, ref: str, names: dict[str, str]) -> tuple[EventRecord, str]:
    """The record of one complete Event element, and the canonical text of
    its time, by the record rule (_record) from the raw texts of its first
    System and every EventData child, found in one pass over its children.
    The scan that found the Event entered every tag in it in ``names``."""
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

    event_id = channel = None
    time = provider = ""
    for child in system:
        name = names[child.tag]
        if name == "EventID":
            event_id = child.text
        elif name == "TimeCreated":
            time = child.get("SystemTime", "")
        elif name == "Channel":
            channel = child.text
        elif name == "Provider":
            provider = child.get("Name", "")
    data = []
    for element in event_data:
        for child in element:
            if names[child.tag] == "Data":
                data.append((child.get("Name"), child.text))
    return _record(MissingSystemFieldError, ref, ref, event_id, time, channel, provider, data)


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
    record itself), as parse_event_xml does. Each row's record follows the
    record rule (_record), so an empty cell is an absent field.

    ``document`` is the CSV text or a text file opened with ``newline=""``,
    which is read row by row.

    Raises CsvSchemaError when the fixed header prefix is wrong, a row's
    length differs from the header's or a row breaks the record rule.
    """
    reader = csv.reader(io.StringIO(document) if isinstance(document, str) else document)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvSchemaError("CSV has no header row") from None
    fixed = len(CSV_FIXED_COLUMNS)
    if tuple(header[:fixed]) != CSV_FIXED_COLUMNS:
        raise CsvSchemaError(
            f"header must start with {','.join(CSV_FIXED_COLUMNS)}; got {','.join(header[:fixed])}"
        )
    field_keys = header[fixed:]

    records: list = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvSchemaError(f"row {lineno}: {len(row)} cells, header has {len(header)}")
        # the fixed columns are _record's ref, event id, time, channel and provider
        record = _record(_row_error, lineno, row[0], row[1], row[2], row[3], row[4], zip(field_keys, row[fixed:]))
        records.append(keep(*record))
    return records


def _row_error(message: str) -> CsvSchemaError:
    """load_csv's refusal of a row, whose number starts ``message``."""
    return CsvSchemaError("row " + message)


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

    Raises ConfigInvalidError, before any file is read, for no paths, a
    missing file or a suffix outside EVIDENCE_SUFFIXES (an ``.evtx`` file
    among them), DuplicateRecordRefError when two records share a
    record_ref, before the second of them reaches ``keep``, and
    XmlSyntaxError or CsvSchemaError naming a file that is not UTF-8.
    """
    if not paths:
        raise ConfigInvalidError("config lists no evidence_paths")
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
        xml = path.suffix.lower() == ".xml"
        # newline="" hands line ends to the parsers untranslated: the csv
        # module needs that for quoted fields, and XML normalises them itself.
        try:
            with path.open(encoding="utf-8", newline="") as stream:
                kept.extend(parse_event_xml(stream, path.stem, keep_new) if xml else load_csv(stream, keep_new))
        except UnicodeDecodeError as exc:
            raise (XmlSyntaxError if xml else CsvSchemaError)(f"{path} is not UTF-8: {exc}") from exc
    return kept
