import gc
import io
import logging
import random
import re
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pir.canon import format_instant, parse_instant, read_instant
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
    _WRAPPER_END,
    _WRAPPER_START,
    EventRecord,
    _pieces,
    _split_prolog,
    _syntax_error,
    encode_record,
    flatten_to_csv,
    load_csv,
    load_evidence,
    normalize_auth_events,
    parse_event_xml,
    validate_evtx_container,
)
from pir.scenario_gen import ScenarioSpec, generate

from conftest import evtx_bytes, event_xml, make_record, project


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


@pytest.mark.parametrize("year", [1, 999, 1000, 2026, 9999])
@pytest.mark.parametrize("microsecond", [0, 123456])
def test_format_instant_round_trips_every_year(year, microsecond):
    dt = datetime(year, 6, 1, 12, 0, 0, microsecond, tzinfo=timezone.utc)
    assert parse_instant(format_instant(dt)) == dt


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


def test_csv_offset_free_timestamps_warn(caplog):
    text = (
        "record_ref,event_id,timestamp_utc,channel,provider\r\n"
        "s#1,4625,2026-06-01T12:00:00,Security,P\r\n"
        "s#2,4625,2026-06-01T12:00:00Z,Security,P\r\n"
    )
    with caplog.at_level(logging.WARNING, logger="pir.log_ingest"):
        first, second = load_csv(text)
    assert first.timestamp_utc == second.timestamp_utc == datetime(2026, 6, 1, 12, tzinfo=timezone.utc)
    assert [m for m in caplog.messages if "assumed UTC" in m] == [
        "s#1: offset-free timestamp '2026-06-01T12:00:00' assumed UTC"
    ]


_DIGITS = "0123456789"


def _number(text: str) -> int:
    if not text or text.strip(_DIGITS):
        raise ValueError(f"{text!r} is not a run of ASCII digits")
    return int(text)


def hand_read(value: str) -> tuple[datetime, bool]:
    """Reference for read_instant, built by hand from the grammar it accepts:
    YYYY-MM-DD, T or a space, hh:mm:ss, an optional fraction of 1-9 ASCII
    digits and an optional Z/z or +hh:mm/-hh:mm (hours 00-23, minutes
    00-59), with whitespace around. It splits the fields by position and
    builds the instant with datetime and timedelta, so what it accepts does
    not depend on the interpreter's fromisoformat."""
    s = value.strip()
    if len(s) < 19 or s[4] + s[7] + s[13] + s[16] != "--::" or s[10] not in ("T", " "):
        raise ValueError(f"{value!r} has no YYYY-MM-DD[T ]hh:mm:ss")
    spans = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2))
    fields = [_number(s[i : i + n]) for i, n in spans]
    rest, microsecond = s[19:], 0
    if rest.startswith("."):
        tail = rest[1:].lstrip(_DIGITS)
        fraction, rest = rest[1 : len(rest) - len(tail)], tail
        if not 1 <= len(fraction) <= 9:
            raise ValueError(f"{value!r} has a fraction of {len(fraction)} digits")
        microsecond = int(fraction[:6].ljust(6, "0"))
    instant = datetime(*fields, microsecond, tzinfo=timezone.utc)
    if rest in ("", "Z", "z"):
        return instant, rest != ""
    if len(rest) != 6 or rest[0] not in ("+", "-") or rest[3] != ":":
        raise ValueError(f"{value!r} ends in {rest!r}, not Z or an offset")
    hours, minutes = _number(rest[1:3]), _number(rest[4:6])
    if hours > 23 or minutes > 59:
        raise ValueError(f"{value!r} has offset {rest!r}")
    offset = timedelta(hours=hours, minutes=minutes)
    try:
        return (instant - offset if rest[0] == "+" else instant + offset), True
    except OverflowError:
        raise ValueError(f"{value!r} falls outside years 1-9999 in UTC") from None


def _outcome(read, text):
    try:
        dt, zoned = read(text)
    except ValueError:
        return ValueError
    return dt, dt.tzinfo, zoned


_OFFSETS = st.builds(
    lambda sign, minutes: f"{sign}{minutes // 60:02d}:{minutes % 60:02d}",
    st.sampled_from("+-"),
    st.integers(0, 24 * 60 - 1),
)

# Each flaw rewrites the parts of a well-formed time (date, sep, clock,
# fraction, zone) into a form the grammar leaves out.
_FLAWS = {
    "comma fraction": lambda p: p | {"fraction": "," + (p["fraction"][1:] or "5")},
    "text after the fraction": lambda p: p | {"fraction": p["fraction"] + "abc"},
    "basic date": lambda p: p | {"date": p["date"].replace("-", "")},
    "basic clock": lambda p: p | {"clock": p["clock"].replace(":", "")},
    "week date": lambda p: p
    | {"date": "{:04d}-W{:02d}-{}".format(*datetime.fromisoformat(p["date"]).isocalendar())},
    "bare date": lambda p: {"date": p["date"]},
    "no seconds": lambda p: p | {"clock": p["clock"][:5], "fraction": ""},
    "+hhmm offset": lambda p: p | {"zone": "+" + p["clock"][:5].replace(":", "")},
    "ten fraction digits": lambda p: p | {"fraction": "." + p["fraction"][1:] + "0" * 10},
    "lower-case t": lambda p: p | {"sep": "t"},
    "offset hour 24": lambda p: p | {"zone": "+24:00"},
    "offset minute 60": lambda p: p | {"zone": "-00:60"},
    "non-ASCII digit": lambda p: p | {"date": chr(0x660 + int(p["date"][0])) + p["date"][1:]},
}


def _example(when, separator, fraction, zone):
    return example(when=when, separator=separator, fraction=fraction, zone=zone, flaw=None, before="", after="")


@settings(max_examples=400, deadline=None)
@given(
    when=st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
    separator=st.sampled_from("T "),
    fraction=st.none() | st.text(_DIGITS, min_size=1, max_size=9) | st.text("0", min_size=1, max_size=9),
    zone=st.sampled_from(["", "z", "Z"]) | _OFFSETS,
    flaw=st.none() | st.sampled_from(sorted(_FLAWS)),
    before=st.sampled_from(["", " ", "\t", "\n  "]),
    after=st.sampled_from(["", " ", "\r\n"]),
)
# the canonical text drops an all-zero fraction and cuts 7-9 digits to 6;
# an offset can move the date across a day or a year
@_example(datetime(2026, 6, 1, 12), " ", "000000000", "z")
@_example(datetime(2026, 6, 1, 12), " ", "0000000", "")
@_example(datetime(2026, 6, 1, 12), "T", "1234567", "Z")
@_example(datetime(2026, 6, 1, 12), "T", "123456789", "z")
@_example(datetime(2026, 6, 1, 12), "T", "0000009", "Z")
@_example(datetime(2026, 6, 1, 12), "T", "5", "")
@_example(datetime(2026, 6, 1, 0, 30), " ", "1234567", "+02:00")
@_example(datetime(2026, 6, 30, 23, 30), "T", "000", "-01:00")
@_example(datetime(2026, 12, 31, 23, 30), " ", "9999999", "-00:45")
@_example(datetime(2027, 1, 1, 0, 15), "T", None, "+23:59")
@_example(datetime(2024, 2, 28, 23, 0), "T", "100000001", "-01:00")
def test_read_instant_equals_hand_built_reader(when, separator, fraction, zone, flaw, before, after):
    parts = {
        "date": when.date().isoformat(),
        "sep": separator,
        "clock": when.time().isoformat(timespec="seconds"),
        "fraction": "" if fraction is None else "." + fraction,
        "zone": zone,
    }
    if flaw is not None:
        parts = _FLAWS[flaw](parts)
    pieces = (parts.get(k, "") for k in ("date", "sep", "clock", "fraction", "zone"))
    text = before + "".join(pieces) + after
    expected = _outcome(hand_read, text)
    assert _outcome(lambda t: read_instant(t)[:2], text) == expected
    if flaw is not None:
        assert expected is ValueError
    elif expected is not ValueError:
        assert parse_instant(text) == expected[0]
        assert expected[2] == (zone != "")
        assert read_instant(text)[2] == format_instant(expected[0])


@pytest.mark.parametrize(
    "text",
    [
        "20260601T120000Z",
        "2026-W22-1",
        "2026-06-01 12:00:00,5Z",
        "2026-06-01T14:00:00.5abc+02:00",
        "2026-06-01T12:00:00+0200",
        "2026-06-01",
        "2026-06-01T12:00Z",
        "2026-06-01T12:00:00.1234567890Z",
        "2026-06-01T12:00:00+01:60",
        "2026-06-01t12:00:00Z",
        "2026-06-01T12:00:00.\u0665Z",
        "2026-06-01T24:00:00Z",
        "",
    ],
)
def test_read_instant_refuses_what_the_grammar_leaves_out(text):
    with pytest.raises(ValueError):
        read_instant(text)


@settings(max_examples=200, deadline=None)
@given(
    when=st.datetimes(
        min_value=datetime(2, 1, 1),
        max_value=datetime(9998, 12, 31, 23, 59, 59, 999999),
        timezones=st.none()
        | st.just(timezone.utc)
        | st.builds(timezone, st.timedeltas(timedelta(hours=-23), timedelta(hours=23))),
    )
)
def test_every_format_instant_output_reads_back_unchanged(when):
    text = format_instant(when)
    assert read_instant(text) == (when if when.tzinfo else when.replace(tzinfo=timezone.utc), True, text)
    assert format_instant(read_instant(text)[0]) == text


def oracle_parse(text: str, source: str) -> list[EventRecord]:
    """Tree-walk reference for parse_event_xml on well-formed exports with no
    nested Events: build the whole tree, then read every Event in it."""
    body = re.sub(r"^\ufeff?(<\?xml[^>]*\?>)?", "", text)
    root = ET.fromstring(f"<Events>{body}</Events>")

    def local(element):
        return element.tag.rsplit("}", 1)[-1]

    events = [e for e in root.iter() if local(e) == "Event"]
    records = []
    for n, event in enumerate(events, start=1):
        [system] = [c for c in event if local(c) == "System"]
        system_fields = {local(c): c for c in system}
        records.append(
            EventRecord(
                record_ref=f"{source}#{n}",
                event_id=int(system_fields["EventID"].text),
                timestamp_utc=parse_instant(system_fields["TimeCreated"].get("SystemTime")),
                channel=(system_fields["Channel"].text or "").strip(),
                provider=system_fields["Provider"].get("Name", "").strip(),
                fields={
                    d.get("Name"): d.text or ""
                    for c in event
                    if local(c) == "EventData"
                    for d in c
                    if local(d) == "Data" and d.get("Name")
                },
            )
        )
    return records


class RaggedReader(io.TextIOBase):
    """A text stream whose reads return pieces of random length, as a slow
    pipe or socket may."""

    def __init__(self, text: str, rng: random.Random, longest: int):
        self._text, self._at, self._rng, self._longest = text, 0, rng, longest

    def readable(self):
        return True

    def read(self, size=-1):
        size = len(self._text) if size is None or size < 0 else size
        end = self._at + min(size, self._rng.randint(1, self._longest))
        piece, self._at = self._text[self._at : end], min(end, len(self._text))
        return piece


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    noise=st.integers(0, 25),
    declaration=st.booleans(),
    root=st.booleans(),
    bom=st.booleans(),
    longest=st.sampled_from([7, 300, 70_000]),
    piece_seed=st.integers(0, 2**32),
)
def test_streaming_parse_equals_tree_walk_oracle(
    seed, noise, declaration, root, bom, longest, piece_seed
):
    xml, _truth = generate(
        ScenarioSpec(seed=seed, noise_events=noise, noise_accounts=("jdoe", "svc")),
        source_name="host",
    )
    decl_line, root_open, *events, root_close = xml.rstrip("\n").split("\n")
    assert decl_line.startswith("<?xml ")
    assert (root_open, root_close) == ("<Events>", "</Events>")
    lines = events if not root else [root_open, *events, root_close]
    text = ("\ufeff" if bom else "") + "\n".join(
        [decl_line, *lines] if declaration else lines
    )
    expected = oracle_parse(text, "host")
    assert len(expected) == noise + 7  # six failures and a success
    assert parse_event_xml(text, source="host") == expected
    stream = RaggedReader(text, random.Random(piece_seed), longest)
    assert parse_event_xml(stream, source="host") == expected


@pytest.mark.parametrize(
    "text, line, column",
    [
        # line 1, after a declaration: the column counts from the file's start
        ('<?xml version="1.0"?><Event><System></Event>', 1, 38),
        # root-less export, second Event broken on line 3
        (
            "<Event><System><EventID>1</EventID>"
            '<TimeCreated SystemTime="2026-06-01T12:00:00Z"/></System></Event>\n'
            "<!-- next -->\n"
            "<Event><System></Event>",
            3,
            17,
        ),
    ],
)
def test_syntax_error_position_points_into_the_original_text(text, line, column):
    with pytest.raises(XmlSyntaxError) as err:
        parse_event_xml(text, source="s")
    assert (err.value.line, err.value.column) == (line, column)
    assert f"line {line}, column {column}" in str(err.value)
    # the position is the name in the end tag that does not match
    assert text.splitlines()[line - 1][column:] == "Event>"


_NS = 'xmlns="http://schemas.microsoft.com/win/2004/08/events/event"'
_PLAIN_EVENT = (
    "<Event><System><EventID>4625</EventID>"
    '<TimeCreated SystemTime="2026-06-01T12:00:00Z"/></System></Event>'
)


@pytest.mark.parametrize(
    "text",
    [
        # the inner Event in the outer one's EventData, in one namespace
        f"<Events>{_PLAIN_EVENT}<Event {_NS}>"
        "<System><EventID>4625</EventID>"
        '<TimeCreated SystemTime="2026-06-01T12:00:00Z"/></System>'
        '<EventData><Data Name="TargetUserName">outer</Data>'
        f"{_PLAIN_EVENT}</EventData></Event></Events>",
        # directly inside, two deep, and the outer Event breaks the rule too
        f"{_PLAIN_EVENT}<Event><Event>{_PLAIN_EVENT}</Event></Event>",
    ],
)
def test_an_event_inside_another_is_refused_at_its_end_tag(text):
    for document in (text, RaggedReader(text, random.Random(0), 5)):
        kept = []
        with pytest.raises(MissingSystemFieldError, match=r"^s#2: Event holds another Event$"):
            parse_event_xml(document, source="s", keep=lambda record, time_text: kept.append(record.record_ref))
        assert kept == ["s#1"]
    # an Event still open at a syntax error never ends
    with pytest.raises(XmlSyntaxError):
        parse_event_xml(f"{_PLAIN_EVENT}<Event><EventData>{_PLAIN_EVENT}<1>", source="s")


def pull_parse_event_xml(document, source="<string>", keep=lambda record, time_text: record):
    """Reference for parse_event_xml: the pull parser it replaced, which
    stepped through the start and end of each element and built each record
    from the Event as its end tag was read, refusing at its end tag an Event
    that held another. It hands ``keep`` the time text that format_instant
    makes of the record's instant."""
    pieces = _pieces(document)
    prolog, head = _split_prolog(pieces)
    parser = ET.XMLPullParser(events=("start", "end"))
    local = {}
    records = []
    open_events, nested = 0, False
    try:
        for piece in chain((prolog + _WRAPPER_START + head,), pieces, (_WRAPPER_END,)):
            parser.feed(piece)
            for kind, elem in parser.read_events():
                name = local.get(elem.tag)
                if name is None:
                    name = local[elem.tag] = elem.tag.rsplit("}", 1)[-1]
                if name != "Event":
                    continue
                if kind == "start":
                    open_events += 1
                    continue
                open_events -= 1
                if open_events:
                    nested = True
                    continue
                ref = f"{source}#{len(records) + 1}"
                if nested:
                    raise MissingSystemFieldError(f"{ref}: Event holds another Event")
                record = _pull_event_record(elem, ref, local)
                records.append(keep(record, format_instant(record.timestamp_utc)))
                elem.clear()
        parser.close()
    except ET.ParseError as exc:
        raise _syntax_error(exc, prolog) from exc
    return records


def _pull_event_record(event, ref, local):
    system = None
    for child in event:
        if local[child.tag] == "System":
            system = child
            break
    if system is None:
        raise MissingSystemFieldError(f"{ref}: Event has no System section")
    event_id_text = time_text = None
    channel = provider = ""
    for child in system:
        name = local[child.tag]
        if name == "EventID":
            event_id_text = (child.text or "").strip()
        elif name == "TimeCreated":
            time_text = child.attrib.get("SystemTime")
        elif name == "Channel":
            channel = (child.text or "").strip()
        elif name == "Provider":
            provider = child.attrib.get("Name", "").strip()
    event_id_text = event_id_text or ""
    if not re.fullmatch("[0-9]+", event_id_text):
        raise MissingSystemFieldError(f"{ref}: event id {event_id_text!r} is not a number in ASCII digits")
    time_text = time_text or ""
    try:
        timestamp = parse_instant(time_text)
    except ValueError:
        raise MissingSystemFieldError(f"{ref}: time {time_text!r} is not a parseable timestamp") from None
    fields = {}
    for child in event:
        if local[child.tag] != "EventData":
            continue
        for data in child:
            if local[data.tag] != "Data":
                continue
            name = data.attrib.get("Name")
            if name and data.text:
                if name in fields:
                    raise MissingSystemFieldError(f"{ref}: field {name!r} has two values")
                fields[name] = data.text
    return EventRecord(ref, int(event_id_text), timestamp, channel, provider, fields)


# Each element is written plain, in the export's default namespace, or with a
# prefix of its own; parse_event_xml reads names without their namespace.
_NAMINGS = [
    ("", ""),
    ("", ' xmlns="http://schemas.microsoft.com/win/2004/08/events/event"'),
    ("e:", ' xmlns:e="urn:e"'),
]
_TEXTS = ["", "x", " a&amp;b ", "&lt;&#65;&#x42;&gt;", "<![CDATA[c<d]]>", "\n  "]
_BETWEEN = ["", "\n", "<!-- note -->", "<?pi data?>", " text ", "<![CDATA[</Event>]]>"]
_SYNTAX_ERRORS = ["</Bogus>", "<1>", "&bogus;", "<a b>", "]]>", "<!-- -- -->"]
# unfinished at the end of the text, they take in the wrapper's end tag:
# close() finds them, not feed()
_OPEN_AT_END = ["<![CDATA[ tail", "<!-- tail", "<?pi tail"]


def _element(choose, name, content, attributes=""):
    prefix, declaration = choose(_NAMINGS)
    return f"<{prefix}{name}{declaration}{attributes}>{content}</{prefix}{name}>"


def _event(choose, depth):
    # one Event in ten lacks a usable EventID, TimeCreated or System
    fault = choose([None] * 27 + ["EventID", "TimeCreated", "System"])
    system = []
    event_id = choose(
        ["4625", "4624", " 4624 "]
        if fault != "EventID"
        else ["", "x", "-1", "+4625", "4_625", "\u0664\u0666\u0662\u0665", None]
    )
    if event_id is not None:
        system.append(_element(choose, "EventID", event_id))
    time_text = choose(
        ["2026-06-01T12:00:00Z", "2026-06-01T14:00:00.5+02:00", "2026-06-01T12:00:00"]
        if fault != "TimeCreated"
        else ["soon", "", None]
    )
    if time_text is not None:
        system.append(_element(choose, "TimeCreated", "", f' SystemTime="{time_text}"'))
    system.append(_element(choose, "Channel", choose(["Security", " Sec&amp;urity ", ""])))
    system.append(_element(choose, "Provider", "", choose(["", ' Name="P"', ' Name=" Q&lt; "'])))
    data = [
        _element(choose, choose(["Data", "Data", "Other"]), choose(_TEXTS),
                 choose([' Name="A"', ' Name="B"', ' Name=""', ""]))
        for _ in range(choose(range(4)))
    ]
    if depth and choose([False, True]):
        data.insert(choose(range(len(data) + 1)), _items(choose, depth - 1))
    parts = {
        "System": _element(choose, "System", choose(_BETWEEN).join(system)),
        "EventData": _element(choose, "EventData", "".join(data)),
    }
    shape = choose(
        ["System EventData", "System", "EventData System", "System System EventData"]
        if fault != "System"
        else ["EventData", ""]
    )
    return _element(choose, "Event", choose(_BETWEEN).join(parts[name] for name in shape.split()))


def _items(choose, depth):
    """Events, other elements that may hold Events, and what may stand
    between them."""
    parts = []
    for _ in range(choose(range(5))):
        kind = choose(["event", "event", "other", "between"])
        if kind == "event":
            parts.append(_event(choose, depth))
        elif kind == "other" and depth:
            parts.append(_element(choose, "Other", _items(choose, depth - 1)))
        else:
            parts.append(choose(_BETWEEN))
        parts.append(choose(["\n", ""]))
    return "".join(parts)


def export_document(choose):
    """An event export built by ``choose`` (which picks one of the options
    it is given): a BOM and declaration or not, one root or none, nested
    Events across namespaces, other markup between them, and at most one
    syntax error, inline or left open at the end."""
    body = _items(choose, depth=2)
    root = choose([None, "Events", "Root"])
    if root is not None:
        body = _element(choose, root, body)
    text = choose(["", "\ufeff"]) + choose(["", '<?xml version="1.0" encoding="utf-8"?>\n']) + body
    error = choose([None, None, "inline", "at end"])
    if error == "inline":
        at = choose(range(len(text) + 1))
        text = text[:at] + choose(_SYNTAX_ERRORS) + text[at:]
    elif error == "at end":
        text += choose(_OPEN_AT_END)
    return text


def _parse_outcome(parse, document):
    """The refs and time texts handed to ``keep``, in order, and the records
    returned or the error raised."""
    kept = []

    def keep(record, time_text):
        kept.append((record.record_ref, time_text))
        return record.to_dict()

    try:
        return kept, parse(document, "s", keep)
    except (XmlSyntaxError, MissingSystemFieldError) as exc:
        return kept, (type(exc), str(exc))


@st.composite
def export_documents(draw):
    return export_document(lambda options: draw(st.sampled_from(options)))


@settings(max_examples=400, deadline=None)
@given(
    document=export_documents(),
    longest=st.sampled_from([1, 5, 60, 70_000]),
    piece_seed=st.integers(0, 2**32),
)
def test_parse_equals_the_pull_parser_reference(document, longest, piece_seed):
    assert _parse_outcome(parse_event_xml, document) == _parse_outcome(pull_parse_event_xml, document)

    def ragged():
        return RaggedReader(document, random.Random(piece_seed), longest)

    assert _parse_outcome(parse_event_xml, ragged()) == _parse_outcome(pull_parse_event_xml, ragged())


_NO_EVENT_ID = '<Event><System><TimeCreated SystemTime="2026-06-01T12:00:00Z"/></System></Event>'


@pytest.mark.parametrize(
    "text",
    [
        # the mismatched tag is in the same piece as the faulty Event
        _NO_EVENT_ID + "<Other></Bogus>",
        # an invalid token right after the faulty Event closes
        _NO_EVENT_ID + "<1>",
        # close() finds the CDATA section never closed
        _NO_EVENT_ID + "<![CDATA[ tail",
        # the faulty Event ends inside an element still open at the error
        "<Other><EventData>" + _NO_EVENT_ID + "<1>",
    ],
)
def test_an_event_that_ends_before_a_syntax_error_is_reported_first(text):
    for document in (text, RaggedReader(text, random.Random(0), 3)):
        with pytest.raises(MissingSystemFieldError, match="s#1: event id '' is not"):
            parse_event_xml(document, source="s")
    with pytest.raises(XmlSyntaxError):
        parse_event_xml(text.replace("<System>", "<System><EventID>1</EventID>"), source="s")


def test_load_evidence_parse_memory_does_not_grow_with_the_file(tmp_path):
    spec = ScenarioSpec(seed=3, noise_events=20_000, noise_accounts=("jdoe", "svc"))
    xml, _truth = generate(spec, source_name="big")
    path = tmp_path / "big.xml"
    path.write_text(xml, encoding="utf-8")
    del xml
    tracemalloc.start()
    try:
        records = load_evidence([path])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 20_007
    # what the parse held beyond the records it returned; a tree of this
    # whole 11.5 MB document holds over 100 MB
    assert peak - retained < 4_000_000


def test_parse_memory_beyond_what_keep_returns_does_not_grow_with_the_file():
    event = (
        "<Event><System><EventID>4625</EventID>"
        '<TimeCreated SystemTime="2026-06-01T12:00:00Z"/></System></Event>\n'
    )
    held = []
    for count in (4_000, 24_000):
        stream = io.StringIO(event * count)
        tracemalloc.start()
        try:
            assert len(parse_event_xml(stream, source="s", keep=lambda record, time_text: None)) == count
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak - retained)
    # a parse that keeps each finished Event on the tree holds about 90 B
    # more per record: 1.8 MB more here
    assert held[1] - held[0] < 1_000_000


def test_piece_templates_do_not_grow_with_the_number_of_record_shapes():
    def encode_only(record, time_text):
        encode_record(record, time_text)

    held, retained_by_count = [], []
    for count in (2_000, 12_000):
        # every record has a field-name set of its own, so a shape of its own
        stream = io.StringIO(
            "".join(
                "<Event><System><EventID>4625</EventID>"
                '<TimeCreated SystemTime="2026-06-01T12:00:00Z"/></System>'
                f'<EventData><Data Name="A{i}">a</Data><Data Name="B{i}">b</Data></EventData></Event>\n'
                for i in range(count)
            )
        )
        tracemalloc.start()
        try:
            assert len(parse_event_xml(stream, source="s", keep=encode_only)) == count
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak - retained)
        retained_by_count.append(retained)
    # with no cap, the templates of the 10,000 more shapes hold about 5 MB,
    # whether they are dropped when the parse ends or kept
    assert held[1] - held[0] < 1_000_000
    assert retained_by_count[1] - retained_by_count[0] < 1_000_000


def test_load_evidence_runs_no_garbage_collection_during_the_parse(tmp_path):
    # Gen-0 collections start every 700 net allocations, and the parse
    # allocates about a dozen Elements per record: unpaused, this parse sets
    # off over a hundred collections, one of them full. Paused, the only one
    # is the young collection the collector runs over the kept records once
    # it is re-enabled.
    spec = ScenarioSpec(seed=5, noise_events=3_000, noise_accounts=("jdoe",))
    xml, _truth = generate(spec, source_name="host")
    path = tmp_path / "host.xml"
    path.write_text(xml, encoding="utf-8")
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()  # start every generation's count from zero
    gc.callbacks.append(count)
    try:
        records = load_evidence([path])
    finally:
        gc.callbacks.remove(count)
    assert len(records) == 3_007
    assert collections in ([], [0])
    assert gc.isenabled()


@pytest.mark.parametrize(
    "text, error",
    [
        (event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z"}]), None),
        ("<Events><Event></Events>", XmlSyntaxError),
        (event_xml([{"time": "2026-06-01T12:00:00Z"}]), MissingSystemFieldError),
    ],
)
@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_the_garbage_collector_state(text, error, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert len(parse_event_xml(text, source="s")) == 1
        else:
            with pytest.raises(error):
                parse_event_xml(text, source="s")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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


@settings(max_examples=300, deadline=None)
@given(document=export_documents())
def test_every_accepted_xml_export_round_trips_through_csv_exactly(document):
    # empty Data values, Data without a Name and whitespace around the
    # channel, provider and event id among them
    try:
        records = parse_event_xml(document, source="s")
    except (XmlSyntaxError, MissingSystemFieldError):
        return
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
    events, skipped = normalize_auth_events(map(project, records))
    assert events == [] and skipped == 0


def test_failure_then_success_pattern():
    records = [
        make_record(1, event_id=4625, fields={"TargetUserName": "admin"}),
        make_record(2, event_id=4624, seconds=5, fields={"TargetUserName": "admin"}),
    ]
    events, skipped = normalize_auth_events(map(project, records))
    assert [e.outcome for e in events] == ["Failure", "Success"]
    assert skipped == 0


def test_missing_account_counted_as_skipped():
    records = [make_record(1, event_id=4625, fields={"TargetUserName": ""})]
    events, skipped = normalize_auth_events(map(project, records))
    assert events == [] and skipped == 1


def test_conservation_of_auth_records():
    records = [
        make_record(1, event_id=4625, fields={"TargetUserName": "a"}),
        make_record(2, event_id=4624, fields={}),
        make_record(3, event_id=4688, fields={"TargetUserName": "a"}),
        make_record(4, event_id=4625, fields={"TargetUserName": "b"}),
    ]
    events, skipped = normalize_auth_events(map(project, records))
    auth_total = sum(1 for r in records if r.event_id in (4624, 4625))
    assert len(events) + skipped == auth_total


def test_sorted_by_timestamp_then_ref():
    records = [
        make_record(2, event_id=4625, seconds=10, fields={"TargetUserName": "a"}),
        make_record(1, event_id=4625, seconds=10, fields={"TargetUserName": "a"}),
        make_record(3, event_id=4625, seconds=0, fields={"TargetUserName": "a"}),
    ]
    events, _ = normalize_auth_events(map(project, records))
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
    events, _ = normalize_auth_events(map(project, records))
    assert events[0].source_ip is None
    assert events[1].source_ip == "10.1.2.3"


# --- evidence sets ------------------------------------------------------------------


def test_load_evidence_reads_each_format_in_order(tmp_path):
    xml = tmp_path / "host.xml"
    xml.write_text(event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z"}]))
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text(flatten_to_csv([make_record(1, source="other")]))
    records = load_evidence([csv_path, xml])
    assert [r.record_ref for r in records] == ["other#1", "host#1"]
    records = load_evidence([xml, csv_path])
    assert [r.record_ref for r in records] == ["host#1", "other#1"]


def test_load_evidence_refuses_evtx_before_reading_any_file(tmp_path):
    # pir decodes no EVTX record, so a raw log is refused, not passed over
    xml = tmp_path / "host.xml"
    xml.write_text(event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z"}]))
    evtx = tmp_path / "raw.evtx"
    evtx.write_bytes(evtx_bytes(1, next_record_id=5001))
    kept = []
    with pytest.raises(ConfigInvalidError, match="unsupported evidence suffix") as exc:
        load_evidence([xml, evtx], kept.append)
    assert str(evtx) in str(exc.value)
    assert "export a raw .evtx log as XML first" in str(exc.value)
    assert kept == []


def test_load_evidence_keeps_line_ends_inside_quoted_csv_fields(tmp_path):
    record = make_record(1, fields={"Msg": 'say "hi"\r\nthen\rthen\nend', "Plain": "v"})
    path = tmp_path / "flat.csv"
    path.write_text(flatten_to_csv([record]), encoding="utf-8", newline="")
    records = load_evidence([path])
    assert records == [record]


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
    events, _skipped = normalize_auth_events(map(project, records))
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

        records = load_evidence([head, tail])
        assert records == whole
        findings = _findings(whole)
        assert findings and _findings(records) == findings

        # the XML and any non-empty part of its CSV name the same refs
        with pytest.raises(DuplicateRecordRefError):
            load_evidence([xml_path, head if cut else tail])
