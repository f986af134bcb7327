"""Canonical serialization shared across the pipeline.

All digests, cache keys, checkpoints and report bytes go through these
functions so identical state always produces identical bytes: keys sorted,
no insignificant whitespace, UTF-8, and timestamps rendered as UTC ISO-8601
with a trailing ``Z``. The one exception is the records.json piece of each
evidence record, which ``log_ingest.encode_record`` writes directly,
because a review encodes every record: its bytes are those of
``canon_dumps(record.to_dict())``, which the properties
``test_record_digests_agree_at_write_at_load_and_with_digest_of`` and
``test_parsed_records_are_written_as_canon_dumps_writes_them`` in
tests/test_orchestrator.py pin. The time in that piece is the canonical
text :func:`read_instant` gave when the evidence was parsed, which is what
:func:`format_instant` makes of the instant. Floats are written as given
(Python's shortest round-tripping form), so a float reads back equal.

Record types written to JSON inherit :class:`Canonical`, whose
``to_dict``/``from_dict`` follow from the dataclass fields and their type
hints; ``ReviewState`` converts its stored fields by
:func:`encode_fields`/:func:`decode_fields`, and ``Index`` keeps its own
code. A record's JSON form is an object with one key per field, named as
the field, and each value is converted by its type:

* ``datetime`` goes through :func:`format_instant` / :func:`parse_instant`,
* a nested record uses its own ``to_dict`` / ``from_dict``,
* ``list[T]`` converts each item by ``T`` into a new list; ``tuple[T, ...]``
  is written as a list and read back as a tuple,
* ``X | None`` writes and reads ``None`` as ``null`` and converts other values
  by ``X``,
* anything else (str, int, float, bool, plain dicts, other unions) is taken
  as JSON holds it.

``from_dict`` converts what needs it and calls the class with the rest as
keyword arguments, so an unknown key, or a missing key whose field has no
default, raises TypeError. The dict ``to_dict`` returns shares no list with
the record, but shares plain dicts, which must not be mutated in place.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import types
import typing
from datetime import datetime, timezone


# json.dumps builds an encoder per call; encode keeps no state between calls.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canon_dumps(obj) -> str:
    """Serialize to the canonical JSON form used for digests and reports."""
    return _ENCODER.encode(obj)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_of(obj) -> str:
    """SHA-256 of an object's canonical JSON form."""
    return sha256_hex(canon_dumps(obj))


_INSTANT_RE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[T ]([0-9]{2}:[0-9]{2}:[0-9]{2})"
    r"(?:\.([0-9]{1,9}))?([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?"
)


def read_instant(value: str) -> tuple[datetime, bool, str]:
    """Parse a timestamp into an aware UTC datetime, tell whether the text
    named its zone, and give the instant's canonical text, which is what
    :func:`format_instant` makes of it.

    Whitespace around it aside, the text must be ``YYYY-MM-DD``, ``T`` or a
    space, ``hh:mm:ss``, an optional fraction of 1-9 ASCII digits, and an
    optional ``Z``/``z`` or ``+hh:mm``/``-hh:mm`` offset (hours 00-23). A
    bare date, a comma fraction or a ``+hhmm`` offset is refused. The
    fraction is cut or padded to microseconds (Windows exports write seven
    digits), an offset-free time is taken as UTC, and ``fromisoformat``
    sees only a form that every supported Python reads alike.

    A UTC time's canonical text is put together from the matched parts:
    the date, ``T``, the clock, the six-digit fraction unless it is all
    zeros, and ``Z``. Only a time with an offset is rendered by
    format_instant, as the offset can move every part of it.

    Raises ValueError when the text is not of that form or names no valid
    date and clock, or when the instant falls outside years 1-9999 in UTC.
    """
    m = _INSTANT_RE.fullmatch(value.strip())
    if m is None:
        raise ValueError(f"{value!r} is not YYYY-MM-DD[T ]hh:mm:ss[.fraction][Z|+hh:mm|-hh:mm]")
    date, clock, fraction, zone = m.groups()
    text = date + "T" + clock
    if fraction is not None:
        fraction = fraction[:6].ljust(6, "0")
        if fraction != "000000":
            text += "." + fraction
    if zone in (None, "Z", "z"):
        return datetime.fromisoformat(text + "+00:00"), zone is not None, text + "Z"
    try:
        instant = datetime.fromisoformat(text + zone).astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{value!r} falls outside years 1-9999 in UTC") from None
    return instant, True, format_instant(instant)


def parse_instant(value: str) -> datetime:
    """The instant of :func:`read_instant`."""
    return read_instant(value)[0]


def format_instant(dt: datetime) -> str:
    """Render an aware datetime as canonical UTC ISO-8601 (four-digit year,
    ``Z`` suffix), which :func:`parse_instant` reads back for every year."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


# --- record codec -------------------------------------------------------------


def _converters(tp) -> tuple | None:
    """(encode, decode) for values of type ``tp``, or None when JSON holds
    them as they are."""
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        inner = [a for a in args if a is not type(None)]
        return _converters(inner[0]) if len(inner) == 1 else None
    if tp is datetime:
        return format_instant, parse_instant
    if isinstance(tp, type) and issubclass(tp, Canonical):
        return tp.to_dict, tp.from_dict
    if origin in (list, tuple):
        item = _converters(args[0])
        if item is None:
            return list, origin
        encode, decode = item
        return (lambda v: [encode(x) for x in v]), (lambda v: origin(map(decode, v)))
    return None


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, typing.Callable, typing.Callable], ...]:
    """(field, encode, decode) for each field of ``cls`` that JSON cannot hold
    as it is. Worked out on first use, when every module it names is loaded."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        conv = _converters(hints[f.name])
        if conv is not None:
            plan.append((f.name, *conv))
    return tuple(plan)


def encode_fields(cls: type, d: dict) -> dict:
    """Convert in place the values in ``d`` of the fields of ``cls`` that
    need it; keys that are not fields, or are missing, are left alone."""
    for name, encode, _ in _plan(cls):
        value = d.get(name)
        if value is not None:
            d[name] = encode(value)
    return d


def decode_fields(cls: type, d: dict) -> dict:
    """Inverse of :func:`encode_fields`, on a copy of ``d``."""
    d = dict(d)
    for name, _, decode in _plan(cls):
        value = d.get(name)
        if value is not None:
            d[name] = decode(value)
    return d


class Canonical:
    """Mixin for dataclasses: the JSON form follows from the fields (see the
    module docstring)."""

    def to_dict(self) -> dict:
        # Copying __dict__ is about 5x faster than reading the fields by name.
        # A review encodes its records through log_ingest.encode_record, not here.
        return encode_fields(type(self), self.__dict__.copy())

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**decode_fields(cls, d))
