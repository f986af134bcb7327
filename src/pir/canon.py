"""Canonical serialization helpers shared across the pipeline.

All digests, cache keys, checkpoints and report bytes go through these
functions so identical state always produces identical bytes: keys sorted,
no insignificant whitespace, UTF-8, and timestamps rendered as UTC ISO-8601
with a trailing ``Z``. Floats are written as given (Python's shortest
round-tripping form); a computed float is rounded where it is serialised,
as ``RetrievalHit.to_dict`` rounds BM25 scores to 6 decimals.
"""

from __future__ import annotations

import hashlib
import json
import re
from datetime import datetime, timezone


def canon_dumps(obj) -> str:
    """Serialize to the canonical JSON form used for digests and reports."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_of(obj) -> str:
    """SHA-256 of an object's canonical JSON form."""
    return sha256_hex(canon_dumps(obj))


_FRACTION_RE = re.compile(r"\.(\d+)")


def parse_instant(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Accepts a trailing ``Z``, any numeric offset, and fractional seconds of
    any width (Windows exports use seven digits; extra digits are truncated
    to microseconds). Offset-free values are taken as UTC.

    Raises ValueError when the value does not parse.
    """
    s = value.strip()
    if not s:
        raise ValueError("empty timestamp")
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    # fromisoformat on 3.10 only takes 3- or 6-digit fractions
    s = _FRACTION_RE.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), s, count=1)
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_instant(dt: datetime) -> str:
    """Render an aware datetime as canonical UTC ISO-8601 (``Z`` suffix)."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    base = dt.strftime("%Y-%m-%dT%H:%M:%S")
    if dt.microsecond:
        base += ".%06d" % dt.microsecond
    return base + "Z"


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)
