"""A fixed reference task that measures how fast the host runs right now.

On a shared host the other tenants slow a CPU-bound Python process by up to
2x, for seconds or for minutes at a time, and a whole benchmark run can fall
into a slow phase. The benchmark therefore times this task between its
operations and scales its own times by the ratio of the task's nominal time
to its mean time in the run (``speed_factor``).

The task uses only the standard library and none of ``pir``, so no change to
the program can speed it up. It does the kinds of work a review does: parse
an XML export of logon events, build records from it, write and read JSON
with sorted keys, and hash each record.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
import xml.etree.ElementTree as ET

# About the fastest the task ran on the 2-vCPU x86-64 host (Python 3.11)
# the bounds were set on. Scaled times are seconds on a host on which the
# task takes this long on average.
NOMINAL_S = 0.060
EVENTS = 3000


def _inputs() -> tuple[str, list[dict]]:
    rng = random.Random(0)
    events = "".join(
        "<Event><System><EventID>%d</EventID>"
        '<TimeCreated SystemTime="2026-06-01T12:%02d:%02dZ"/></System>'
        '<EventData><Data Name="TargetUserName">u%d</Data>'
        '<Data Name="IpAddress">10.0.%d.%d</Data></EventData></Event>'
        % (4624 + i % 2, i // 60 % 60, i % 60, i % 7, i % 250, rng.randrange(256))
        for i in range(EVENTS)
    )
    docs = [
        {
            "id": f"rec-{i:06d}",
            "account": rng.choice("abcdefgh"),
            "t": rng.random(),
            "fields": {f"k{j}": rng.randrange(10**6) for j in range(8)},
        }
        for i in range(EVENTS)
    ]
    return f"<Events>{events}</Events>", docs


_XML, _DOCS = _inputs()


def task() -> int:
    records = [
        {d.get("Name"): d.text for d in event.iter("Data")}
        | {"event_id": event.findtext("System/EventID")}
        for event in ET.fromstring(_XML)
    ]
    docs = json.loads(json.dumps(_DOCS, sort_keys=True))
    digests = {
        hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() for d in docs
    }
    return len(records) + len(digests)


def sample() -> float:
    """Run the task once; returns its wall time."""
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Nominal over mean task time: below 1 when the host ran slower than
    the nominal host."""
    return NOMINAL_S / statistics.fmean(samples)
