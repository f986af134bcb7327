"""Seeded synthetic evidence generator for the brute-force scenario.

Emits Windows-style event XML (the text form the ingestion path parses, not
binary EVTX) plus a ground-truth manifest naming the injected attack records.
The attack block always occupies the first document ordinals so record refs
in the truth stay identical across seeds; only noise placement varies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .canon import Canonical, format_instant

ATTACKER_IP = "203.0.113.77"
SUCCESS_DELAY_SECONDS = 5
NOISE_MARGIN_SECONDS = 300

_DEFAULT_START = datetime(2026, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class ScenarioSpec(Canonical):
    seed: int = 1
    target_account: str = "administrator"
    failure_count: int = 6
    failure_spacing_seconds: int = 10
    include_success: bool = True
    noise_events: int = 0
    noise_accounts: tuple[str, ...] = ()
    start_time: datetime = _DEFAULT_START

    def __post_init__(self):
        # failure_count == 0 is allowed: it yields a pure-noise scenario for
        # zero-finding tests.
        if self.failure_count < 0:
            raise ValueError("failure_count must be >= 0")
        if self.failure_spacing_seconds < 1:
            raise ValueError("failure_spacing_seconds must be >= 1")
        if self.noise_events < 0:
            raise ValueError("noise_events must be >= 0")
        # Windows compares account names case-insensitively, so does detection
        if self.target_account.casefold() in {a.casefold() for a in self.noise_accounts}:
            raise ValueError("noise_accounts must not contain target_account, in any case")
        if self.noise_events > 0 and not self.noise_accounts:
            raise ValueError("noise_events > 0 requires noise_accounts")


@dataclass
class GroundTruth(Canonical):
    """What the generator injected, for checking detector output against."""

    account: str
    window_start: datetime
    window_end: datetime
    failure_count: int
    success_expected: bool
    injected_record_refs: list[str] = field(default_factory=list)
    success_record_ref: str | None = None


def _xml_text(value: str) -> str:
    """``value`` as XML character data, with &, < and > escaped as
    xml.sax.saxutils.escape escapes them; that module is not imported, as
    it loads the HTTP modules."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _event_xml(
    event_id: int,
    record_id: int,
    timestamp: datetime,
    data: dict[str, str],
) -> str:
    data_lines = "\n".join(
        f'      <Data Name="{name}">{_xml_text(value)}</Data>' for name, value in data.items()
    )
    return (
        '  <Event xmlns="http://schemas.microsoft.com/win/2004/08/events/event">\n'
        "    <System>\n"
        '      <Provider Name="Microsoft-Windows-Security-Auditing" />\n'
        f"      <EventID>{event_id}</EventID>\n"
        f'      <TimeCreated SystemTime="{format_instant(timestamp)}" />\n'
        f"      <EventRecordID>{record_id}</EventRecordID>\n"
        "      <Channel>Security</Channel>\n"
        "      <Computer>WS-FILE-01</Computer>\n"
        "    </System>\n"
        "    <EventData>\n"
        f"{data_lines}\n"
        "    </EventData>\n"
        "  </Event>"
    )


def generate(spec: ScenarioSpec, source_name: str = "scenario") -> tuple[str, GroundTruth]:
    """Render the scenario as event XML plus its ground truth.

    ``source_name`` must match the stem of the file the XML is written to,
    because record refs are ``<stem>#<ordinal>``.
    """
    events: list[str] = []
    ordinal = 0

    failure_times = [
        spec.start_time + timedelta(seconds=i * spec.failure_spacing_seconds)
        for i in range(spec.failure_count)
    ]
    injected_refs: list[str] = []
    for ts in failure_times:
        ordinal += 1
        injected_refs.append(f"{source_name}#{ordinal}")
        events.append(
            _event_xml(
                4625,
                ordinal,
                ts,
                {
                    "TargetUserName": spec.target_account,
                    "IpAddress": ATTACKER_IP,
                    "LogonType": "3",
                    "Status": "0xc000006d",
                    "ProcessName": "sshd.exe",
                },
            )
        )

    success_ref = None
    last_attack_time = failure_times[-1] if failure_times else spec.start_time
    if spec.include_success and spec.failure_count:
        ordinal += 1
        success_ref = f"{source_name}#{ordinal}"
        success_time = last_attack_time + timedelta(seconds=SUCCESS_DELAY_SECONDS)
        last_attack_time = success_time
        events.append(
            _event_xml(
                4624,
                ordinal,
                success_time,
                {
                    "TargetUserName": spec.target_account,
                    "IpAddress": ATTACKER_IP,
                    "LogonType": "3",
                    "ProcessName": "sshd.exe",
                },
            )
        )

    rng = random.Random(spec.seed)
    window_low = spec.start_time - timedelta(seconds=NOISE_MARGIN_SECONDS)
    window_span = int(
        (last_attack_time - window_low).total_seconds() + NOISE_MARGIN_SECONDS
    )
    for _ in range(spec.noise_events):
        ordinal += 1
        ts = window_low + timedelta(seconds=rng.randrange(window_span + 1))
        account = rng.choice(spec.noise_accounts)
        if rng.random() < 0.5:
            events.append(
                _event_xml(
                    4624,
                    ordinal,
                    ts,
                    {
                        "TargetUserName": account,
                        "IpAddress": f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                        "LogonType": str(rng.choice((2, 3))),
                        "ProcessName": "svchost.exe",
                    },
                )
            )
        else:
            events.append(
                _event_xml(
                    4688,
                    ordinal,
                    ts,
                    {
                        "SubjectUserName": account,
                        "NewProcessName": rng.choice(
                            (
                                r"C:\Windows\System32\notepad.exe",
                                r"C:\Windows\System32\cmd.exe",
                                r"C:\Program Files\7-Zip\7z.exe",
                            )
                        ),
                        "ProcessId": f"0x{rng.randrange(0x100, 0x4000):x}",
                    },
                )
            )

    xml = (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        "<Events>\n" + "\n".join(events) + ("\n" if events else "") + "</Events>\n"
    )
    truth = GroundTruth(
        account=spec.target_account,
        window_start=failure_times[0] if failure_times else spec.start_time,
        window_end=failure_times[-1] if failure_times else spec.start_time,
        failure_count=spec.failure_count,
        success_expected=bool(spec.include_success and spec.failure_count),
        injected_record_refs=injected_refs,
        success_record_ref=success_ref,
    )
    return xml, truth
