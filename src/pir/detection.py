"""Brute-force detection over normalized auth events.

Two detectors implement the same contract by different routes:

* :func:`detect_bruteforce` is the production two-pointer sliding-window scan,
* :func:`oracle_detect` exhaustively enumerates every candidate window and is
  kept deliberately naive so property tests can compare the two.

Shared semantics: per-account scanning, closed time intervals (a span equal to
``window_seconds`` still qualifies), and maximal windows only (no finding that
is a strict sub-window of another finding for the same account). Accounts are
grouped by their casefolded name, as Windows compares account names
case-insensitively; a finding shows its first counted failure's spelling.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING

from .canon import Canonical, format_instant
from .errors import UnsortedInputError
from .log_ingest import AuthEvent

if TYPE_CHECKING:
    from .llm_gateway import Gateway, Request

FINDING_KIND_BRUTE_FORCE = "BruteForceSuspected"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


@dataclass(frozen=True)
class DetectorParams(Canonical):
    """Detection thresholds; the defaults follow common lockout-policy
    conventions and are configuration, not ground truth."""

    min_failures: int = 5
    window_seconds: int = 120
    require_success: bool = False
    success_grace_seconds: int = 60

    def __post_init__(self) -> None:
        for name in ("min_failures", "window_seconds", "success_grace_seconds"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.require_success, bool):
            raise TypeError(
                f"require_success must be true or false, got {self.require_success!r}"
            )
        if self.min_failures < 2:
            raise ValueError(f"min_failures must be >= 2, got {self.min_failures}")
        if self.window_seconds < 1:
            raise ValueError(f"window_seconds must be >= 1, got {self.window_seconds}")
        if self.success_grace_seconds < 1:
            raise ValueError(
                f"success_grace_seconds must be >= 1, got {self.success_grace_seconds}"
            )


@dataclass(frozen=True)
class BehaviorFinding(Canonical):
    """One suspected brute-force episode with its citable evidence.

    ``evidence`` lists the counted Failure records only; the triggering
    Success, when present, rides in ``success_record``. The window covers
    the failure span, so window_end is the last counted failure.
    """

    kind: str
    account: str
    window_start: datetime
    window_end: datetime
    failure_count: int
    success_record: str | None
    evidence: tuple[str, ...]
    params_used: DetectorParams
    distinct_source_ips: int

    def cited_refs(self) -> list[str]:
        """Every record a conclusion about this finding may cite: the counted
        failures, then the success record when there is one."""
        if self.success_record:
            return [*self.evidence, self.success_record]
        return list(self.evidence)


def _check_sorted(events: list[AuthEvent]) -> None:
    for a, b in zip(events, events[1:]):
        if (a.timestamp_utc, a.record_ref) > (b.timestamp_utc, b.record_ref):
            raise UnsortedInputError(
                f"events not sorted by (timestamp_utc, record_ref): "
                f"{a.record_ref} precedes {b.record_ref}"
            )


def _finding_sort_key(f: BehaviorFinding) -> tuple:
    return (f.window_start, f.account, f.window_end)


def _build_finding(
    fails: list[AuthEvent],
    lo: int,
    hi: int,
    success_ref: str | None,
    params: DetectorParams,
) -> BehaviorFinding:
    counted = fails[lo : hi + 1]
    return BehaviorFinding(
        kind=FINDING_KIND_BRUTE_FORCE,
        account=counted[0].account,
        window_start=counted[0].timestamp_utc,
        window_end=counted[-1].timestamp_utc,
        failure_count=len(counted),
        success_record=success_ref,
        evidence=tuple(e.record_ref for e in counted),
        params_used=params,
        distinct_source_ips=len({e.source_ip for e in counted if e.source_ip}),
    )


def detect_bruteforce(
    events: list[AuthEvent], params: DetectorParams
) -> list[BehaviorFinding]:
    """Two-pointer scan for maximal failure bursts, ordered by window_start.

    For each account the left pointer tracks the earliest failure within
    ``window_seconds`` of the right pointer; each right endpoint therefore
    yields its widest candidate window, and a candidate survives only when
    the next candidate cannot contain it.
    """
    _check_sorted(events)
    window = timedelta(seconds=params.window_seconds)
    grace = timedelta(seconds=params.success_grace_seconds)

    by_account: dict[str, tuple[list[AuthEvent], list[AuthEvent]]] = {}
    for ev in events:
        fails, succs = by_account.setdefault(ev.account.casefold(), ([], []))
        (fails if ev.outcome == "Failure" else succs).append(ev)

    findings: list[BehaviorFinding] = []
    for fails, succs in by_account.values():
        succ_times = [s.timestamp_utc for s in succs]
        lo = 0
        candidates: list[tuple[int, int, str | None]] = []
        for j, fj in enumerate(fails):
            while fj.timestamp_utc - fails[lo].timestamp_utc > window:
                lo += 1
            if j - lo + 1 < params.min_failures:
                continue
            last_ts = fj.timestamp_utc
            # earliest success at or after the last counted failure, within grace
            k = bisect.bisect_left(succ_times, last_ts)
            success_ref = None
            if k < len(succ_times) and succ_times[k] - last_ts <= grace:
                success_ref = succs[k].record_ref
            if params.require_success and success_ref is None:
                continue
            candidates.append((lo, j, success_ref))

        # lo is non-decreasing in j, so a candidate is contained in a later one
        # exactly when that later candidate shares its left endpoint.
        for idx, (clo, cj, cref) in enumerate(candidates):
            if idx + 1 < len(candidates) and candidates[idx + 1][0] <= clo:
                continue
            findings.append(_build_finding(fails, clo, cj, cref, params))

    findings.sort(key=_finding_sort_key)
    return findings


def _instant_us(dt: datetime) -> int:
    return (dt - _EPOCH) // _US


def oracle_detect(
    events: list[AuthEvent], params: DetectorParams
) -> list[BehaviorFinding]:
    """Exhaustive reference detector: enumerate every (start, end) failure
    pair per account, keep qualifying windows, then filter to maximal ones.

    Independent of detect_bruteforce by construction: integer-microsecond
    arithmetic, full O(n^2) enumeration, brute-force containment filter.
    """
    _check_sorted(events)
    window_us = params.window_seconds * 1_000_000
    grace_us = params.success_grace_seconds * 1_000_000

    accounts = dict.fromkeys(ev.account.casefold() for ev in events)

    findings: list[BehaviorFinding] = []
    for account in accounts:
        fails = [e for e in events if e.account.casefold() == account and e.outcome == "Failure"]
        succs = [e for e in events if e.account.casefold() == account and e.outcome == "Success"]
        times = [_instant_us(e.timestamp_utc) for e in fails]
        succ_times = [_instant_us(e.timestamp_utc) for e in succs]
        n = len(fails)

        def success_for(end_us: int) -> str | None:
            for s_us, s in zip(succ_times, succs):
                if end_us <= s_us <= end_us + grace_us:
                    return s.record_ref
            return None

        qualifying: list[tuple[int, int, str | None]] = []
        for i in range(n):
            for j in range(i, n):
                if times[j] - times[i] > window_us:
                    continue
                if j - i + 1 < params.min_failures:
                    continue
                ref = success_for(times[j])
                if params.require_success and ref is None:
                    continue
                qualifying.append((i, j, ref))

        # Every (i, j) is contained in the widest qualifying window with the
        # same right end, so reducing to those keeps all maximal elements and
        # makes the pairwise containment check affordable.
        widest: dict[int, tuple[int, int, str | None]] = {}
        for i, j, ref in qualifying:
            if j not in widest or i < widest[j][0]:
                widest[j] = (i, j, ref)
        reduced = list(widest.values())
        for i, j, ref in reduced:
            contained = any(
                (i2, j2) != (i, j) and i2 <= i and j <= j2 for i2, j2, _ in reduced
            )
            if not contained:
                findings.append(_build_finding(fails, i, j, ref, params))

    findings.sort(key=_finding_sort_key)
    return findings


def fallback_summary(finding: BehaviorFinding) -> str:
    """Deterministic summary used when the finding's narration is degraded
    or absent (reporting.narrated_texts)."""
    first, last = finding.evidence[0], finding.evidence[-1]
    parts = [
        f"Account '{finding.account}' recorded {finding.failure_count} failed "
        f"logon attempts between {format_instant(finding.window_start)} and "
        f"{format_instant(finding.window_end)} ([EVT:{first}]..[EVT:{last}])."
    ]
    if finding.success_record:
        parts.append(
            f"A successful logon for the same account followed "
            f"([EVT:{finding.success_record}])."
        )
    else:
        parts.append("No subsequent successful logon was observed within grace.")
    return " ".join(parts)


def finding_request(finding: BehaviorFinding) -> "Request":
    """The bindings, record refs and clause ids of a finding's summary
    narration, from the finding alone."""
    success_line = (
        f"yes, record {finding.success_record}" if finding.success_record else "none"
    )
    bindings = {
        "account": finding.account,
        "failure_count": str(finding.failure_count),
        "window_start": format_instant(finding.window_start),
        "window_end": format_instant(finding.window_end),
        "success_line": success_line,
    }
    return bindings, finding.cited_refs(), ()


def narrative_for_finding(finding: BehaviorFinding, gateway: "Gateway"):
    """Gateway round-trip for a finding summary; returns a NarrativeResult."""
    return gateway.narrate("finding_summary", *finding_request(finding))
