from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from pir.canon import canon_dumps
from pir.detection import (
    BehaviorFinding,
    DetectorParams,
    detect_bruteforce,
    fallback_summary,
    oracle_detect,
)
from pir.errors import UnsortedInputError

from conftest import make_auth

DEFAULTS = DetectorParams()


def burst(count, spacing=10, account="admin", start=0, next_ordinal=1):
    return [
        make_auth(next_ordinal + i, account=account, seconds=start + i * spacing)
        for i in range(count)
    ]


def sort_events(events):
    return sorted(events, key=lambda e: (e.timestamp_utc, e.record_ref))


# --- parameter validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_failures": 1},
        {"min_failures": 0},
        {"window_seconds": 0},
        {"success_grace_seconds": 0},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        DetectorParams(**kwargs)


# --- fixture-pattern behaviour ------------------------------------------------


def test_paper_pattern_single_finding_with_success():
    events = burst(6) + [
        make_auth(7, outcome="Success", seconds=55),
    ]
    findings = detect_bruteforce(sort_events(events), DEFAULTS)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "BruteForceSuspected"
    assert f.failure_count == 6
    assert f.evidence == tuple(f"src#{i}" for i in range(1, 7))
    assert f.success_record == "src#7"
    assert (f.window_end - f.window_start) == timedelta(seconds=50)


def test_zero_events_yield_nothing():
    assert detect_bruteforce([], DEFAULTS) == []
    assert oracle_detect([], DEFAULTS) == []


def test_single_failure_never_qualifies():
    events = [make_auth(1)]
    for mf in (2, 3, 5):
        params = DetectorParams(min_failures=mf)
        assert detect_bruteforce(events, params) == []
        assert oracle_detect(events, params) == []


def test_window_boundary_is_closed():
    params = DetectorParams(min_failures=2, window_seconds=120)
    at_boundary = [make_auth(1, seconds=0), make_auth(2, seconds=120)]
    past_boundary = [make_auth(1, seconds=0), make_auth(2, seconds=121)]
    assert len(detect_bruteforce(at_boundary, params)) == 1
    assert detect_bruteforce(past_boundary, params) == []


def test_success_grace_boundary_is_closed():
    events = burst(5) + [make_auth(6, outcome="Success", seconds=40 + 60)]
    [f] = detect_bruteforce(sort_events(events), DEFAULTS)
    assert f.success_record == "src#6"

    events = burst(5) + [make_auth(6, outcome="Success", seconds=40 + 61)]
    [f] = detect_bruteforce(sort_events(events), DEFAULTS)
    assert f.success_record is None


def test_earliest_success_within_grace_attached():
    events = burst(5) + [
        make_auth(6, outcome="Success", seconds=70),
        make_auth(7, outcome="Success", seconds=80),
    ]
    [f] = detect_bruteforce(sort_events(events), DEFAULTS)
    assert f.success_record == "src#6"


def test_success_is_not_evidence():
    events = burst(5) + [make_auth(6, outcome="Success", seconds=45)]
    [f] = detect_bruteforce(sort_events(events), DEFAULTS)
    assert f.success_record == "src#6"
    assert "src#6" not in f.evidence
    assert f.failure_count == len(f.evidence) == 5


def test_require_success_filters_findings():
    params = DetectorParams(require_success=True)
    no_success = burst(6)
    assert detect_bruteforce(no_success, params) == []
    with_success = burst(6) + [make_auth(7, outcome="Success", seconds=55)]
    [f] = detect_bruteforce(sort_events(with_success), params)
    assert f.success_record == "src#7"


def test_accounts_detected_independently():
    events = burst(5, account="alice") + burst(
        5, account="bob", next_ordinal=6
    )
    findings = detect_bruteforce(sort_events(events), DEFAULTS)
    assert sorted(f.account for f in findings) == ["alice", "bob"]


def test_account_names_are_compared_case_insensitively():
    # Windows compares account names case-insensitively, so this is one
    # account's burst of six
    events = [
        make_auth(i + 1, account=("administrator", "ADMINISTRATOR")[i % 2], seconds=i * 10)
        for i in range(6)
    ]
    for detect in (detect_bruteforce, oracle_detect):
        [f] = detect(events, DEFAULTS)
        assert f.failure_count == 6
        assert f.account == "administrator"  # the first counted failure's spelling


def test_contained_windows_collapse_to_maximal():
    params = DetectorParams(min_failures=3, window_seconds=120)
    events = burst(4)
    [f] = detect_bruteforce(events, params)
    assert f.failure_count == 4


def test_staggered_overlaps_all_reported():
    params = DetectorParams(min_failures=3, window_seconds=120)
    events = burst(5, spacing=60)
    findings = detect_bruteforce(events, params)
    windows = [(f.window_start, f.window_end) for f in findings]
    assert len(findings) == 3
    assert windows == sorted(windows)
    assert all(f.failure_count == 3 for f in findings)


def test_unsorted_input_rejected():
    events = [make_auth(1, seconds=10), make_auth(2, seconds=0)]
    with pytest.raises(UnsortedInputError):
        detect_bruteforce(events, DEFAULTS)
    with pytest.raises(UnsortedInputError):
        oracle_detect(events, DEFAULTS)


def test_distinct_source_ips_counted():
    events = [
        make_auth(1, seconds=0, source_ip="10.0.0.1"),
        make_auth(2, seconds=1, source_ip="10.0.0.2"),
        make_auth(3, seconds=2, source_ip="10.0.0.1"),
        make_auth(4, seconds=3, source_ip=None),
        make_auth(5, seconds=4, source_ip="10.0.0.3"),
    ]
    [f] = detect_bruteforce(events, DEFAULTS)
    assert f.distinct_source_ips == 3


def test_finding_round_trips_through_dict():
    events = burst(5) + [make_auth(6, outcome="Success", seconds=45)]
    [f] = detect_bruteforce(sort_events(events), DEFAULTS)
    assert BehaviorFinding.from_dict(f.to_dict()) == f


def test_detection_is_deterministic():
    events = burst(7, spacing=17)
    a = [f.to_dict() for f in detect_bruteforce(events, DEFAULTS)]
    b = [f.to_dict() for f in detect_bruteforce(list(events), DEFAULTS)]
    assert canon_dumps(a) == canon_dumps(b)


# --- oracle equivalence -------------------------------------------------------

PARAM_GRID = [
    DetectorParams(min_failures=mf, window_seconds=ws, require_success=rs,
                   success_grace_seconds=gr)
    for mf in (2, 3, 5)
    for ws in (30, 120)
    for rs in (False, True)
    for gr in (15, 60)
]


@st.composite
def auth_streams(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    events = []
    for i in range(n):
        events.append(
            make_auth(
                i + 1,
                account=draw(st.sampled_from(["a", "b", "c"])),
                outcome=draw(
                    st.sampled_from(["Failure", "Failure", "Failure", "Success"])
                ),
                seconds=draw(st.integers(min_value=0, max_value=400))
                + draw(st.sampled_from([0.0, 0.25, 0.5])),
            )
        )
    return sort_events(events)


@settings(max_examples=150, deadline=None)
@given(events=auth_streams(), params=st.sampled_from(PARAM_GRID))
def test_detector_equals_oracle(events, params):
    fast = [f.to_dict() for f in detect_bruteforce(events, params)]
    slow = [f.to_dict() for f in oracle_detect(events, params)]
    assert fast == slow


_SPELLINGS = ("admin", "ADMIN", "Admin", "aDMIN")


@settings(max_examples=80, deadline=None)
@given(events=auth_streams(), params=st.sampled_from(PARAM_GRID), data=st.data())
def test_case_mappings_of_an_account_give_the_same_findings(events, params, data):
    # account "a" becomes "admin", spelt one way per event in ``spelled``
    plain = [e._replace(account="admin") if e.account == "a" else e for e in events]
    spelled = [
        e._replace(account=data.draw(st.sampled_from(_SPELLINGS)))
        if e.account == "admin" else e
        for e in plain
    ]
    found = detect_bruteforce(spelled, params)
    assert [f.to_dict() for f in found] == [f.to_dict() for f in oracle_detect(spelled, params)]
    expected = [f.to_dict() for f in detect_bruteforce(plain, params)]
    assert [dict(f.to_dict(), account=f.account.casefold()) for f in found] == expected
    spelling = {e.record_ref: e.account for e in spelled}
    assert [f.account for f in found] == [spelling[f.evidence[0]] for f in found]


@settings(max_examples=80, deadline=None)
@given(events=auth_streams(), params=st.sampled_from(PARAM_GRID))
def test_evidence_closure(events, params):
    known = {e.record_ref for e in events}
    for f in detect_bruteforce(events, params):
        assert set(f.evidence) <= known
        if f.success_record:
            assert f.success_record in known


@settings(max_examples=80, deadline=None)
@given(events=auth_streams(), params=st.sampled_from(PARAM_GRID))
def test_finding_invariants(events, params):
    for f in detect_bruteforce(events, params):
        assert f.failure_count == len(f.evidence) >= params.min_failures
        assert f.window_start <= f.window_end
        span = (f.window_end - f.window_start).total_seconds()
        assert span <= params.window_seconds
        if params.require_success:
            assert f.success_record is not None


@settings(max_examples=80, deadline=None)
@given(
    events=auth_streams(),
    base=st.sampled_from([p for p in PARAM_GRID if p.min_failures in (2, 3)]),
)
def test_monotonic_in_min_failures(events, base):
    import dataclasses

    raised = dataclasses.replace(base, min_failures=base.min_failures + 1)
    higher = {
        (f.account, f.window_start, f.window_end)
        for f in detect_bruteforce(events, raised)
    }
    lower_events = detect_bruteforce(events, base)
    # every qualifying run at k+1 also qualifies at k; the lower-threshold
    # windows can only widen, so containment (not equality) is the invariant
    for account, start, end in higher:
        assert any(
            f.account == account
            and f.window_start <= start
            and end <= f.window_end
            for f in lower_events
        )


# --- deterministic summary ----------------------------------------------------


def test_fallback_summary_cites_evidence_span():
    events = burst(5) + [make_auth(6, outcome="Success", seconds=45)]
    [f] = detect_bruteforce(sort_events(events), DEFAULTS)
    text = fallback_summary(f)
    assert "[EVT:src#1]" in text and "[EVT:src#5]" in text
    assert "[EVT:src#6]" in text
    assert "admin" in text
