from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from pir.detection import DetectorParams, detect_bruteforce
from pir.log_ingest import normalize_auth_events, parse_event_xml
from pir.scenario_gen import (
    ATTACKER_IP,
    SUCCESS_DELAY_SECONDS,
    GroundTruth,
    ScenarioSpec,
    generate,
)

from conftest import project


def events_of(xml_text, source="scenario"):
    return parse_event_xml(xml_text, source=source)


# --- spec validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_count": -1},
        {"failure_spacing_seconds": 0},
        {"noise_events": -3},
        {"noise_events": 4},  # noise without noise_accounts
        {"noise_events": 4, "noise_accounts": ("administrator",)},
        {"noise_events": 4, "noise_accounts": ("ADMINISTRATOR",)},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        ScenarioSpec(**kwargs)


def test_spec_round_trips_through_dict():
    spec = ScenarioSpec(seed=9, noise_events=5, noise_accounts=("jdoe",))
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


# --- attack block -----------------------------------------------------------------


def test_default_scenario_shape():
    spec = ScenarioSpec()  # 6 failures, 10 s apart, then success
    xml_text, truth = generate(spec)
    records = events_of(xml_text)
    assert len(records) == 7
    assert [r.event_id for r in records] == [4625] * 6 + [4624]

    assert truth.account == "administrator"
    assert truth.failure_count == 6
    assert truth.injected_record_refs == [f"scenario#{i}" for i in range(1, 7)]
    assert truth.success_record_ref == "scenario#7"
    assert (truth.window_end - truth.window_start) == timedelta(seconds=50)

    failures = records[:6]
    assert all(r.fields["IpAddress"] == ATTACKER_IP for r in failures)
    assert all(r.fields["TargetUserName"] == "administrator" for r in failures)
    success_gap = records[6].timestamp_utc - failures[-1].timestamp_utc
    assert success_gap == timedelta(seconds=SUCCESS_DELAY_SECONDS)


def test_account_names_are_escaped_in_the_xml():
    spec = ScenarioSpec(target_account="a&b<c", noise_events=3, noise_accounts=("x>y&amp;",))
    records = events_of(generate(spec)[0])
    assert [r.fields["TargetUserName"] for r in records[:7]] == ["a&b<c"] * 7
    noise = [r.fields.get("TargetUserName", r.fields.get("SubjectUserName")) for r in records[7:]]
    assert noise == ["x>y&amp;"] * 3


def test_success_can_be_omitted():
    xml_text, truth = generate(ScenarioSpec(include_success=False))
    assert truth.success_expected is False
    assert truth.success_record_ref is None
    assert len(events_of(xml_text)) == 6


def test_generation_is_deterministic():
    spec = ScenarioSpec(seed=3, noise_events=10, noise_accounts=("jdoe", "svc"))
    assert generate(spec) == generate(spec)


def test_truth_is_seed_invariant():
    xml_a, truth_a = generate(
        ScenarioSpec(seed=1, noise_events=10, noise_accounts=("jdoe",))
    )
    xml_b, truth_b = generate(
        ScenarioSpec(seed=2, noise_events=10, noise_accounts=("jdoe",))
    )
    assert truth_a.to_dict() == truth_b.to_dict()
    assert xml_a != xml_b  # only the noise placement moved


def test_noise_never_touches_the_target_account():
    spec = ScenarioSpec(seed=4, noise_events=25, noise_accounts=("jdoe", "svc"))
    xml_text, truth = generate(spec)
    records = events_of(xml_text)
    assert len(records) == 7 + 25
    for record in records:
        ref = record.record_ref
        is_attack = ref in truth.injected_record_refs or ref == truth.success_record_ref
        if is_attack:
            continue
        assert record.fields.get("TargetUserName") != "administrator"
        assert record.fields.get("IpAddress") != ATTACKER_IP


def test_truth_round_trips_through_dict():
    _, truth = generate(ScenarioSpec())
    assert GroundTruth.from_dict(truth.to_dict()).to_dict() == truth.to_dict()


# --- detector agreement --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    failure_count=st.integers(min_value=5, max_value=9),
    spacing=st.sampled_from([5, 10, 20]),
    noise=st.integers(min_value=0, max_value=30),
    include_success=st.booleans(),
)
def test_detector_recovers_injected_truth(
    seed, failure_count, spacing, noise, include_success
):
    spec = ScenarioSpec(
        seed=seed,
        failure_count=failure_count,
        failure_spacing_seconds=spacing,
        include_success=include_success,
        noise_events=noise,
        noise_accounts=("jdoe", "svc-backup") if noise else (),
    )
    xml_text, truth = generate(spec)
    auth, _skipped = normalize_auth_events(map(project, events_of(xml_text)))
    params = DetectorParams(min_failures=5, window_seconds=240)
    findings = [f for f in detect_bruteforce(auth, params) if f.account == truth.account]
    assert len(findings) == 1
    [finding] = findings
    assert list(finding.evidence) == truth.injected_record_refs
    assert finding.window_start == truth.window_start
    assert finding.window_end == truth.window_end
    assert finding.success_record == truth.success_record_ref


def test_pure_noise_scenario_yields_no_findings():
    spec = ScenarioSpec(
        seed=8,
        failure_count=0,
        include_success=False,
        noise_events=50,
        noise_accounts=("jdoe", "svc-backup"),
    )
    xml_text, truth = generate(spec)
    assert truth.failure_count == 0
    assert truth.injected_record_refs == []
    auth, _ = normalize_auth_events(map(project, events_of(xml_text)))
    assert detect_bruteforce(auth, DetectorParams()) == []
