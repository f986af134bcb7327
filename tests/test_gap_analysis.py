import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from pir.attack_catalog import load_default_catalog, map_finding
from pir.detection import DetectorParams, detect_bruteforce
from pir.errors import NoBaselineError
from pir.gap_analysis import (
    ControlParameter,
    assign_confidence,
    compare_controls,
    dedupe_gaps,
    deterministic_rationale,
    draft_rationale,
    extract_control_parameters,
    is_weaker,
    load_default_rules,
    select_effective,
)
from pir.llm_gateway import Gateway, GenerationParams
from pir.orchestrator import ReviewState
from pir.policy_index import DOC_KIND_BASELINE, DOC_KIND_ORGANISATION, ingest_document
from pir.reporting import narrated_texts

from conftest import FIXTURES, make_auth

RULES = load_default_rules()
EVIDENCE = ["src#1", "src#2", "src#3", "src#4", "src#5"]


def clause_of(text, doc_id="pol"):
    return ingest_document(doc_id, DOC_KIND_ORGANISATION, text + "\n").clauses


def param(control, value, *, clause="pol:1-1", unit=None, extraction="Deterministic"):
    units = {
        "LockoutThreshold": "attempts",
        "LockoutDurationMinutes": "minutes",
        "PasswordMaxAgeDays": "days",
        "PasswordMinLength": "characters",
    }
    return ControlParameter(
        control=control,
        value=value,
        unit=unit if unit is not None else units.get(control, ""),
        clause_ref=clause,
        extraction=extraction,
    )


def compare(org, baseline, mapping, evidence):
    """compare_controls over the strictest value per control, as ValidatePolicies
    passes them."""
    effective_org, _ = select_effective(org, RULES)
    effective_base, _ = select_effective(baseline, RULES)
    return compare_controls(effective_org, effective_base, mapping, evidence, RULES)


def mapping_fixture():
    events = [make_auth(i + 1, seconds=i * 10) for i in range(5)]
    [finding] = detect_bruteforce(events, DetectorParams())
    return map_finding(finding, load_default_catalog())


# --- extraction grammar ---------------------------------------------------------


def test_lockout_threshold_phrasings():
    for text, value in [
        ("Accounts are locked after 10 failed attempts.", 10),
        ("The account lockout threshold is set to 10 failed logon attempts.", 10),
        ("Accounts shall be locked after 5 failed logon attempts.", 5),
    ]:
        [p] = extract_control_parameters(clause_of(text))
        assert (p.control, p.value, p.unit) == ("LockoutThreshold", value, "attempts")
        assert p.extraction == "Deterministic"


def test_password_age_phrasing():
    [p] = extract_control_parameters(
        clause_of("Passwords must be rotated every 365 days.")
    )
    assert (p.control, p.value, p.unit) == ("PasswordMaxAgeDays", 365, "days")


def test_prose_without_parameters_extracts_nothing():
    assert extract_control_parameters(clause_of("Users should pick strong passwords.")) == []


def test_boolean_controls_need_an_obligation():
    assert extract_control_parameters(clause_of("MFA is nice to have.")) == []
    [p] = extract_control_parameters(
        clause_of("Multi-factor authentication is required for remote access.")
    )
    assert p.control == "MfaRequired"
    assert p.value is True


def test_first_match_per_control_per_clause():
    [p] = extract_control_parameters(
        clause_of("The lockout threshold is 5; accounts lock after 9 failed attempts.")
    )
    assert (p.control, p.value) == ("LockoutThreshold", 5)


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "The account lockout threshold is reviewed yearly. Passwords must be rotated every 90 days.",
            {"PasswordMaxAgeDays": 90},
        ),
        ("The lockout duration is set by IT. Sessions time out after 30 minutes.", {}),
        (
            "The minimum password length is under review. Accounts lock after 3 failed attempts.",
            {"LockoutThreshold": 3},
        ),
    ],
)
def test_a_value_is_not_read_across_a_full_stop(text, expected):
    assert {p.control: p.value for p in extract_control_parameters(clause_of(text))} == expected


# sentences that name a numeric control but hold no number and no full stop
_NUMBERLESS = [
    "The account lockout threshold is reviewed yearly",
    "The lockout duration is set by IT",
    "The minimum password length is under review",
    "Passwords are changed when staff leave",
    "Accounts are locked by the help desk",
]
_NUMBERED = [
    "Accounts are locked after {} failed attempts.",
    "The account lockout threshold is {} failed logon attempts.",
    "The lockout duration is {} minutes.",
    "Accounts stay locked for {} minutes.",
    "Passwords must be rotated every {} days.",
    "A {}-day rotation applies.",
    "Passwords must be at least {} characters long.",
    "The minimum password length is {}.",
    "Sessions time out after {} minutes.",
]


@settings(max_examples=100, deadline=None)
@given(
    control=st.sampled_from(_NUMBERLESS),
    numbered=st.sampled_from(_NUMBERED),
    value=st.integers(min_value=1, max_value=999),
)
def test_a_numberless_sentence_before_a_value_changes_nothing(control, numbered, value):
    sentence = numbered.format(value)

    def numeric(text):
        return {p.control: p.value for p in extract_control_parameters(clause_of(text)) if p.unit}

    assert numeric(f"{control}. {sentence}") == numeric(sentence)


def test_fixture_policies_extract_expected_controls():
    org = ingest_document(
        "org_policy",
        DOC_KIND_ORGANISATION,
        (FIXTURES / "policies" / "org_policy.md").read_text(),
    )
    extracted = {
        p.control: p.value for p in extract_control_parameters(org.clauses)
    }
    assert extracted == {
        "LockoutThreshold": 10,
        "LockoutDurationMinutes": 15,
        "PasswordMaxAgeDays": 365,
        "PasswordMinLength": 14,
        "MfaRequired": True,
        "MonitoringAlerting": True,
    }

    base = ingest_document(
        "baseline_policy",
        DOC_KIND_BASELINE,
        (FIXTURES / "policies" / "baseline_policy.md").read_text(),
    )
    base_values = {
        p.control: p.value for p in extract_control_parameters(base.clauses)
    }
    assert base_values["LockoutThreshold"] == 5
    assert base_values["PasswordMaxAgeDays"] == 90


# --- direction of safety ---------------------------------------------------------


@pytest.mark.parametrize(
    "org,base,direction,weaker",
    [
        (10, 5, "lower_is_stricter", True),
        (5, 10, "lower_is_stricter", False),
        (5, 5, "lower_is_stricter", False),
        (8, 14, "higher_is_stricter", True),
        (14, 8, "higher_is_stricter", False),
        (False, True, "true_is_stricter", True),
        (True, True, "true_is_stricter", False),
        (True, False, "true_is_stricter", False),
        (False, False, "true_is_stricter", False),
    ],
)
def test_is_weaker_table(org, base, direction, weaker):
    assert is_weaker(org, base, direction) is weaker


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=1000),
    b=st.integers(min_value=1, max_value=1000),
    direction=st.sampled_from(["lower_is_stricter", "higher_is_stricter"]),
)
def test_weakness_is_a_strict_order(a, b, direction):
    forward = is_weaker(a, b, direction)
    backward = is_weaker(b, a, direction)
    assert not (forward and backward)
    assert (a == b) == (not forward and not backward)


# --- comparison ------------------------------------------------------------------


def test_weaker_org_controls_yield_insufficient_gaps():
    org = [param("LockoutThreshold", 10), param("PasswordMaxAgeDays", 365)]
    base = [
        param("LockoutThreshold", 5, clause="base:1-1"),
        param("PasswordMaxAgeDays", 90, clause="base:2-2"),
    ]
    gaps = compare(org, base, mapping_fixture(), EVIDENCE)
    by_control = {g.control: g for g in gaps}
    assert set(by_control) == {"LockoutThreshold", "PasswordMaxAgeDays"}

    lockout = by_control["LockoutThreshold"]
    assert lockout.gap_kind == "Insufficient"
    assert lockout.severity == "High"  # 10 >= 2.0 * 5
    assert lockout.evidence_clauses == ("pol:1-1", "base:1-1")
    assert list(lockout.evidence_events) == EVIDENCE

    age = by_control["PasswordMaxAgeDays"]
    assert age.gap_kind == "Insufficient"
    assert age.severity == "Medium"


def test_severity_ratio_boundary():
    base = [param("LockoutThreshold", 5, clause="base:1-1")]
    mapping = mapping_fixture()
    [just_below] = compare([param("LockoutThreshold", 9)], base, mapping, EVIDENCE)
    [at_ratio] = compare([param("LockoutThreshold", 10)], base, mapping, EVIDENCE)
    assert just_below.severity == "Medium"
    assert at_ratio.severity == "High"


def test_equal_controls_yield_no_gap():
    org = [param("LockoutThreshold", 5)]
    base = [param("LockoutThreshold", 5, clause="base:1-1")]
    assert compare(org, base, mapping_fixture(), EVIDENCE) == []


def test_missing_control_reported_only_when_baseline_has_it():
    base = [param("MfaRequired", True, clause="base:3-3")]
    [gap] = compare([], base, mapping_fixture(), EVIDENCE)
    assert gap.gap_kind == "Missing"
    assert gap.org_value is None
    assert gap.severity == "High"
    assert gap.evidence_clauses == ("base:3-3",)

    # org-only controls are not gaps
    org_only = [param("LockoutThreshold", 5)]
    base_other = [param("MfaRequired", True, clause="base:3-3")]
    gaps = compare(org_only, base_other, mapping_fixture(), EVIDENCE)
    assert [g.control for g in gaps] == ["MfaRequired"]


def test_no_baseline_is_an_error():
    with pytest.raises(NoBaselineError):
        compare([param("LockoutThreshold", 10)], [], mapping_fixture(), EVIDENCE)


def test_empty_incident_evidence_is_an_error():
    base = [param("LockoutThreshold", 5, clause="base:1-1")]
    with pytest.raises(ValueError):
        compare([], base, mapping_fixture(), [])


def test_unmapped_technique_compares_nothing():
    mapping = dataclasses.replace(mapping_fixture(), technique_id="T9999")
    base = [param("LockoutThreshold", 5, clause="base:1-1")]
    assert compare([], base, mapping, EVIDENCE) == []


def test_gaps_sorted_by_control_then_technique():
    org = [param("PasswordMaxAgeDays", 365), param("LockoutThreshold", 10)]
    base = [
        param("PasswordMaxAgeDays", 90, clause="base:2-2"),
        param("LockoutThreshold", 5, clause="base:1-1"),
    ]
    gaps = compare(org, base, mapping_fixture(), EVIDENCE)
    assert [g.control for g in gaps] == sorted(g.control for g in gaps)


# --- conflict resolution -----------------------------------------------------------


def test_conflicting_values_resolve_to_strictest_with_warning():
    params = [
        param("LockoutThreshold", 10, clause="pol:1-1"),
        param("LockoutThreshold", 5, clause="pol:9-9"),
    ]
    effective, warnings = select_effective(params, RULES)
    assert effective["LockoutThreshold"].value == 5  # lower is stricter
    assert len(warnings) == 1
    assert "conflicting values for LockoutThreshold" in warnings[0]

    # higher_is_stricter picks the larger
    params = [
        param("PasswordMinLength", 8, clause="pol:1-1"),
        param("PasswordMinLength", 14, clause="pol:9-9"),
    ]
    effective, warnings = select_effective(params, RULES)
    assert effective["PasswordMinLength"].value == 14
    assert warnings


def test_duplicate_equal_values_do_not_warn():
    params = [
        param("LockoutThreshold", 5, clause="pol:1-1"),
        param("LockoutThreshold", 5, clause="pol:9-9"),
    ]
    effective, warnings = select_effective(params, RULES)
    assert effective["LockoutThreshold"].clause_ref == "pol:1-1"
    assert warnings == []


# --- dedupe -------------------------------------------------------------------------


def test_dedupe_unions_evidence():
    base = param("LockoutThreshold", 5, clause="base:1-1")
    mapping = mapping_fixture()
    [g1] = compare([param("LockoutThreshold", 10)], [base], mapping, ["src#1"])
    [g2] = compare([param("LockoutThreshold", 10)], [base], mapping, ["src#2", "src#1"])
    merged = dedupe_gaps([g1, g2])
    assert len(merged) == 1
    assert merged[0].evidence_events == ("src#1", "src#2")
    assert merged[0].evidence_clauses == ("pol:1-1", "base:1-1")


# --- confidence ----------------------------------------------------------------------


def make_gap(**overrides):
    base = param("LockoutThreshold", 5, clause="base:1-1")
    [gap] = compare([param("LockoutThreshold", 10)], [base], mapping_fixture(), EVIDENCE)
    return dataclasses.replace(gap, **overrides)


def test_confidence_rules():
    assert assign_confidence(make_gap(), min_evidence=5).confidence == "High"
    assert assign_confidence(make_gap(), min_evidence=6).confidence == "Medium"
    assert (
        assign_confidence(make_gap(gap_kind="Missing", org_value=None)).confidence
        == "Low"
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["Insufficient", "Missing"]),
    org_extraction=st.sampled_from(["Deterministic", "LlmAssisted", None]),
    evidence_count=st.integers(min_value=1, max_value=8),
    min_evidence=st.integers(min_value=1, max_value=8),
)
def test_confidence_is_total(kind, org_extraction, evidence_count, min_evidence):
    gap = make_gap(
        gap_kind=kind,
        org_value=(
            None
            if org_extraction is None
            else param("LockoutThreshold", 10, extraction=org_extraction)
        ),
        evidence_events=[f"src#{i}" for i in range(1, evidence_count + 1)],
    )
    gap = assign_confidence(gap, min_evidence=min_evidence)
    assert gap.confidence in ("Low", "Medium", "High")
    if kind == "Missing":
        assert gap.confidence == "Low"


# --- rationale -----------------------------------------------------------------------


def test_deterministic_rationale_cites_its_own_evidence():
    gap = assign_confidence(make_gap())
    rationale, remediation = deterministic_rationale(gap)
    assert "[POL:pol:1-1]" in rationale
    assert "[POL:base:1-1]" in rationale
    assert f"[EVT:{EVIDENCE[0]}]" in rationale
    assert f"[EVT:{EVIDENCE[-1]}]" in rationale
    assert "[POL:base:1-1]" in remediation


def test_missing_gap_rationale_leans_on_baseline():
    gap = assign_confidence(make_gap(gap_kind="Missing", org_value=None))
    rationale, remediation = deterministic_rationale(gap)
    assert "No organisational control" in rationale
    assert "[POL:base:1-1]" in remediation


def test_missing_gap_rationale_names_every_clause_not_the_retrieved_ones():
    # ValidatePolicies reads every clause, so a Missing control is absent
    # from all of them, not only from the ones retrieval ranked
    gap = assign_confidence(make_gap(gap_kind="Missing", org_value=None))
    rationale, _remediation = deterministic_rationale(gap)
    assert rationale.startswith(
        "No organisational control for LockoutThreshold was found in any clause of the organisation's policies, "
    )
    assert "retrieved" not in rationale


def gap_texts(gap, result):
    """The rationale and remediation a report gives ``gap`` when its
    narration had ``result`` (reporting.narrated_texts)."""
    state = ReviewState(run_id="run", config_digest="", gaps=(gap,), transcripts=(result.transcript,))
    return narrated_texts(state)[2]


def test_draft_rationale_degrades_on_unstructured_response(tmp_path):
    gap = assign_confidence(make_gap())

    def transport(request_body):
        # grounded (cites real refs) but missing the required paragraphs
        return f"Weak lockout [POL:{gap.evidence_clauses[0]}] [EVT:{gap.evidence_events[0]}]."

    gateway = Gateway("record", GenerationParams(), tmp_path / "cache", transport=transport)
    det = deterministic_rationale(gap)
    result = draft_rationale(gap, gateway)
    [(rationale, remediation)] = gap_texts(gap, result)
    assert (rationale, remediation) == det
    assert result.degraded is True
    assert result.transcript.degraded is True
    assert "RATIONALE/REMEDIATION" in result.note


def test_draft_rationale_accepts_structured_grounded_response(tmp_path):
    gap = assign_confidence(make_gap())

    def transport(request_body):
        return (
            f"RATIONALE: threshold is lax [POL:{gap.evidence_clauses[0]}] "
            f"[EVT:{gap.evidence_events[0]}].\n\n"
            f"REMEDIATION: lower it [POL:{gap.evidence_clauses[1]}]."
        )

    gateway = Gateway("record", GenerationParams(), tmp_path / "cache", transport=transport)
    result = draft_rationale(gap, gateway)
    [(rationale, remediation)] = gap_texts(gap, result)
    assert result.degraded is False
    assert rationale.startswith("threshold is lax")
    assert remediation.startswith("lower it")
