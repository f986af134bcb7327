import pytest

from pir.attack_catalog import (
    TECHNIQUE_BRUTE_FORCE,
    TechniqueMapping,
    justify_mapping,
    load_default_catalog,
    map_finding,
    rule_rationale,
)
from pir.detection import DetectorParams, detect_bruteforce
from pir.llm_gateway import Gateway, GenerationParams
from pir.orchestrator import ReviewState
from pir.reporting import narrated_texts

from conftest import make_auth


@pytest.fixture
def finding():
    events = [make_auth(i + 1, seconds=i * 10) for i in range(6)]
    events.append(make_auth(7, outcome="Success", seconds=55))
    [f] = detect_bruteforce(events, DetectorParams())
    return f


def test_default_catalog_has_brute_force_family():
    catalog = load_default_catalog()
    parent = catalog.get(TECHNIQUE_BRUTE_FORCE)
    assert parent is not None
    assert parent.name == "Brute Force"
    assert parent.tactic == "Credential Access"
    assert "T1110.001" in catalog


def test_map_finding_attributes_brute_force(finding):
    mapping = map_finding(finding, load_default_catalog(), finding_ref=0)
    assert mapping.technique_id == TECHNIQUE_BRUTE_FORCE
    assert mapping.tactic == "Credential Access"
    assert mapping.deterministic is True
    assert mapping.evidence == finding.evidence


def test_rationale_cites_window_and_evidence(finding):
    rationale = rule_rationale(map_finding(finding, load_default_catalog()), finding)
    assert "6 failed logon attempts" in rationale
    assert "[EVT:src#1]" in rationale
    assert "[EVT:src#6]" in rationale
    assert "T1110" in rationale


def test_mapping_round_trips_through_dict(finding):
    mapping = map_finding(finding, load_default_catalog(), finding_ref=3)
    assert TechniqueMapping.from_dict(mapping.to_dict()) == mapping


def test_justify_with_disabled_gateway_keeps_rule_rationale(finding, tmp_path):
    gateway = Gateway("disabled", GenerationParams(), tmp_path / "cache")
    mapping = map_finding(finding, load_default_catalog())
    result = justify_mapping(mapping, finding, gateway)
    assert result.degraded is True
    assert result.transcript is None
    state = ReviewState(run_id="run", config_digest="", findings=(finding,), mappings=(mapping,))
    assert narrated_texts(state)[1] == [rule_rationale(mapping, finding)]
