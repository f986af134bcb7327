import json

import pytest

from pir.attack_catalog import (
    TECHNIQUE_BRUTE_FORCE,
    TechniqueMapping,
    justify_mapping,
    load_catalog,
    load_default_catalog,
    map_finding,
)
from pir.detection import DetectorParams, detect_bruteforce
from pir.errors import CatalogMissingTechniqueError, CatalogSchemaError
from pir.llm_gateway import Gateway, GatewaySettings

from conftest import make_auth

MINIMAL = [
    {
        "technique_id": "T1110",
        "name": "Brute Force",
        "tactic": "Credential Access",
        "description": "Repeated credential guessing.",
        "indicator_tags": ["auth-failure-burst"],
    }
]


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


def test_duplicate_technique_id_rejected():
    text = json.dumps(MINIMAL + MINIMAL)
    with pytest.raises(CatalogSchemaError, match="duplicate"):
        load_catalog(text)


@pytest.mark.parametrize("bad_id", ["t1110", "T11", "T1110.1", "1110", "T1110.0001"])
def test_malformed_technique_id_rejected(bad_id):
    entry = dict(MINIMAL[0], technique_id=bad_id)
    with pytest.raises(CatalogSchemaError, match="does not match"):
        load_catalog(json.dumps([entry]))


def test_orphan_subtechnique_rejected():
    entry = dict(MINIMAL[0], technique_id="T1110.001")
    with pytest.raises(CatalogSchemaError, match="no parent"):
        load_catalog(json.dumps([entry]))


def test_missing_field_rejected():
    entry = {k: v for k, v in MINIMAL[0].items() if k != "tactic"}
    with pytest.raises(CatalogSchemaError, match="tactic"):
        load_catalog(json.dumps([entry]))


def test_not_json_rejected():
    with pytest.raises(CatalogSchemaError):
        load_catalog("{nope")
    with pytest.raises(CatalogSchemaError):
        load_catalog('{"technique_id": "T1110"}')


def test_empty_catalog_cannot_map(finding):
    catalog = load_catalog("[]")
    assert len(catalog) == 0
    with pytest.raises(CatalogMissingTechniqueError):
        map_finding(finding, catalog)


def test_map_finding_attributes_brute_force(finding):
    mapping = map_finding(finding, load_default_catalog(), finding_ref=0)
    assert mapping.technique_id == TECHNIQUE_BRUTE_FORCE
    assert mapping.tactic == "Credential Access"
    assert mapping.deterministic is True
    assert mapping.evidence == finding.evidence


def test_rationale_cites_window_and_evidence(finding):
    mapping = map_finding(finding, load_default_catalog())
    assert "6 failed logon attempts" in mapping.rationale
    assert "[EVT:src#1]" in mapping.rationale
    assert "[EVT:src#6]" in mapping.rationale
    assert "T1110" in mapping.rationale


def test_mapping_round_trips_through_dict(finding):
    mapping = map_finding(finding, load_default_catalog(), finding_ref=3)
    assert TechniqueMapping.from_dict(mapping.to_dict()) == mapping


def test_justify_with_disabled_gateway_keeps_rule_rationale(finding, tmp_path):
    gateway = Gateway(
        GatewaySettings(mode="disabled", cache_dir=str(tmp_path / "cache"))
    )
    mapping = map_finding(finding, load_default_catalog())
    result = justify_mapping(mapping, finding, gateway)
    assert result.degraded is True
    assert result.transcript is None
    assert result.text == mapping.rationale
