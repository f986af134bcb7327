"""The bundled ATT&CK catalog and comparison rules are program data: pir reads
them as shipped, and this test is where their shape is checked."""

import json
import re
from pathlib import Path

import pir
from pir.attack_catalog import load_default_catalog
from pir.gap_analysis import CONTROLS, GAP_INSUFFICIENT, GAP_MISSING, load_default_rules

DATA = Path(pir.__file__).resolve().parent / "data"


def test_shipped_catalog_and_rules_are_well_formed():
    catalog = json.loads((DATA / "attack_catalog.json").read_text(encoding="utf-8"))
    ids = [entry["technique_id"] for entry in catalog]
    assert len(ids) == len(set(ids))
    assert [i for i in ids if not re.fullmatch(r"T\d{4}(\.\d{3})?", i)] == []
    assert [i for i in ids if "." in i and i.split(".")[0] not in ids] == []
    brute_force = load_default_catalog()["T1110"]
    assert brute_force.name and brute_force.tactic and brute_force.indicator_tags

    rules = json.loads((DATA / "comparison_rules.json").read_text(encoding="utf-8"))
    assert rules["schema_version"] == 1
    directions = load_default_rules().direction
    read_by_is_weaker = ("lower_is_stricter", "higher_is_stricter", "true_is_stricter")
    assert [c for c in CONTROLS if directions.get(c) not in read_by_is_weaker] == []
    # the shapes _severity reads: a level, or a ratio rule between two levels
    levels = ("Low", "Medium", "High")
    for gap_kind in (GAP_INSUFFICIENT, GAP_MISSING):
        assert [c for c in CONTROLS if c not in rules["severity"][gap_kind]] == []
        for control, entry in rules["severity"][gap_kind].items():
            if isinstance(entry, str):
                assert entry in levels, control
                continue
            assert set(entry) == {"kind", "ratio", "at_or_above", "below"}, control
            assert entry["kind"] == "ratio", control
            assert isinstance(entry["ratio"], (int, float)), control
            assert entry["at_or_above"] in levels and entry["below"] in levels, control
    assert [c for c in rules["relevance"]["T1110"] if c not in CONTROLS] == []
