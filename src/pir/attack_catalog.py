"""Local MITRE ATT&CK technique catalog and finding-to-technique mapping.

The bundled catalog is a small offline snapshot (ids, names, tactics copied
from the public taxonomy), not a live STIX feed. It is program data in
data/attack_catalog.json, read as shipped; edit it together with
tests/test_shipped_data.py, which checks it. Mapping is rule-based and
deterministic; the optional generative justification only rephrases it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .canon import Canonical, format_instant

if TYPE_CHECKING:
    from .detection import BehaviorFinding
    from .llm_gateway import Gateway, Request

TECHNIQUE_BRUTE_FORCE = "T1110"


@dataclass(frozen=True)
class TechniqueEntry:
    technique_id: str
    name: str
    tactic: str
    description: str
    indicator_tags: tuple[str, ...]


@dataclass(frozen=True)
class TechniqueMapping(Canonical):
    finding_ref: int
    technique_id: str
    technique_name: str
    tactic: str
    evidence: tuple[str, ...]
    deterministic: bool


def load_default_catalog() -> dict[str, TechniqueEntry]:
    """The bundled catalog as {technique_id: entry}."""
    raw = json.loads(
        resources.files("pir").joinpath("data/attack_catalog.json").read_text("utf-8")
    )
    return {
        item["technique_id"]: TechniqueEntry(
            **dict(item, indicator_tags=tuple(item["indicator_tags"]))
        )
        for item in raw
    }


def map_finding(
    finding: "BehaviorFinding",
    catalog: dict[str, TechniqueEntry],
    *,
    finding_ref: int = 0,
) -> TechniqueMapping:
    """Deterministic technique attribution for a finding: a
    BruteForceSuspected finding maps to T1110."""
    technique = catalog[TECHNIQUE_BRUTE_FORCE]
    return TechniqueMapping(
        finding_ref=finding_ref,
        technique_id=technique.technique_id,
        technique_name=technique.name,
        tactic=technique.tactic,
        evidence=finding.evidence,
        deterministic=True,
    )


def rule_rationale(mapping: TechniqueMapping, finding: "BehaviorFinding") -> str:
    """The rule rationale of a mapping, citing its finding's window and
    records: its text when the justification's narration is degraded or
    absent (reporting.narrated_texts)."""
    span = int((finding.window_end - finding.window_start).total_seconds())
    first, last = finding.evidence[0], finding.evidence[-1]
    return (
        f"{finding.failure_count} failed logon attempts against account "
        f"'{finding.account}' within {span} seconds "
        f"({format_instant(finding.window_start)} to "
        f"{format_instant(finding.window_end)}, [EVT:{first}]..[EVT:{last}]) "
        f"match the repeated credential-guessing pattern of "
        f"{mapping.technique_id} {mapping.technique_name}."
    )


def mapping_request(mapping: TechniqueMapping, finding: "BehaviorFinding") -> "Request":
    """The bindings, record refs and clause ids of a mapping's justification
    narration, from the mapping and its finding alone."""
    bindings = {
        "technique_id": mapping.technique_id,
        "technique_name": mapping.technique_name,
        "tactic": mapping.tactic,
        "account": finding.account,
        "failure_count": str(finding.failure_count),
    }
    return bindings, finding.cited_refs(), ()


def justify_mapping(
    mapping: TechniqueMapping, finding: "BehaviorFinding", gateway: "Gateway"
):
    """Grounded narrative justification; a report falls back to the rule
    rationale (rule_rationale)."""
    return gateway.narrate("mapping_justification", *mapping_request(mapping, finding))
