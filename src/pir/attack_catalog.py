"""Local MITRE ATT&CK technique catalog and finding-to-technique mapping.

The bundled catalog is a small offline snapshot (ids, names, tactics copied
from the public taxonomy), not a live STIX feed. Mapping is rule-based and
deterministic; the optional generative justification only rephrases it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .canon import Canonical, format_instant
from .errors import CatalogMissingTechniqueError, CatalogSchemaError

if TYPE_CHECKING:
    from .detection import BehaviorFinding
    from .llm_gateway import Gateway

TECHNIQUE_ID_PATTERN = re.compile(r"^T\d{4}(\.\d{3})?$")

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
    rationale: str
    evidence: tuple[str, ...]
    deterministic: bool


def load_catalog(text: str) -> dict[str, TechniqueEntry]:
    """Parse and validate a catalog JSON array into {technique_id: entry}.

    Raises CatalogSchemaError on malformed JSON, bad ids, duplicates, or a
    sub-technique whose parent is not in the same catalog.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogSchemaError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogSchemaError("catalog must be a JSON array of technique objects")

    catalog: dict[str, TechniqueEntry] = {}
    for pos, item in enumerate(raw):
        if not isinstance(item, dict):
            raise CatalogSchemaError(f"catalog entry {pos} is not an object")
        try:
            entry = TechniqueEntry(
                technique_id=item["technique_id"],
                name=item["name"],
                tactic=item["tactic"],
                description=item.get("description", ""),
                indicator_tags=tuple(item.get("indicator_tags", [])),
            )
        except KeyError as exc:
            raise CatalogSchemaError(
                f"catalog entry {pos} is missing field {exc.args[0]!r}"
            ) from exc
        if not TECHNIQUE_ID_PATTERN.match(entry.technique_id):
            raise CatalogSchemaError(
                f"technique id {entry.technique_id!r} does not match "
                f"T<4 digits>[.<3 digits>]"
            )
        if entry.technique_id in catalog:
            raise CatalogSchemaError(f"duplicate technique id {entry.technique_id!r}")
        catalog[entry.technique_id] = entry

    for technique_id in catalog:
        if "." in technique_id:
            parent = technique_id.split(".", 1)[0]
            if parent not in catalog:
                raise CatalogSchemaError(
                    f"sub-technique {technique_id} has no parent {parent} "
                    f"in catalog"
                )
    return catalog


def load_default_catalog() -> dict[str, TechniqueEntry]:
    text = (
        resources.files("pir").joinpath("data/attack_catalog.json").read_text("utf-8")
    )
    return load_catalog(text)


def map_finding(
    finding: "BehaviorFinding",
    catalog: dict[str, TechniqueEntry],
    *,
    finding_ref: int = 0,
) -> TechniqueMapping:
    """Deterministic technique attribution for a finding: a
    BruteForceSuspected finding maps to T1110.

    Raises CatalogMissingTechniqueError when the catalog lacks T1110.
    """
    technique = catalog.get(TECHNIQUE_BRUTE_FORCE)
    if technique is None:
        raise CatalogMissingTechniqueError(
            f"catalog lacks {TECHNIQUE_BRUTE_FORCE}; cannot map "
            f"{finding.kind} finding"
        )

    span = int((finding.window_end - finding.window_start).total_seconds())
    first, last = finding.evidence[0], finding.evidence[-1]
    rationale = (
        f"{finding.failure_count} failed logon attempts against account "
        f"'{finding.account}' within {span} seconds "
        f"({format_instant(finding.window_start)} to "
        f"{format_instant(finding.window_end)}, [EVT:{first}]..[EVT:{last}]) "
        f"match the repeated credential-guessing pattern of "
        f"{technique.technique_id} {technique.name}."
    )
    return TechniqueMapping(
        finding_ref=finding_ref,
        technique_id=technique.technique_id,
        technique_name=technique.name,
        tactic=technique.tactic,
        rationale=rationale,
        evidence=finding.evidence,
        deterministic=True,
    )


def justify_mapping(
    mapping: TechniqueMapping, finding: "BehaviorFinding", gateway: "Gateway"
):
    """Grounded narrative justification; falls back to the rule rationale."""
    return gateway.narrate(
        "mapping_justification",
        {
            "technique_id": mapping.technique_id,
            "technique_name": mapping.technique_name,
            "tactic": mapping.tactic,
            "account": finding.account,
            "failure_count": str(finding.failure_count),
        },
        record_refs=finding.cited_refs(),
        clause_ids=(),
        fallback=mapping.rationale,
    )
