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
TECHNIQUE_PASSWORD_GUESSING = "T1110.001"


@dataclass(frozen=True)
class TechniqueEntry:
    technique_id: str
    name: str
    tactic: str
    description: str
    indicator_tags: tuple[str, ...]


@dataclass
class TechniqueMapping(Canonical):
    finding_ref: int
    technique_id: str
    technique_name: str
    tactic: str
    rationale: str
    evidence: list[str]
    deterministic: bool


class Catalog:
    """Immutable technique lookup built by load_catalog."""

    def __init__(self, entries: list[TechniqueEntry]):
        self.entries = list(entries)
        self._by_id = {e.technique_id: e for e in entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, technique_id: str) -> bool:
        return technique_id in self._by_id

    def get(self, technique_id: str) -> TechniqueEntry | None:
        return self._by_id.get(technique_id)


def load_catalog(text: str) -> Catalog:
    """Parse and validate a catalog JSON array.

    Raises CatalogSchemaError on malformed JSON, bad ids, duplicates, or a
    sub-technique whose parent is not in the same catalog.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogSchemaError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise CatalogSchemaError("catalog must be a JSON array of technique objects")

    entries: list[TechniqueEntry] = []
    seen: set[str] = set()
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
        if entry.technique_id in seen:
            raise CatalogSchemaError(f"duplicate technique id {entry.technique_id!r}")
        seen.add(entry.technique_id)
        entries.append(entry)

    for entry in entries:
        if "." in entry.technique_id:
            parent = entry.technique_id.split(".", 1)[0]
            if parent not in seen:
                raise CatalogSchemaError(
                    f"sub-technique {entry.technique_id} has no parent {parent} "
                    f"in catalog"
                )
    return Catalog(entries)


def load_default_catalog() -> Catalog:
    text = (
        resources.files("pir").joinpath("data/attack_catalog.json").read_text("utf-8")
    )
    return load_catalog(text)


def map_finding(
    finding: "BehaviorFinding",
    catalog: Catalog,
    *,
    finding_ref: int = 0,
    refine: bool = False,
) -> TechniqueMapping:
    """Deterministic technique attribution for a finding.

    BruteForceSuspected maps to T1110. With ``refine`` enabled, a burst
    against a single account is narrowed to T1110.001 when the catalog has
    it; the per-account detector never produces the many-accounts shape that
    T1110.003 would require, so spraying is never chosen here.
    """
    parent = catalog.get(TECHNIQUE_BRUTE_FORCE)
    if parent is None:
        raise CatalogMissingTechniqueError(
            f"catalog lacks {TECHNIQUE_BRUTE_FORCE}; cannot map "
            f"{finding.kind} finding"
        )
    chosen = parent
    if refine:
        sub = catalog.get(TECHNIQUE_PASSWORD_GUESSING)
        if sub is not None:
            chosen = sub

    span = int((finding.window_end - finding.window_start).total_seconds())
    first, last = finding.evidence[0], finding.evidence[-1]
    rationale = (
        f"{finding.failure_count} failed logon attempts against account "
        f"'{finding.account}' within {span} seconds "
        f"({format_instant(finding.window_start)} to "
        f"{format_instant(finding.window_end)}, [EVT:{first}]..[EVT:{last}]) "
        f"match the repeated credential-guessing pattern of "
        f"{chosen.technique_id} {chosen.name}."
    )
    return TechniqueMapping(
        finding_ref=finding_ref,
        technique_id=chosen.technique_id,
        technique_name=chosen.name,
        tactic=chosen.tactic,
        rationale=rationale,
        evidence=list(finding.evidence),
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
