"""Control extraction from policy clauses and incident-driven gap analysis.

A fixed pattern grammar turns clause text into comparable control parameters;
the organisation's values are compared against the baseline's under a
direction-of-safety table, yielding severity- and confidence-scored gaps.
Direction, relevance, and severity tables are program data in
data/comparison_rules.json, read as shipped; edit them together with
tests/test_shipped_data.py, which checks them.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING

from .canon import Canonical
from .errors import NoBaselineError
from .llm_gateway import Gateway, NarrativeResult, Request
from .policy_index import PolicyClause

if TYPE_CHECKING:
    from .attack_catalog import TechniqueMapping

CONTROLS = (
    "LockoutThreshold",
    "LockoutDurationMinutes",
    "PasswordMaxAgeDays",
    "PasswordMinLength",
    "MfaRequired",
    "MonitoringAlerting",
)

EXTRACTION_DETERMINISTIC = "Deterministic"

GAP_INSUFFICIENT = "Insufficient"
GAP_MISSING = "Missing"

# Incident-framing phrase per control, used in deterministic rationales.
CONTROL_PHRASES = {
    "LockoutThreshold": "overly permissive account lockout threshold",
    "LockoutDurationMinutes": "insufficient account lockout duration",
    "PasswordMaxAgeDays": "infrequent password rotation requirement",
    "PasswordMinLength": "inadequate minimum password length",
    "MfaRequired": "absent or unenforced multi-factor authentication requirement",
    "MonitoringAlerting": "insufficient authentication monitoring and alerting",
}

# Extraction grammar. Numeric controls list (pattern, group) alternatives
# tried in order; first match in a clause wins for that control.
_NUMERIC_PATTERNS: dict[str, tuple[str, list[re.Pattern[str]]]] = {
    "LockoutThreshold": (
        "attempts",
        [
            re.compile(r"lockout\s+threshold[^\d.]*?(\d+)", re.I),
            re.compile(
                r"lock(?:ed|out|s)?\b[^.]*?\bafter\s+(\d+)\s+"
                r"(?:failed|invalid)\s+(?:logon\s+|login\s+|sign[- ]?in\s+)?attempts",
                re.I,
            ),
        ],
    ),
    "LockoutDurationMinutes": (
        "minutes",
        [
            re.compile(r"lock(?:out)?\s+duration[^\d.]*?(\d+)\s*minutes?", re.I),
            re.compile(r"locked\s+(?:out\s+)?for\s+(\d+)\s+minutes?", re.I),
        ],
    ),
    "PasswordMaxAgeDays": (
        "days",
        [
            re.compile(
                r"(?:password|rotat|chang)\w*[^.]*?\bevery\s+(\d+)\s+days", re.I
            ),
            re.compile(r"(\d+)[- ]day\s+rotation", re.I),
        ],
    ),
    "PasswordMinLength": (
        "characters",
        [
            re.compile(
                r"(?:password|passphrase)\w*[^.]*?\bat\s+least\s+(\d+)\s+characters",
                re.I,
            ),
            re.compile(r"minimum\s+(?:password\s+)?length[^\d.]*?(\d+)", re.I),
        ],
    ),
}

# Boolean controls extract True when a mention co-occurs with an obligation.
_BOOLEAN_PATTERNS: dict[str, tuple[re.Pattern[str], re.Pattern[str]]] = {
    "MfaRequired": (
        re.compile(r"\bmulti[- ]?factor\b|\bmfa\b|\btwo[- ]?factor\b", re.I),
        re.compile(r"\b(?:must|shall|required?|requires|mandatory|enforced)\b", re.I),
    ),
    "MonitoringAlerting": (
        re.compile(r"\bmonitor\w*|\bsiem\b|\balert\w*|\baudit\s+log\w*", re.I),
        re.compile(
            r"\b(?:must|shall|required?|reviewed|raised|forwarded|enabled"
            r"|generated?)\b",
            re.I,
        ),
    ),
}


@dataclass(frozen=True)
class ControlParameter(Canonical):
    control: str
    value: int | float | bool
    unit: str
    clause_ref: str
    extraction: str

    def __post_init__(self) -> None:
        if self.control not in CONTROLS:
            raise ValueError(f"unknown control {self.control!r}")
        if isinstance(self.value, bool):
            return
        if not self.unit:
            raise ValueError(f"numeric control {self.control} requires a unit")


@dataclass(frozen=True)
class PolicyGap(Canonical):
    control: str
    technique_id: str
    org_value: ControlParameter | None
    baseline_value: ControlParameter | None
    gap_kind: str
    severity: str
    confidence: str | None
    evidence_events: tuple[str, ...]
    evidence_clauses: tuple[str, ...]


@dataclass(frozen=True)
class ComparisonRules:
    relevance: dict[str, tuple[str, ...]]
    direction: dict[str, str]
    severity: dict[str, dict]


def load_default_rules() -> ComparisonRules:
    """The bundled relevance, direction and severity tables."""
    d = json.loads(
        resources.files("pir").joinpath("data/comparison_rules.json").read_text("utf-8")
    )
    return ComparisonRules(
        relevance={k: tuple(v) for k, v in d["relevance"].items()},
        direction=d["direction"],
        severity=d["severity"],
    )


def extract_control_parameters(
    clauses: list[PolicyClause],
) -> list[ControlParameter]:
    """Run the pattern grammar over clauses; first match per (control, clause)
    wins, all matches across clauses are returned, non-matching clauses yield
    nothing."""
    params: list[ControlParameter] = []
    for clause in clauses:
        for control, (unit, patterns) in _NUMERIC_PATTERNS.items():
            for pattern in patterns:
                m = pattern.search(clause.text)
                if m:
                    params.append(
                        ControlParameter(
                            control=control,
                            value=int(m.group(1)),
                            unit=unit,
                            clause_ref=clause.clause_id,
                            extraction=EXTRACTION_DETERMINISTIC,
                        )
                    )
                    break
        for control, (mention, obligation) in _BOOLEAN_PATTERNS.items():
            if mention.search(clause.text) and obligation.search(clause.text):
                params.append(
                    ControlParameter(
                        control=control,
                        value=True,
                        unit="",
                        clause_ref=clause.clause_id,
                        extraction=EXTRACTION_DETERMINISTIC,
                    )
                )
    return params


def _stricter(a: ControlParameter, b: ControlParameter, direction: str) -> ControlParameter:
    return b if is_weaker(a.value, b.value, direction) else a


def select_effective(
    params: list[ControlParameter], rules: ComparisonRules
) -> tuple[dict[str, ControlParameter], list[str]]:
    """Collapse multiple values per control to the strictest one.

    Conflicting values produce a consistency warning (conservative audit
    posture: assume the strictest stated control governs).
    """
    effective: dict[str, ControlParameter] = {}
    warnings: list[str] = []
    for param in params:
        current = effective.get(param.control)
        if current is None:
            effective[param.control] = param
            continue
        if current.value != param.value:
            winner = _stricter(current, param, rules.direction[param.control])
            warnings.append(
                f"conflicting values for {param.control}: {current.value} "
                f"({current.clause_ref}) vs {param.value} ({param.clause_ref}); "
                f"using strictest {winner.value}"
            )
            effective[param.control] = winner
    return effective, warnings


def is_weaker(org_value, baseline_value, direction: str) -> bool:
    """Direction-of-safety predicate: is org strictly weaker than baseline?
    ``direction`` is one of the three the shipped rules name."""
    if direction == "lower_is_stricter":
        return org_value > baseline_value
    if direction == "higher_is_stricter":
        return org_value < baseline_value
    return (not bool(org_value)) and bool(baseline_value)  # true_is_stricter


def _severity(
    rules: ComparisonRules, gap_kind: str, control: str, org_value, baseline_value
) -> str:
    entry = rules.severity[gap_kind][control]
    if isinstance(entry, str):
        return entry
    # the one other shape the shipped rules use: {"kind": "ratio", ...}
    if org_value >= entry["ratio"] * baseline_value:
        return entry["at_or_above"]
    return entry["below"]


def compare_controls(
    effective_org: dict[str, ControlParameter],
    effective_base: dict[str, ControlParameter],
    mapping: "TechniqueMapping",
    evidence_events: list[str],
    rules: ComparisonRules,
) -> list[PolicyGap]:
    """Compare org controls against baseline for the mapped technique.

    Both sides are the per-control values select_effective chose. Only
    controls relevant to the technique are compared. org weaker than
    baseline yields Insufficient; org absent while baseline present yields
    Missing; org-only controls are not gaps. Gaps carry no confidence,
    which assign_confidence sets on a new gap, since the state and its
    items are frozen. A gap holds no rationale or remediation: a report
    takes both from the gap's narration (reporting.narrated_texts).
    """
    if not evidence_events:
        raise ValueError("gap analysis is incident-driven; evidence_events is empty")
    if not effective_base:
        raise NoBaselineError("no baseline control parameters to compare against")

    gaps: list[PolicyGap] = []
    for control in rules.relevance.get(mapping.technique_id, ()):
        base_param = effective_base.get(control)
        if base_param is None:
            continue
        org_param = effective_org.get(control)
        if org_param is None:
            gap_kind = GAP_MISSING
        elif is_weaker(org_param.value, base_param.value, rules.direction[control]):
            gap_kind = GAP_INSUFFICIENT
        else:
            continue
        clauses = []
        if org_param is not None:
            clauses.append(org_param.clause_ref)
        clauses.append(base_param.clause_ref)
        gaps.append(
            PolicyGap(
                control=control,
                technique_id=mapping.technique_id,
                org_value=org_param,
                baseline_value=base_param,
                gap_kind=gap_kind,
                severity=_severity(
                    rules,
                    gap_kind,
                    control,
                    org_param.value if org_param else None,
                    base_param.value,
                ),
                confidence=None,
                evidence_events=tuple(evidence_events),
                evidence_clauses=tuple(clauses),
            )
        )
    gaps.sort(key=lambda g: (g.control, g.technique_id))
    return gaps


def dedupe_gaps(gaps: list[PolicyGap]) -> list[PolicyGap]:
    """Merge gaps that share (control, technique_id), unioning evidence in
    first-seen order; the first gap of each key gives the other fields."""
    # per key: the first gap and the refs and clause ids seen, as ordered sets
    merged: dict[tuple[str, str], tuple[PolicyGap, dict, dict]] = {}
    for gap in gaps:
        _, refs, clauses = merged.setdefault((gap.control, gap.technique_id), (gap, {}, {}))
        refs.update(dict.fromkeys(gap.evidence_events))
        clauses.update(dict.fromkeys(gap.evidence_clauses))
    out = [
        dataclasses.replace(first, evidence_events=tuple(refs), evidence_clauses=tuple(clauses))
        for first, refs, clauses in merged.values()
    ]
    out.sort(key=lambda g: (g.control, g.technique_id))
    return out


def assign_confidence(gap: PolicyGap, min_evidence: int = 5) -> PolicyGap:
    """The gap with its confidence set by the total confidence rule.

    Missing gaps rest on baseline text alone, so confidence is Low. High
    needs at least ``min_evidence`` incident records (the detector
    threshold); anything else is Medium.
    """
    if gap.gap_kind == GAP_MISSING:
        confidence = "Low"
    elif len(gap.evidence_events) >= min_evidence:
        confidence = "High"
    else:
        confidence = "Medium"
    return dataclasses.replace(gap, confidence=confidence)


def _fmt_value(param: ControlParameter | None) -> str:
    if param is None:
        return "absent"
    if isinstance(param.value, bool):
        return "required" if param.value else "not required"
    return f"{param.value} {param.unit}"


def deterministic_rationale(gap: PolicyGap) -> tuple[str, str]:
    """Template rationale/remediation used when no grounded narrative exists."""
    phrase = CONTROL_PHRASES[gap.control]
    first, last = gap.evidence_events[0], gap.evidence_events[-1]
    base = gap.baseline_value
    base_text = _fmt_value(base)
    base_ref = base.clause_ref if base else ""
    if gap.gap_kind == GAP_MISSING:
        rationale = (
            f"No organisational control for {gap.control} was found in any "
            f"clause of the organisation's policies, while the baseline requires {base_text} "
            f"([POL:{base_ref}]): an {phrase}. The incident's "
            f"{len(gap.evidence_events)} failed logon attempts "
            f"([EVT:{first}]..[EVT:{last}]) underline the exposure."
        )
        remediation = (
            f"Adopt the baseline requirement for {gap.control} of {base_text} "
            f"(see [POL:{base_ref}])."
        )
        return rationale, remediation
    org = gap.org_value
    rationale = (
        f"The organisation sets {gap.control} to {_fmt_value(org)} "
        f"([POL:{org.clause_ref}]) while the baseline requires {base_text} "
        f"([POL:{base_ref}]): an {phrase}. The incident's "
        f"{len(gap.evidence_events)} failed logon attempts "
        f"([EVT:{first}]..[EVT:{last}]) proceeded without the control "
        f"intervening."
    )
    remediation = (
        f"Align {gap.control} with the baseline requirement of {base_text} "
        f"(see [POL:{base_ref}])."
    )
    return rationale, remediation


def gap_request(gap: PolicyGap) -> "Request":
    """The bindings, record refs and clause ids of a gap's rationale
    narration, from the gap alone."""
    bindings = {
        "control": gap.control,
        "gap_kind": gap.gap_kind,
        "org_summary": _fmt_value(gap.org_value),
        "baseline_summary": _fmt_value(gap.baseline_value),
    }
    return bindings, gap.evidence_events, gap.evidence_clauses


def draft_rationale(gap: PolicyGap, gateway: "Gateway") -> "NarrativeResult":
    """Grounded rationale and remediation narration for one gap. A report
    takes the RATIONALE and REMEDIATION paragraphs of a response that
    narration accepts (llm_gateway.verdict), else the deterministic pair
    (deterministic_rationale)."""
    return gateway.narrate("gap_rationale", *gap_request(gap))
