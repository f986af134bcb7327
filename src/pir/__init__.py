"""Offline-reproducible post-incident review of Windows authentication logs.

Turns 4624/4625 evidence into a threat-attributed, policy-gap report in which
every conclusion cites resolvable event records and policy clauses. All LLM
traffic runs through a record/replay gateway so a committed transcript cache
reproduces a review byte-for-byte without network access.
"""

from .config import ReviewConfig
from .detection import BehaviorFinding, DetectorParams, detect_bruteforce, oracle_detect
from .errors import ReviewError
from .llm_gateway import Gateway, Transcript
from .orchestrator import ReviewState, run_review, run_stage
from .reporting import build_trace_ledger
from .scenario_gen import GroundTruth, ScenarioSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BehaviorFinding",
    "DetectorParams",
    "Gateway",
    "GroundTruth",
    "ReviewConfig",
    "ReviewError",
    "ReviewState",
    "ScenarioSpec",
    "Transcript",
    "__version__",
    "build_trace_ledger",
    "detect_bruteforce",
    "generate",
    "oracle_detect",
    "run_review",
    "run_stage",
]
