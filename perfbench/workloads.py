"""Seeded inputs and set-up for the benchmark workloads.

Run as a script to set up one workload in an empty directory; the
benchmark does this in a child process, so set-up leaves no trace in the
peak memory of the process that runs the measured operation:

    python3 perfbench/workloads.py <workload> <seed> <directory>

The directory then holds ``inputs/`` (evidence and policy files), any
review the workload needs recorded during set-up, and ``manifest.json``,
which tells the benchmark what was made. Every path the program sees is
relative to that directory, so a seed gives the same config digest, run id
and report bytes wherever the checkout lives.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from pir import orchestrator, scenario_gen  # noqa: E402
from pir.config import ReviewConfig  # noqa: E402
from pir.log_ingest import flatten_to_csv, parse_event_xml  # noqa: E402
from record_fixture_cache import scripted_transport  # noqa: E402

WORKLOADS = ("bulk-replay", "many-incidents", "rerender")
GATEWAY_MODES = {"bulk-replay": "replay", "many-incidents": "record", "rerender": "replay"}

# bulk-replay / rerender: one export, one burst, noise over four accounts.
BULK_NOISE_EVENTS = 10_000
NOISE_ACCOUNTS = ("alice", "bob", "carol", "dave")

# many-incidents: per-host exports, half XML and half flattened CSV.
HOSTS = 100
HOST_RECORDS = 50
# Burst shapes are fixed and only dealt to hosts by the seed, so every seed
# gives the same number of findings and gateway calls.
HOST_FAILURES = tuple(5 + i % 8 for i in range(HOSTS))
HOST_SPACING_S = tuple((3, 8, 12, 20)[i // 8 % 4] for i in range(HOSTS))
HOST_SUCCESS = tuple(i % 3 != 0 for i in range(HOSTS))

# Stand-in model latency for the record-mode workload.
TRANSPORT_LATENCY_S = 0.010

SIZES = {
    "bulk-replay": f"1 XML export: {BULK_NOISE_EVENTS} noise records over "
    f"{len(NOISE_ACCOUNTS)} accounts plus one burst of 6-10 failures and a success",
    "many-incidents": f"{HOSTS} exports of {HOST_RECORDS} records, half XML and "
    f"half CSV, one burst each",
    "rerender": "final checkpoint of a bulk-replay-sized review",
}

DETECTOR = {
    "min_failures": 5,
    "window_seconds": 120,
    "require_success": False,
    "success_grace_seconds": 60,
}
POLICIES = {"org": "org_policy.md", "baseline": "baseline_policy.md"}
_START = datetime(2026, 6, 1, 12, 0, 0, tzinfo=timezone.utc)


def review_config(base: Path, evidence: list[str], mode: str, output: str = "out") -> ReviewConfig:
    raw = {
        "evidence_paths": evidence,
        "org_policy_paths": [f"inputs/{POLICIES['org']}"],
        "baseline_policy_paths": [f"inputs/{POLICIES['baseline']}"],
        "output_dir": output,
        "detector": DETECTOR,
        "retrieval_k": 16,
        "gateway_mode": mode,
        "gateway": {
            "model_id": "gpt-4o",
            "temperature": 0.0,
            "max_tokens": 1024,
            "top_p": 1.0,
            "cache_dir": "cache",
        },
    }
    return ReviewConfig.from_dict(raw, base)


def _truth_refs(truth: scenario_gen.GroundTruth) -> list[str]:
    refs = list(truth.injected_record_refs)
    if truth.success_record_ref:
        refs.append(truth.success_record_ref)
    return refs


def write_bulk(inputs: Path, seed: int) -> tuple[list[str], list[str]]:
    rng = random.Random(seed)
    spec = scenario_gen.ScenarioSpec(
        seed=seed,
        target_account=rng.choice(("administrator", "svc-backup", "helpdesk", "j.smith")),
        failure_count=rng.randint(6, 10),
        failure_spacing_seconds=rng.randint(3, 12),
        noise_events=BULK_NOISE_EVENTS,
        noise_accounts=NOISE_ACCOUNTS,
        start_time=_START + timedelta(seconds=rng.randrange(86_400)),
    )
    xml, truth = scenario_gen.generate(spec, source_name="bulk")
    (inputs / "bulk.xml").write_text(xml, encoding="utf-8")
    return ["inputs/bulk.xml"], _truth_refs(truth)


def write_hosts(inputs: Path, seed: int) -> tuple[list[str], list[str]]:
    rng = random.Random(seed)
    shapes = list(zip(HOST_FAILURES, HOST_SPACING_S, HOST_SUCCESS))
    rng.shuffle(shapes)
    as_csv = set(rng.sample(range(HOSTS), HOSTS // 2))
    evidence: list[str] = []
    truth_refs: list[str] = []
    for i, (failures, spacing, success) in enumerate(shapes):
        stem = f"host-{i:03d}"
        spec = scenario_gen.ScenarioSpec(
            seed=seed * 1000 + i,
            target_account=f"u{i:03d}.{rng.randrange(1000):03d}",
            failure_count=failures,
            failure_spacing_seconds=spacing,
            include_success=success,
            noise_events=HOST_RECORDS - failures - int(success),
            noise_accounts=NOISE_ACCOUNTS,
            start_time=_START + timedelta(seconds=i * 3600 + rng.randrange(600)),
        )
        xml, truth = scenario_gen.generate(spec, source_name=stem)
        if i in as_csv:
            text, name = flatten_to_csv(parse_event_xml(xml, source=stem)), f"{stem}.csv"
        else:
            text, name = xml, f"{stem}.xml"
        (inputs / name).write_text(text, encoding="utf-8", newline="")
        evidence.append(f"inputs/{name}")
        truth_refs.extend(_truth_refs(truth))
    return evidence, truth_refs


def set_up(workload: str, seed: int, base: Path) -> dict:
    """Generate the workload's inputs under ``base`` and record what the
    measured operation needs; returns the manifest."""
    inputs = base / "inputs"
    inputs.mkdir(parents=True)
    for name in POLICIES.values():
        shutil.copyfile(ROOT / "fixtures" / "policies" / name, inputs / name)
    writer = write_hosts if workload == "many-incidents" else write_bulk
    evidence, truth_refs = writer(inputs, seed)
    manifest = {
        "workload": workload,
        "seed": seed,
        "evidence": evidence,
        "evidence_bytes": sum((base / p).stat().st_size for p in evidence),
        "truth_refs": truth_refs,
        "gateway_mode": GATEWAY_MODES[workload],
    }
    if workload != "many-incidents":
        # Record the replay cache, and with it the checkpoints and report
        # files that rerender starts from and compares against.
        config = review_config(base, evidence, "record", output="recorded")
        state = orchestrator.run_review(config, transport=scripted_transport)
        manifest["records"] = len(state.records)
        manifest["checkpoint"] = "recorded/state/GenerateReport.json"
        manifest["reports"] = ["recorded/report.json", "recorded/report.md"]
    else:
        manifest["records"] = HOSTS * HOST_RECORDS
    (base / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(WORKLOADS)}}} <seed> <directory>")
    set_up(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
