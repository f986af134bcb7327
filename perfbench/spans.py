"""Span tracer for the traced benchmark run.

Spans are recorded from outside the program: ``installed`` rebinds the names
that ``orchestrator``, ``reporting`` and ``Gateway`` call to wrappers that
open a span, call the original and close the span. Each span holds its name,
start, end and the index of the span that was open when it started. Spans
stay in memory until the run writes them out, and every binding is restored
when the traced operation ends.

A span name is ``<layer>.<function>``; the layer is the ``src/pir`` module
the function belongs to. The benchmark's own transport is the layer
``transport`` and its root span is the layer ``bench``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

STAGES = (
    "ProcessEvidence",
    "MapAttack",
    "RetrievePolicies",
    "ValidatePolicies",
    "GenerateReport",
)

# Layers whose self time is reported; together with the transport wait and
# the root span's self time they cover the whole traced operation.
LAYERS = (
    "log_ingest",
    "detection",
    "attack_catalog",
    "policy_index",
    "gap_analysis",
    "llm_gateway",
    "reporting",
    "orchestrator",
    "canon",
)

ROOT_SPAN = "bench.operation"
TRANSPORT_SPAN = "transport.wait"


class Tracer:
    """In-memory span recorder for one run; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.calls[name] += 1
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result(tracer,
        result, args)`` then takes counts from the call, outside the span."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def write(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# --- counts taken from return values ----------------------------------------


def _count_records(tracer, result, args):
    tracer.counts["log_ingest.records_out"] += len(result)


def _count_detect(tracer, result, args):
    tracer.counts["detection.auth_events_in"] += len(args[0])
    tracer.counts["detection.findings_out"] += len(result)


def _count_mapping(tracer, result, args):
    tracer.counts["attack_catalog.mappings_out"] += 1


def _count_gaps_raw(tracer, result, args):
    tracer.counts["gap_analysis.gaps_raw"] += len(result)


def _count_gaps_out(tracer, result, args):
    tracer.counts["gap_analysis.gaps_out"] += len(result)


def _count_narrate(tracer, result, args):
    tracer.counts[f"llm_gateway.calls.{args[1]}"] += 1
    transcript = result.transcript
    if transcript is not None and transcript.grounding and transcript.grounding.passed:
        tracer.counts["llm_gateway.grounded"] += 1


# (module, attribute, span name, counter). A function is rebound in every
# pir module that imported it by name, so calls through any of those names
# are traced.
FUNCTIONS = (
    ("pir.log_ingest", "parse_event_xml", "log_ingest.parse_event_xml", _count_records),
    ("pir.log_ingest", "load_csv", "log_ingest.load_csv", _count_records),
    ("pir.log_ingest", "normalize_auth_events", "log_ingest.normalize_auth_events", None),
    ("pir.detection", "detect_bruteforce", "detection.detect_bruteforce", _count_detect),
    ("pir.detection", "narrative_for_finding", "detection.narrative_for_finding", None),
    ("pir.detection", "fallback_summary", "detection.fallback_summary", None),
    ("pir.attack_catalog", "load_default_catalog", "attack_catalog.load_default_catalog", None),
    ("pir.attack_catalog", "map_finding", "attack_catalog.map_finding", _count_mapping),
    ("pir.attack_catalog", "justify_mapping", "attack_catalog.justify_mapping", None),
    ("pir.policy_index", "ingest_document", "policy_index.ingest_document", None),
    ("pir.policy_index", "build_index", "policy_index.build_index", None),
    ("pir.policy_index", "technique_query", "policy_index.technique_query", None),
    ("pir.policy_index", "retrieve", "policy_index.retrieve", None),
    ("pir.gap_analysis", "extract_control_parameters", "gap_analysis.extract_control_parameters", None),
    ("pir.gap_analysis", "load_default_rules", "gap_analysis.load_default_rules", None),
    ("pir.gap_analysis", "select_effective", "gap_analysis.select_effective", None),
    ("pir.gap_analysis", "compare_controls", "gap_analysis.compare_controls", _count_gaps_raw),
    ("pir.gap_analysis", "dedupe_gaps", "gap_analysis.dedupe_gaps", _count_gaps_out),
    ("pir.gap_analysis", "assign_confidence", "gap_analysis.assign_confidence", None),
    ("pir.gap_analysis", "draft_rationale", "gap_analysis.draft_rationale", None),
    ("pir.llm_gateway", "validate_grounding", "llm_gateway.validate_grounding", None),
    ("pir.reporting", "deterministic_incident_summary", "reporting.deterministic_incident_summary", None),
    ("pir.reporting", "build_report", "reporting.build_report", None),
    ("pir.reporting", "render_json", "reporting.render_json", None),
    ("pir.reporting", "render_markdown", "reporting.render_markdown", None),
    ("pir.orchestrator", "run_review", "orchestrator.run_review", None),
    ("pir.orchestrator", "build_deps", "orchestrator.build_deps", None),
    ("pir.orchestrator", "run_stage", "orchestrator.run_stage", None),
    ("pir.orchestrator", "save_checkpoint", "orchestrator.save_checkpoint", None),
    ("pir.orchestrator", "load_checkpoint", "orchestrator.load_checkpoint", None),
    ("pir.orchestrator", "write_report_files", "orchestrator.write_report_files", None),
    ("pir.canon", "canon_dumps", "canon.canon_dumps", None),
    ("pir.canon", "digest_of", "canon.digest_of", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("pir.llm_gateway", "Gateway", "narrate", "llm_gateway.narrate", _count_narrate),
    ("pir.llm_gateway", "Gateway", "complete", "llm_gateway.complete", None),
    ("pir.llm_gateway", "Gateway", "_read_cache", "llm_gateway.read_cache", None),
    ("pir.llm_gateway", "Gateway", "_write_cache", "llm_gateway.write_cache", None),
    ("pir.policy_index", "Index", "to_json", "policy_index.index_to_json", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Trace every name in FUNCTIONS and METHODS while the block runs."""
    saved: list[tuple[object, str, object]] = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        pir_modules = [
            m for name, m in list(sys.modules.items())
            if name == "pir" or name.startswith("pir.")
        ]
        for module_name, attr, span_name, on_result in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = tracer.wrap(span_name, original, on_result)
            for module in pir_modules:
                if getattr(module, attr, None) is original:
                    rebind(module, attr, traced)
        for module_name, cls_name, attr, span_name, on_result in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            rebind(cls, attr, tracer.wrap(span_name, getattr(cls, attr), on_result))

        orchestrator = importlib.import_module("pir.orchestrator")
        stage_funcs = orchestrator._STAGE_FUNCS
        for stage in STAGES:
            saved.append((stage_funcs, stage, stage_funcs[stage]))
            stage_funcs[stage] = tracer.wrap(
                f"orchestrator.stage.{stage}", stage_funcs[stage]
            )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# --- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[str, float | int]:
    """Per-layer metrics of one traced operation (see perfbench/README.md)."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: Counter[str] = Counter()
    self_by_name: Counter[str] = Counter()
    self_by_layer: Counter[str] = Counter()
    index_write = 0.0
    for (name, start, end, parent), self_s in zip(spans, selfs):
        total[name] += end - start
        self_by_name[name] += self_s
        self_by_layer[name.split(".", 1)[0]] += self_s
        # run_review rebuilds the index after RetrievePolicies to write it out
        if name == "policy_index.build_index" and parent >= 0 and spans[parent][0] == "orchestrator.run_review":
            index_write += end - start
    index_write += total["policy_index.index_to_json"]

    root = [s for s in spans if s[0] == ROOT_SPAN]
    calls, counts = tracer.calls, tracer.counts
    narrations = calls["llm_gateway.narrate"]
    gaps_raw = counts["gap_analysis.gaps_raw"]
    m: dict[str, float | int] = {
        "trace.wall_s": sum(end - start for _n, start, end, _p in root),
        "trace.unattributed_s": self_by_layer["bench"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m.update(
        {
            "log_ingest.parse_s": total["log_ingest.parse_event_xml"] + total["log_ingest.load_csv"],
            "log_ingest.records_out": counts["log_ingest.records_out"],
            "log_ingest.normalize_s": total["log_ingest.normalize_auth_events"],
            "detection.detect_s": total["detection.detect_bruteforce"],
            "detection.auth_events_in": counts["detection.auth_events_in"],
            "detection.findings_out": counts["detection.findings_out"],
            "attack_catalog.map_s": total["attack_catalog.map_finding"],
            "attack_catalog.mappings_out": counts["attack_catalog.mappings_out"],
            "policy_index.build_s": total["policy_index.build_index"],
            "policy_index.build_calls": calls["policy_index.build_index"],
            "policy_index.retrieve_s": total["policy_index.retrieve"],
            "gap_analysis.compare_s": total["gap_analysis.compare_controls"],
            "gap_analysis.gaps_raw": gaps_raw,
            "gap_analysis.gaps_out": counts["gap_analysis.gaps_out"],
            "gap_analysis.dedupe_ratio": (
                counts["gap_analysis.gaps_out"] / gaps_raw if gaps_raw else 0.0
            ),
            "llm_gateway.calls": narrations,
        }
    )
    for template in ("finding_summary", "mapping_justification", "gap_rationale", "incident_summary"):
        m[f"llm_gateway.calls.{template}"] = counts[f"llm_gateway.calls.{template}"]
    m.update(
        {
            "llm_gateway.transport_wait_s": total[TRANSPORT_SPAN],
            "llm_gateway.cache_reads": calls["llm_gateway.read_cache"],
            "llm_gateway.cache_writes": calls["llm_gateway.write_cache"],
            "llm_gateway.grounded_ratio": (
                counts["llm_gateway.grounded"] / narrations if narrations else 0.0
            ),
            "reporting.build_report_calls": calls["reporting.build_report"],
            "reporting.build_report_s": total["reporting.build_report"],
            "reporting.render_json_s": total["reporting.render_json"],
            "reporting.render_markdown_s": total["reporting.render_markdown"],
            "orchestrator.checkpoint_write_s": total["orchestrator.save_checkpoint"],
            "orchestrator.index_write_s": index_write,
            "orchestrator.checkpoint_load_s": total["orchestrator.load_checkpoint"],
        }
    )
    for stage in STAGES:
        m[f"orchestrator.stage_self_s.{stage}"] = self_by_name[f"orchestrator.stage.{stage}"]
    m.update(
        {
            "canon.dumps_calls": calls["canon.canon_dumps"],
            "canon.dumps_s": total["canon.canon_dumps"],
            "canon.digest_calls": calls["canon.digest_of"],
            "canon.digest_s": total["canon.digest_of"],
        }
    )
    return m
