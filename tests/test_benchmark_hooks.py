"""The benchmark in perfbench/ drives pir from outside: the traced run
(perfbench/run.py --trace 1) rebinds pir names listed in perfbench/spans.py,
and perfbench/workloads.py sets up the reviews it times. A rename in pir must
not leave a name dangling, a small bulk-replay review must keep giving the
same deterministic results, and a traced operation of a small set-up must
finish and be analysed without errors."""

import importlib
import json
import sys
from pathlib import Path

from pir import orchestrator
from pir.canon import canon_dumps, sha256_hex
from pir.detection import DetectorParams, oracle_detect
from pir.reporting import json_report_digest

from conftest import as_schema_2

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_functions_and_methods_exist():
    for module_name, attr, _span, _count in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    for module_name, cls_name, attr, _span, _count in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(getattr(cls, attr, None)), f"{module_name}.{cls_name}.{attr}"


def test_traced_stages_are_the_pipeline_stages():
    assert tuple(orchestrator._STAGE_FUNCS) == spans.STAGES


# For seed 1 at 1,000 noise records: the sha256 of state/records.json, taken
# at the commit before XML evidence was parsed as a stream, and the report
# digest with transcript latencies masked, as perfbench/run.py checks it,
# re-taken when the report's transcripts came to keep only what the model
# said and how narration judged it (schema_version 3). SMOKE_SCHEMA_2_DIGEST
# is the report digest that schema_version 2 gave, taken when the report's
# appendices became cite-only: the report gives it with every transcript's
# rendered_prompt and grounding put back and schema_version 2, so nothing
# else moved. SMOKE_SCHEMA_1_SECTIONS is that schema_version 2 report's
# digest without the sections that schema_version 2 changed, taken at the
# commit before it.
SMOKE_RECORDS = 1_011
SMOKE_DIGESTS = (
    "d625e27b802c26fcc3ec711f17f5c2cab3290f3e688a36df49b77239ef086337",
    "41f95cfabc6166b075a0fb4738cba5cda66252b0490d84aae3c45d5136d2e9f9",
)
SMOKE_SCHEMA_2_DIGEST = "074a2e98df7f643b65e6aedc81bca040bd9d3e27f0ab2865c7d7e5d8c0d0a5e9"
SCHEMA_2_KEYS = ("evidence_appendix", "policy_appendix", "evidence_digest", "record_count", "schema_version")
SMOKE_SCHEMA_1_SECTIONS = "1b7743f286a090f26873a46a932c36e44cec431ca68a208683051226816fbf52"


def test_small_bulk_replay_review_gives_pinned_results(tmp_path, monkeypatch):
    # bulk-replay at a tenth of its noise; gated on counts and digests only,
    # never on seconds
    monkeypatch.setattr(workloads, "BULK_NOISE_EVENTS", 1_000)
    manifest = workloads.set_up("bulk-replay", 1, tmp_path)
    config = workloads.review_config(tmp_path, manifest["evidence"], "replay")
    with spans.installed(spans.Tracer("smoke")) as tracer:
        state = orchestrator.run_review(config)

    assert len(state.records) == manifest["records"] == SMOKE_RECORDS
    assert tracer.counts["log_ingest.records_out"] == SMOKE_RECORDS
    oracle = oracle_detect(state.auth_events, DetectorParams.from_dict(workloads.DETECTOR))
    assert state.findings
    assert [f.to_dict() for f in state.findings] == [f.to_dict() for f in oracle]

    report = json.loads((config.output_dir / "report.json").read_text(encoding="utf-8"))
    for transcript in report["transcripts"]:
        transcript["latency_ms"] = 0
    digests = (
        sha256_hex((config.output_dir / "state" / "records.json").read_bytes()),
        json_report_digest(canon_dumps(report)),
    )
    assert digests == SMOKE_DIGESTS
    report = as_schema_2(report, config.output_dir / "state" / "GenerateReport.json", config.cache_dir)
    assert json_report_digest(canon_dumps(report)) == SMOKE_SCHEMA_2_DIGEST
    unchanged = {key: value for key, value in report.items() if key not in SCHEMA_2_KEYS}
    assert json_report_digest(canon_dumps(unchanged)) == SMOKE_SCHEMA_1_SECTIONS
    assert (report["evidence_digest"], report["record_count"]) == (digests[0], SMOKE_RECORDS)

    # the rerender workload: the final checkpoint renders the recorded reports
    state = orchestrator.load_checkpoint(tmp_path / manifest["checkpoint"])
    orchestrator.write_report_files(state, tmp_path / "rendered")
    for name in manifest["reports"]:
        rendered = tmp_path / "rendered" / Path(name).name
        assert rendered.read_bytes() == (tmp_path / name).read_bytes()


def test_traced_runs_give_metrics_without_errors(tmp_path, monkeypatch):
    # perfbench/run.py --trace 1 ends with one traced operation of each
    # workload; a run that fails there or in its analysis prints no metrics.
    # Small set-ups, gated on errors only, never on seconds.
    hosts = 3
    monkeypatch.setattr(workloads, "HOSTS", hosts)
    for name in ("HOST_FAILURES", "HOST_SPACING_S", "HOST_SUCCESS"):
        monkeypatch.setattr(workloads, name, getattr(workloads, name)[:hosts])
    monkeypatch.setattr(workloads, "TRANSPORT_LATENCY_S", 0.0)
    monkeypatch.setattr(workloads, "BULK_NOISE_EVENTS", 1_000)
    for workload, op_class in (("many-incidents", run.Review), ("rerender", run.Rerender)):
        base = tmp_path / workload
        manifest = workloads.set_up(workload, 1, base)
        op = op_class(base, manifest)
        errors: list[str] = []
        metrics = run.traced_metrics(
            op, manifest["truth_refs"], set(), errors, workload, tmp_path / f"{workload}.spans.json"
        )
        assert errors == []
        assert metrics is not None
        assert metrics["trace.wall_s"] > 0
