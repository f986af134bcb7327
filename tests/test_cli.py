import copy
import functools
import json
import logging
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pir
from pir import orchestrator
from pir.canon import canon_dumps, digest_of, sha256_hex
from pir.cli import main
from pir.config import ReviewConfig
from pir.errors import ReportMismatchError
from pir.log_ingest import flatten_to_csv, load_csv, parse_event_xml
from pir.scenario_gen import ScenarioSpec, generate

from conftest import BASE_TIME, FIXTURES, event_xml, evtx_bytes, rewrite_checkpoint

CONFIG = str(FIXTURES / "review_config.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_starts_without_the_http_stack():
    # only a live gateway call needs HTTP; a replay, disabled or
    # scripted-transport review must not pay for loading it
    src = str(Path(pir.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, pir.cli; print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"
    helped = subprocess.run([sys.executable, "-m", "pir.cli", "--help"], env=env, capture_output=True, text=True)
    assert helped.returncode == 0
    assert "review" in helped.stdout


# --- review -----------------------------------------------------------------------


def test_review_replay_succeeds(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "review", "--config", CONFIG, "--output", str(tmp_path / "out")
    )
    assert code == 0
    assert "complete: 1 finding(s), 2 gap(s)" in out
    assert (tmp_path / "out" / "report.json").is_file()
    assert (tmp_path / "out" / "report.md").is_file()


@pytest.mark.parametrize("retrieval_k", range(1, 13))
def test_review_gaps_do_not_depend_on_retrieval_k(tmp_path, capsys, retrieval_k):
    # the org policy's lockout threshold (10) and password rotation (365
    # days) are weaker than the baseline's (5 and 90), and every other
    # control equals it; org_equals_baseline.md is the baseline itself
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    gaps = {}
    for name in ("review_config.json", "review_config_nogap.json"):
        config = tmp_path / "fixtures" / name
        raw = json.loads(config.read_text(encoding="utf-8"))
        config.write_text(json.dumps({**raw, "retrieval_k": retrieval_k, "gateway_mode": "disabled"}), encoding="utf-8")
        code, *_ = run_cli(capsys, "review", "--config", str(config), "--output", str(tmp_path / name))
        assert code == 0
        report = json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))
        gaps[name] = [(g["control"], g["gap_kind"]) for g in report["gaps_section"]]
    assert gaps == {
        "review_config.json": [("LockoutThreshold", "Insufficient"), ("PasswordMaxAgeDays", "Insufficient")],
        "review_config_nogap.json": [],
    }


def test_review_without_config_exits_3(capsys):
    code, _out, err = run_cli(capsys, "review")
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalidError"


def test_review_missing_config_file_exits_3(tmp_path, capsys):
    code, _out, err = run_cli(
        capsys, "review", "--config", str(tmp_path / "nope.json")
    )
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalidError"


def test_review_replay_miss_exits_2_with_stage_context(tmp_path, capsys):
    # point replay at an empty cache: the first narration misses
    cache = tmp_path / "empty_cache"
    cache.mkdir()
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    raw["gateway"]["cache_dir"] = str(cache)
    config_path = tmp_path / "config.json"
    # path-bearing fields resolve relative to the config file, so keep the
    # fixture-relative entries intact by anchoring them explicitly
    for key in ("evidence_paths", "org_policy_paths", "baseline_policy_paths"):
        raw[key] = [str(FIXTURES / p) for p in raw[key]]
    raw["output_dir"] = str(tmp_path / "out")
    config_path.write_text(json.dumps(raw))

    code, _out, err = run_cli(capsys, "review", "--config", str(config_path))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "StageFailureError"
    assert payload["stage"] == "ProcessEvidence"
    assert payload["cause"] == "ReplayMissError"


def test_review_of_policies_without_tokens_exits_2(tmp_path, capsys):
    # no clause of either policy has a token, so BM25 has no average clause
    # length; every clause scores 0 and the baseline yields no parameters
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    raw["evidence_paths"] = [str(FIXTURES / p) for p in raw["evidence_paths"]]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    raw["output_dir"] = str(tmp_path / "out")
    for key in ("org_policy_paths", "baseline_policy_paths"):
        policy = tmp_path / f"{key}.md"
        policy.write_text("# Policy\n\nThe of a.\n", encoding="utf-8")
        raw[key] = [str(policy)]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))

    code, _out, err = run_cli(capsys, "review", "--config", str(config_path))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "StageFailureError"
    assert payload["stage"] == "ValidatePolicies"
    assert payload["cause"] == "NoBaselineError"


def test_review_whose_report_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    code, _out, err = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "StageFailureError"
    assert payload["stage"] == "GenerateReport"
    assert payload["cause"] == "IsADirectoryError"
    saved = json.loads((out / "state" / "GenerateReport.json").read_text(encoding="utf-8"))
    assert [(r["stage"], r["status"]) for r in saved["stage_log"]] == [("GenerateReport", "failed")]
    assert not (out / "report.md").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "refine_subtechnique", True),  # misspelt refine_subtechniques
        ("gateway", "temprature", 0.5),
        ("gateway", "mode", "disabled"),  # gateway_mode is the one mode key
        ("detector", "min_failure", 3),
        ("detector", "require_success", "false"),
        ("detector", "min_failures", "5"),
        ("detector", "window_seconds", True),
        (None, "refine_subtechniques", "false"),
        (None, "retrieval_k", "16"),
        ("gateway", "max_tokens", True),
        ("gateway", "temperature", "0.5"),
        ("gateway", "cache_dir", 5),
        ("gateway", "model_id", 5),
        (None, "evidence_paths", [5]),
        (None, "catalog_path", 5),
        (None, "detector", []),
        (None, "gateway_mode", 5),
        (None, "gateway_mode", "sometimes"),
        (None, "gateway_mode", ""),
        (None, "gateway_mode", None),
        ("gateway", "model_id", ""),
        ("gateway", "model_id", None),
        (None, "output_dir", 5),
        ("gateway", "cache_dir", ""),
        (None, "evidence_paths", [""]),
    ],
)
def test_review_rejects_unknown_keys_and_mistyped_detector_values(
    tmp_path, capsys, section, key, value
):
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for field in ("evidence_paths", "org_policy_paths", "baseline_policy_paths"):
        raw[field] = [str(FIXTURES / p) for p in raw[field]]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    raw["output_dir"] = str(tmp_path / "out")
    (raw[section] if section else raw)[key] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))

    code, _out, err = run_cli(capsys, "review", "--config", str(config_path))
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalidError"
    assert key in payload["detail"]
    assert not (tmp_path / "out").exists()


def test_the_environment_sets_no_model_id(monkeypatch):
    # the model id enters every transcript id, so only the config may set it
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    del raw["gateway"]["model_id"]
    before = ReviewConfig.from_dict(raw, FIXTURES)
    monkeypatch.setenv("PIR_LLM_MODEL", "gpt-4o-mini")
    after = ReviewConfig.from_dict(raw, FIXTURES)
    assert after.generation.model_id == before.generation.model_id == "gpt-4o"
    assert after.digest == before.digest


@pytest.mark.parametrize(
    "key, value",
    [
        ("catalog_path", str(Path(pir.__file__).parent / "data" / "attack_catalog.json")),
        ("refine_subtechniques", True),
    ],
    ids=["catalog_path", "refine_subtechniques"],
)
def test_review_refuses_a_removed_catalog_key(tmp_path, capsys, key, value):
    # a valid value changes nothing: the review maps to the bundled T1110 only
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for field in ("evidence_paths", "org_policy_paths", "baseline_policy_paths"):
        raw[field] = [str(FIXTURES / p) for p in raw[field]]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    raw[key] = value
    raw["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))

    code, _out, err = run_cli(capsys, "review", "--config", str(config_path))
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalidError"
    assert payload["detail"] == f"unknown config key(s): {key}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["review", "ingest", "detect", "verify"])
def test_evtx_evidence_exits_3_and_writes_nothing(tmp_path, capsys, command):
    # an .evtx log's records are never decoded, so it is refused rather than
    # reviewed as evidence with no qualifying behaviour in it
    evtx = tmp_path / "sec.evtx"
    evtx.write_bytes(evtx_bytes(1, next_record_id=5001))
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for field in ("org_policy_paths", "baseline_policy_paths"):
        raw[field] = [str(FIXTURES / p) for p in raw[field]]
    raw["evidence_paths"] = [str(evtx)]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    raw["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    report = tmp_path / "report.json"
    report.write_text("{}")

    argv = ["--config", str(config_path)] + ([str(report)] if command == "verify" else [])
    code, _out, err = run_cli(capsys, command, *argv)
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalidError"
    assert str(evtx) in payload["detail"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["review", "ingest", "detect", "verify"])
def test_a_config_without_evidence_exits_3_and_writes_nothing(tmp_path, capsys, command):
    raw = dict(json.loads((FIXTURES / "review_config.json").read_text()), evidence_paths=[])
    raw["output_dir"] = str(tmp_path / "out")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    (tmp_path / "report.json").write_text("{}")
    argv = ["--config", str(tmp_path / "config.json")] + ([str(tmp_path / "report.json")] if command == "verify" else [])
    code, _out, err = run_cli(capsys, command, *argv)
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["detail"] == "config lists no evidence_paths"
    assert not (tmp_path / "out").exists()


_CONFIG_COMMANDS = ["review", "ingest", "detect", "index", "gen-scenario", "render", "verify"]


@pytest.mark.parametrize(
    "kind, command, code, error",
    [
        *(("config", command, 3, "ConfigInvalidError") for command in _CONFIG_COMMANDS),
        *((kind, command, 2, error) for kind, error in [("xml", "XmlSyntaxError"), ("csv", "CsvSchemaError")]
          for command in ["review", "ingest", "detect", "verify"]),
        ("policy", "review", 2, "ConfigInvalidError"),
        ("policy", "index", 3, "ConfigInvalidError"),
        ("policy", "verify", 3, "ConfigInvalidError"),
    ],
)
def test_a_file_that_is_not_utf8_is_named_in_a_json_error(tmp_path, capsys, kind, command, code, error):
    # one 0xff byte, which UTF-8 never holds, in an otherwise readable file
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    config = fixtures / "review_config.json"
    if kind == "csv":
        records = parse_event_xml((fixtures / "evidence" / "bruteforce_scenario.xml").read_text(encoding="utf-8"))
        (fixtures / "evidence" / "bruteforce_scenario.csv").write_text(flatten_to_csv(records), encoding="utf-8")
        raw = json.loads(config.read_text())
        raw["evidence_paths"] = ["evidence/bruteforce_scenario.csv"]
        config.write_text(json.dumps(raw))
    damaged = {
        "config": config,
        "xml": fixtures / "evidence" / "bruteforce_scenario.xml",
        "csv": fixtures / "evidence" / "bruteforce_scenario.csv",
        "policy": fixtures / "policies" / "org_policy.md",
    }[kind]
    data = damaged.read_bytes()
    damaged.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    (tmp_path / "report.json").write_text("{}")
    out = tmp_path / "out"

    argv = ["--config", str(config), "--output", str(out)] + ([str(tmp_path / "report.json")] if command == "verify" else [])
    got, _out, err = run_cli(capsys, command, *argv)
    assert got == code
    assert "Traceback" not in err
    payload = json.loads(err.strip().splitlines()[-1])
    # a review names the stage that failed, and the error as its cause
    if command == "review" and kind != "config":
        assert (payload["error"], payload["cause"]) == ("StageFailureError", error)
    else:
        assert payload["error"] == error
    assert str(damaged) in payload["detail"]
    if kind in ("xml", "csv"):
        assert not list(out.rglob("records.json*"))


def test_review_output_flag_leaves_the_report_unchanged(tmp_path, capsys, monkeypatch):
    # fix the clock, so any difference between the two reports is the output path's
    monkeypatch.setattr(orchestrator, "utc_now", lambda: BASE_TIME)
    reports = []
    for name in ("a", "b/nested"):
        out = tmp_path / name
        code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
        assert code == 0
        reports.append(((out / "report.json").read_bytes(), (out / "report.md").read_bytes()))
    assert reports[0] == reports[1]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["review", "--gateway-mode", "sometimes"])
    assert exc.value.code == 2


# --- ingest / detect ---------------------------------------------------------------


def test_ingest_writes_flattened_csv(tmp_path, capsys):
    code, out, _err = run_cli(
        capsys, "ingest", "--config", CONFIG, "--output", str(tmp_path)
    )
    assert code == 0
    records = load_csv((tmp_path / "records.csv").read_text())
    assert len(records) == 19
    assert "ingested 19 record(s)" in out


def test_detect_matches_recorded_truth(tmp_path, capsys):
    code, _out, _err = run_cli(
        capsys, "detect", "--config", CONFIG, "--output", str(tmp_path)
    )
    assert code == 0
    findings = json.loads((tmp_path / "findings.json").read_text())
    truth = json.loads(
        (FIXTURES / "evidence" / "bruteforce_scenario.truth.json").read_text()
    )["truth"]
    assert len(findings) == 1
    assert findings[0]["evidence"] == truth["injected_record_refs"]
    assert findings[0]["success_record"] == truth["success_record_ref"]


@pytest.mark.parametrize(
    "config_name", ["review_config.json", "review_config_nogap.json", "review_config_bad_citation.json"]
)
def test_detect_finds_what_a_review_finds(tmp_path, capsys, config_name):
    config = FIXTURES / config_name
    code, *_ = run_cli(capsys, "detect", "--config", str(config), "--output", str(tmp_path / "detect"))
    assert code == 0
    state = orchestrator.run_review(
        ReviewConfig.from_file(config, overrides={"output_dir": str(tmp_path / "review"), "gateway_mode": "disabled"})
    )
    assert state.findings
    written = (tmp_path / "detect" / "findings.json").read_text(encoding="utf-8")
    assert written == canon_dumps([f.to_dict() for f in state.findings]) + "\n"


def test_review_rejects_evidence_that_repeats_a_record_ref(tmp_path, capsys):
    # the fixture XML plus its own ingested CSV names every record twice
    code, *_ = run_cli(capsys, "ingest", "--config", CONFIG, "--output", str(tmp_path))
    assert code == 0
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for key in ("evidence_paths", "org_policy_paths", "baseline_policy_paths"):
        raw[key] = [str(FIXTURES / p) for p in raw[key]]
    raw["evidence_paths"].append(str(tmp_path / "records.csv"))
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    raw["output_dir"] = str(tmp_path / "out")
    (tmp_path / "config.json").write_text(json.dumps(raw))

    code, _out, err = run_cli(capsys, "review", "--config", str(tmp_path / "config.json"))
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["stage"] == "ProcessEvidence"
    assert payload["cause"] == "DuplicateRecordRefError"
    assert "'bruteforce_scenario#1'" in payload["detail"]
    assert "bruteforce_scenario.xml" in payload["detail"]
    assert "records.csv" in payload["detail"]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "suffix, instant, cause",
    [
        ("xml", "2026-06-01T14:00:00.5abc+02:00", "MissingSystemFieldError"),
        ("csv", "2026-06-01", "CsvSchemaError"),
    ],
)
def test_review_refuses_a_time_outside_the_grammar(tmp_path, capsys, suffix, instant, cause):
    # fromisoformat reads the first as a time from 3.11 on, and the second everywhere
    xml = event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z", "fields": {"TargetUserName": "eve"}}])
    if suffix == "csv":
        xml = flatten_to_csv(parse_event_xml(xml, source="edge"))
    evidence = tmp_path / f"edge.{suffix}"
    evidence.write_text(xml.replace("2026-06-01T12:00:00Z", instant), encoding="utf-8", newline="")
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for key in ("org_policy_paths", "baseline_policy_paths"):
        raw[key] = [str(FIXTURES / p) for p in raw[key]]
    raw["evidence_paths"] = [str(evidence)]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    code, _out, err = run_cli(
        capsys, "review", "--config", str(tmp_path / "config.json"), "--output", str(tmp_path / "out")
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert (payload["stage"], payload["cause"]) == ("ProcessEvidence", cause)
    assert repr(instant) in payload["detail"]
    assert not (tmp_path / "out" / "report.json").exists()


_INNER_EVENT = '<Event><System><EventID>4624</EventID><TimeCreated SystemTime="2026-06-01T12:00:05Z"/></System></Event>'
_CSV_ROW = "edge#1,4625,2026-06-01T12:00:00Z,Security,Microsoft-Windows-Security-Auditing,eve"


@pytest.mark.parametrize(
    "suffix, old, new, where",
    [
        *(
            (suffix, ",4625," if suffix == "csv" else ">4625<", f",{form}," if suffix == "csv" else f">{form}<", where)
            for suffix, where in (("xml", "edge#1: event id"), ("csv", "row 2: event id"))
            # int() reads every one of these as 4625 or -4625
            for form in ("4_625", "\u0664\u0666\u0662\u0665", "+4625", "-4625")
        ),
        ("csv", "edge#1,", ",", "row 2: record_ref is empty"),
        ("xml", "<EventData>", "<EventData>" + _INNER_EVENT, "edge#1: Event holds another Event"),
        # a second value for one name is refused rather than let the last one win
        ("xml", "</EventData>", '<Data Name="TargetUserName">mallory</Data></EventData>',
         "edge#1: field 'TargetUserName' has two values"),
        ("csv", f"Name\r\n{_CSV_ROW}\r\n", f"Name,TargetUserName\r\n{_CSV_ROW},mallory\r\n",
         "row 2: field 'TargetUserName' has two values"),
    ],
)
def test_review_refuses_a_record_outside_the_record_rule(tmp_path, capsys, suffix, old, new, where):
    text = event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z", "fields": {"TargetUserName": "eve"}}])
    if suffix == "csv":
        text = flatten_to_csv(parse_event_xml(text, source="edge"))
    assert text.count(old) == 1
    evidence = tmp_path / f"edge.{suffix}"
    evidence.write_text(text.replace(old, new), encoding="utf-8", newline="")
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for key in ("org_policy_paths", "baseline_policy_paths"):
        raw[key] = [str(FIXTURES / p) for p in raw[key]]
    raw["evidence_paths"] = [str(evidence)]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    code, _out, err = run_cli(
        capsys, "review", "--config", str(tmp_path / "config.json"), "--output", str(tmp_path / "out")
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    cause = {"xml": "MissingSystemFieldError", "csv": "CsvSchemaError"}[suffix]
    assert (payload["stage"], payload["cause"]) == ("ProcessEvidence", cause)
    assert f"failed: {where}" in payload["detail"]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("suffix", ["xml", "csv"])
@pytest.mark.parametrize("instant", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_ingest_refuses_an_instant_outside_years_1_to_9999_in_utc(tmp_path, capsys, suffix, instant):
    # a well-formed timestamp whose offset moves it out of the years a
    # datetime holds
    if suffix == "xml":
        text = event_xml([{"event_id": 4625, "time": instant, "fields": {"TargetUserName": "eve"}}])
    else:
        xml = event_xml([{"event_id": 4625, "time": "2026-06-01T12:00:00Z", "fields": {"TargetUserName": "eve"}}])
        text = flatten_to_csv(parse_event_xml(xml, source="edge")).replace("2026-06-01T12:00:00Z", instant)
    evidence = tmp_path / f"edge.{suffix}"
    evidence.write_text(text, encoding="utf-8", newline="")
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    raw["evidence_paths"] = [str(evidence)]
    (tmp_path / "config.json").write_text(json.dumps(raw))
    code, _out, err = run_cli(
        capsys, "ingest", "--config", str(tmp_path / "config.json"), "--output", str(tmp_path / "out")
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == {"xml": "MissingSystemFieldError", "csv": "CsvSchemaError"}[suffix]
    assert instant in payload["detail"]
    assert not (tmp_path / "out" / "records.csv").exists()


def test_ingest_with_missing_evidence_exits_3(tmp_path, capsys):
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    raw["evidence_paths"] = [str(tmp_path / "absent.xml")]
    (tmp_path / "config.json").write_text(json.dumps(raw))
    code, _out, err = run_cli(
        capsys, "ingest", "--config", str(tmp_path / "config.json"), "--output", str(tmp_path)
    )
    assert code == 3
    assert "not found" in json.loads(err.strip().splitlines()[-1])["detail"]


# --- index -------------------------------------------------------------------------


def test_index_writes_policy_index(tmp_path, capsys):
    code, out, _err = run_cli(
        capsys, "index", "--config", CONFIG, "--output", str(tmp_path)
    )
    assert code == 0
    index = json.loads((tmp_path / "policy_index.json").read_text())
    assert index["schema_version"] == 1
    assert "org_policy" in index["documents"]
    assert "baseline_policy" in index["documents"]


def test_index_without_policies_exits_3(tmp_path, capsys):
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    raw["org_policy_paths"] = []
    raw["baseline_policy_paths"] = []
    raw["evidence_paths"] = [
        str(FIXTURES / p) for p in raw["evidence_paths"]
    ]
    raw["gateway"]["cache_dir"] = str(FIXTURES / "llm_cache")
    raw["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    code, _out, err = run_cli(capsys, "index", "--config", str(config_path))
    assert code == 3
    assert "no policy documents" in json.loads(err.strip().splitlines()[-1])["detail"]


# --- gen-scenario ------------------------------------------------------------------


def test_gen_scenario_is_deterministic(tmp_path, capsys):
    args = [
        "gen-scenario",
        "--seed",
        "7",
        "--failures",
        "6",
        "--noise",
        "12",
        "--noise-account",
        "svc-backup",
        "--noise-account",
        "jdoe",
        "--name",
        "demo",
    ]
    code_a, *_ = run_cli(capsys, *args, "--output", str(tmp_path / "a"))
    code_b, *_ = run_cli(capsys, *args, "--output", str(tmp_path / "b"))
    assert code_a == code_b == 0
    assert (tmp_path / "a" / "demo.xml").read_bytes() == (
        tmp_path / "b" / "demo.xml"
    ).read_bytes()
    assert (tmp_path / "a" / "demo.truth.json").read_bytes() == (
        tmp_path / "b" / "demo.truth.json"
    ).read_bytes()


def test_gen_scenario_refuses_a_start_that_is_a_bare_date(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "gen-scenario", "--start", "2026-06-01", "--output", str(tmp_path))
    assert code == 3
    assert "'2026-06-01'" in json.loads(err.strip().splitlines()[-1])["detail"]
    assert not any(tmp_path.iterdir())


def test_gen_scenario_rejects_bad_spec(tmp_path, capsys):
    code, _out, err = run_cli(
        capsys,
        "gen-scenario",
        "--noise",
        "5",
        "--output",
        str(tmp_path),
    )
    assert code == 3
    assert "noise" in json.loads(err.strip().splitlines()[-1])["detail"]


def test_fixture_evidence_matches_generator(tmp_path, capsys):
    """The committed scenario fixture is exactly what gen-scenario produces."""
    recorded_spec = json.loads(
        (FIXTURES / "evidence" / "bruteforce_scenario.truth.json").read_text()
    )["spec"]
    code, _out, _err = run_cli(
        capsys,
        "gen-scenario",
        "--seed",
        str(recorded_spec["seed"]),
        "--account",
        recorded_spec["target_account"],
        "--failures",
        str(recorded_spec["failure_count"]),
        "--spacing",
        str(recorded_spec["failure_spacing_seconds"]),
        "--noise",
        str(recorded_spec["noise_events"]),
        *sum(
            (["--noise-account", a] for a in recorded_spec["noise_accounts"]), []
        ),
        "--start",
        recorded_spec["start_time"],
        "--name",
        "bruteforce_scenario",
        "--output",
        str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "bruteforce_scenario.xml").read_bytes() == (
        FIXTURES / "evidence" / "bruteforce_scenario.xml"
    ).read_bytes()


# --- render ------------------------------------------------------------------------


def test_render_reproduces_review_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    original_json = (out / "report.json").read_bytes()
    original_md = (out / "report.md").read_bytes()

    rerender = tmp_path / "rerender"
    code, _stdout, _err = run_cli(
        capsys,
        "render",
        "--state",
        str(out / "state" / "GenerateReport.json"),
        "--output",
        str(rerender),
    )
    assert code == 0
    assert (rerender / "report.json").read_bytes() == original_json
    assert (rerender / "report.md").read_bytes() == original_md


def test_render_with_config_reads_and_writes_the_output_override(tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    reports = [(out / name).read_bytes() for name in ("report.json", "report.md")]
    for name in ("report.json", "report.md"):
        (out / name).unlink()

    code, stdout, _err = run_cli(capsys, "render", "--config", CONFIG, "--output", str(out))
    assert code == 0
    assert str(out / "report.json") in stdout
    assert [(out / name).read_bytes() for name in ("report.json", "report.md")] == reports


def test_render_rejects_state_together_with_config(tmp_path, capsys):
    code, _out, err = run_cli(
        capsys, "render", "--config", CONFIG, "--state", str(tmp_path / "s.json")
    )
    assert code == 3
    assert "not both" in json.loads(err.strip().splitlines()[-1])["detail"]


def test_render_whose_report_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    rendered = tmp_path / "rendered"
    (rendered / "report.json").mkdir(parents=True)
    code, _out, err = run_cli(
        capsys, "render", "--state", str(out / "state" / "GenerateReport.json"), "--output", str(rendered)
    )
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "IsADirectoryError"


@pytest.mark.parametrize("damage", ["missing", "edited"])
def test_render_fails_closed_without_its_records(tmp_path, capsys, damage):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    records = out / "state" / "records.json"
    if damage == "missing":
        records.unlink()
    else:
        data = records.read_bytes()
        assert b'"event_id":4625' in data
        records.write_bytes(data.replace(b'"event_id":4625', b'"event_id":4624', 1))

    rendered = tmp_path / "rendered"
    code, _out, err = run_cli(
        capsys,
        "render",
        "--state",
        str(out / "state" / "GenerateReport.json"),
        "--output",
        str(rendered),
    )
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "RecordsFileError"
    assert not (rendered / "report.json").exists()
    assert not (rendered / "report.md").exists()


@pytest.mark.parametrize("damage", ["edited event id", "another piece", "shifted range", "edited time"])
def test_render_checks_each_cited_row_against_records_json(tmp_path, capsys, damage):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    owner = out / "state" / "ProcessEvidence.json"
    doc = json.loads(owner.read_text(encoding="utf-8"))
    # a stored row is [ref, event id, time, start, end]
    row, other = doc["cited_records"][:2]
    if damage == "edited event id":
        row[1] = 4624 if row[1] == 4625 else 4625
    elif damage == "another piece":
        row[3:] = other[3:]
    elif damage == "shifted range":
        row[3:] = [row[3] + 1, row[4] + 1]
    else:
        row[2] = "2026-06-01T12:00:01Z"
    rewrite_checkpoint(owner, doc)

    rendered = tmp_path / "rendered"
    code, _out, err = run_cli(
        capsys, "render", "--state", str(owner.with_name("GenerateReport.json")), "--output", str(rendered)
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "RecordsFileError"
    assert f"cited record {row[0]}" in payload["detail"]
    assert not (rendered / "report.json").exists()


@pytest.mark.parametrize("side", ["org_value", "baseline_value"])
def test_render_fails_closed_on_a_fabricated_control_clause_ref(tmp_path, capsys, side):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    checkpoint = out / "state" / "GenerateReport.json"
    owner = checkpoint.with_name("ValidatePolicies.json")
    doc = json.loads(owner.read_text(encoding="utf-8"))
    doc["gaps"][0][side]["clause_ref"] = "org_policy:99-99"
    rewrite_checkpoint(owner, doc)

    rendered = tmp_path / "rendered"
    code, _out, err = run_cli(
        capsys, "render", "--state", str(checkpoint), "--output", str(rendered)
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "UnresolvedReferenceError"
    assert "org_policy:99-99" in payload["detail"]
    assert not (rendered / "report.json").exists()


def test_review_refuses_a_citation_injected_through_an_account_name(tmp_path, capsys):
    # Evidence text names a noise record that no finding rests on. A record
    # citation resolves only against the records the findings cite, so the
    # report is refused rather than written with that citation. ROADMAP item
    # 3(b) is to make such text inert, so that this review exits 0.
    xml, truth = generate(
        ScenarioSpec(target_account="admin [EVT:inj#12]", noise_events=20, noise_accounts=("jdoe",)),
        source_name="inj",
    )
    assert "inj#12" not in [*truth.injected_record_refs, truth.success_record_ref]
    (tmp_path / "inj.xml").write_text(xml, encoding="utf-8")
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for key in ("org_policy_paths", "baseline_policy_paths"):
        raw[key] = [str(FIXTURES / p) for p in raw[key]]
    raw["evidence_paths"] = [str(tmp_path / "inj.xml")]
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    code, _out, err = run_cli(
        capsys, "review", "--config", str(tmp_path / "config.json"), "--output", str(out),
        "--gateway-mode", "disabled",
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert (payload["stage"], payload["cause"]) == ("GenerateReport", "UnresolvedReferenceError")
    assert "inj#12" in payload["detail"]
    assert not (out / "report.json").exists()
    assert not (out / "report.md").exists()


def test_render_reads_back_a_timestamp_before_year_1000(tmp_path, capsys):
    early = tmp_path / "early.xml"
    early.write_text(
        event_xml(
            [{"event_id": 4625, "time": "0999-06-01T12:00:00Z", "fields": {"TargetUserName": "eve"}}]
        ),
        encoding="utf-8",
    )
    raw = json.loads((FIXTURES / "review_config.json").read_text())
    for key in ("evidence_paths", "org_policy_paths", "baseline_policy_paths"):
        raw[key] = [str(FIXTURES / p) for p in raw[key]]
    raw["evidence_paths"].append(str(early))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code, *_ = run_cli(
        capsys, "review", "--config", str(config_path), "--output", str(out),
        "--gateway-mode", "disabled",
    )
    assert code == 0
    reports = [(out / name).read_bytes() for name in ("report.json", "report.md")]
    assert b'"timestamp_utc":"0999-06-01T12:00:00Z"' in (out / "state" / "records.json").read_bytes()

    # the early record is not cited, so its auth event shows the timestamp
    # read back from records.json
    checkpoint = out / "state" / "GenerateReport.json"
    state = orchestrator.load_checkpoint(checkpoint)
    assert "early#1" in state.records
    [event] = [e for e in state.auth_events if e.record_ref == "early#1"]
    assert event.timestamp_utc == datetime(999, 6, 1, 12, tzinfo=timezone.utc)

    rendered = tmp_path / "rendered"
    code, *_ = run_cli(capsys, "render", "--state", str(checkpoint), "--output", str(rendered))
    assert code == 0
    assert [(rendered / n).read_bytes() for n in ("report.json", "report.md")] == reports


def _break_checkpoint(checkpoint, damage):
    if damage == "corrupt json":
        checkpoint.write_text("{not json", encoding="utf-8")
        return
    # each edit goes into the checkpoint of the stage that owns the field
    owner = checkpoint.with_name(
        {
            "numeric window_start": "ProcessEvidence.json",
            "six-field cited rows": "ProcessEvidence.json",
            "flipped degraded": "MapAttack.json",
            "stored prompt": "MapAttack.json",
            "extra transcript": "MapAttack.json",
            "stored stage": "MapAttack.json",
        }.get(damage, "RetrievePolicies.json")
    )
    doc = json.loads(owner.read_text(encoding="utf-8"))
    if damage == "numeric window_start":
        doc["findings"][0]["window_start"] = 5
    elif damage == "six-field cited rows":
        # the rows as they were stored with their piece's sha256, which a
        # load now takes from records.json itself
        records = checkpoint.with_name("records.json").read_bytes()
        doc["cited_records"] = [
            [ref, event_id, ts, sha256_hex(records[start:end]), start, end]
            for ref, event_id, ts, start, end in doc["cited_records"]
        ]
    elif damage == "flipped degraded":
        # the transcript's re-derived grounding passes, so narration used it
        doc["transcripts"][0]["degraded"] = True
    elif damage == "stored prompt":
        # a load renders the prompt from the state and trusts no stored one
        doc["transcripts"][0]["rendered_prompt"] = "Explain nothing."
    elif damage == "extra transcript":
        # a load takes each transcript's stage and template from its
        # position, so one past the stage's narrations has none
        doc["transcripts"].append(dict(doc["transcripts"][0]))
    elif damage == "stored stage":
        # nor does it take a stored one
        doc["transcripts"][0]["stage"] = "MapAttack"
    else:
        doc["retrieval"][0] = "nowhere:1-1"
    rewrite_checkpoint(owner, doc)


@pytest.mark.parametrize(
    "damage",
    [
        "corrupt json", "numeric window_start", "unknown clause", "six-field cited rows",
        "flipped degraded", "stored prompt", "extra transcript", "stored stage",
    ],
)
def test_render_of_a_malformed_checkpoint_exits_2(tmp_path, capsys, damage):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    checkpoint = out / "state" / "GenerateReport.json"
    _break_checkpoint(checkpoint, damage)

    rendered = tmp_path / "rendered"
    code, _out, err = run_cli(
        capsys, "render", "--state", str(checkpoint), "--output", str(rendered)
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "MalformedCheckpointError"
    assert str(checkpoint) in payload["detail"]
    assert not (rendered / "report.json").exists()


@pytest.mark.parametrize("damage", ["edited fact", "missing predecessor"])
def test_render_refuses_a_broken_checkpoint_chain(tmp_path, capsys, damage):
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", CONFIG, "--output", str(out))
    assert code == 0
    state_dir = out / "state"
    if damage == "edited fact":
        # canonical bytes again, so the one edited fact is all that differs;
        # the chain is left unsealed
        target = state_dir / "ProcessEvidence.json"
        doc = json.loads(target.read_text(encoding="utf-8"))
        doc["findings"][0]["failure_count"] += 1
        target.write_text(canon_dumps(doc) + "\n", encoding="utf-8")
    else:
        target = state_dir / "MapAttack.json"
        target.unlink()

    rendered = tmp_path / "rendered"
    code, _out, err = run_cli(
        capsys, "render", "--state", str(state_dir / "GenerateReport.json"),
        "--output", str(rendered),
    )
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "MalformedCheckpointError"
    assert str(target) in payload["detail"]
    assert not (rendered / "report.json").exists()


def test_render_without_inputs_exits_3(capsys):
    code, _out, err = run_cli(capsys, "render")
    assert code == 3
    assert "render requires" in json.loads(err.strip().splitlines()[-1])["detail"]


# --- verify ---------------------------------------------------------------------------


def review_a_copy(tmp_path, capsys, config_name="review_config.json"):
    """Review a copy of the fixtures, whose files a test may then edit;
    returns the copied config's path and the report's."""
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    config = tmp_path / "fixtures" / config_name
    out = tmp_path / "out"
    code, *_ = run_cli(capsys, "review", "--config", str(config), "--output", str(out))
    assert code == 0
    return config, out / "report.json"


def verify(capsys, config, report):
    code, out, err = run_cli(capsys, "verify", "--config", str(config), str(report))
    return code, out, err.strip().splitlines()[-1] if err.strip() else ""


def edit_event(xml_path, ordinal):
    """Add a field to the ``ordinal``-th event of an XML export."""
    head, *events = xml_path.read_text(encoding="utf-8").split("<Event ")
    events[ordinal - 1] = events[ordinal - 1].replace(
        "</EventData>", '<Data Name="Note">edited</Data></EventData>'
    )
    xml_path.write_text("<Event ".join([head, *events]), encoding="utf-8")


@pytest.mark.parametrize("config_name", ["review_config.json", "review_config_nogap.json", "review_config_bad_citation.json"])
def test_verify_passes_on_a_fresh_review(tmp_path, capsys, config_name):
    config, report = review_a_copy(tmp_path, capsys, config_name)
    code, out, err = verify(capsys, config, report)
    assert (code, err) == (0, "")
    assert "cited record(s)" in out


def test_verify_hashes_only_the_cited_pieces(tmp_path, capsys, monkeypatch):
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    hashed = []
    monkeypatch.setattr(orchestrator, "sha256_hex", lambda data: hashed.append(len(data)) or sha256_hex(data))
    code, _out, err = verify(capsys, config, report)
    assert (code, err) == (0, "")
    assert len(hashed) == len(doc["evidence_appendix"]) < doc["record_count"]


def test_verify_names_an_edited_clause(tmp_path, capsys):
    config, report = review_a_copy(tmp_path, capsys)
    policy = tmp_path / "fixtures" / "policies" / "org_policy.md"
    text = policy.read_text(encoding="utf-8")
    policy.write_text(text.replace("set to 10 failed", "set to 50 failed"), encoding="utf-8")
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert "cited clause org_policy:5-5 " in payload["detail"]


def test_verify_names_an_edited_cited_record(tmp_path, capsys):
    config, report = review_a_copy(tmp_path, capsys)
    cited = [row["record_ref"] for row in json.loads(report.read_text())["evidence_appendix"]]
    assert "bruteforce_scenario#3" in cited
    edit_event(tmp_path / "fixtures" / "evidence" / "bruteforce_scenario.xml", 3)
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert "cited record bruteforce_scenario#3 " in payload["detail"]


def test_verify_names_a_cited_record_that_is_not_a_logon(tmp_path, capsys):
    # a report edited to cite a process-creation record, with a true
    # appendix row for it: only a logon record can back a finding, so the
    # evidence pass keeps no row for any other
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    pieces = json.loads((tmp_path / "out" / "state" / "records.json").read_bytes())
    process = next(piece for piece in pieces if piece["event_id"] == 4688)
    ref = process["record_ref"]
    doc["findings"][0]["evidence"].append(ref)
    row = {"record_ref": ref, "event_id": 4688, "timestamp_utc": process["timestamp_utc"], "digest": digest_of(process)}
    order = [piece["record_ref"] for piece in pieces]
    doc["evidence_appendix"] = sorted([*doc["evidence_appendix"], row], key=lambda r: order.index(r["record_ref"]))
    report.write_text(canon_dumps(doc), encoding="utf-8")
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert f"no conclusion of a review of the config's files rests on cited record {ref}" in payload["detail"]


def test_verify_names_the_evidence_digest_for_an_edited_uncited_record(tmp_path, capsys):
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    cited = {row["record_ref"] for row in doc["evidence_appendix"]}
    assert "bruteforce_scenario#12" not in cited and doc["record_count"] >= 12
    edit_event(tmp_path / "fixtures" / "evidence" / "bruteforce_scenario.xml", 12)
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert payload["detail"].startswith("evidence_digest does not match")


@pytest.mark.parametrize(
    "damage, detail",
    [
        ("uncited row", "record bruteforce_scenario#12 has an appendix row but is not cited"),
        ("dropped row", "org_policy:5-5 is cited but has no appendix row"),
        ("schema 1", "schema_version 1 is not 3"),
        ("not json", "is not JSON"),
    ],
)
def test_verify_refuses_a_tampered_report(tmp_path, capsys, damage, detail):
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    if damage == "uncited row":
        doc["evidence_appendix"].append({**doc["evidence_appendix"][0], "record_ref": "bruteforce_scenario#12"})
    elif damage == "dropped row":
        del doc["policy_appendix"][0]
    elif damage == "schema 1":
        doc["schema_version"] = 1
    report.write_text("{" if damage == "not json" else canon_dumps(doc), encoding="utf-8")
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert detail in payload["detail"]


def test_verify_names_the_first_edited_conclusion(tmp_path, capsys):
    # fewer failures and a milder gap, with every citation and appendix row
    # left as the review wrote them
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    assert (doc["findings"][0]["failure_count"], doc["gaps_section"][0]["severity"]) == (6, "High")
    doc["findings"][0]["failure_count"] = 2
    doc["gaps_section"][0]["severity"] = "Low"
    report.write_text(canon_dumps(doc), encoding="utf-8")
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert payload["detail"].startswith("findings[0].failure_count does not match")


@pytest.mark.parametrize(
    "edit, path",
    [
        ("edited transcript_id", "transcripts[1].transcript_id"),
        ("flipped degraded", "transcripts[0].degraded"),
        ("dropped transcript", "transcripts[4]"),
        ("swapped stages", "transcripts[0].stage"),
        ("edited finding summary", "finding_summaries[0]"),
    ],
)
def test_verify_names_an_edited_transcript_or_narrated_text(tmp_path, capsys, edit, path):
    # each transcript is re-derived at its position from the state of the
    # review that verify runs, and a text narrated by a transcript that is
    # not degraded must be its response
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    transcripts = doc["transcripts"]
    assert [t["stage"] for t in transcripts] == [
        "ProcessEvidence", "MapAttack", "ValidatePolicies", "ValidatePolicies", "GenerateReport"
    ]
    assert not any(t["degraded"] for t in transcripts)
    assert doc["finding_summaries"][0] == transcripts[0]["response"]
    if edit == "edited transcript_id":
        transcripts[1]["transcript_id"] = transcripts[0]["transcript_id"]
    elif edit == "flipped degraded":
        transcripts[0]["degraded"] = True
    elif edit == "dropped transcript":
        del transcripts[4]
    elif edit == "swapped stages":
        transcripts[0]["stage"], transcripts[1]["stage"] = transcripts[1]["stage"], transcripts[0]["stage"]
    else:
        doc["finding_summaries"][0] += " Edited."
    report.write_text(canon_dumps(doc), encoding="utf-8")
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert payload["detail"] == f"{path} does not match what a review of the config's files gives"


def test_verify_verbose_names_no_checkpoint(tmp_path, capsys, caplog):
    # the review that verify runs writes no checkpoint
    config, report = review_a_copy(tmp_path, capsys)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="pir.orchestrator"):
        code, _out, err = run_cli(capsys, "verify", "--verbose", "--config", str(config), str(report))
    assert (code, err) == (0, "")
    lines = [r.getMessage() for r in caplog.records if r.name == "pir.orchestrator"]
    assert len(lines) == len(orchestrator.STAGES)
    for stage, line in zip(orchestrator.STAGES, lines):
        assert re.fullmatch(rf"{stage} ok: \d+\.\d ms", line), line


def test_verify_against_another_config_names_the_config_digest(tmp_path, capsys):
    config, report = review_a_copy(tmp_path, capsys)
    code, _out, err = verify(capsys, config.with_name("review_config_nogap.json"), report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert payload["detail"].startswith("config_digest ")


def test_verify_judges_the_cached_response_of_a_replay_config(tmp_path, capsys):
    # a response edited together with the text it narrates: verify takes
    # the response that the config's cache holds for the re-derived id
    config, report = review_a_copy(tmp_path, capsys)
    doc = json.loads(report.read_text())
    assert "6 failed" in doc["finding_summaries"][0]
    for holder, key in ((doc["transcripts"][0], "response"), (doc["finding_summaries"], 0)):
        holder[key] = holder[key].replace("6 failed", "600 failed")
    report.write_text(canon_dumps(doc), encoding="utf-8")
    code, _out, err = verify(capsys, config, report)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ReportMismatchError"
    assert payload["detail"] == "transcripts[0].response does not match what a review of the config's files gives"


def test_verify_needs_no_model_cache(tmp_path, capsys):
    # the review that verify runs has the gateway disabled, so a replay
    # config whose cache is gone still verifies
    config, report = review_a_copy(tmp_path, capsys)
    shutil.rmtree(tmp_path / "fixtures" / "llm_cache")
    code, _out, err = verify(capsys, config, report)
    assert (code, err) == (0, "")


def test_verify_leaves_the_output_dir_as_the_review_left_it(tmp_path, capsys, monkeypatch):
    config, report = review_a_copy(tmp_path, capsys)
    out = tmp_path / "out"
    before = {path: path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    code, _out, err = run_cli(capsys, "verify", "--config", str(config), "--output", str(out), str(report))
    assert (code, err) == (0, "")
    assert {path: path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()} == before
    assert list(temp.iterdir()) == []


@pytest.fixture(scope="module")
def reviewed(tmp_path_factory):
    """The fixture config and the report document a review of it wrote."""
    out = tmp_path_factory.mktemp("reviewed")
    config = ReviewConfig.from_file(FIXTURES / "review_config.json", overrides={"output_dir": str(out)})
    orchestrator.run_review(config)
    return config, json.loads((out / "report.json").read_bytes())


def leaf_paths(node, path=()):
    """The path of every number, string, boolean and null in ``node``."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaf_paths(value, (*path, key))
    else:
        yield path


def at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def edited(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    at(doc, path[:-1])[path[-1]] = value
    return doc


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=12))


# capped at 25 examples, since each runs a whole review of the fixture
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_refuses_any_edited_conclusion_leaf(reviewed, data):
    config, doc = reviewed
    paths = [
        path for section in ("findings", "technique_section", "gaps_section", "trace_ledger")
        for path in leaf_paths(doc[section], (section,)) if path[2] not in ("rationale", "remediation")
    ]
    path = data.draw(st.sampled_from(paths))
    old = at(doc, path)
    value = data.draw(JSON_SCALARS.filter(lambda v: type(v) is not type(old) or v != old))
    with pytest.raises(ReportMismatchError):
        orchestrator.verify_report(config, edited(doc, path, value))


# capped at 25 examples, since each runs a whole review of the fixture
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_refuses_any_edited_narrated_text(reviewed, data):
    # the new text cites only records and clauses the appendices hold, so
    # only its transcript's response can tell it from the text narrated
    config, doc = reviewed
    paths = [("incident_summary",), *(("finding_summaries", i) for i in range(len(doc["finding_summaries"])))]
    for section in ("technique_section", "gaps_section"):
        paths.extend(path for path in leaf_paths(doc[section], (section,)) if path[2] in ("rationale", "remediation"))
    markers = [f"[EVT:{row['record_ref']}]" for row in doc["evidence_appendix"]]
    markers += [f"[POL:{row['clause_id']}]" for row in doc["policy_appendix"]]
    words = st.text(st.characters(blacklist_characters="[]"), max_size=20)
    path = data.draw(st.sampled_from(paths))
    text = data.draw(st.lists(st.one_of(words, st.sampled_from(markers)), max_size=6).map("".join).filter(
        lambda text: text != at(doc, path)
    ))
    name = path[0] + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path[1:])
    with pytest.raises(ReportMismatchError, match=re.escape(f"{name} does not match")):
        orchestrator.verify_report(config, edited(doc, path, text))


def test_verify_memory_does_not_grow_with_the_encoded_records(tmp_path):
    # the review that verify runs streams the encoded records to a file and
    # keeps about 340 B a record, for the logon rows and auth events; a
    # verify that also held every encoded byte grows by about 630 B a record
    held = []
    for count in (1_000, 6_000):
        xml, _truth = generate(ScenarioSpec(seed=3, noise_events=count, noise_accounts=("jdoe", "svc")), source_name="big")
        (tmp_path / "big.xml").write_text(xml, encoding="utf-8")
        del xml
        raw = json.loads((FIXTURES / "review_config.json").read_text())
        for key in ("org_policy_paths", "baseline_policy_paths"):
            raw[key] = [str(FIXTURES / p) for p in raw[key]]
        raw.update(evidence_paths=[str(tmp_path / "big.xml")], output_dir=str(tmp_path / "out"), gateway_mode="disabled")
        (tmp_path / "config.json").write_text(json.dumps(raw))
        config = ReviewConfig.from_file(tmp_path / "config.json")
        orchestrator.run_review(config)
        doc = json.loads((tmp_path / "out" / "report.json").read_bytes())
        tracemalloc.start()
        try:
            orchestrator.verify_report(config, doc)
            _retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak)
    assert held[1] - held[0] < 450 * 5_000


def test_verify_without_a_report_exits_3(tmp_path, capsys):
    code, _out, err = verify(capsys, CONFIG, tmp_path / "report.json")
    assert code == 3
    assert json.loads(err)["error"] == "ConfigInvalidError"


# --- tools -----------------------------------------------------------------------------


def test_cross_python_review_finds_the_running_interpreter_agrees_with_itself():
    tool = FIXTURES.parent / "tools" / "cross_python_review.py"
    run = subprocess.run([sys.executable, str(tool), sys.executable], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    reference, other = (line.split() for line in run.stdout.splitlines())
    assert reference[1:-1] == other[1:-1]
    assert reference[1:-1:2] == ["records.json", "report.json", *(f"{stage}.json" for stage in orchestrator.STAGES)]
