"""Command-line interface for review runs and stage-wise helpers.

Exit codes are a stable contract: 0 success, 2 stage/runtime failure (also
argparse usage errors), 3 invalid configuration. Failures additionally write
one structured JSON object to standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .canon import canon_dumps, parse_instant
from .config import ReviewConfig
from .errors import ConfigInvalidError, ReportMismatchError, ReviewError, StageFailureError
from .llm_gateway import GATEWAY_MODES
from .log_ingest import flatten_to_csv, load_evidence
from .orchestrator import load_checkpoint, read_evidence, run_review, verify_report, write_report_files
from .policy_index import build_index, load_policy_documents
from .scenario_gen import ScenarioSpec, generate

EXIT_OK = 0
EXIT_STAGE_FAILURE = 2
EXIT_CONFIG_INVALID = 3


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, StageFailureError):
        payload["stage"] = exc.stage
        payload["cause"] = type(exc.cause).__name__
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _config(args, required: bool = True) -> ReviewConfig | None:
    """The --config file with the --output and --gateway-mode overrides
    applied; None when no --config is given and ``required`` is false."""
    if not args.config:
        if required:
            raise ConfigInvalidError("this command requires --config")
        return None
    overrides = {}
    if args.output:
        overrides["output_dir"] = str(Path(args.output).resolve())
    if args.gateway_mode:
        overrides["gateway_mode"] = args.gateway_mode
    return ReviewConfig.from_file(Path(args.config), overrides=overrides)


def cmd_review(args) -> int:
    config = _config(args)
    state = run_review(config)
    json_path = config.output_dir / "report.json"
    print(
        f"review {state.run_id} complete: {len(state.findings)} finding(s), "
        f"{len(state.gaps)} gap(s), {len(state.degradation_notes)} "
        f"degradation note(s); report written to {json_path}"
    )
    return EXIT_OK


def cmd_ingest(args) -> int:
    config = _config(args)
    records = load_evidence(config.evidence_paths)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "records.csv"
    out_path.write_text(flatten_to_csv(records), encoding="utf-8", newline="")
    print(f"ingested {len(records)} record(s) into {out_path}")
    return EXIT_OK


def cmd_detect(args) -> int:
    config = _config(args)
    # the same pass as a review's; the bytes of records.json are dropped
    _digest, _count, _rows, events, skipped, findings = read_evidence(config, lambda _data: None)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "findings.json"
    out_path.write_text(
        canon_dumps([f.to_dict() for f in findings]) + "\n", encoding="utf-8"
    )
    print(
        f"detected {len(findings)} finding(s) from {len(events)} auth event(s) "
        f"({skipped} skipped); written to {out_path}"
    )
    return EXIT_OK


def cmd_index(args) -> int:
    config = _config(args)
    if not config.org_policy_paths and not config.baseline_policy_paths:
        raise ConfigInvalidError("config lists no policy documents to index")
    documents = load_policy_documents(
        config.org_policy_paths, config.baseline_policy_paths
    )
    index = build_index(documents)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "policy_index.json"
    out_path.write_text(index.to_json(), encoding="utf-8")
    print(
        f"indexed {len(index.clauses)} clause(s) from {len(documents)} "
        f"document(s); written to {out_path}"
    )
    return EXIT_OK


def cmd_gen_scenario(args) -> int:
    config = _config(args, required=False)
    if config is not None:
        out_dir = config.output_dir
    elif args.output:
        out_dir = Path(args.output).resolve()
    else:
        raise ConfigInvalidError("gen-scenario requires --output or --config")
    try:
        spec = ScenarioSpec(
            seed=args.seed,
            target_account=args.account,
            failure_count=args.failures,
            failure_spacing_seconds=args.spacing,
            include_success=not args.no_success,
            noise_events=args.noise,
            noise_accounts=tuple(args.noise_account or ()),
            start_time=(
                ScenarioSpec().start_time
                if args.start is None
                else parse_instant(args.start)
            ),
        )
    except ValueError as exc:
        raise ConfigInvalidError(str(exc)) from exc
    xml, truth = generate(spec, source_name=args.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    xml_path = out_dir / f"{args.name}.xml"
    truth_path = out_dir / f"{args.name}.truth.json"
    xml_path.write_text(xml, encoding="utf-8")
    truth_path.write_text(
        json.dumps(
            {"spec": spec.to_dict(), "truth": truth.to_dict()},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"generated {xml_path} and {truth_path}")
    return EXIT_OK


def cmd_render(args) -> int:
    config = _config(args, required=False)
    if config is not None:
        if args.state:
            raise ConfigInvalidError("render takes --state or --config, not both")
        out_dir = config.output_dir
        state_path = out_dir / "state" / "GenerateReport.json"
    elif args.state:
        state_path = Path(args.state)
        out_dir = Path(args.output).resolve() if args.output else state_path.parent.parent
    else:
        raise ConfigInvalidError("render requires --state or --config")
    if not state_path.is_file():
        raise ConfigInvalidError(f"checkpoint not found: {state_path}")
    state = load_checkpoint(state_path)
    json_path, md_path = write_report_files(state, out_dir)
    print(f"rendered {json_path} and {md_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _config(args)
    report_path = Path(args.report)
    if not report_path.is_file():
        raise ConfigInvalidError(f"report not found: {report_path}")
    try:
        doc = json.loads(report_path.read_bytes())
    except ValueError as exc:
        raise ReportMismatchError(f"{report_path} is not JSON: {exc}") from exc
    verify_report(config, doc)
    print(
        f"verified {report_path}: its conclusions, {len(doc['evidence_appendix'])} cited record(s), "
        f"{len(doc['policy_appendix'])} cited clause(s) and the evidence digest over "
        f"{doc['record_count']} record(s) match a review of the files"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a review config JSON file")
    common.add_argument("--output", help="output directory (overrides config)")
    common.add_argument(
        "--gateway-mode",
        choices=GATEWAY_MODES,
        help="LLM gateway mode (overrides config)",
    )
    common.add_argument(
        "--verbose", action="store_true", help="log progress detail to stderr"
    )

    parser = argparse.ArgumentParser(
        prog="pir",
        description="Post-incident review of Windows authentication evidence "
        "against security policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "review", parents=[common], help="run the full five-stage review"
    ).set_defaults(handler=cmd_review)
    sub.add_parser(
        "ingest", parents=[common], help="parse evidence files to flattened CSV"
    ).set_defaults(handler=cmd_ingest)
    sub.add_parser(
        "detect", parents=[common], help="run brute-force detection on evidence"
    ).set_defaults(handler=cmd_detect)
    sub.add_parser(
        "index", parents=[common], help="build the policy clause index"
    ).set_defaults(handler=cmd_index)

    gen = sub.add_parser(
        "gen-scenario", parents=[common], help="generate synthetic evidence"
    )
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--account", default="administrator")
    gen.add_argument("--failures", type=int, default=6)
    gen.add_argument("--spacing", type=int, default=10, help="seconds between failures")
    gen.add_argument(
        "--no-success",
        action="store_true",
        help="omit the trailing successful logon",
    )
    gen.add_argument("--noise", type=int, default=0, help="number of noise events")
    gen.add_argument(
        "--noise-account",
        action="append",
        help="account for noise events (repeatable)",
    )
    gen.add_argument("--start", help="attack start time, as 2026-06-01T12:00:00Z (grammar: README, Detection)")
    gen.add_argument("--name", default="scenario", help="output file stem")
    gen.set_defaults(handler=cmd_gen_scenario)

    render = sub.add_parser(
        "render", parents=[common], help="re-render a checkpointed review state"
    )
    render.add_argument("--state", help="path to a state checkpoint JSON")
    render.set_defaults(handler=cmd_render)

    verify = sub.add_parser(
        "verify",
        parents=[common],
        help="check a report.json against a fresh review of the config's files",
    )
    verify.add_argument("report", help="path to a report.json")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.handler(args)
    except ConfigInvalidError as exc:
        _emit_error(exc)
        return EXIT_CONFIG_INVALID
    except (ReviewError, OSError) as exc:
        _emit_error(exc)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
