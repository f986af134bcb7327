#!/usr/bin/env python3
"""Benchmark of pir reviews: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload bulk-replay --seed 1 --seconds 30 --trace 0

Set-up runs in child processes (``workloads.py``) and is timed as
``setup_s``. This process then runs the workload's operation one at a time
through the public API (``orchestrator.run_review``, or
``orchestrator.load_checkpoint`` with ``orchestrator.write_report_files``)
until ``--seconds`` have passed, and checks every operation's output outside
the timed region. Between set-ups and operations it times a fixed reference
task (``reference.py``) and reports end-to-end times scaled to the
reference host's speed. With ``--trace 1`` it then runs the operation once
more with spans recorded (``spans.py``) and reports per-layer metrics
instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A record of the run, and the spans
of a traced run, go to ``.perfbench/results/``. README.md next to this file
describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans
import workloads  # puts src/ and tools/ on sys.path
from pir import canon, orchestrator, reporting
from pir.detection import DetectorParams, oracle_detect
from record_fixture_cache import scripted_transport

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while tuning; re-check gain claims on it
SETUP_REPEATS = 3
REFERENCE_WARMUP = 5  # reference samples before the first set-up, not kept
REFERENCE_SAMPLES = 2  # reference samples before each set-up and operation
SETUP_TIMEOUT_S = 150
MAX_ERRORS_KEPT = 20  # errors kept and printed; one repeating on every operation would flood stderr
LIMITS = (
    "Warm-cache figures only: the benchmark measures its own processes, so "
    "it drops no page cache and traces nothing machine-wide. Spans are "
    "recorded from outside the program, around calls into each layer."
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Review:
    """``pir review`` of the generated evidence (bulk-replay, many-incidents)."""

    expected: dict[str, bytes] = {}
    waited = 0.0  # seconds the last operation's stand-in model slept

    def __init__(self, base: Path, manifest: dict):
        self.mode = manifest["gateway_mode"]
        self.config = workloads.review_config(base, manifest["evidence"], self.mode)
        self.out = self.config.output_dir
        self.cache = self.config.cache_dir
        self.bytes_in = manifest["evidence_bytes"]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        if self.mode == "record":
            shutil.rmtree(self.cache, ignore_errors=True)

    def delayed_transport(self, request_body: dict) -> str:
        """The scripted stand-in model behind a fixed delay."""
        start = time.perf_counter()
        time.sleep(workloads.TRANSPORT_LATENCY_S)
        self.waited += time.perf_counter() - start
        return scripted_transport(request_body)

    def run(self, wrap=None):
        self.waited = 0.0
        transport = None
        if self.mode == "record":
            transport = self.delayed_transport
            if wrap is not None:
                transport = wrap(spans.TRANSPORT_SPAN, transport)
        return orchestrator.run_review(self.config, transport=transport)

    def written(self) -> dict[str, int]:
        state_dir = self.out / "state"
        cache = tree_bytes(self.cache) if self.mode == "record" else 0
        return {
            "checkpoints": sum(
                (state_dir / f"{stage}.json").stat().st_size for stage in spans.STAGES
            ),
            "reports": sum((self.out / n).stat().st_size for n in ("report.json", "report.md")),
            "cache": cache,
            "total": tree_bytes(self.out) + cache,
        }


class Rerender:
    """``pir render``: load the final checkpoint and write both reports."""

    bytes_in = 0
    waited = 0.0

    def __init__(self, base: Path, manifest: dict):
        self.checkpoint = base / manifest["checkpoint"]
        self.out = base / "rendered"
        self.expected = {Path(p).name: (base / p).read_bytes() for p in manifest["reports"]}

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, wrap=None):
        state = orchestrator.load_checkpoint(self.checkpoint)
        orchestrator.write_report_files(state, self.out)
        return state

    def written(self) -> dict[str, int]:
        reports = tree_bytes(self.out)
        return {"checkpoints": 0, "reports": reports, "cache": 0, "total": reports}


def stable_digest(report_text: str) -> str:
    """``json_report_digest`` with transcript latencies masked too, as
    ``state_digest`` does, because record mode measures them."""
    doc = json.loads(report_text)
    for transcript in doc["transcripts"]:
        transcript["latency_ms"] = 0
    return reporting.json_report_digest(canon.canon_dumps(doc))


def check(op, state, truth_refs: list[str], digests: set[str]) -> list[str]:
    """Check one operation's output; returns the problems found."""
    problems = []
    text = (op.out / "report.json").read_text(encoding="utf-8")
    unresolved = reporting.verify_citation_closure(
        json.loads(text), state.record_refs(), state.clause_ids()
    )
    if unresolved:
        problems.append(f"unresolved citations in report.json: {unresolved[:5]}")
    cited = {ref for f in state.findings for ref in f.evidence}
    cited.update(f.success_record for f in state.findings if f.success_record)
    lost = [ref for ref in truth_refs if ref not in cited]
    if lost:
        problems.append(f"{len(lost)} injected refs are in no finding, first {lost[0]}")
    oracle = oracle_detect(state.auth_events, DetectorParams.from_dict(workloads.DETECTOR))
    if [f.to_dict() for f in oracle] != [f.to_dict() for f in state.findings]:
        problems.append(
            f"findings differ from oracle_detect ({len(state.findings)} vs {len(oracle)})"
        )
    if state.degradation_notes:
        problems.append(f"degradation notes: {state.degradation_notes[:3]}")
    digests.add(stable_digest(text))
    if len(digests) > 1:
        problems.append(f"report digest changed between operations: {sorted(digests)}")
    for name, expected in op.expected.items():
        if (op.out / name).read_bytes() != expected:
            problems.append(f"{name} differs from the one written during set-up")
    return problems


def run_once(op, tracer):
    if tracer is None:
        return op.run()
    with spans.installed(tracer), tracer.span(spans.ROOT_SPAN):
        return op.run(tracer.wrap)


def attempt(op, truth_refs, digests, errors, tracer=None):
    """Run and check one operation, with spans recorded when ``tracer`` is
    given. Returns its wall time, the bytes it wrote (None when it failed)
    and the peak RSS right after it; errors and failed checks are appended
    to ``errors``."""
    op.reset()
    start = time.perf_counter()
    try:
        state = run_once(op, tracer)
    except Exception:
        errors.append(traceback.format_exc(limit=4))
        return time.perf_counter() - start, None, peak_rss_mb()
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    try:
        problems = check(op, state, truth_refs, digests)
        written = op.written()
    except Exception:
        problems = [traceback.format_exc(limit=4)]
    errors.extend(problems)
    return wall, (None if problems else written), rss


def _setup_timed_out(signum, frame):
    raise TimeoutError(f"set-up took longer than {SETUP_TIMEOUT_S} s")


def run_child(args: list[str]) -> float:
    """Run one child process to the end; returns its wall time.

    The wait blocks in ``waitpid`` and an alarm enforces the time limit:
    ``subprocess.run(timeout=...)`` would poll every 50 ms and round the
    time up to that step."""
    start = time.perf_counter()
    child = subprocess.Popen(args)
    previous = signal.signal(signal.SIGALRM, _setup_timed_out)
    signal.alarm(SETUP_TIMEOUT_S)
    try:
        code = child.wait()
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, args)
    return elapsed


def set_up(workload: str, seed: int, work: Path) -> tuple[Path, list[float], list[float]]:
    """Set the workload up SETUP_REPEATS times, each in a new child process
    and directory; keeps only the last directory. Returns it, the set-up
    times and reference samples taken around each set-up."""
    times: list[float] = []
    for _ in range(REFERENCE_WARMUP):
        reference.sample()
    ref_samples: list[float] = []
    base = None
    for i in range(SETUP_REPEATS):
        if base is not None:
            shutil.rmtree(base)
        base = work / f"setup-{i}"
        script = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(base)]
        ref_samples.extend(reference.sample() for _ in range(REFERENCE_SAMPLES))
        times.append(run_child(script))
    ref_samples.extend(reference.sample() for _ in range(REFERENCE_SAMPLES))
    return base, times, ref_samples


def traced_metrics(op, truth_refs, digests, errors, run_id: str, spans_path: Path):
    """Run the operation once with spans recorded; returns the per-layer
    metrics, or None when that operation failed."""
    tracer = spans.Tracer(run_id)
    _wall, written, _rss = attempt(op, truth_refs, digests, errors, tracer)
    tracer.write(spans_path)
    if written is None:
        return None
    metrics = spans.layer_metrics(tracer)
    metrics["log_ingest.bytes_in"] = op.bytes_in
    metrics["orchestrator.checkpoint_bytes"] = written["checkpoints"]
    metrics["reporting.report_bytes"] = written["reports"]
    metrics["llm_gateway.cache_bytes"] = written["cache"]
    accounted = (
        sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        + metrics["llm_gateway.transport_wait_s"]
        + metrics["trace.unattributed_s"]
    )
    if abs(accounted - metrics["trace.wall_s"]) > 1e-6:
        errors.append(
            f"self times sum to {accounted} s, traced wall is {metrics['trace.wall_s']} s"
        )
        return None
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stem = (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    )
    work = ROOT / ".perfbench" / "work" / stem
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        base, setup_times, setup_refs = set_up(args.workload, args.seed, work)
        setup_speed = reference.speed_factor(setup_refs)
        manifest = json.loads((base / "manifest.json").read_text(encoding="utf-8"))
        op = (Rerender if args.workload == "rerender" else Review)(base, manifest)
        truth_refs = manifest["truth_refs"]

        # Closed loop: the next operation starts when the previous one and
        # its output check are done.
        digests: set[str] = set()
        errors: list[str] = []
        walls, waits, ok, writes, rss = [], [], [], [], []
        ref_samples: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while not walls or time.perf_counter() < deadline:
            ref_samples.extend(reference.sample() for _ in range(REFERENCE_SAMPLES))
            wall, written, peak = attempt(op, truth_refs, digests, errors)
            walls.append(wall)
            waits.append(op.waited)
            rss.append(peak)
            ok.append(written is not None)
            if written is not None:
                writes.append(written)
        attempted, failed = len(walls), len(walls) - len(writes)

        # Times are scaled to the reference host's speed (reference.py); the
        # stand-in model's sleep is a fixed latency and is not scaled. The
        # mean operation pairs with the mean reference sample, because both
        # average the host's speed over the same stretch of time.
        speed = reference.speed_factor(ref_samples)
        wall_s = statistics.fmean(
            wait + (wall - wait) * speed
            for wall, wait, good in zip(walls, waits, ok)
            if good or not any(ok)
        )
        end_to_end = {
            "wall_s": wall_s,
            "records_per_s": manifest["records"] / wall_s,
            # taken after the first operation, before any output check ran
            "peak_rss_mb": rss[0],
            "output_mb": statistics.median(w["total"] for w in writes) / 1e6 if writes else 0.0,
            "setup_s": statistics.median(setup_times) * setup_speed,
        }
        metrics = end_to_end
        per_layer = None
        if args.trace:
            spans_path = results / f"{stem}.spans.json"
            per_layer = traced_metrics(
                op, truth_refs, digests, errors, stem, spans_path
            )
            attempted += 1
            if per_layer is None:
                failed += 1
                per_layer = {}
            else:
                # both unscaled: the traced operation's time against the
                # fastest untraced one
                per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - min(walls)
            metrics = per_layer

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "gateway_mode": manifest["gateway_mode"],
            "transport_latency_s": (
                workloads.TRANSPORT_LATENCY_S if manifest["gateway_mode"] == "record" else 0.0
            ),
            "input": {
                "records": manifest["records"],
                "evidence_files": len(manifest["evidence"]),
                "evidence_bytes": manifest["evidence_bytes"],
                "injected_refs": len(truth_refs),
            },
            "workload_sizes": workloads.SIZES,
            "limits": LIMITS,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "error_count": len(errors),
            "errors": errors[:MAX_ERRORS_KEPT],
            "report_digests": sorted(digests),
            "setup_s_samples": setup_times,
            "setup_speed_factor": setup_speed,
            "setup_reference_s_samples": setup_refs,
            "speed_factor": speed,
            "reference_s_samples": ref_samples,
            "wall_s_samples": walls,
            "wall_s_median": statistics.median(walls),
            "transport_wait_s_samples": waits,
            "peak_rss_mb_samples": rss,
            "bytes_written": writes[0] if writes else None,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in errors[:MAX_ERRORS_KEPT]:
        print(f"error: {error}", file=sys.stderr)
    out = {}
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit_of(name)}")
        out[name] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
