#!/usr/bin/env python3
"""Check that the fixture review writes the same bytes under other Pythons.

Runs the replay review of fixtures/review_config.json into a temporary
directory, once under the running interpreter and once under each
interpreter named on the command line, and compares the sha256 of the
bytes of state/records.json, of report.json with its generated_at value
replaced by null, and of each state/<Stage>.json as
masked_checkpoint_digest masks it. Prints one line per interpreter and
exits 1 when a review fails or any digest differs from the running
interpreter's.

    python tools/cross_python_review.py /usr/bin/python3.10 /usr/bin/python3.13
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "fixtures" / "review_config.json"
sys.path.insert(0, str(ROOT / "src"))

from pir.canon import digest_of  # noqa: E402
from pir.orchestrator import STAGES  # noqa: E402


def masked_checkpoint_digest(text: str) -> str:
    """digest_of a <Stage>.json's JSON with the stage clock, previous_digest
    and report_generated_at replaced by null."""
    d = json.loads(text)
    for entry in d["stage_log"]:
        entry["started"] = entry["finished"] = None
    # previous_digest covers the earlier checkpoints' bytes, clocks included
    d["previous_digest"] = None
    if "report_generated_at" in d:
        d["report_generated_at"] = None
    return digest_of(d)


def review_digests(python: str) -> tuple[str, dict[str, str]]:
    """The version of ``python`` and the digest of each file its fixture
    review wrote, by file name; raises RuntimeError when it fails."""
    version = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run(
            [python, "-m", "pir.cli", "review", "--config", str(CONFIG),
             "--gateway-mode", "replay", "--output", tmp],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True,
        )
        if run.returncode != 0:
            raise RuntimeError(f"{python} ({version}): review exited {run.returncode}: {run.stderr.strip()}")
        state = Path(tmp) / "state"
        records = (state / "records.json").read_bytes()
        report = (Path(tmp) / "report.json").read_text(encoding="utf-8")
        checkpoints = {
            f"{stage}.json": masked_checkpoint_digest((state / f"{stage}.json").read_text(encoding="utf-8"))
            for stage in STAGES
        }
    stamp = '"generated_at":' + json.dumps(json.loads(report)["generated_at"])
    masked = report.replace(stamp, '"generated_at":null').encode("utf-8")
    return version, {
        "records.json": hashlib.sha256(records).hexdigest(),
        "report.json": hashlib.sha256(masked).hexdigest(),
        **checkpoints,
    }


def main(argv: list[str]) -> int:
    status, reference = 0, None
    for python in [sys.executable, *argv]:
        try:
            version, digests = review_digests(python)
        except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
            print(exc)
            if reference is None:
                return 1
            status = 1
            continue
        reference = reference or digests
        differs = digests != reference
        mark = "  DIFFERS" if differs else ""
        files = "  ".join(f"{name} {digest}" for name, digest in digests.items())
        print(f"{version:8} {files}  {python}{mark}")
        status |= differs
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
