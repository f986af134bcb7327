#!/usr/bin/env python3
"""Check that the fixture review writes the same bytes under other Pythons.

Runs the replay review of fixtures/review_config.json into a temporary
directory, once under the running interpreter and once under each
interpreter named on the command line, and compares the sha256 of the
bytes of state/records.json and of report.json, with report.json's
generated_at value replaced by null. Prints one line per interpreter and
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


def review_digests(python: str) -> tuple[str, str, str]:
    """(version, records.json digest, masked report.json digest) of the
    fixture review run under ``python``; raises RuntimeError when it fails."""
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
        records = (Path(tmp) / "state" / "records.json").read_bytes()
        report = (Path(tmp) / "report.json").read_text(encoding="utf-8")
    stamp = '"generated_at":' + json.dumps(json.loads(report)["generated_at"])
    masked = report.replace(stamp, '"generated_at":null').encode("utf-8")
    return version, hashlib.sha256(records).hexdigest(), hashlib.sha256(masked).hexdigest()


def main(argv: list[str]) -> int:
    status, reference = 0, None
    for python in [sys.executable, *argv]:
        try:
            version, *digests = review_digests(python)
        except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
            print(exc)
            if reference is None:
                return 1
            status = 1
            continue
        reference = reference or digests
        differs = digests != reference
        mark = "  DIFFERS" if differs else ""
        print(f"{version:8} records.json {digests[0]}  report.json {digests[1]}  {python}{mark}")
        status |= differs
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
