"""The consumer-facing demo outputs, pinned byte for byte.

``python -m repro`` and the retrospective/reputation examples print
what consumers read from the chain (references, deploy decisions,
notifications, rankings).  Each runs in a fresh interpreter, exactly as
a user would run it, and its stdout must equal the recorded golden file
in ``tests/golden``.  Every run is seeded, and the recorded outputs were
checked to be identical under different ``PYTHONHASHSEED`` values.

After an intended output change, re-record a golden file with e.g.
``PYTHONPATH=src python examples/retro_notifications.py >
tests/golden/retro_notifications.txt``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "repro_cli": ["-m", "repro"],
    "retro_notifications": [str(ROOT / "examples" / "retro_notifications.py")],
    "reputation_marketplace": [str(ROOT / "examples" / "reputation_marketplace.py")],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, *RUNS[name]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text()
