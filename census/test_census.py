"""The runtime census (not part of tier-1): every function of src/ncgq is run, or allowed not to be.

    PYTHONPATH=src python3 -m pytest census -q
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def allowlist() -> dict[str, str]:
    """`module.py:Qualified.name` -> the one-line reason that nothing needs to call it."""
    entries = {}
    for line in (HERE / "allowlist.txt").read_text(encoding="utf-8").splitlines():
        name, _, reason = line.partition(" ")
        assert reason.strip(), f"allowlist entry without a reason: {line!r}"
        assert name not in entries, f"allowlist entry listed twice: {name}"
        entries[name] = reason.strip()
    return entries


def test_every_uncalled_function_is_allowed_and_every_allowed_one_is_uncalled(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "census.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    codes = [run["code"] for run in report["runs"]]
    # the 30 valid runs (dirac exits 1 at q = +-i: criterion 1), 12 usage and
    # configuration errors, --help, --out to a file and to a directory, then verify,
    # connection, curvature, audit and dirac under truncated fixtures
    assert codes == [0] * 26 + [1] * 4 + [2] * 12 + [0, 0, 4] + [3, 0, 0, 3, 3], report["runs"]
    allowed, uncalled = allowlist().keys(), set(report["uncalled"])
    assert not uncalled - allowed, f"called by no run and not allowed: {sorted(uncalled - allowed)}"
    assert not allowed - uncalled, f"allowed but called, or no longer defined: {sorted(allowed - uncalled)}"
