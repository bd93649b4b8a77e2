"""The runtime census (not part of tier-1): every function of src/ncgq is run, or allowed not to be,
and every parameter with a default is set to another value by a valid run, or allowed not to be.

    PYTHONPATH=src python3 -m pytest census -q
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def allowlist(name: str) -> dict[str, str]:
    """The entries of one allowlist file: name -> the one-line reason that nothing needs it."""
    entries = {}
    for line in (HERE / name).read_text(encoding="utf-8").splitlines():
        entry, _, reason = line.partition(" ")
        assert reason.strip(), f"{name}: entry without a reason: {line!r}"
        assert entry not in entries, f"{name}: entry listed twice: {entry}"
        entries[entry] = reason.strip()
    return entries


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    done = subprocess.run([sys.executable, str(HERE / "census.py"), str(tmp_path_factory.mktemp("census"))],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_uncalled_function_is_allowed_and_every_allowed_one_is_uncalled(report):
    codes = [run["code"] for run in report["runs"]]
    # the 30 valid runs (dirac exits 1 at q = +-i: criterion 1) and dirac --tol 0.5, 12 usage and
    # configuration errors, --help, --out to a file and to a directory, then verify,
    # connection, curvature, audit and dirac under truncated fixtures
    assert codes == [0] * 26 + [1] * 4 + [0] + [2] * 12 + [0, 0, 4] + [3, 0, 0, 3, 3], report["runs"]
    allowed, uncalled = allowlist("allowlist.txt").keys(), set(report["uncalled"])
    assert not uncalled - allowed, f"called by no run and not allowed: {sorted(uncalled - allowed)}"
    assert not allowed - uncalled, f"allowed but called, or no longer defined: {sorted(allowed - uncalled)}"


def test_every_unvaried_parameter_is_allowed_and_every_allowed_one_is_unvaried(report):
    allowed, unvaried = allowlist("options_allowlist.txt").keys(), set(report["unvaried"])
    assert not unvaried - allowed, f"no valid run sets it, and not allowed: {sorted(unvaried - allowed)}"
    assert not allowed - unvaried, f"allowed but set, or no longer defined: {sorted(allowed - unvaried)}"
