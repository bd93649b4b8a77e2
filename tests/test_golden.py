"""The exact-output commands reproduce the benchmark's golden records byte for byte.

`perfbench/golden.json` pins the exit code and the sha256 of the JSON that
`verify`, `connection`, `curvature` and `audit` emit at q = i and q = -i.  A
refactor that claims "same behaviour" has to keep these; an intended output
change regenerates the records (see `perfbench/golden.py`) and says why.
"""
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ncgq.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
COMMANDS = [f"{command} --q {q}" for command in ("verify", "connection", "curvature", "audit")
            for q in ("i", "-i")]


def _records() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden_record(command, tmp_path):
    record = _records()[command]
    out = tmp_path / "out.json"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([*command.split(), "--out", str(out)])
    assert code == record["exit_code"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == record["sha256"]
