"""Tests of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
from collections import Counter

import pytest

import golden
import library
import run
import tracer


def _shape(ops: list[dict]) -> Counter:
    """What a seed must not change: each operation's plan and its rational count."""
    def rationals(args) -> int:
        terms = [t for a in args if isinstance(a, list) for t in a]
        return sum(1 for t in terms if t[-1] != 1 or t[-3] != 1)

    return Counter(
        (op["kind"], op["density"], op["mode"], op["fresh"], op.get("degree"), rationals(op["args"]))
        for op in ops)


def test_same_seed_gives_byte_identical_inputs():
    a, b = library.generate(7), library.generate(7)
    assert json.dumps(a) == json.dumps(b)
    assert library.digest(a) == library.digest(b)


def test_other_seed_gives_other_inputs_of_the_same_shape():
    a, b = library.generate(7), library.generate(8)
    assert library.digest(a) != library.digest(b)
    assert _shape(a) == _shape(b)
    assert sum(op["density"] for op in a) == sum(op["density"] for op in b)


def _counts(figures: dict) -> dict:
    return {k: v for k, v in figures.items() if not run.is_time(k)}


@pytest.mark.parametrize("command", ["connection --q i", "curvature --q -i"])
def test_cli_counts_repeat_and_tracing_changes_no_output(command, tmp_path):
    plain = run.run_cli(command, tmp_path)
    first, figures_a = run.run_cli_traced(command, tmp_path)
    second, figures_b = run.run_cli_traced(command, tmp_path)
    assert (first.code, first.stdout) == (plain.code, plain.stdout)
    assert (second.code, second.stdout) == (plain.code, plain.stdout)
    assert golden.check(golden.load()[command], first.code, first.stdout) is None
    counts = _counts(tracer.derive(figures_a))
    assert counts == _counts(tracer.derive(figures_b))
    assert counts["calculus.wedge.calls"] > 0
    assert counts["scalars.gaussian.new.calls"] > 0


def test_library_counts_repeat(tmp_path):
    runs = []
    for _ in range(2):
        out = tmp_path / "trace.json"
        proc, doc = run._library_worker(["--seed", "3", "--trace", str(out)], tmp_path)
        assert doc["failed"] == []
        runs.append(_counts(tracer.derive(json.loads(out.read_text()))))
    assert runs[0] == runs[1]
    assert runs[0]["algebra.element_mul.calls"] > 0


def test_import_times_attribute_stdlib_to_the_importing_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     pickle",
        "import time:       200 |        300 |   numpy.core",
        "import time:        50 |        350 | numpy",
        "import time:        10 |         10 |   ncgq.scalars",
        "import time:        20 |         30 | ncgq",
        "import time:         5 |          5 | json",
        "some other line",
    ])
    assert run.import_times(stderr) == {
        "import.ncgq_ms": 0.03, "import.numpy_ms": 0.35, "import.scipy_ms": 0.0}


def _dirac_record() -> tuple[dict, dict]:
    record = golden.load()["dirac --q i"]
    doc = {**record["fields"],
           "eigenvalues": list(reversed(record["eigenvalues"])),
           "max_residual": record["tolerance"] / 10,
           "max_match_distance": record["max_match_distance"],
           "mean_match_distance": record["mean_match_distance"]}
    return record, doc


def test_spectrum_check_ignores_order_and_catches_a_moved_eigenvalue():
    record, doc = _dirac_record()
    assert golden.check(record, record["exit_code"], json.dumps(doc).encode()) is None
    re, im = doc["eigenvalues"][3]
    doc["eigenvalues"][3] = [re + 1e-6, im]
    assert "no eigenvalue" in golden.check(record, record["exit_code"], json.dumps(doc).encode())
    assert "exit code" in golden.check(record, 0, b"")


def test_digest_check_catches_a_changed_byte():
    record = golden.load()["verify --q i"]
    assert "sha256" in golden.check(record, 0, b"{}\n")
