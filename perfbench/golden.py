"""Golden records of every CLI command the benchmark runs, and the check against them.

`verify`, `connection`, `curvature` and `audit` must reproduce their JSON byte
for byte (sha256) and their exit code.  `dirac` must reproduce its exit code
and its non-float fields exactly, satisfy its residual certificate, and give
the recorded eigenvalues, as a multiset, within that certificate: LAPACK's
eigenvalue order is not portable.

Regenerate the records from the current tree only when an output change is
intended, and say why in CHANGES.md:

    PYTHONPATH=src python3 perfbench/golden.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
COMMANDS = (
    "verify --q i", "verify --q -i",
    "audit --q i", "audit --q -i",
    "connection --q i", "connection --q -i",
    "curvature --q i", "curvature --q -i",
    "dirac --q 1", "dirac --q i", "dirac --q -i",
)
DIRAC_EXACT_FIELDS = ("q", "normalization", "extrapolated", "reference", "connection_scalars")
DIRAC_NEAR_FIELDS = ("max_match_distance", "mean_match_distance")
# the eigensolver's own contract: every eigenpair residual is at most 1e-9 ||M||_2
CERTIFICATE = 1e-9


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def check(record: dict, code: int, stdout: bytes) -> str | None:
    """None when a command's exit code and output match its record, else why not."""
    if code != record["exit_code"]:
        return f"exit code {code}, expected {record['exit_code']}"
    if "sha256" in record:
        digest = hashlib.sha256(stdout).hexdigest()
        return None if digest == record["sha256"] else f"output sha256 {digest[:16]} differs"
    return _check_spectrum(record, stdout)


def _check_spectrum(record: dict, stdout: bytes) -> str | None:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    for key in DIRAC_EXACT_FIELDS:
        if doc.get(key) != record["fields"][key]:
            return f"{key} differs"
    tol = record["tolerance"]
    if not doc["max_residual"] <= tol:
        return f"residual {doc['max_residual']:.3g} exceeds the certificate {tol:.3g}"
    for key in DIRAC_NEAR_FIELDS:
        want, got = record[key], doc.get(key)
        if (want is None) != (got is None) or (want is not None and abs(got - want) > tol):
            return f"{key} {got} differs from {want}"
    got = [complex(re, im) for re, im in doc["eigenvalues"]]
    if len(got) != len(record["eigenvalues"]):
        return f"{len(got)} eigenvalues, expected {len(record['eigenvalues'])}"
    for re, im in record["eigenvalues"]:
        want = complex(re, im)
        k = min(range(len(got)), key=lambda j: abs(got[j] - want))
        if abs(got[k] - want) > tol:
            return f"no eigenvalue within {tol:.3g} of {want}"
        got.pop(k)
    return None


def record(command: str, code: int, stdout: bytes) -> dict:
    """The golden record of one command's run on the current tree."""
    rec = {"exit_code": code}
    if not command.startswith("dirac"):
        rec["sha256"] = hashlib.sha256(stdout).hexdigest()
        return rec
    import numpy as np

    from ncgq.dirac import build_dirac

    doc = json.loads(stdout)
    norm = float(np.linalg.norm(build_dirac(doc["q"]).matrix, 2))
    rec["tolerance"] = CERTIFICATE * norm
    rec["fields"] = {key: doc[key] for key in DIRAC_EXACT_FIELDS}
    rec.update({key: doc[key] for key in DIRAC_NEAR_FIELDS})
    rec["eigenvalues"] = sorted(doc["eigenvalues"])
    return rec


def main() -> int:
    from run import run_cli, scratch_dir

    records = {}
    with scratch_dir() as tmp:
        for command in COMMANDS:
            proc = run_cli(command, tmp)
            records[command] = record(command, proc.code, proc.stdout)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"commands": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
