#!/usr/bin/env python3
"""Regenerate the JSON fixture files holding the published reference data.

Run from the repository root:  python scripts/make_fixtures.py
The outputs are versioned; rerunning must be a no-op unless the transcriptions
here change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "src" / "ncgq" / "fixtures"


def matrix_from_entries(entries):
    m = [["0"] * 16 for _ in range(16)]
    for row, col, val in entries:
        m[row - 1][col - 1] = val
    return m


R_ALPHA = matrix_from_entries(
    [(1, 13, "1"), (2, 14, "q^2"), (3, 15, "1"), (4, 16, "q^2"),
     (5, 1, "1"), (6, 2, "q^2"), (7, 3, "1"), (8, 4, "q^2"),
     (9, 5, "1"), (10, 6, "q^2"), (11, 7, "1"), (12, 8, "q^2"),
     (13, 9, "1"), (14, 10, "q^2"), (15, 11, "1"), (16, 12, "q^2")]
)

R_BETA = matrix_from_entries(
    [(1, 4, "1"), (2, 1, "1"), (3, 2, "1"), (4, 3, "1"),
     (5, 8, "1"), (6, 5, "1"), (7, 6, "1"), (8, 7, "1"),
     (9, 12, "1"), (10, 9, "1"), (11, 10, "1"), (12, 11, "1"),
     (13, 16, "1"), (14, 13, "1"), (15, 14, "1"), (16, 15, "1")]
)

R_BETASTAR = matrix_from_entries(
    [(1, 2, "-q^2"), (1, 14, "1"),
     (2, 3, "-q^2"), (2, 15, "q^2"),
     (3, 4, "-q^2"), (3, 16, "1"),
     (4, 1, "-q^2"), (4, 13, "q^2"),
     (5, 2, "1"), (5, 6, "-q^2"),
     (6, 3, "q^2"), (6, 7, "-q^2"),
     (7, 4, "1"), (7, 8, "-q^2"),
     (8, 1, "q^2"), (8, 5, "-q^2"),
     (9, 6, "1"), (9, 10, "-q^2"),
     (10, 7, "q^2"), (10, 11, "-q^2"),
     (11, 8, "1"), (11, 12, "-q^2"),
     (12, 5, "q^2"), (12, 9, "-q^2"),
     (13, 10, "1"), (13, 14, "-q^2"),
     (14, 11, "q^2"), (14, 15, "-q^2"),
     (15, 12, "1"), (15, 16, "-q^2"),
     (16, 9, "q^2"), (16, 13, "-q^2")]
)

translation = {
    "source": "paper",
    "version": 1,
    "matrices": {
        "alpha": R_ALPHA,
        "beta": R_BETA,
        "beta_star": R_BETASTAR,
        # the reference asserts the delta operator equals the alpha operator
        "delta": R_ALPHA,
    },
}

SPECTRUM_Q1 = [
    [6.13535, 0.0], [6.09138, -0.0458136], [6.09138, 0.0458136], [6.04356, 0.0],
    [5.69131, 1.88396], [5.69131, -1.88396], [4.92273, 2.56606], [4.92273, -2.56606],
    [5.44035, 0.691008], [5.44035, -0.691008], [4.69388, 0.0], [4.2556, -1.54516],
    [4.2556, 1.54516], [4.36549, 0.354504], [4.36549, -0.354504], [3.63451, 2.3545],
    [3.63451, -2.3545], [3.95644, 0.0], [3.90862, -0.0458136], [3.90862, 0.0458136],
    [3.86465, 0.0], [3.0, 2.11925], [3.0, -2.11925], [3.07727, 0.566058],
    [3.07727, -0.566058], [2.55965, 1.30899], [2.55965, -1.30899], [1.7444, -1.54516],
    [1.7444, 1.54516], [2.30869, 0.116035], [2.30869, -0.116035], [1.30612, 0.0],
]

SPECTRUM_QI = [
    [-4.96224, 0.188313], [-4.94028, 0.196129], [-4.86666, 0.199838], [-4.81671, 0.199838],
    [-3.8887, 1.36007], [-4.0635, 0.0761453], [-3.84125, 1.26724], [-3.7927, -0.921684],
    [-3.86394, 0.0590435], [-3.76238, -0.838047], [-3.28813, 0.320025], [-2.97248, 0.288083],
    [1.20446, 2.56874], [2.37401, 1.45875], [2.35204, 1.45093], [1.17415, 2.48511],
    [2.27843, 1.44722], [-2.65153, 0.260679], [2.22847, 1.44722], [-2.56214, 0.239703],
    [-2.36421, 0.187262], [-2.29997, 0.184081], [1.47527, 1.57091], [1.2757, 1.58802],
    [0.699899, 1.32703], [-0.288263, 1.46298], [-0.224021, 1.4598], [0.384248, 1.35898],
    [-0.0260945, 1.40736], [0.0632908, 1.38638], [1.30046, 0.286992], [1.25301, 0.379819],
]

spectra = {
    "source": "paper",
    "version": 1,
    "lists": {
        "1": SPECTRUM_Q1,
        "i": SPECTRUM_QI,
        # stated to be the complex conjugate of the q = i list, and printed as such
        "-i": [[re, -im] for re, im in SPECTRUM_QI],
    },
}


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, payload in [
        ("translation_matrices.json", translation),
        ("spectra.json", spectra),
    ]:
        path = OUT / name
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
