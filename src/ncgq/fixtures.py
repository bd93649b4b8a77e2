"""Loaders for the versioned reference-data fixtures (JSON, tagged source: paper).

The fixture directory can be overridden with the NCGQ_FIXTURES environment
variable so audits can be pointed at alternative transcriptions.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from .algebra import TranslationMatrix
from .scalars import GaussianRational, PolyQ


def fixture_dir() -> Path:
    env = os.environ.get("NCGQ_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "fixtures"


def _load(name: str) -> dict:
    return _read((fixture_dir() / name).resolve())


@lru_cache(maxsize=None)
def _read(path: Path) -> dict:
    # keyed by resolved path, so a changed NCGQ_FIXTURES is honoured mid-process
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _entry_value(symbol: str, q: GaussianRational) -> GaussianRational:
    # fixture entries are tiny polynomials in q: "0", "1", "q^2", "-q^2"
    table = {
        "0": PolyQ([0]),
        "1": PolyQ([1]),
        "q^2": PolyQ([0, 0, 1]),
        "-q^2": PolyQ([0, 0, -1]),
    }
    return table[symbol].evaluate(q)


def printed_translation_matrix(name: str, q: GaussianRational) -> TranslationMatrix:
    """One of the reference right-translation matrices, evaluated at q."""
    data = _load("translation_matrices.json")
    rows = data["matrices"][name]
    entries = tuple(tuple(_entry_value(sym, q) for sym in row) for row in rows)
    return TranslationMatrix(tag=name, source="printed", entries=entries)


def printed_translation_matrices(q: GaussianRational) -> dict[str, TranslationMatrix]:
    data = _load("translation_matrices.json")
    return {name: printed_translation_matrix(name, q) for name in data["matrices"]}


def printed_spectrum(mode: str) -> list[complex]:
    data = _load("spectra.json")
    try:
        pairs = data["lists"][mode]
    except KeyError:
        raise KeyError(f"no reference spectrum for q mode {mode!r}") from None
    return [complex(re, im) for re, im in pairs]


def reconstructed_offdiagonal_scalars(mode: str) -> dict[str, complex]:
    """Off-diagonal Dirac connection scalars, adjudicated against the spectra.

    The reference table entries feeding these scalars are corrupted; the values
    here are reconstructed from the published eigenvalue lists.  The q=1 pair
    is an exact decode (tests/test_dirac.py::TestSpectra checks it against a
    closed-form oracle); provenance, including how the q=i pair was fitted, is
    carried in the fixture.
    """
    data = _load("dirac_scalars.json")
    try:
        entry = data["modes"][mode]
    except KeyError:
        raise KeyError(f"no reconstructed scalars for q mode {mode!r}") from None
    return {
        "s12": complex(entry["s12"][0], entry["s12"][1]),
        "s21": complex(entry["s21"][0], entry["s21"][1]),
    }
