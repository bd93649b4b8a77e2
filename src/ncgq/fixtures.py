"""Loaders for the versioned reference-data fixtures (JSON, tagged source: paper).

The fixture directory can be overridden with the NCGQ_FIXTURES environment
variable so audits can be pointed at alternative transcriptions.  Each file is
checked against its expected shape when it is read; a missing, unreadable or
malformed file raises FixtureError.
"""
from __future__ import annotations

import json
import math
import os
from functools import lru_cache

from .scalars import ONE, ZERO, GaussianRational


def fixture_dir() -> str:
    return _resolved_dir(os.environ.get("NCGQ_FIXTURES") or None)


@lru_cache(maxsize=None)
def _resolved_dir(env: str | None) -> str:
    """The fixture directory for one value of NCGQ_FIXTURES (None: the package's own), resolved once."""
    return os.path.realpath(env or os.path.join(os.path.dirname(os.path.realpath(__file__)), "fixtures"))


class FixtureError(ValueError):
    """A fixture file that is missing, not JSON, or not of its expected shape."""


class TranslationMatrix:
    """16x16 matrix of right multiplication: column j holds monomial_j * g; compared by value."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries  # tuple of 16 row-tuples of GaussianRational

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        return self.entries[ij[0]][ij[1]]

    def rows(self) -> list[list[GaussianRational]]:
        return [list(r) for r in self.entries]


# the four entries a fixture matrix may hold, as functions of q
ENTRY_SYMBOLS = {
    "0": lambda q: ZERO,
    "1": lambda q: ONE,
    "q^2": lambda q: q * q,
    "-q^2": lambda q: -(q * q),
}
MATRIX_NAMES = ("alpha", "beta", "beta_star", "delta")
SPECTRAL_MODES = ("1", "i", "-i")


def _load(name: str) -> dict:
    return _read(os.path.join(fixture_dir(), name))


@lru_cache(maxsize=None)
def _read(path: str) -> dict:
    # keyed by path in the resolved directory, so a changed NCGQ_FIXTURES is honoured mid-process
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise FixtureError(f"{path}: {exc}") from None
    problem = _SHAPES[os.path.basename(path)](data) if isinstance(data, dict) else "not a JSON object"
    if problem:
        raise FixtureError(f"{path}: {problem}")
    return data


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_finite_number, x))


def _is_finite_number(v) -> bool:
    # JSON parsing accepts NaN and Infinity; an int too large for a float
    # would only fail later, in complex()
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _version_problem(data: dict) -> str | None:
    return None if data.get("version") == 1 else "version is not 1"


def _translation_matrices_problem(data: dict) -> str | None:
    matrices = data.get("matrices")
    if not isinstance(matrices, dict) or sorted(matrices) != sorted(MATRIX_NAMES):
        return f"matrices must be exactly {', '.join(MATRIX_NAMES)}"
    for name, rows in matrices.items():
        if not (isinstance(rows, list) and len(rows) == 16
                and all(isinstance(row, list) and len(row) == 16 for row in rows)):
            return f"matrix {name} is not 16x16"
        if not all(isinstance(sym, str) and sym in ENTRY_SYMBOLS for row in rows for sym in row):
            return f"matrix {name} has an entry outside {sorted(ENTRY_SYMBOLS)}"
    return _version_problem(data)


def _spectra_problem(data: dict) -> str | None:
    lists = data.get("lists")
    if not isinstance(lists, dict) or not all(m in lists for m in SPECTRAL_MODES):
        return f"lists must hold the modes {', '.join(SPECTRAL_MODES)}"
    for mode, pairs in lists.items():
        if not (isinstance(pairs, list) and len(pairs) == 32 and all(map(_is_pair, pairs))):
            return f"list {mode} is not 32 [re, im] pairs of finite numbers"
    return _version_problem(data)


def _dirac_scalars_problem(data: dict) -> str | None:
    modes = data.get("modes")
    if not isinstance(modes, dict) or not all(m in modes for m in SPECTRAL_MODES):
        return f"modes must hold {', '.join(SPECTRAL_MODES)}"
    for mode, entry in modes.items():
        if not (isinstance(entry, dict) and _is_pair(entry.get("s12")) and _is_pair(entry.get("s21"))):
            return f"mode {mode} needs s12 and s21 as [re, im] pairs of finite numbers"
    return _version_problem(data)


_SHAPES = {
    "translation_matrices.json": _translation_matrices_problem,
    "spectra.json": _spectra_problem,
    "dirac_scalars.json": _dirac_scalars_problem,
}


def printed_translation_matrix(name: str, q: GaussianRational) -> TranslationMatrix:
    """One of the reference right-translation matrices, evaluated at q."""
    data = _load("translation_matrices.json")
    rows = data["matrices"][name]
    values = {sym: f(q) for sym, f in ENTRY_SYMBOLS.items()}
    entries = tuple(tuple(values[sym] for sym in row) for row in rows)
    return TranslationMatrix(entries=entries)


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
