"""The full fixture fuzz (not part of tier-1): `audit` and `verify` at q = i and -i, over every leaf
that the fuzz of tests/test_fixtures.py samples.

    PYTHONPATH=src python -m pytest fuzz -q

Each leaf of `first_leaves` (every leaf of dirac_scalars.json, and index 0 of every list of the other
two files) takes each of its `leaf_values`; every run must end in an exit code of its command,
raising nothing, and an exit of 3 must write one stderr line naming the file.  numpy is loaded first,
so `verify` computes its spectral half in this process, where an escaping exception would show,
instead of in a forked child.  Tier-1 keeps one leaf per file under `audit --q i`.
"""
import sys
from pathlib import Path

import numpy  # noqa: F401  loaded first: `verify` then runs its spectral half in this process
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_fixtures import (FIXTURE_DOCS, assert_every_value_ends_in_an_exit_code,  # noqa: E402
                           first_leaves, leaf_values)

# audit reports a bad spectrum or eigensolve in its rows; verify fails a check with 1
EXIT_CODES = {"audit": (0, 3), "verify": (0, 1, 3)}


@pytest.mark.parametrize("command", sorted(EXIT_CODES))
@pytest.mark.parametrize("mode", ["i", "-i"])
@pytest.mark.parametrize("name, path, leaf", [
    pytest.param(name, path, leaf, id="/".join(map(str, (name, *path))))
    for name, doc in FIXTURE_DOCS.items() for path, leaf in first_leaves(doc)])
def test_every_value_in_a_leaf_ends_in_an_exit_code(name, path, leaf, mode, command, tmp_path, monkeypatch, capsys):
    assert_every_value_ends_in_an_exit_code(name, FIXTURE_DOCS[name], path, leaf_values(path, leaf),
                                            [command, "--q", mode], EXIT_CODES[command],
                                            tmp_path, monkeypatch, capsys)
