"""The fixture loader, and the script that writes the committed fixtures."""
import copy
import functools
import importlib.util
import inspect
import json
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ncgq import fixtures
from ncgq.cli import main
from ncgq.scalars import q_root

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = Path(fixtures.__file__).resolve().parent / "fixtures"


def test_make_fixtures_reproduces_the_committed_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["spectra.json", "translation_matrices.json"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (COMMITTED / name).read_bytes(), name


# each program under scripts/ and the tier-1 test that runs it, so that no
# untested study lands there unnoticed
SCRIPT_TESTS = {"make_fixtures.py": test_make_fixtures_reproduces_the_committed_files}


def test_every_script_is_run_by_a_named_test():
    scripts = ROOT / "scripts"
    assert sorted(p.relative_to(scripts).as_posix() for p in scripts.rglob("*.py")) == sorted(SCRIPT_TESTS)
    for name, test in SCRIPT_TESTS.items():
        assert f'"{name}"' in inspect.getsource(test), name


def test_every_committed_fixture_is_read_and_schema_checked():
    # the loader checks each file it reads against fixtures._SHAPES, and reads no other file
    assert sorted(p.name for p in COMMITTED.glob("*.json")) == sorted(fixtures._SHAPES)


def test_loader_follows_a_changed_fixture_directory(tmp_path, monkeypatch):
    before = fixtures.printed_spectrum("1")
    changed = tmp_path / "fixtures"
    shutil.copytree(COMMITTED, changed)
    doc = json.loads((changed / "spectra.json").read_text())
    doc["lists"]["1"][0] = [123.0, 0.0]
    (changed / "spectra.json").write_text(json.dumps(doc))

    monkeypatch.setenv("NCGQ_FIXTURES", str(changed))
    assert fixtures.printed_spectrum("1") == [123 + 0j, *before[1:]]
    monkeypatch.undo()
    assert fixtures.printed_spectrum("1") == before


def test_translation_matrices_compare_and_hash_by_value():
    q2 = q_root("i") * q_root("i")
    a, b = fixtures.printed_translation_matrices(q2)["alpha"], fixtures.printed_translation_matrices(q2)["alpha"]
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != fixtures.printed_translation_matrices(q2)["beta"]


# -- the fixture fuzz: every leaf of a fixture file, replaced by each value of a fixed list ----------

FUZZ_VALUES = (0, -1, 1e308, 10**400, float("nan"), "x", None, [], {}, True)


def fixture_leaves(doc, path: tuple = ()) -> list[tuple[tuple, object]]:
    """[(path, value)] of every leaf of a JSON document, in document order.

    A path is the tuple of keys and list indices from the root; a leaf is any value that is not a
    non-empty object or list."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in fixture_leaves(value, path + (key,))]
    return [(path, doc)]


def with_leaf(doc, path: tuple, value):
    """A copy of doc whose leaf at path is value; doc itself is left as it is."""
    if not path:
        return value
    out = copy.copy(doc)
    out[path[0]] = with_leaf(doc[path[0]], path[1:], value)
    return out


def assert_every_value_ends_in_an_exit_code(name, doc, path, values, argv, codes, tmp_path, monkeypatch, capsys):
    """main(argv) exits with one of codes, raising nothing, with each value at doc's leaf in fixture
    file name; an exit of 3 writes one line on stderr, naming that file."""
    folder = tmp_path / "fixtures"
    shutil.copytree(COMMITTED, folder)
    monkeypatch.setenv("NCGQ_FIXTURES", str(folder))
    try:
        for value in values:
            (folder / name).write_text(json.dumps(with_leaf(doc, path, value)))
            fixtures._read.cache_clear()
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{value!r}: {exc!r} left main")
            err = capsys.readouterr().err
            assert code in codes, (value, code, err)
            if code == 3:
                assert err.count("\n") == 1 and err.startswith("fixture error: ") and name in err, (value, err)
    finally:
        fixtures._read.cache_clear()


DIRAC_SCALARS = json.loads((COMMITTED / "dirac_scalars.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [path for path, _ in fixture_leaves(DIRAC_SCALARS)],
                         ids=lambda path: "/".join(map(str, path)))
def test_every_value_in_a_dirac_scalars_leaf_ends_in_an_exit_code(path, tmp_path, monkeypatch, capsys):
    # dirac runs at the leaf's own mode, and at q = i for a leaf outside "modes"
    mode = path[1] if path[0] == "modes" else "i"
    assert_every_value_ends_in_an_exit_code("dirac_scalars.json", DIRAC_SCALARS, path, FUZZ_VALUES,
                                            ["dirac", "--q", mode], (0, 1, 3), tmp_path, monkeypatch, capsys)


def first_leaves(doc) -> list[tuple[tuple, object]]:
    """The leaves of fixture_leaves(doc) at index 0 of every list, but at both parts of an [re, im] pair."""
    def wanted(path):
        *head, last = path
        parent = functools.reduce(operator.getitem, head, doc)
        pair = isinstance(parent, list) and len(parent) == 2 and all(isinstance(x, float) for x in parent)
        return all(k == 0 for k in head if isinstance(k, int)) and (last == 0 or pair or isinstance(last, str))
    return [(path, value) for path, value in fixture_leaves(doc) if wanted(path)]


SAMPLED_FIXTURES = {name: json.loads((COMMITTED / name).read_text(encoding="utf-8"))
                    for name in ("spectra.json", "translation_matrices.json")}
FIXTURE_DOCS = {**SAMPLED_FIXTURES, "dirac_scalars.json": DIRAC_SCALARS}


def leaf_values(path: tuple, leaf) -> tuple:
    """The values a fuzzed leaf takes: FUZZ_VALUES, and for a matrix entry each other entry symbol."""
    if path[0] == "matrices":
        return FUZZ_VALUES + tuple(sorted(set(fixtures.ENTRY_SYMBOLS) - {leaf}))
    return FUZZ_VALUES


@pytest.mark.parametrize("name, path, leaf", [
    pytest.param(name, path, leaf, id="/".join(map(str, (name, *path))))
    for name, doc in SAMPLED_FIXTURES.items() for path, leaf in first_leaves(doc)])
def test_every_value_in_a_spectra_or_matrices_leaf_ends_in_an_exit_code(
        name, path, leaf, tmp_path, monkeypatch, capsys):
    # dirac runs at the leaf's own mode, and at q = i for a leaf outside "lists"
    mode = path[1] if path[0] == "lists" else "i"
    assert_every_value_ends_in_an_exit_code(name, SAMPLED_FIXTURES[name], path, leaf_values(path, leaf),
                                            ["dirac", "--q", mode], (0, 1, 3), tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("name, path", [
    pytest.param(name, path, id="/".join(map(str, (name, *path)))) for name, path in (
        ("translation_matrices.json", ("matrices", "alpha", 0, 0)), ("spectra.json", ("lists", "i", 0, 0)),
        ("dirac_scalars.json", ("modes", "i", "s12", 0)))])
def test_every_value_in_a_sampled_leaf_ends_audit_in_an_exit_code(name, path, tmp_path, monkeypatch, capsys):
    # one leaf per file, under `audit`, which reports a bad spectrum in its rows and exits 0;
    # fuzz/ runs audit and verify over every leaf that the tests above sample
    leaf = functools.reduce(operator.getitem, path, FIXTURE_DOCS[name])
    assert_every_value_ends_in_an_exit_code(name, FIXTURE_DOCS[name], path, leaf_values(path, leaf),
                                            ["audit", "--q", "i"], (0, 3), tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("name", sorted(FIXTURE_DOCS))
def test_a_boolean_version_is_a_fixture_error(name, tmp_path, monkeypatch, capsys):
    # True == 1 in Python: the version must be an int that is not a bool
    assert_every_value_ends_in_an_exit_code(name, FIXTURE_DOCS[name], ("version",), (True,),
                                            ["dirac", "--q", "i"], (3,), tmp_path, monkeypatch, capsys)


def test_a_boolean_version_fails_a_cold_verify_through_its_forked_child(tmp_path):
    # a cold verify forks its spectral half, which reads dirac_scalars.json; the child fails, and the
    # parent computes that half again in process, where the fixture error reaches main
    shutil.copytree(COMMITTED, tmp_path, dirs_exist_ok=True)
    (tmp_path / "dirac_scalars.json").write_text(json.dumps(with_leaf(DIRAC_SCALARS, ("version",), True)))
    done = subprocess.run([sys.executable, "-m", "ncgq.cli", "verify", "--q", "i"], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                            "NCGQ_FIXTURES": str(tmp_path)})
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("fixture error: ")
    assert "dirac_scalars.json" in done.stderr


def test_the_recorded_q_i_max_match_distance_is_the_computed_one():
    from ncgq.dirac import spectrum_pipeline

    _, _, report = spectrum_pipeline("i")
    assert DIRAC_SCALARS["qi_fit"]["max_match_distance"] == round(report.max_distance, 4)
