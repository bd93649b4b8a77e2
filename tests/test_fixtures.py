"""The fixture loader, and the script that writes the committed fixtures."""
import importlib.util
import inspect
import json
import shutil
from pathlib import Path

from ncgq import fixtures
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
