"""The fixture loader, and the script that writes the committed fixtures."""
import importlib.util
import json
import shutil
from pathlib import Path

from ncgq import fixtures
from ncgq.constants import (CONNECTION_DB_DENOMINATOR_TAIL, CONNECTION_DB_NUMERATOR,
                            CONNECTION_PRINTED, CONNECTION_PROOF_ZEROS,
                            CONNECTION_UNPRINTED)
from ncgq.scalars import RationalFunctionQ

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = Path(fixtures.__file__).resolve().parent / "fixtures"


def test_make_fixtures_reproduces_the_committed_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["connection_table.json", "spectra.json", "translation_matrices.json"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (COMMITTED / name).read_bytes(), name


def test_connection_table_matches_the_constants():
    # two transcriptions of one printed table: the JSON fixture and constants.py
    table = json.loads((COMMITTED / "connection_table.json").read_text())
    entries = {tuple(k.split()): v for k, v in table["entries"].items()}
    assert entries.keys() == CONNECTION_PRINTED.keys()
    for key, v in entries.items():
        # nothing is reduced, so the printed coefficients match exactly, not only as functions
        f = CONNECTION_PRINTED[key]
        assert (f.num, f.den) == (tuple(v["num"]), tuple(v["den"]))
        assert f == RationalFunctionQ(v["num"], v["den"])
    assert [tuple(k.split()) for k in table["proof_zeros"]] == list(CONNECTION_PROOF_ZEROS)
    assert [tuple(k.split()) for k in table["unprinted"]] == list(CONNECTION_UNPRINTED)
    assert list(table["corrupted"]) == ["d b"]
    corrupted = table["corrupted"]["d b"]
    assert CONNECTION_DB_NUMERATOR.num == tuple(corrupted["num"])
    assert CONNECTION_DB_NUMERATOR == RationalFunctionQ(corrupted["num"])
    assert tuple(corrupted["den_readable_tail"]) == CONNECTION_DB_DENOMINATOR_TAIL


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
