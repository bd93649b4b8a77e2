import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgq import fixtures
from ncgq.cli import main
from ncgq.dirac import build_dirac

COMMITTED_FIXTURES = Path(fixtures.__file__).resolve().parent / "fixtures"


def run_cli(args):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestConfigValidation:
    def test_invalid_q_mode(self):
        code, _, err = run_cli(["verify", "--q", "2"])
        assert code == 2
        assert "invalid q mode" in err

    def test_q1_rejected_for_connection(self):
        code, _, err = run_cli(["connection", "--q", "1"])
        assert code == 2

    def test_generic_rejected_for_dirac(self):
        code, _, err = run_cli(["dirac", "--q", "generic"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_rejected(self, tol):
        code, out, err = run_cli(["dirac", "--q", "i", "--tol", tol])
        assert code == 2
        assert not out
        assert err.count("\n") == 1 and "invalid tolerance" in err


class TestCommands:
    def test_connection_emits_16_exact_coefficients(self, tmp_path):
        out = tmp_path / "conn.json"
        code, _, _ = run_cli(["connection", "--q", "i", "--format", "json",
                              "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        coeffs = doc["results"]["i"]["connection"]
        assert len(coeffs) == 16
        assert coeffs["b b"] == "-11/17+7/17*i"
        assert doc["results"]["i"]["system"]["consistent"] is False

    def test_dirac_emits_spectrum_schema(self, tmp_path):
        out = tmp_path / "spec.json"
        code, _, _ = run_cli(["dirac", "--q", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["q"] == "1"
        assert doc["normalization"] == "unnormalized"
        assert doc["reference"] == "paper-prop4"
        assert len(doc["eigenvalues"]) == 32
        assert doc["max_match_distance"] <= 1e-3
        assert doc["extrapolated"] is True

    def test_audit_has_no_missing_sections(self, tmp_path):
        out = tmp_path / "audit.json"
        code, _, _ = run_cli(["audit", "--q", "i", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        sections = {row["section"] for row in doc["rows"]}
        assert sections == {"algebra", "calculus", "riemannian", "dirac"}
        quantities = " | ".join(row["quantity"] for row in doc["rows"])
        for needle in ("translation matrix alpha", "translation matrix beta",
                       "translation matrix beta_star", "R_delta = R_alpha",
                       "structure constants", "nu closed form", "xi closed form",
                       "covariant derivative of e_a", "curvature of e_a",
                       "connection-term entry", "spectrum reproduction"):
            assert needle in quantities
        for row in doc["rows"]:
            assert row["verdict"] in ("match", "mismatch", "unparseable")

    @pytest.mark.parametrize("q, exit_code", [("1", 0), ("i", 1), ("-i", 1)])
    def test_dirac_eigenvalue_order_is_canonical(self, tmp_path, monkeypatch, q, exit_code):
        # the emitted order must not follow LAPACK's, which differs between BLAS builds
        plain, flipped = tmp_path / "plain.json", tmp_path / "flipped.json"
        assert run_cli(["dirac", "--q", q, "--out", str(plain)])[0] == exit_code
        eig = np.linalg.eig

        def reversed_eig(matrix):
            lam, vecs = eig(matrix)
            return lam[::-1], vecs[:, ::-1]

        monkeypatch.setattr(np.linalg, "eig", reversed_eig)
        assert run_cli(["dirac", "--q", q, "--out", str(flipped)])[0] == exit_code
        a, b = json.loads(plain.read_text()), json.loads(flipped.read_text())
        assert a["eigenvalues"] == b["eigenvalues"]
        tol = 1e-9 * np.linalg.norm(build_dirac(q).matrix, 2)
        for key in ("max_match_distance", "mean_match_distance"):
            assert abs(a[key] - b[key]) <= tol

    def test_dirac_qi_exit_code_reflects_tolerance(self, tmp_path):
        # the q=i reference list is not reproducible to 1e-3 (see audit);
        # the artifact is still written and the exit code reports the failure
        out = tmp_path / "spec_i.json"
        code, _, _ = run_cli(["dirac", "--q", "i", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert len(doc["eigenvalues"]) == 32
        assert doc["max_match_distance"] > 1e-3

    def test_dirac_tolerance_override(self, tmp_path):
        out = tmp_path / "spec_i2.json"
        code, _, _ = run_cli(["dirac", "--q", "i", "--tol", "1.0", "--out", str(out)])
        assert code == 0

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["connection", "--q", "i", "--out", str(a)])
        run_cli(["connection", "--q", "i", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_text_format(self):
        code, out, _ = run_cli(["connection", "--q", "i", "--format", "text"])
        assert code == 0
        assert "A_b^b" in out


class TestVerify:
    def test_generic_runs_forms_level(self):
        code, out, _ = run_cli(["verify", "--q", "generic", "--format", "text"])
        assert code == 0
        assert "metric symmetry" in out

    def test_full_suite_at_i(self):
        code, out, _ = run_cli(["verify", "--q", "i", "--format", "text"])
        assert code == 0, out


class TestMinusIMode:
    def test_minus_i_accepted_with_space_separated_flag(self):
        code, out, _ = run_cli(["curvature", "--q", "-i"])
        assert code == 0
        assert json.loads(out)["q"] == "-i"

    def test_minus_i_dirac(self, tmp_path):
        out = tmp_path / "m.json"
        code, _, _ = run_cli(["dirac", "--q", "-i", "--tol", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["q"] == "-i"


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[:200])


def _drop_matrix_row(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["matrices"]["beta"].pop()
    path.write_text(json.dumps(doc))


def _bad_symbol(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["matrices"]["alpha"][3][5] = "q^3"
    path.write_text(json.dumps(doc))


def _short_spectrum(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["lists"]["i"] = doc["lists"]["i"][:31]
    path.write_text(json.dumps(doc))


def _set_number(path: Path, value) -> None:
    doc = json.loads(path.read_text())
    if path.name == "spectra.json":
        doc["lists"]["i"][5][0] = value
    else:
        doc["modes"]["i"]["s21"][1] = value
    path.write_text(json.dumps(doc))


class TestFixtureErrors:
    """A broken fixture is exit 3 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize("name, damage, needle", [
        ("spectra.json", _truncate, "spectra.json"),
        ("dirac_scalars.json", Path.unlink, "dirac_scalars.json"),
        ("translation_matrices.json", _drop_matrix_row, "matrix beta is not 16x16"),
        ("translation_matrices.json", _bad_symbol, "matrix alpha has an entry outside"),
        ("spectra.json", _short_spectrum, "list i is not 32 [re, im] pairs"),
    ])
    def test_broken_fixture_exits_3(self, tmp_path, monkeypatch, name, damage, needle):
        broken = tmp_path / "fixtures"
        shutil.copytree(COMMITTED_FIXTURES, broken)
        damage(broken / name)
        monkeypatch.setenv("NCGQ_FIXTURES", str(broken))
        code, out, err = run_cli(["dirac", "--q", "1"])
        assert code == 3
        assert not out
        assert err.startswith("fixture error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("command", ["dirac", "audit", "verify"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400],
                             ids=["NaN", "Infinity", "huge-integer"])
    @pytest.mark.parametrize("name", ["spectra.json", "dirac_scalars.json"])
    def test_non_finite_number_exits_3(self, tmp_path, monkeypatch, name, value, command):
        # JSON parsing accepts NaN, Infinity and integers no float can hold;
        # before the check the spectral match ended in a traceback
        broken = tmp_path / "fixtures"
        shutil.copytree(COMMITTED_FIXTURES, broken)
        _set_number(broken / name, value)
        monkeypatch.setenv("NCGQ_FIXTURES", str(broken))
        code, out, err = run_cli([command, "--q", "i"])
        assert code == 3
        assert not out
        assert err.startswith("fixture error: ") and err.count("\n") == 1
        assert name in err and "finite numbers" in err

    def test_committed_fixtures_pass_their_shape_checks(self, tmp_path, monkeypatch):
        intact = tmp_path / "fixtures"
        shutil.copytree(COMMITTED_FIXTURES, intact)
        monkeypatch.setenv("NCGQ_FIXTURES", str(intact))
        code, _, err = run_cli(["dirac", "--q", "1"])
        assert code == 0, err


class TestOutputErrors:
    """An --out path that cannot be written is exit 4 with one line on stderr."""

    def _check(self, args, parent):
        code, out, err = run_cli(["connection", "--q", "i", *args])
        assert code == 4
        assert not out
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert not list(parent.glob(".ncgq-*"))

    def test_out_is_a_directory(self, tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        self._check(["--out", str(target)], tmp_path)
        assert target.is_dir() and not any(target.iterdir())

    def test_out_under_a_regular_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        self._check(["--out", str(blocker / "x.json")], tmp_path)
        assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command, q, builds", [
    ("verify", "i", 0), ("curvature", "i", 0), ("connection", "i", 1),
    ("connection", "generic", 2), ("audit", "i", 1),
])
def test_each_report_assembles_the_connection_system_once_per_mode(
        command, q, builds, tmp_path, monkeypatch):
    from ncgq.riemannian import ConnectionAssembler

    assemble, calls = ConnectionAssembler.assemble, []

    def counted(self):
        calls.append(self.calculus.algebra.mode)
        return assemble(self)

    monkeypatch.setattr(ConnectionAssembler, "assemble", counted)
    code, _, err = run_cli([command, "--q", q, "--out", str(tmp_path / "out.json")])
    assert code == 0, err
    assert len(calls) == builds and len(set(calls)) == builds
