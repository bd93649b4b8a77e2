import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ncgq import fixtures, sectors
from ncgq.cli import main
from ncgq.cmd_verify import BLAS_THREAD_VARIABLES, alongside

COMMITTED_FIXTURES = Path(fixtures.__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


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

    def test_q1_rejected_for_audit(self):
        # the audit has forms-level sections; q=1 used to run the q=i audit silently
        code, out, err = run_cli(["audit", "--q", "1"])
        assert code == 2
        assert not out
        assert err.count("\n") == 1 and "q=1 is an extrapolated spectral mode only" in err

    def test_generic_rejected_for_dirac(self):
        code, _, err = run_cli(["dirac", "--q", "generic"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_rejected(self, tol):
        code, out, err = run_cli(["dirac", "--q", "i", "--tol", tol])
        assert code == 2
        assert not out
        assert err.count("\n") == 1 and "invalid tolerance" in err


class TestParser:
    """The hand parser: one stderr line naming the bad token and exit 2, or the usage line."""

    @pytest.mark.parametrize("args, needle", [
        ([], "no command given"),
        (["frobnicate"], "'frobnicate'"),
        (["dirac", "--frob", "1"], "'--frob'"),
        (["dirac", "--form", "json"], "'--form'"),  # abbreviations are not accepted
        (["dirac", "--q"], "--q"),
        (["dirac", "--out", "--q", "i"], "'--q'"),
        (["dirac", "--tol", "abc"], "'abc'"),
        (["dirac", "--out", ""], "--out"),  # an empty file name would write to stdout
        (["dirac", "--out="], "--out"),
    ], ids=["no-arguments", "unknown-command", "unknown-flag", "abbreviation",
            "flag-without-value", "flag-as-value", "tolerance-not-a-number",
            "empty-out", "empty-out-after-equals"])
    def test_usage_error_is_one_line_naming_the_token(self, args, needle):
        code, out, err = run_cli(args)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert needle in err

    def test_equals_and_space_forms_give_identical_bytes(self):
        spaced, joined = run_cli(["curvature", "--q", "-i"]), run_cli(["curvature", "--q=-i"])
        assert spaced == joined and spaced[0] == 0 and json.loads(spaced[1])["q"] == "-i"

    def test_a_repeated_flag_keeps_its_last_value(self):
        assert run_cli(["dirac", "--q", "1", "--q", "generic"])[0] == 2
        assert run_cli(["dirac", "--q", "generic", "--q=1"]) == run_cli(["dirac", "--q", "1"])

    @pytest.mark.parametrize("args", [["-h"], ["--help"], ["dirac", "--help"]])
    def test_help_prints_the_usage_line(self, args):
        code, out, err = run_cli(args)
        assert (code, err) == (0, "")
        assert out.startswith("usage: ncgq {verify,connection,curvature,dirac,audit}")
        assert out.count("\n") == 1


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
        # the emitted order must not follow the solver's: the blocks' order is a choice of
        # basis, LAPACK's order differs between BLAS builds, and at q = +-i each eigenvalue
        # comes twice, so the matching may pair either copy with either list value
        plain, flipped = tmp_path / "plain.json", tmp_path / "flipped.json"
        assert run_cli(["dirac", "--q", q, "--out", str(plain)])[0] == exit_code
        solve = sectors.sector_eigenvalues

        def reversed_solve(matrix, mode):
            spec = solve(matrix, mode)
            spec.eigenvalues.reverse()
            spec.residuals.reverse()
            return spec

        monkeypatch.setattr(sectors, "sector_eigenvalues", reversed_solve)
        assert run_cli(["dirac", "--q", q, "--out", str(flipped)])[0] == exit_code
        assert plain.read_bytes() == flipped.read_bytes()

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


def _malformed(tmp_path) -> str:
    """A copy of the committed fixture directory in which no file is JSON."""
    broken = tmp_path / "fixtures"
    shutil.copytree(COMMITTED_FIXTURES, broken)
    for path in broken.glob("*.json"):
        _truncate(path)
    return str(broken)


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

    @pytest.mark.parametrize("command", ["dirac", "audit", "verify"])
    def test_a_cold_command_that_reads_a_malformed_fixture_exits_3(self, command, tmp_path):
        # cold, so FixtureError is found only among the modules the command itself loaded
        code, out, lines, report = run_cold([command, "--q", "i"], NCGQ_FIXTURES=_malformed(tmp_path))
        assert (code, out) == (3, b"")
        assert len(lines) == 1 and lines[0].startswith("fixture error: "), lines
        assert not report["child_left"]

    @pytest.mark.parametrize("command", ["connection", "curvature"])
    def test_connection_and_curvature_read_no_fixture(self, command, tmp_path):
        clean = run_cold([command, "--q", "i"])
        assert clean[0] == 0
        assert run_cold([command, "--q", "i"], NCGQ_FIXTURES=_malformed(tmp_path)) == clean

    def test_committed_fixtures_pass_their_shape_checks(self, tmp_path, monkeypatch):
        intact = tmp_path / "fixtures"
        shutil.copytree(COMMITTED_FIXTURES, intact)
        monkeypatch.setenv("NCGQ_FIXTURES", str(intact))
        code, _, err = run_cli(["dirac", "--q", "1"])
        assert code == 0, err


# a cold `ncgq` process entered as the console script enters it; after main
# returns it adds one last stderr line saying whether numpy was loaded and
# whether a child process is left
COLD_ENTRY = """
import json, os, sys
from ncgq.cli import main
code = main()
try:
    os.waitpid(-1, os.WNOHANG)
    child_left = True
except ChildProcessError:
    child_left = False
sys.stderr.write(json.dumps({"numpy": "numpy" in sys.modules, "child_left": child_left}) + "\\n")
sys.exit(code)
"""


def run_cold(args, **env):
    """(exit code, stdout bytes, stderr lines of the program, the entry's report)."""
    done = subprocess.run([sys.executable, "-c", COLD_ENTRY, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=120)
    *lines, report = done.stderr.decode().splitlines()
    return done.returncode, done.stdout, lines, json.loads(report)


# a cold `verify` whose forked child writes to the file named first the ncgq modules it has loaded
# as its spectral half starts and once that half is done; after main returns, a last stderr line
# says whether numpy was loaded
EARLY_FORK_ENTRY = """
import json, os, sys
import ncgq.verification

parent, seen, spectral_checks = os.getpid(), sys.argv.pop(1), ncgq.verification.spectral_checks


def spy(mode):
    if os.getpid() == parent:
        return spectral_checks(mode)
    started = sorted(m for m in sys.modules if m.startswith("ncgq"))
    value = spectral_checks(mode)
    with open(seen, "w") as fh:
        json.dump({"started": started, "done": sorted(m for m in sys.modules if m.startswith("ncgq"))}, fh)
    return value


ncgq.verification.spectral_checks = spy
from ncgq.cli import main
code = main()
sys.stderr.write(json.dumps({"numpy": "numpy" in sys.modules}) + "\\n")
sys.exit(code)
"""


class TestForkedSpectralHalf:
    """Cold `verify` computes its spectral half in a forked child.

    The parent never loads numpy, leaves no child behind and emits the bytes
    of the golden records.  A top-level numpy import in `verification` would
    turn the overlap off silently; these tests would catch it.  So would a
    top-level import of the exact stack in `cmd_verify` or `verification`,
    which the child would inherit, so that the halves took turns.
    """

    @pytest.mark.parametrize("command", ["verify --q i", "verify --q -i"])
    def test_cold_run_matches_golden_without_numpy_in_the_parent(self, command):
        _assert_golden_without_numpy(command)

    @pytest.mark.parametrize("command", ["verify"])
    def test_failing_child_gives_the_inline_error(self, command, tmp_path):
        # the child fails on the NaN; the parent's inline rerun reports it
        _assert_nan_spectrum_is_one_line_exit_3(command, tmp_path)

    @pytest.mark.parametrize("q", ["i", "-i"])
    def test_the_child_forks_before_the_parent_compiles_the_exact_half(self, q, tmp_path):
        seen = tmp_path / "child_modules.json"
        done = subprocess.run([sys.executable, "-c", EARLY_FORK_ENTRY, str(seen), "verify", "--q", q,
                               "--out", str(tmp_path / "verify.json")],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        *lines, report = done.stderr.decode().splitlines()
        assert done.returncode == 0, lines
        assert json.loads(report) == {"numpy": False}
        child = json.loads(seen.read_text())
        started, finished = set(child["started"]), set(child["done"])
        assert "ncgq.verification" in started
        assert not started & {"ncgq.algebra", "ncgq.calculus", "ncgq.riemannian"}, sorted(started)
        # the spectral half reads no exact arithmetic, so the child never compiles it
        assert {"ncgq.dirac", "ncgq.fixtures", "ncgq.sectors"} <= finished, sorted(finished)
        assert not finished & {"ncgq.scalars", "ncgq.constants"}, sorted(finished)


class TestColdAudit:
    """Cold `audit` runs in one process, with no numpy, and emits the golden bytes."""

    @pytest.mark.parametrize("command", ["audit --q i", "audit --q -i"])
    def test_cold_run_matches_golden_without_numpy(self, command):
        _assert_golden_without_numpy(command)

    def test_nan_in_a_spectrum_is_one_line_exit_3(self, tmp_path):
        _assert_nan_spectrum_is_one_line_exit_3("audit", tmp_path)


def _broken_fixtures(tmp_path, name, damage):
    """A copy of the committed fixtures in tmp_path with damage applied to the JSON of one file."""
    broken = tmp_path / "fixtures"
    shutil.copytree(COMMITTED_FIXTURES, broken)
    doc = json.loads((broken / name).read_text())
    damage(doc)
    (broken / name).write_text(json.dumps(doc))
    return str(broken)


def _off_its_sectors(doc):
    # a valid symbol in the wrong place: D no longer commutes with the left multiplications
    doc["matrices"]["alpha"][5][9] = "q^2"


def _overflowing_scalar(value):
    def damage(doc):
        doc["modes"]["-i"]["s12"][0] = value
    return damage


class TestSolverFailures:
    """A spectrum the solver cannot certify is exit 1 with one line on stderr, for `dirac` and `verify`."""

    def _assert_one_line_exit_1(self, args, fixtures, needle):
        code, out, lines, report = run_cold(args, NCGQ_FIXTURES=fixtures)
        assert (code, out) == (1, b""), lines
        assert len(lines) == 1 and lines[0].startswith("eigensolver failure: "), lines
        assert needle in lines[0] and "Traceback" not in lines[0]
        assert not report["child_left"]

    def _assert_one_line_exit_1_inline(self, args, fixtures, needle, monkeypatch):
        # in this process numpy is loaded, so verify runs its spectral half inline
        monkeypatch.setenv("NCGQ_FIXTURES", fixtures)
        code, out, err = run_cli(args)
        assert (code, out) == (1, "")
        assert err.startswith("eigensolver failure: ") and err.count("\n") == 1, err
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("q", ["i", "-i"])
    def test_a_matrix_off_its_sectors_is_one_line_exit_1(self, q, tmp_path):
        fixtures = _broken_fixtures(tmp_path, "translation_matrices.json", _off_its_sectors)
        for command in ("dirac", "verify"):  # verify forks its spectral half here
            self._assert_one_line_exit_1([command, "--q", q], fixtures, "not invariant")

    @pytest.mark.parametrize("value", [1e308, 1e200], ids=["1e308", "1e200"])
    def test_a_scalar_whose_roots_overflow_a_float_is_one_line_exit_1(self, value, tmp_path):
        fixtures = _broken_fixtures(tmp_path, "dirac_scalars.json", _overflowing_scalar(value))
        for args in (["dirac", "--q", "-i"], ["verify", "--q", "-i"]):
            self._assert_one_line_exit_1(args, fixtures, "float range")

    @pytest.mark.parametrize("q", ["i", "-i"])
    def test_verify_inline_of_a_matrix_off_its_sectors_is_one_line_exit_1(self, q, tmp_path,
                                                                          monkeypatch):
        fixtures = _broken_fixtures(tmp_path, "translation_matrices.json", _off_its_sectors)
        self._assert_one_line_exit_1_inline(["verify", "--q", q], fixtures, "not invariant",
                                            monkeypatch)

    def test_verify_inline_of_a_scalar_whose_roots_overflow_is_one_line_exit_1(self, tmp_path,
                                                                               monkeypatch):
        fixtures = _broken_fixtures(tmp_path, "dirac_scalars.json", _overflowing_scalar(1e308))
        self._assert_one_line_exit_1_inline(["verify", "--q", "-i"], fixtures, "float range",
                                            monkeypatch)


class TestAuditOfAnUncertifiedSpectrum:
    """`audit` reports a spectrum the solver cannot certify in its own row and exits 0."""

    def _audit(self, q, fixtures):
        code, out, lines, report = run_cold(["audit", "--q", q], NCGQ_FIXTURES=fixtures)
        assert (code, lines) == (0, []), lines
        assert not report["child_left"]
        return json.loads(out)

    @pytest.mark.parametrize("q", ["i", "-i"])
    def test_a_scalar_whose_roots_overflow_fails_only_its_row(self, q, tmp_path):
        intact = self._audit(q, str(COMMITTED_FIXTURES))
        fixtures = _broken_fixtures(tmp_path, "dirac_scalars.json", _overflowing_scalar(1e308))
        doc = self._audit(q, fixtures)
        assert doc["q_mode"] == intact["q_mode"] == q
        quantity = "spectrum reproduction at q=-i"
        assert [r for r in doc["rows"] if r["quantity"] != quantity] == \
            [r for r in intact["rows"] if r["quantity"] != quantity]
        failed, = (r for r in doc["rows"] if r["quantity"] == quantity)
        assert failed["verdict"] == "mismatch"
        assert failed["computed"].startswith("eigensolver failure: a value of the matrix's sectors "
                                             "leaves the float range")

    def test_a_matrix_off_its_sectors_fails_every_spectrum_row(self, tmp_path):
        # the misplaced symbol breaks D at q = 1, i and -i (and the printed-matrix rows)
        intact = self._audit("i", str(COMMITTED_FIXTURES))
        fixtures = _broken_fixtures(tmp_path, "translation_matrices.json", _off_its_sectors)
        doc = self._audit("i", fixtures)
        assert [r["quantity"] for r in doc["rows"]] == [r["quantity"] for r in intact["rows"]]
        spectra = [r for r in doc["rows"] if r["quantity"].startswith("spectrum reproduction")]
        assert len(spectra) == 3
        for row in spectra:
            assert row["verdict"] == "mismatch"
            assert row["computed"].startswith("eigensolver failure: sector ")
            assert "not invariant" in row["computed"]
        assert sum(doc["summary"].values()) == len(doc["rows"])


def _assert_golden_without_numpy(command):
    record = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"][command]
    code, out, lines, report = run_cold(command.split())
    assert (code, lines) == (record["exit_code"], [])
    assert hashlib.sha256(out).hexdigest() == record["sha256"]
    assert report == {"numpy": False, "child_left": False}


def _assert_nan_spectrum_is_one_line_exit_3(command, tmp_path):
    broken = tmp_path / "fixtures"
    shutil.copytree(COMMITTED_FIXTURES, broken)
    _set_number(broken / "spectra.json", float("nan"))
    code, out, lines, report = run_cold([command, "--q", "i"], NCGQ_FIXTURES=str(broken))
    assert code == 3
    assert out == b""
    assert len(lines) == 1 and lines[0].startswith("fixture error: ")
    assert "spectra.json" in lines[0] and "finite numbers" in lines[0]
    assert not report["child_left"]


# a cold `ncgq` process that writes, as its last stderr line, the modules it
# loaded beyond those the bare interpreter had loaded at startup (whatever its
# `site` imports), so the comparison holds on any interpreter
IMPORTS_ENTRY = """
import sys
bare = set(sys.modules)
from ncgq.cli import main
code = main()
sys.stderr.write(" ".join(sorted(set(sys.modules) - bare)) + "\\n")
sys.exit(code)
"""
NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext", "locale",
                "fractions", "decimal", "numbers"}
NOT_FOR_DIRAC = {"ncgq.algebra", "ncgq.calculus", "ncgq.riemannian", "ncgq.linalg", "ncgq.scalars",
                 "ncgq.constants", "numpy"}
DIRAC_PACKAGE = {"ncgq", "ncgq.cli", "ncgq.cmd_dirac", "ncgq.fixtures", "ncgq.dirac", "ncgq.sectors"}
# each command's handler module; a command loads its own and no other
HANDLERS = {f"ncgq.cmd_{name}" for name in ("verify", "connection", "curvature", "dirac", "audit")}
# the most ncgq source lines each cold command may load: every cold run compiles them, and the
# count, unlike wall time, repeats exactly
SOURCE_LINE_CEILINGS = {"dirac --q 1": 834, "dirac --q i": 834, "dirac --q -i": 834,
                        "connection --q i": 2206, "curvature --q i": 2095, "audit --q i": 3505,
                        "verify --q i": 2612, "verify --q generic": 2401}


def source_lines(modules) -> int:
    """The lines of the ncgq source files among the named modules."""
    paths = [SRC / "ncgq" / "__init__.py" if m == "ncgq" else SRC.joinpath(*m.split(".")).with_suffix(".py")
             for m in modules if m.split(".")[0] == "ncgq"]
    return sum(len(path.read_bytes().splitlines()) for path in paths)


class TestColdImports:
    """Each cold command loads only what it runs.

    In this process, that is: `verify`'s forked spectral half loads its own
    modules, numpy among them; `audit` forks no child, so it loads neither
    numpy nor the fork's pickle and signal.
    None loads argparse (with gettext and locale) or fractions (with decimal
    and numbers): the CLI reads its fixed grammar by hand, and a scalar makes
    a Fraction only when asked for one.  `curvature` needs no exact linalg.
    Run without `site`, the commands that need no numpy load neither pathlib
    nor typing: paths are strings, and annotations are never evaluated.
    Each loads at most its SOURCE_LINE_CEILINGS of ncgq source, and of the
    handler modules only its own.  `connection`, `curvature` and `verify
    --q generic` read no fixture, so they load no fixtures module; `audit`
    loads no verification module.
    """

    @pytest.mark.parametrize("command, exit_code", [
        ("dirac --q 1", 0), ("dirac --q i", 1), ("dirac --q -i", 1),
        ("connection --q i", 0), ("curvature --q i", 0), ("audit --q i", 0), ("verify --q i", 0),
        ("verify --q generic", 0),
    ])
    def test_loads_no_dataclasses_and_dirac_no_algebra(self, command, exit_code):
        done = subprocess.run([sys.executable, "-c", IMPORTS_ENTRY, *command.split()],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=120)
        *lines, loaded = done.stderr.decode().splitlines()
        loaded = set(loaded.split())
        assert done.returncode == exit_code, lines
        assert "ncgq.cli" in loaded and not loaded & NEVER_LOADED
        assert source_lines(loaded) <= SOURCE_LINE_CEILINGS[command]
        assert loaded & HANDLERS == {"ncgq.cmd_" + command.split()[0]}
        if command in ("connection --q i", "curvature --q i", "verify --q generic"):
            assert "ncgq.fixtures" not in loaded
        if command.startswith("audit"):
            assert "ncgq.verification" not in loaded
        if command.startswith("dirac"):
            assert not loaded & NOT_FOR_DIRAC
            assert {m for m in loaded if m.startswith("ncgq")} == DIRAC_PACKAGE
        if command.startswith("curvature"):
            assert "ncgq.linalg" not in loaded and "ncgq.riemannian" in loaded

    @pytest.mark.parametrize("command", ["audit --q i", "audit --q -i", "audit --q generic"])
    def test_audit_loads_no_pickle_signal_or_numpy(self, command):
        done = subprocess.run([sys.executable, "-c", IMPORTS_ENTRY, *command.split()],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=120)
        *lines, loaded = done.stderr.decode().splitlines()
        assert done.returncode == 0, lines
        assert "ncgq.audit" in loaded.split()
        assert not set(loaded.split()) & {"pickle", "signal", "numpy"}

    @pytest.mark.parametrize("command", ["dirac --q 1", "connection --q i", "curvature --q i", "audit --q i",
                                         "verify --q generic"])
    def test_loads_no_pathlib_or_typing_without_site(self, command):
        # -S: no `site`, so no .pth file of an installed package loads either module first
        done = subprocess.run([sys.executable, "-S", "-c", IMPORTS_ENTRY, *command.split()],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=120)
        *lines, loaded = done.stderr.decode().splitlines()
        loaded = set(loaded.split())
        assert done.returncode == 0, lines
        assert "ncgq.cli" in loaded and not loaded & {"pathlib", "typing"}

    def test_handler_modules_load_no_pathlib_or_typing_without_site(self):
        # verify's forked half needs numpy, which -S leaves off the path, so its handler is imported here
        program = (f"import sys, {', '.join(sorted(HANDLERS))}\n"
                   "print(sorted(m for m in ('pathlib', 'typing') if m in sys.modules))\n")
        done = subprocess.run([sys.executable, "-S", "-c", program], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_readme_layout_has_one_line_per_module():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1].splitlines()
    listed = [line.split()[0] for line in layout if line.startswith("  ") and line.split()[0].endswith(".py")]
    assert sorted(listed) == sorted(path.name for path in (SRC / "ncgq").glob("*.py"))
    assert len(layout) <= 35


# exercises alongside() in a cold process, where it forks; prints one JSON line
HELPER_PROGRAM = """
import json, os, signal, sys, time
from ncgq.cmd_verify import BLAS_THREAD_VARIABLES, alongside

parent = os.getpid()
inline = []


def value():
    if os.getpid() == parent:
        inline.append(1)
    return os.getpid()


def failing():
    value()
    raise LookupError("the spectral half failed")


def killed():
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return value()


def slow():
    time.sleep(600)


def blas_threads():
    return os.getpid(), [os.environ.get(v) for v in BLAS_THREAD_VARIABLES]


case = sys.argv[1]
out = {}
try:
    if case == "interrupted":
        with alongside(slow):
            raise KeyboardInterrupt
    elif case == "blas":
        with alongside(blas_threads) as join:
            pid, out["child_blas"] = join()
        out["in_child"] = pid != parent
        out["parent_blas"] = blas_threads()[1]
    else:
        with alongside({"value": value, "failing": failing, "killed": killed}[case]) as join:
            out["in_child"] = join() != parent
except (LookupError, KeyboardInterrupt) as exc:
    out["raised"] = type(exc).__name__
out["inline_runs"] = len(inline)
try:
    os.waitpid(-1, os.WNOHANG)
    out["child_left"] = True
except ChildProcessError:
    out["child_left"] = False
print(json.dumps(out))
"""


class TestAlongside:
    def _run(self, case, **env):
        done = subprocess.run([sys.executable, "-c", HELPER_PROGRAM, case], capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=60)
        assert done.returncode == 0 and not done.stderr, done.stderr
        return json.loads(done.stdout)

    def test_returns_the_value_the_child_computed(self):
        assert self._run("value") == {"in_child": True, "inline_runs": 0, "child_left": False}

    def test_a_raising_child_is_rerun_inline_and_raises_the_same(self):
        assert self._run("failing") == {"raised": "LookupError", "inline_runs": 1,
                                        "child_left": False}

    def test_a_killed_child_falls_back_to_inline(self):
        assert self._run("killed") == {"in_child": False, "inline_runs": 1, "child_left": False}

    def test_the_child_is_killed_and_reaped_when_the_caller_raises(self):
        # the child would sleep 600 s; the timeout above fails the test if it is waited for
        assert self._run("interrupted") == {"raised": "KeyboardInterrupt", "inline_runs": 0,
                                            "child_left": False}

    def test_the_child_asks_for_one_blas_thread(self, monkeypatch):
        for var in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(var, raising=False)
        assert self._run("blas") == {"in_child": True, "child_blas": ["1"] * 3,
                                     "parent_blas": [None] * 3, "inline_runs": 0,
                                     "child_left": False}

    def test_the_callers_blas_thread_count_wins(self):
        env = dict.fromkeys(BLAS_THREAD_VARIABLES, "3")
        assert self._run("blas", **env) == {"in_child": True, "child_blas": ["3"] * 3,
                                            "parent_blas": ["3"] * 3, "inline_runs": 0,
                                            "child_left": False}

    def test_runs_inline_once_numpy_is_loaded(self):
        assert "numpy" in sys.modules
        with alongside(os.getpid) as join:
            assert join() == os.getpid()


class TestOutputErrors:
    """An --out path that cannot be written is exit 4 with one line on stderr, and no temporary file."""

    def _check(self, args, parent, command="connection --q i"):
        code, out, err = run_cli([*command.split(), *args])
        assert code == 4
        assert not out
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert not list(parent.glob(".ncgq-*"))

    # every command at one mode; `verify --q i` forks its spectral half, `--q generic` does not
    @pytest.mark.parametrize("command", ["verify --q i", "verify --q generic", "connection --q i",
                                         "curvature --q i", "audit --q i", "dirac --q 1"])
    def test_out_is_a_directory(self, command, tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        self._check(["--out", str(target)], tmp_path, command)
        assert target.is_dir() and not any(target.iterdir())

    def test_out_is_a_symlink_loop(self, tmp_path):
        loop = tmp_path / "loop"
        os.symlink("loop", loop)
        self._check(["--out", str(loop)], tmp_path)
        assert loop.is_symlink() and os.readlink(loop) == "loop"
        assert [p.name for p in tmp_path.iterdir()] == ["loop"]

    def test_out_under_a_regular_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        self._check(["--out", str(blocker / "x.json")], tmp_path)
        assert blocker.read_text() == "kept\n"

    def test_out_is_a_fifo(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        self._check(["--out", str(fifo)], tmp_path)
        assert fifo.is_fifo()

    def test_run_as_a_module_too(self, tmp_path):
        # `python -m ncgq.cli` makes the file __main__, a second module with its own OutputError
        done = subprocess.run([sys.executable, "-m", "ncgq.cli", "dirac", "--q", "1", "--out", str(tmp_path)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=120)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr.startswith("output error: ") and done.stderr.count("\n") == 1, done.stderr
        assert not list(tmp_path.glob(".ncgq-*"))


class TestOutputFiles:
    """--out writes through a symlink and gives its file the mode a plain `open` would."""

    def _write(self, out):
        code, _, err = run_cli(["connection", "--q", "i", "--out", str(out)])
        assert code == 0, err
        return run_cli(["connection", "--q", "i"])[1]

    def test_a_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        os.symlink(target.name, link)
        expected = self._write(link)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == expected
        assert not list(tmp_path.glob(".ncgq-*"))

    def test_a_new_file_gets_0o666_less_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            self._write(tmp_path / "new.json")
        finally:
            os.umask(umask)
        assert (tmp_path / "new.json").stat().st_mode & 0o7777 == 0o640

    @pytest.mark.parametrize("mode", [0o644, 0o664], ids=["0644", "0664"])
    def test_a_replaced_file_keeps_its_mode(self, mode, tmp_path):
        out = tmp_path / "kept.json"
        out.write_text("old\n")
        out.chmod(mode)
        self._write(out)
        assert out.stat().st_mode & 0o7777 == mode


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


@pytest.mark.parametrize("q, mode", [("i", "i"), ("-i", "-i"), ("generic", "i")])
def test_audit_builds_one_calculus_and_one_reference_connection(q, mode, tmp_path, monkeypatch):
    # the Dirac rows reuse the calculus and connection of the exact sections
    from ncgq import audit, riemannian
    from ncgq.calculus import Calculus

    init, reference, built, connections = Calculus.__init__, riemannian.reference_connection, [], []

    def counted_init(self, algebra):
        built.append(algebra.mode)
        init(self, algebra)

    def counted_reference(cal):
        connections.append(cal.algebra.mode)
        return reference(cal)

    monkeypatch.setattr(Calculus, "__init__", counted_init)
    for module in (audit, riemannian):
        monkeypatch.setattr(module, "reference_connection", counted_reference)
    code, _, err = run_cli(["audit", "--q", q, "--out", str(tmp_path / "out.json")])
    assert code == 0, err
    assert built == [mode] and connections == [mode]
