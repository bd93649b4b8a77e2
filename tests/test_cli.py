import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgq import fixtures, sectors
from ncgq.cli import alongside, main
from ncgq.dirac import build_dirac

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
    ], ids=["no-arguments", "unknown-command", "unknown-flag", "abbreviation",
            "flag-without-value", "flag-as-value", "tolerance-not-a-number"])
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
        # the emitted order must not follow the solver's: the blocks' order is a
        # choice of basis, and LAPACK's order differs between BLAS builds
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
        a, b = json.loads(plain.read_text()), json.loads(flipped.read_text())
        assert a["eigenvalues"] == b["eigenvalues"]
        tol = 1e-9 * np.linalg.norm(np.array(build_dirac(q).matrix), 2)
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


class TestForkedSpectralHalf:
    """Cold `verify` and `audit` compute their spectral half in a forked child.

    The parent never loads numpy, leaves no child behind and emits the bytes
    of the golden records.  A top-level numpy import in `verification` or
    `audit` would turn the overlap off silently; these tests would catch it.
    """

    @pytest.mark.parametrize("command", ["verify --q i", "verify --q -i",
                                         "audit --q i", "audit --q -i"])
    def test_cold_run_matches_golden_without_numpy_in_the_parent(self, command):
        record = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"][command]
        code, out, lines, report = run_cold(command.split())
        assert (code, lines) == (record["exit_code"], [])
        assert hashlib.sha256(out).hexdigest() == record["sha256"]
        assert report == {"numpy": False, "child_left": False}

    @pytest.mark.parametrize("command", ["verify", "audit"])
    def test_failing_child_gives_the_inline_error(self, command, tmp_path):
        # the child fails on the NaN; the parent's inline rerun reports it
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
NOT_FOR_DIRAC = {"ncgq.algebra", "ncgq.calculus", "ncgq.riemannian", "ncgq.linalg", "numpy"}
DIRAC_PACKAGE = {"ncgq", "ncgq.cli", "ncgq.scalars", "ncgq.fixtures", "ncgq.constants",
                 "ncgq.dirac", "ncgq.sectors"}


class TestColdImports:
    """Each cold command loads only what it runs.

    In this process, that is: forked children (the spectral halves of
    `verify` and `audit`) load their own modules, numpy in `verify`'s.
    None loads argparse (with gettext and locale) or fractions (with decimal
    and numbers): the CLI reads its fixed grammar by hand, and a scalar makes
    a Fraction only when asked for one.  `curvature` needs no exact linalg.
    Run without `site`, the commands that need no numpy load neither pathlib
    nor typing: paths are strings, and annotations are never evaluated.
    """

    @pytest.mark.parametrize("command, exit_code", [
        ("dirac --q 1", 0), ("dirac --q i", 1), ("dirac --q -i", 1),
        ("connection --q i", 0), ("curvature --q i", 0), ("audit --q i", 0), ("verify --q i", 0),
    ])
    def test_loads_no_dataclasses_and_dirac_no_algebra(self, command, exit_code):
        done = subprocess.run([sys.executable, "-c", IMPORTS_ENTRY, *command.split()],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=120)
        *lines, loaded = done.stderr.decode().splitlines()
        loaded = set(loaded.split())
        assert done.returncode == exit_code, lines
        assert "ncgq.cli" in loaded and not loaded & NEVER_LOADED
        if command.startswith("dirac"):
            assert not loaded & NOT_FOR_DIRAC
            assert {m for m in loaded if m.startswith("ncgq")} == DIRAC_PACKAGE
        if command.startswith("curvature"):
            assert "ncgq.linalg" not in loaded and "ncgq.riemannian" in loaded

    @pytest.mark.parametrize("command", ["dirac --q 1", "connection --q i", "curvature --q i", "audit --q i"])
    def test_loads_no_pathlib_or_typing_without_site(self, command):
        # -S: no `site`, so no .pth file of an installed package loads either module first
        done = subprocess.run([sys.executable, "-S", "-c", IMPORTS_ENTRY, *command.split()],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                              timeout=120)
        *lines, loaded = done.stderr.decode().splitlines()
        loaded = set(loaded.split())
        assert done.returncode == 0, lines
        assert "ncgq.cli" in loaded and not loaded & {"pathlib", "typing"}


# exercises alongside() in a cold process, where it forks; prints one JSON line
HELPER_PROGRAM = """
import json, os, signal, sys, time
from ncgq.cli import alongside

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


case = sys.argv[1]
out = {}
try:
    if case == "interrupted":
        with alongside(slow):
            raise KeyboardInterrupt
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
    def _run(self, case):
        done = subprocess.run([sys.executable, "-c", HELPER_PROGRAM, case], capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
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

    def test_runs_inline_once_numpy_is_loaded(self):
        assert "numpy" in sys.modules
        with alongside(os.getpid) as join:
            assert join() == os.getpid()


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
