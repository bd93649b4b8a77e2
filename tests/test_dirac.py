import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgq import dirac, linalg
from ncgq.algebra import QuantumAlgebra, basis_monomials
from ncgq.calculus import Calculus
from ncgq.dirac import (DiracMatrix, EigensolverError, MatchReport, Spectrum,
                        a_slash_first_principles, a_slash_printed, build_dirac,
                        compare_spectrum, diagonal_scalars, eigenvalues,
                        gamma_matrix, spectrum_pipeline)
from ncgq.fixtures import printed_spectrum, printed_translation_matrices
from ncgq.riemannian import SpinConnection, reference_connection, reference_connection_values
from ncgq.scalars import ZERO, GaussianRational, q_root


class TestGammaMap:
    def test_elementary_matrices(self):
        assert gamma_matrix("a") == [[1, 0], [0, 0]]
        assert gamma_matrix("b") == [[0, 1], [0, 0]]
        assert gamma_matrix("c") == [[0, 0], [1, 0]]
        assert gamma_matrix("d") == [[0, 0], [0, 1]]


class TestConnectionTerm:
    def test_diagonal_scalars_at_one(self):
        d = diagonal_scalars("1")
        assert d["s11"] == GaussianRational(4)
        assert d["s22"] == GaussianRational(6)

    def test_diagonal_scalars_at_i(self):
        d = diagonal_scalars("i")
        assert d["s11"] == GaussianRational("-14/17", "12/17")
        assert d["s22"] == GaussianRational("4/17", "16/17")

    def test_printed_matrix_uses_beta_value(self):
        # the reference proof takes the connection applied to the projected
        # inverse-antipode of the off-diagonal generator to be -q^2 A_c
        cal = Calculus(QuantumAlgebra("i"))
        conn = reference_connection(cal)
        from ncgq.dirac import a_slash_generator_values_printed

        vals = a_slash_generator_values_printed(conn, cal.algebra.q)
        q2 = cal.algebra.q2
        for f in ("a", "b", "c", "d"):
            assert vals["beta"][f] == -q2 * conn.entry("c", f)

    def test_first_principles_comparison_is_exact_and_differs(self):
        cal = Calculus(QuantumAlgebra("i"))
        conn = reference_connection(cal)
        printed = a_slash_printed(conn, cal.algebra.q)
        fp = a_slash_first_principles(cal, conn)
        assert set(printed) == set(fp) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        # the operational algebra reproduces neither projection value for the
        # dependent generators, so the entries disagree and the audit records it
        assert printed != fp


class TestEigensolver:
    def test_identity(self):
        spec = eigenvalues(np.eye(32), mode="test")
        assert all(abs(z - 1) < 1e-12 for z in spec.eigenvalues)

    def test_diagonal(self):
        m = np.diag(np.arange(1, 33, dtype=complex))
        spec = eigenvalues(m, mode="test")
        got = sorted(z.real for z in spec.eigenvalues)
        assert np.allclose(got, np.arange(1, 33))

    def test_companion_embedding(self):
        m = np.zeros((32, 32), dtype=complex)
        m[0, 1] = 1.0
        m[1, 0] = 1.0  # 2x2 companion of z^2 - 1
        for k in range(2, 32):
            m[k, k] = 5.0
        spec = eigenvalues(m, mode="test")
        vals = sorted(z.real for z in spec.eigenvalues)[:2]
        assert np.allclose(vals, [-1.0, 1.0])

    def test_residual_contract(self):
        dm = build_dirac("i")
        spec = eigenvalues(dm.matrix, mode="i")
        assert spec.max_residual() <= 1e-9 * spec.matrix_norm

    def test_nonfinite_rejected(self):
        m = np.eye(4)
        m[0, 0] = np.nan
        with pytest.raises(EigensolverError):
            eigenvalues(m)


class TestCompareSpectrum:
    def test_identical_lists(self):
        ref = printed_spectrum("i")
        spec = Spectrum(mode="i", eigenvalues=list(ref), residuals=[0.0] * 32,
                        matrix_norm=1.0)
        rep = compare_spectrum(spec, ref)
        assert rep.max_distance == 0.0

    def test_conjugate_list_relation(self):
        # the reference -i list is stated to be the conjugate of the i list
        a = printed_spectrum("i")
        b = printed_spectrum("-i")
        spec = Spectrum(mode="-i", eigenvalues=[z.conjugate() for z in a],
                        residuals=[0.0] * 32, matrix_norm=1.0)
        assert compare_spectrum(spec, b).max_distance == 0.0

    def test_length_mismatch(self):
        spec = Spectrum(mode="i", eigenvalues=[0j], residuals=[0.0], matrix_norm=1.0)
        with pytest.raises(ValueError):
            compare_spectrum(spec, printed_spectrum("i"))


def _paired_rows_cost(rng, n):
    # rows in pairs 1e-15 apart, like the computed q=i spectrum against a list
    z = rng.normal(size=(n + 1) // 2) + 1j * rng.normal(size=(n + 1) // 2)
    a = np.repeat(z, 2)[:n]
    a[1::2] += 1e-15 * (rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return np.abs(a[:, None] - b[None, :])


class TestAssignmentSolver:
    """The in-repo solver gives scipy's assignment, ties broken alike."""

    @pytest.fixture(scope="class")
    def scipy_lsa(self):
        return pytest.importorskip("scipy.optimize").linear_sum_assignment

    def _assert_same(self, cost, scipy_lsa):
        rows, cols = dirac._linear_sum_assignment(cost)
        want_rows, want_cols = scipy_lsa(cost)
        assert rows.tolist() == list(range(cost.shape[0])) == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    def test_matches_scipy_on_the_spectral_cost_matrices(self, mode, scipy_lsa):
        a = np.array(eigenvalues(build_dirac(mode).matrix).eigenvalues)
        b = np.array(printed_spectrum(mode))
        self._assert_same(np.abs(a[:, None] - b[None, :]), scipy_lsa)

    @pytest.mark.parametrize("make_cost", [
        lambda rng, n: rng.random((n, n)),
        lambda rng, n: rng.integers(0, 3, (n, n)).astype(float),  # many ties
        _paired_rows_cost,
    ], ids=["uniform", "small-integers", "paired-rows"])
    def test_matches_scipy_on_seeded_matrices(self, make_cost, scipy_lsa):
        rng = np.random.default_rng(5)
        for k in range(400):
            self._assert_same(make_cost(rng, k % 32 + 1), scipy_lsa)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_costs(self, bad):
        cost = np.ones((4, 4))
        cost[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dirac._linear_sum_assignment(cost)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (16,)])
    def test_rejects_non_square_costs(self, shape):
        with pytest.raises(ValueError, match="not square"):
            dirac._linear_sum_assignment(np.ones(shape))

    def test_runtime_never_imports_scipy(self, tmp_path):
        src = Path(dirac.__file__).resolve().parents[1]
        program = (
            "import sys\n"
            "import ncgq.cli, ncgq.verification, ncgq.audit, ncgq.dirac\n"
            f"code = ncgq.cli.main(['dirac', '--q', '1', '--out', {str(tmp_path / 'd.json')!r}])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", program], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "False"]


class TestAssembly:
    def test_block_structure_q1(self):
        dm = build_dirac("1")
        assert dm.extrapolated
        q = q_root("1")
        from ncgq.fixtures import printed_translation_matrices

        R = printed_translation_matrices(q)
        rb = np.array([[R["beta"][(i, j)].to_complex() for j in range(16)] for i in range(16)])
        block21 = dm.matrix[16:, :16]
        s21 = dm.scalars[(1, 0)]
        assert np.allclose(block21 - s21 * np.eye(16), rb)

    def test_conjugation_symmetry_of_construction(self):
        di = build_dirac("i").matrix
        dmi = build_dirac("-i").matrix
        assert np.array_equal(di.conjugate(), dmi)

    def test_trace_matches_printed_sum_q1(self):
        dm = build_dirac("1")
        assert abs(complex(dm.matrix.trace()) - sum(printed_spectrum("1"))) < 1e-3

    def test_trace_matches_printed_sum_qi(self):
        dm = build_dirac("i")
        assert abs(complex(dm.matrix.trace()) - sum(printed_spectrum("i"))) < 1e-3


class TestSpectra:
    def test_q1_reproduction(self):
        _, spec, report = spectrum_pipeline("1")
        assert report.max_distance <= 1e-3

    def test_q1_closed_form_oracle(self):
        # independent oracle: at q=1 the translation matrices commute, so the
        # operator splits into 2x2 blocks over joint characters (a, b) with
        # eigenvalues (a+4) +- sqrt(1 + [(a-1) b^3 + s12][b + s21]); this
        # derivation never touches the 32x32 eigensolver.
        import cmath

        from ncgq.fixtures import reconstructed_offdiagonal_scalars

        off = reconstructed_offdiagonal_scalars("1")
        s12, s21 = off["s12"], off["s21"]
        roots = [1, 1j, -1, -1j]
        analytic = []
        for a in roots:
            for b in roots:
                disc = cmath.sqrt(1 + ((a - 1) * b ** 3 + s12) * (b + s21))
                analytic += [a + 4 + disc, a + 4 - disc]
        _, spec, _ = spectrum_pipeline("1")
        got = Spectrum(mode="1", eigenvalues=analytic, residuals=[0.0] * 32,
                       matrix_norm=1.0)
        rep = compare_spectrum(got, spec.eigenvalues)
        assert rep.max_distance <= 1e-9
        rep2 = compare_spectrum(got, printed_spectrum("1"))
        assert rep2.max_distance <= 1e-3

    def test_conjugation_symmetry_of_spectra(self):
        _, spec_i, _ = spectrum_pipeline("i")
        _, spec_mi, _ = spectrum_pipeline("-i")
        got = Spectrum(mode="-i", eigenvalues=[z.conjugate() for z in spec_i.eigenvalues],
                       residuals=[0.0] * 32, matrix_norm=spec_i.matrix_norm)
        rep = compare_spectrum(got, spec_mi.eigenvalues)
        assert rep.max_distance <= 1e-9

    @pytest.mark.parametrize("mode", ["1", "i"])
    def test_printed_offdiagonal_formulas_miss_by_more_than_one(self, mode, monkeypatch):
        # the audit's "values give distance ~3": the proof formulas for s12 and
        # s21, fed the reference table, give spectra far from both lists
        q = q_root(mode)
        s = a_slash_printed(SpinConnection(reference_connection_values(q), "reference-table"), q)
        printed = {"s12": s[(0, 1)].to_complex(), "s21": s[(1, 0)].to_complex()}
        monkeypatch.setattr(dirac, "reconstructed_offdiagonal_scalars", lambda m: printed)
        _, _, report = spectrum_pipeline(mode)
        assert report.max_distance > 1

    def test_connection_term_changes_spectrum(self):
        _, full, _ = spectrum_pipeline("i")
        _, bare, _ = spectrum_pipeline("i", include_connection=False)
        a = sorted(full.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        b = sorted(bare.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert any(abs(x - y) > 1e-6 for x, y in zip(a, b))


def _left_multiplication(alg, x):
    """Matrix of f -> x f, in the column convention of TranslationMatrix."""
    cols = [(x * alg.monomial(p, r)).coords() for (p, r) in basis_monomials()]
    return [list(row) for row in zip(*cols)]


class TestMultiplicityObstruction:
    """The published q=i list is out of reach of every operator family searched.

    Data only, exact over Q(i).  Let D be built from scalar multiples of I and
    16x16 blocks that all commute with two invertible, anticommuting matrices
    P and Q.  Then I_2 (x) P and I_2 (x) Q commute with D and preserve every
    generalized eigenspace V of D.  On V, det(PQ) = det(-QP) =
    (-1)^dim V det(QP), so dim V is even.  Two copies of one eigenvalue must
    then match two published values at least g apart, so the match misses by
    at least g/2.  With P, Q = L_a, L_b this covers blocks taken from the four
    printed translation matrices, their transposes, and all right translations
    (each a polynomial in R_a and R_b); with P, Q = R_a, R_b it covers all
    left translations.  It says nothing of operators that mix left and right
    translations, or of those built otherwise, e.g. from the first-principles
    partials.
    """

    @pytest.fixture(scope="class")
    def multiplications(self):
        alg = QuantumAlgebra("i")
        left = [_left_multiplication(alg, x) for x in (alg.alpha, alg.beta)]
        right = [alg.translation_matrix(name).rows() for name in ("alpha", "beta")]
        return alg, left, right

    @staticmethod
    def _mul(x, y):
        return linalg.mat_mul(x, y, ZERO)

    def _commute(self, x, y):
        return linalg.mat_eq(self._mul(x, y), self._mul(y, x))

    def _invertible_and_anticommuting(self, x, y):
        return (linalg.rank(x) == linalg.rank(y) == 16 and linalg.mat_eq(
            self._mul(x, y), [[-c for c in row] for row in self._mul(y, x)]))

    def test_left_multiplications_invertible_and_anticommuting(self, multiplications):
        _, (la, lb), _ = multiplications
        assert self._invertible_and_anticommuting(la, lb)

    def test_printed_matrices_commute_with_left_multiplications(self, multiplications):
        alg, left, _ = multiplications
        printed = printed_translation_matrices(alg.q)
        assert len(printed) == 4
        for name, tm in printed.items():
            assert all(self._commute(tm.rows(), l) for l in left), name

    def test_printed_transposes_commute_with_left_multiplications(self, multiplications):
        alg, left, _ = multiplications
        for name, tm in printed_translation_matrices(alg.q).items():
            transpose = [list(col) for col in zip(*tm.rows())]
            assert all(self._commute(transpose, l) for l in left), name

    def test_right_translations_commute_with_left_multiplications(self, multiplications):
        _, left, right = multiplications
        assert all(self._commute(r, l) for r in right for l in left)

    def test_right_multiplications_invertible_and_anticommuting(self, multiplications):
        # left translations commute with R_a and R_b by the test above
        _, _, (ra, rb) = multiplications
        assert self._invertible_and_anticommuting(ra, rb)

    def test_published_gap_exceeds_tolerance(self):
        published = printed_spectrum("i")
        gap = min(abs(x - y) for x, y in itertools.combinations(published, 2))
        assert gap / 2 > 1e-3
