import cmath
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ncgq import dirac, linalg, sectors
from ncgq.algebra import QuantumAlgebra, basis_monomials, monomial_index, monomial_product
from ncgq.calculus import FORMS, Calculus
from ncgq.audit import a_slash_first_principles, a_slash_printed, diagonal_scalars
from ncgq.constants import ASLASH_GENERATOR_VALUES
from ncgq.dirac import (DiracMatrix, EigensolverError, MatchReport, Spectrum, build_dirac,
                        compare_spectrum, eigenvalues, spectrum_pipeline)
from ncgq.fixtures import printed_spectrum, printed_translation_matrices, reconstructed_offdiagonal_scalars
from ncgq.riemannian import SpinConnection, reference_connection, reference_connection_values
from ncgq.scalars import ZERO, GaussianRational, q_root


def to_complex(z: GaussianRational) -> complex:
    """The nearest doubles of z's parts: int / int rounds correctly, as float(Fraction) does."""
    a, b, d = z.triple
    return complex(a / d, b / d)


def exact_dirac(mode: str, include_connection: bool = True) -> tuple[list[list[complex]], dict]:
    """D and its scalars from the exact translation matrices and closed forms, converted last.

    The oracle of build_dirac, which assembles D from the fixture symbols at
    the integer q^2 and from dirac.DIAGONAL_SCALARS: the same entries and
    scalars, in the same order of operations.
    """
    q = q_root(mode)
    exact = printed_translation_matrices(q * q)
    R = {name: [[to_complex(x) for x in row] for row in tm] for name, tm in exact.items()}
    diag, off = diagonal_scalars(mode), reconstructed_offdiagonal_scalars(mode)
    s = {(0, 0): to_complex(diag["s11"]), (1, 1): to_complex(diag["s22"]),
         (0, 1): off["s12"], (1, 0): off["s21"]}
    if not include_connection:
        s = {k: 0.0 for k in s}
    m = []
    for a, (left, right) in enumerate(((R["alpha"], R["beta_star"]), (R["beta"], R["delta"]))):
        for i in range(16):
            row = left[i] + right[i]
            for b in range(2):
                k = 16 * b + i
                row[k] = (row[k] - 1 if a == b else row[k]) + s[(a, b)]
            m.append(row)
    return m, s


def bits(z) -> tuple[str, str]:
    """z's two parts as hexadecimal doubles, so that -0.0 and 0.0 differ."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


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
        q, q2 = cal.algebra.q, cal.algebra.q2
        for f in FORMS:
            value = ZERO
            for i, coeff in ASLASH_GENERATOR_VALUES["beta"]:
                value = value + coeff.evaluate_at(q) * conn.entry(i, f)
            assert value == -q2 * conn.entry("c", f)

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


# a cold ncgq process that runs one command and reports, as one JSON line, its
# exit code and whether numpy and scipy were loaded in it and in each forked
# child that computed the spectral half of verify or the Dirac rows of audit
COLD_PROGRAM = """
import json, os, sys
import ncgq.audit, ncgq.cli, ncgq.verification

parent = os.getpid()
seen = sys.argv[1]


def spy(module, name):
    inner = getattr(module, name)

    def wrapper(*args):
        out = inner(*args)
        if os.getpid() != parent:
            with open(seen, "a") as fh:
                fh.write(json.dumps({m: m in sys.modules for m in ("numpy", "scipy")}) + "\\n")
        return out

    setattr(module, name, wrapper)


spy(ncgq.audit, "audit_dirac")
spy(ncgq.verification, "spectral_checks")
code = ncgq.cli.main(sys.argv[2:])
with open(seen) as fh:
    children = [json.loads(line) for line in fh]
print(json.dumps({"code": code, "children": children,
                  "parent": {m: m in sys.modules for m in ("numpy", "scipy")}}))
"""


def _cold_run(tmp_path, command, q):
    src = Path(dirac.__file__).resolve().parents[1]
    seen = tmp_path / f"{command}{q}.children"
    seen.write_text("")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", COLD_PROGRAM, str(seen), command, "--q", q,
         "--out", str(tmp_path / f"{command}{q}.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


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
        assert list(rows) == list(range(cost.shape[0])) == want_rows.tolist()
        assert list(cols) == want_cols.tolist()

    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    def test_matches_scipy_on_the_spectral_cost_matrices(self, mode, scipy_lsa):
        a = np.array(eigenvalues(build_dirac(mode).matrix).eigenvalues)
        b = np.array(printed_spectrum(mode))
        self._assert_same(np.abs(a[:, None] - b[None, :]), scipy_lsa)

    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    def test_matches_scipy_on_the_sector_cost_matrices(self, mode, scipy_lsa):
        # the cost matrices the commands match; at +-i their rows come in exact pairs
        a = np.array(spectrum_pipeline(mode)[1].eigenvalues)
        b = np.array(printed_spectrum(mode))
        self._assert_same(np.abs(a[:, None] - b[None, :]), scipy_lsa)

    def test_takes_a_list_of_rows(self):
        assert dirac._linear_sum_assignment([[3.0, 1.0], [1.0, 3.0]]) == ([0, 1], [1, 0])
        with pytest.raises(ValueError, match="not square"):
            dirac._linear_sum_assignment([[1.0, 2.0], [3.0]])

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
        # and numpy only in verify's spectral half, which runs in a forked child;
        # audit forks none
        want = {
            ("dirac", "1"): (0, False, None), ("dirac", "i"): (1, False, None),
            ("dirac", "-i"): (1, False, None), ("audit", "i"): (0, False, None),
            ("audit", "-i"): (0, False, None), ("verify", "i"): (0, False, True),
        }
        for (command, q), (code, parent_numpy, child_numpy) in want.items():
            report = _cold_run(tmp_path, command, q)
            assert report["code"] == code, report
            assert report["parent"] == {"numpy": parent_numpy, "scipy": False}, report
            if child_numpy is None:
                assert report["children"] == [], report
            else:
                assert report["children"] == [{"numpy": child_numpy, "scipy": False}], report


class TestAssembly:
    def test_block_structure_q1(self):
        dm = build_dirac("1")
        assert dm.extrapolated
        q = q_root("1")
        from ncgq.fixtures import printed_translation_matrices

        R = printed_translation_matrices(q * q)
        rb = np.array([[to_complex(R["beta"][i][j]) for j in range(16)] for i in range(16)])
        block21 = np.array(dm.matrix)[16:, :16]
        s21 = dm.scalars[(1, 0)]
        assert np.allclose(block21 - s21 * np.eye(16), rb)

    @pytest.mark.parametrize("include_connection", [True, False], ids=["full", "bare"])
    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    def test_assembly_matches_the_exact_oracle(self, mode, include_connection):
        # bit for bit, signed zeros counted: the fixture symbols at the integer q^2 and the
        # DIAGONAL_SCALARS table give the doubles of the exact matrices and closed forms
        dm = build_dirac(mode, include_connection=include_connection)
        matrix, scalars = exact_dirac(mode, include_connection)
        assert [[bits(z) for z in row] for row in dm.matrix] == [[bits(z) for z in row] for row in matrix]
        assert {k: bits(v) for k, v in dm.scalars.items()} == {k: bits(v) for k, v in scalars.items()}
        assert all(type(z) is complex for row in dm.matrix for z in row)

    def test_conjugation_symmetry_of_construction(self):
        di = np.array(build_dirac("i").matrix)
        dmi = np.array(build_dirac("-i").matrix)
        assert np.array_equal(di.conjugate(), dmi)

    def test_trace_matches_printed_sum_q1(self):
        dm = build_dirac("1")
        assert abs(complex(np.array(dm.matrix).trace()) - sum(printed_spectrum("1"))) < 1e-3

    def test_trace_matches_printed_sum_qi(self):
        dm = build_dirac("i")
        assert abs(complex(np.array(dm.matrix).trace()) - sum(printed_spectrum("i"))) < 1e-3


def _left_multiplication_by_a():
    """I_2 (x) L_a as a 32x32 array: L_a sends a^p b^r to a^(p+1) b^r, with no sign at any q."""
    la = np.zeros((16, 16))
    for p, r in basis_monomials():
        la[4 * ((p + 1) % 4) + r, 4 * p + r] = 1
    return np.kron(np.eye(2), la)


def _unitary_sector_basis(mode):
    """(U, spans): the sector basis over sqrt|H| as the columns of a 32x32 array, block by block."""
    order, blocks = sectors.sector_basis(mode)
    u = np.zeros((32, 32), complex)
    spans, col = [], 0
    for block in blocks:
        spans.append(list(range(col, col + len(block))))
        for indices, values in block:
            u[list(indices), col] = values
            col += 1
    return u / np.sqrt(order), spans


def _assert_norm_is_the_largest_column_norm_rounded_down(sector, dense, matrix):
    """nu <= ||D||_2 (LAPACK's), and nu is the largest column norm, exactly rounded down."""
    assert sector.matrix_norm <= dense.matrix_norm
    exact = max(sum(Fraction(x) ** 2 for z in col for x in (z.real, z.imag)) for col in zip(*matrix))
    nu = Fraction(sector.matrix_norm)
    assert nu ** 2 <= exact < Fraction(math.nextafter(sector.matrix_norm, math.inf)) ** 2


class _GaussFraction:
    """re + im i with Fraction parts, for the independent disk check."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return _GaussFraction(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _GaussFraction(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _GaussFraction(self.re * other.re - self.im * other.im,
                              self.re * other.im + self.im * other.re)

    def conjugate(self):
        return _GaussFraction(self.re, -self.im)

    def abs2(self):
        return self.re ** 2 + self.im ** 2


def _sign(perm):
    return (-1) ** sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])


class TestSectorSolver:
    """The pure-Python sector solver against the dense LAPACK solver and closed forms."""

    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    def test_basis_agrees_with_the_algebra_product(self, mode):
        # sector_basis writes h r = a^p b^k b^e as a^p b^(k + e) with sign +;
        # rebuild every vector through monomial_product instead
        units = (1, 1j, -1, -1j)
        step = 1 if mode == "1" else 2
        group = [(p, k) for p in range(4) for k in range(0, 4, step)]
        expected = []
        for s in range(4):
            for t in range(4 // step):
                block = []
                for row in range(2):
                    for e in range(step):
                        indices, values = [], []
                        for p, k in group:
                            m, negated = monomial_product((p, k), (0, e))
                            value = units[-(s * p + t * k) % 4]
                            indices.append(16 * row + monomial_index(m))
                            values.append(-value if negated else value)
                        block.append((tuple(indices), tuple(values)))
                expected.append(tuple(block))
        assert sectors.sector_basis(mode) == (len(group), tuple(expected))

    @pytest.mark.parametrize("mode", ["1", "i"])
    def test_leak_is_the_off_block_norm_of_the_rotated_matrix(self, mode):
        # the solver checks D W_b = W_b B_b exactly from D's columns; its dense
        # form is that block b's columns of U^H D U are zero off the block, so
        # the sector it names is the first with an off-block leak.  The 1e-6
        # perturbation dwarfs the dense product's rounding, which the 1e-9
        # threshold of this test only separates from it
        matrix = build_dirac(mode).matrix
        matrix[0][1] += 1e-6
        with pytest.raises(EigensolverError, match="not invariant") as err:
            sectors.sector_eigenvalues(matrix, mode)
        k = int(re.search(r"sector (\d+) is not invariant: D W - W B is not exactly 0;",
                          str(err.value)).group(1))
        u, spans = _unitary_sector_basis(mode)
        t = u.conj().T @ np.array(matrix) @ u
        off = [np.linalg.norm(np.delete(t[:, span], span, axis=0)) for span in spans]
        norm = np.linalg.norm(np.array(matrix), 2)
        assert k == next(b for b, x in enumerate(off) if x > 1e-9 * norm)

    @pytest.mark.parametrize("mode", ["1", "i"])
    def test_a_one_ulp_break_of_the_commutation_raises(self, mode):
        # no tolerance: the smallest change to one entry is an invariance failure
        matrix = build_dirac(mode).matrix
        assert matrix[0][12] == 1
        matrix[0][12] = complex(math.nextafter(1.0, 2.0), 0.0)
        with pytest.raises(EigensolverError, match="not invariant"):
            sectors.sector_eigenvalues(matrix, mode)

    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    @pytest.mark.parametrize("include_connection", [True, False])
    def test_residuals_stay_at_rounding_level(self, mode, include_connection):
        matrix = build_dirac(mode, include_connection=include_connection).matrix
        spec = sectors.sector_eigenvalues(matrix, mode)
        assert len(spec.residuals) == 32 and spec.max_residual() <= 1e-13

    @pytest.mark.parametrize("mode, n_blocks, size", [("1", 16, 2), ("i", 8, 4), ("-i", 8, 4)])
    def test_basis_is_exact_orthogonal_and_block_shaped(self, mode, n_blocks, size):
        order, blocks = sectors.sector_basis(mode)
        assert (order, len(blocks), {len(b) for b in blocks}) == (32 // size, n_blocks, {size})
        dense = []
        for block in blocks:
            # within a block the supports are disjoint and cover C^32
            assert sorted(n for indices, _ in block for n in indices) == list(range(32))
            for indices, values in block:
                assert set(values) <= {1, -1, 1j, -1j}
                w = [0j] * 32
                for n, z in zip(indices, values):
                    w[n] = z
                dense.append(w)
        gram = [[sum(x.conjugate() * y for x, y in zip(u, v)) for v in dense] for u in dense]
        assert gram == [[order if j == k else 0 for k in range(32)] for j in range(32)]

    @pytest.mark.parametrize("mode", ["1", "i", "-i"])
    def test_matches_the_dense_solver(self, mode):
        matrix = build_dirac(mode).matrix
        sector, dense = sectors.sector_eigenvalues(matrix, mode), eigenvalues(matrix, mode)
        _assert_norm_is_the_largest_column_norm_rounded_down(sector, dense, matrix)
        assert compare_spectrum(sector, dense.eigenvalues).max_distance <= 1e-9 * dense.matrix_norm
        assert sector.max_residual() <= 1e-9 * sector.matrix_norm

    @pytest.mark.parametrize("mode", ["i", "-i"])
    def test_bare_operator_matches_the_dense_solver(self, mode):
        matrix = build_dirac(mode, include_connection=False).matrix
        sector, dense = sectors.sector_eigenvalues(matrix, mode), eigenvalues(matrix, mode)
        _assert_norm_is_the_largest_column_norm_rounded_down(sector, dense, matrix)
        assert compare_spectrum(sector, dense.eigenvalues).max_distance <= 1e-9 * dense.matrix_norm

    def test_bare_operator_at_one_matches_its_exact_block_roots(self):
        # at q = 1 without the connection term the character (a, b) block is
        # [[a - 1, (a - 1) b^3], [b, a - 1]], with roots (a - 1) +- sqrt(a - 1);
        # at a = 1 it is a Jordan block, where LAPACK's 32x32 solve is good to
        # about 2e-8 only
        spec = sectors.sector_eigenvalues(build_dirac("1", include_connection=False).matrix, "1")
        exact = [a - 1 + sign * cmath.sqrt(a - 1)
                 for a in (1, 1j, -1, -1j) for _ in range(4) for sign in (1, -1)]
        got = Spectrum(mode="1", eigenvalues=exact, residuals=[0.0] * 32, matrix_norm=1.0)
        assert compare_spectrum(got, spec.eigenvalues).max_distance <= 1e-9 * spec.matrix_norm
        assert spec.max_residual() <= 1e-9 * spec.matrix_norm

    def test_bare_operator_at_one_has_four_exact_jordan_blocks(self):
        # the a = 1 blocks [[0, 0], [b, 0]] have an exactly zero discriminant:
        # a double root 0, certified with radius 0, and no other root is 0
        spec = sectors.sector_eigenvalues(build_dirac("1", include_connection=False).matrix, "1")
        zeros = [r for z, r in zip(spec.eigenvalues, spec.residuals) if z == 0]
        assert zeros == [0.0] * 8
        assert all(type(z) is complex for z in spec.eigenvalues)

    @pytest.mark.parametrize("roots, shift", [
        ([1, 1, 2, 3], 0),  # a double root in a quartic
        # roots 1, 1 + 2^-60, 2 and 3, as det(y - M) for y = 2^60 z
        ([1 << 60, (1 << 60) + 1, 2 << 60, 3 << 60], 60),
        ([1 << 60, (1 << 60) + 1], 60),  # the same pair through the quadratic formula
    ])
    def test_roots_whose_disks_meet_raise(self, roots, shift):
        # two roots closer than the floats can separate: their disks must meet
        poly = [1]
        for r in roots:  # times (y - r)
            poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
        with pytest.raises(EigensolverError, match="certified"):
            sectors._certified_roots(tuple((c, 0) for c in poly), shift)

    def test_fraction_recomputation_gives_disjoint_disks_within_the_radii(self):
        # independently of the solver's integers: B = W^H D W / |H| densely and
        # p(z) = det(z - B) by the Leibniz formula, both in Fractions
        matrix = build_dirac("i").matrix
        spec = sectors.sector_eigenvalues(matrix, "i")
        order, blocks = sectors.sector_basis("i")
        zero = _GaussFraction(0)
        d = [[_GaussFraction(z.real, z.imag) for z in row] for row in matrix]
        start = 0
        for block in blocks:
            n = len(block)
            ws = [[zero] * 32 for _ in block]
            for w, (indices, values) in zip(ws, block):
                for k, v in zip(indices, values):
                    w[k] = _GaussFraction(v.real, v.imag)
            dw = [[sum((row[c] * w[c] for c in range(32) if w[c].abs2()), zero) for row in d] for w in ws]
            b = [[sum((x.conjugate() * y for x, y in zip(wi, dwk)), zero) * _GaussFraction(Fraction(1, order))
                  for dwk in dw] for wi in ws]
            zs = [_GaussFraction(z.real, z.imag) for z in spec.eigenvalues[start:start + n]]
            radii = spec.residuals[start:start + n]
            exact = []
            for i, z in enumerate(zs):
                shifted = [[(z if r == c else zero) - b[r][c] for c in range(n)] for r in range(n)]
                p = sum((_GaussFraction(_sign(perm)) * math.prod((shifted[r][perm[r]] for r in range(n)),
                                                                 start=_GaussFraction(1))
                         for perm in itertools.permutations(range(n))), zero)
                gaps = [(z - x).abs2() for j, x in enumerate(zs) if j != i]
                exact.append(n * n * p.abs2() / math.prod(gaps))  # Smith's radius, squared
                assert exact[-1] <= Fraction(radii[i]) ** 2
            for i, j in itertools.combinations(range(n), 2):
                # |z_i - z_j| > r_i + r_j, squared twice
                excess = (zs[i] - zs[j]).abs2() - exact[i] - exact[j]
                assert excess > 0 and excess ** 2 > 4 * exact[i] * exact[j]
            start += n
        assert start == 32

    @pytest.mark.parametrize("mode", ["1", "i"])
    def test_broken_commutation_raises(self, mode):
        matrix = build_dirac(mode).matrix
        la = _left_multiplication_by_a()
        assert np.abs(np.array(matrix) @ la - la @ np.array(matrix)).max() < 1e-12
        matrix[0][1] += 0.5
        assert np.abs(np.array(matrix) @ la - la @ np.array(matrix)).max() == 0.5
        with pytest.raises(EigensolverError, match="not invariant"):
            sectors.sector_eigenvalues(matrix, mode)

    def test_nonfinite_rejected(self):
        matrix = build_dirac("i").matrix
        matrix[3][3] = complex("nan")
        with pytest.raises(EigensolverError, match="non-finite"):
            sectors.sector_eigenvalues(matrix, "i")

    def test_the_pipeline_uses_the_sector_solver(self, monkeypatch):
        def no_dense_solve(*args, **kwargs):
            raise AssertionError("the dense solver was called")

        monkeypatch.setattr(dirac, "eigenvalues", no_dense_solve)
        monkeypatch.setattr(np.linalg, "eig", no_dense_solve)
        for mode in ("1", "i", "-i"):
            assert spectrum_pipeline(mode)[1].max_residual() > 0

    def test_import_loads_neither_numpy_nor_the_calculus(self):
        src = Path(dirac.__file__).resolve().parents[1]
        program = ("import sys, ncgq.dirac\n"
                   "print([m for m in ('numpy', 'ncgq.calculus', 'ncgq.riemannian', 'ncgq.linalg')"
                   " if m in sys.modules])\n")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", program], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


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
        printed = {"s12": to_complex(s[(0, 1)]), "s21": to_complex(s[(1, 0)])}
        monkeypatch.setattr(dirac, "reconstructed_offdiagonal_scalars", lambda m: printed)
        _, _, report = spectrum_pipeline(mode)
        assert report.max_distance > 1

    def test_connection_term_changes_spectrum(self):
        _, full, _ = spectrum_pipeline("i")
        bare = sectors.sector_eigenvalues(build_dirac("i", include_connection=False).matrix, "i")
        a = sorted(full.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        b = sorted(bare.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert any(abs(x - y) > 1e-6 for x, y in zip(a, b))


def _left_multiplication(alg, x):
    """Matrix of f -> x f, in the column convention of the translation matrices."""
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
        right = [alg.translation_matrix(name) for name in ("alpha", "beta")]
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
        printed = printed_translation_matrices(alg.q2)
        assert len(printed) == 4
        for name, tm in printed.items():
            assert all(self._commute(tm, l) for l in left), name

    def test_printed_transposes_commute_with_left_multiplications(self, multiplications):
        alg, left, _ = multiplications
        for name, tm in printed_translation_matrices(alg.q2).items():
            transpose = [list(col) for col in zip(*tm)]
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
