"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 is implemented faithfully as stated and fails honestly: the
computed q=i spectrum misses the published list at 1e-3.  The published
translation matrices cannot reach that list at all; the data-only certificate
(the multiplicity obstruction) is tests/test_dirac.py::TestMultiplicityObstruction.

Criterion 4 is not met either: the connection system is inconsistent, so the
solver cannot match the reference table.  Its line reports "not met", and its
test asserts the certificates of that verdict for the operative assembly
convention: a left-null vector y with y.b != 0, and a single equation that no
completion of the printed table satisfies.  Every other criterion passes at
its stated tolerance.
"""
import itertools
import random
import time

import numpy as np
import pytest

from conftest import record_criterion

from ncgq import linalg
from ncgq.algebra import QuantumAlgebra, basis_monomials
from ncgq.calculus import Calculus, DiffForm, FORMS
from ncgq.constants import evaluate_connection_printed
from ncgq.dirac import Spectrum, build_dirac, compare_spectrum, spectrum_pipeline
from ncgq.fixtures import printed_spectrum, printed_translation_matrices
from ncgq.riemannian import (ConnectionAssembler, Metric, reference_connection,
                             regularity_check, riemann, riemann_basis)
from ncgq.scalars import GaussianRational, ONE, ZERO
from ncgq.sectors import sector_eigenvalues


def timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            assert self.elapsed < budget_s, f"runtime {self.elapsed:.2f}s over budget {budget_s}s"
            return False

    return _Timer()


def random_element(alg, rng, n_terms=2):
    coeffs = {}
    for _ in range(n_terms):
        coeffs[(rng.randrange(4), rng.randrange(4))] = GaussianRational(
            rng.randrange(-4, 5), rng.randrange(-4, 5))
    return alg.element(coeffs)


def test_criterion_1_spectrum_q_i():
    """q=i spectrum reproduction at 1e-3: red; reference list unreproducible."""
    with timed(5.0):
        _, spec, report = spectrum_pipeline("i")
    detail = (f"max matched distance {report.max_distance:.4g}; the published "
              "q=i list matches no operator assembled from the published "
              "matrices (multiplicity obstruction, test_dirac.py)")
    passed = report.max_distance <= 1e-3
    record_criterion(1, "spectrum reproduction, q=i", passed, detail)
    worst = sorted(report.distances, reverse=True)[:5]
    assert passed, (
        "The 32 computed eigenvalues do not match the published q=i list at "
        f"1e-3: max distance {report.max_distance:.4g}, worst matches {worst}. "
        "Forensics: the printed list's eigenvalue sum and exact pairwise "
        "point-symmetry confirm the diagonal blocks and connection scalars. "
        "The stored q=+-i pair (s12, s21) is a local minimum of the summed "
        "matched distance: not a least-squares fit, and not a minimum of the "
        "max distance reported here (tests/test_dirac.py::TestSpectra::"
        "test_stored_qi_pair_minimises_the_summed_not_the_squared_distance).  The printed "
        "translation matrices, their transposes and all right translations "
        "commute with the anticommuting L_a, L_b, and all left translations "
        "with the anticommuting R_a, R_b; so every operator built from one of "
        "these families plus scalar blocks has even multiplicities and misses "
        "the list by at least half its minimum gap "
        "(tests/test_dirac.py::TestMultiplicityObstruction).  Operators that "
        "mix left and right translations are not covered."
    )


def test_criterion_2_conjugation_symmetry():
    with timed(5.0):
        _, spec_i, _ = spectrum_pipeline("i")
        _, spec_mi, _ = spectrum_pipeline("-i")
        conj = Spectrum(eigenvalues=[z.conjugate() for z in spec_i.eigenvalues],
                        residuals=[0.0] * 32, matrix_norm=spec_i.matrix_norm)
        rep = compare_spectrum(conj, spec_mi.eigenvalues)
    passed = rep.max_distance <= 1e-9
    record_criterion(2, "conjugation symmetry of the two root spectra", passed,
                     f"max distance {rep.max_distance:.3g}")
    assert passed


def test_criterion_3_spectrum_q_1():
    with timed(5.0):
        _, spec, report = spectrum_pipeline("1")
    passed = report.max_distance <= 1e-3
    excess = [(k, d) for k, d in enumerate(report.distances) if d > 1e-3]
    record_criterion(3, "spectrum reproduction, q=1 (extrapolated)", passed,
                     f"max matched distance {report.max_distance:.3g}; "
                     f"itemized excess: {excess if excess else 'none'}")
    assert passed, f"excess per eigenvalue: {excess}"


def _mat_apply(m, v):
    """The exact product m v, summing only the nonzero terms."""
    out = []
    for row in m:
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def _certifies_inconsistency(y, matrix, rhs):
    """y^T A = 0 and y.b != 0, by plain multiplication: then A x = b has no solution."""
    y_matrix = _mat_apply(list(zip(*matrix)), y)
    return not any(y_matrix) and bool(_mat_apply([rhs], y)[0])


# Unknowns the reference table leaves open: (c,a), (c,b) never printed, (d,b) corrupted.
MISSING_CONNECTION_ENTRIES = [("c", "a"), ("c", "b"), ("d", "b")]
# An equation that involves only A_b^b, which the printed table violates: the
# a^b component of the torsion equation of e_a.
PINNED_ROW = ("torsion", "a", ("a", "b"))
PINNED_TABLE_EQUATION = "{}[{}; {}^{}]".format(*PINNED_ROW[:2], *PINNED_ROW[2])


def _connection_certificates(mode):
    """Failed certificates of the operative assembly's inconsistency at one root, and a summary."""
    cal = Calculus(QuantumAlgebra(mode))
    system = ConnectionAssembler(cal).assemble()
    a, b = system.matrix, system.rhs
    failed = []
    left_null = linalg.nullspace([list(col) for col in zip(*a)], ONE, ZERO)
    certificates = [y for y in left_null if _certifies_inconsistency(y, a, b)]
    if not certificates:
        failed.append("no y with y^T A = 0, y.b != 0")
    support = min((sum(1 for c in y if c) for y in certificates), default=0)

    # substitute the 13 parseable entries
    rest = system.substitute(evaluate_connection_printed(cal.algebra.q))
    if list(rest.unknowns) != MISSING_CONNECTION_ENTRIES:
        failed.append(f"unknowns left open {rest.unknowns}")
    rep = rest.rank_report()
    ranks = (rep["rank"], rep["augmented_rank"])
    if ranks != (3, 4):
        failed.append(f"substituted system rank/augmented rank {ranks}")
    pinned = [ONE if label == PINNED_ROW else ZERO for label in rest.row_labels]
    if not _certifies_inconsistency(pinned, rest.matrix, rest.rhs):
        failed.append(f"{PINNED_TABLE_EQUATION} no longer certifies the printed table")
    return failed, (f"q={mode}: y^T A = 0, y.b != 0 with {support} nonzeros; printed "
                    f"table leaves rank {ranks[0]}/{ranks[1]} in {len(rest.unknowns)} unknowns")


def test_criterion_4_connection_correctness():
    """Connection solver vs the reference table: not met, and certified not met.

    The criterion line reports "not met": the system has no solution to match.
    The test asserts the certificates of that verdict for the operative
    assembly convention (ConnectionAssembler.assemble); the solver's rank defect
    itself is tested in test_riemannian.py.  A re-assembly that became
    consistent would turn this test red, and the criterion would need
    re-adjudication rather than these certificates.
    """
    t0 = time.monotonic()
    results = [_connection_certificates(mode) for mode in ("i", "-i")]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    failed = [f for fs, _ in results for f in fs]
    record_criterion(
        4, "connection solver matches the reference table", False,
        "not met; certified for the operative assembly: "
        + "; ".join(summary for _, summary in results)
        + f"; no completion of the printed table solves {PINNED_TABLE_EQUATION}")
    assert not failed, (
        "The certified inconsistency of the operative connection assembly no "
        f"longer holds: {failed}.  Checked here: a certificate y^T A = 0, "
        "y.b != 0 for the assembled system, and the rank-3/augmented-rank-4 "
        "system left after substituting the 13 parseable reference entries, "
        "certified by a single equation.  Every other assembly convention is "
        "checked in tests/test_connection_conventions.py."
    )


def test_criterion_5_hopf_axiom_suite():
    with timed(1.0):
        ok = True
        for mode in ("i", "-i"):
            alg = QuantumAlgebra(mode)
            for (p, r) in basis_monomials():
                x = alg.monomial(p, r)
                left, right = alg.antipode_axiom_defect(x)
                ok = ok and not left and not right
                dx = alg.coproduct(x)
                l_counit = alg.zero
                r_counit = alg.zero
                for (m1, m2), c in dx.coeffs.items():
                    l_counit = l_counit + alg.element({m2: c * alg.element({m1: ONE}).counit()})
                    r_counit = r_counit + alg.element({m1: c * alg.element({m2: ONE}).counit()})
                ok = ok and l_counit == x and r_counit == x
            # coassociativity
            for (p, r) in basis_monomials():
                dx = alg.coproduct(alg.monomial(p, r))
                lhs, rhs = {}, {}
                for (m1, m2), c in dx.coeffs.items():
                    for (n1, n2), c2 in alg.coproduct(alg.element({m1: ONE})).coeffs.items():
                        k = (n1, n2, m2)
                        lhs[k] = lhs.get(k, None) + c * c2 if k in lhs else c * c2
                    for (n1, n2), c2 in alg.coproduct(alg.element({m2: ONE})).coeffs.items():
                        k = (m1, n1, n2)
                        rhs[k] = rhs.get(k, None) + c * c2 if k in rhs else c * c2
                ok = ok and {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}
    record_criterion(5, "Hopf axiom suite on all 16 basis monomials", ok)
    assert ok


def test_criterion_6_calculus_suite():
    with timed(10.0):
        alg = QuantumAlgebra("i")
        cal = Calculus(alg)
        rng = random.Random(6)
        e = cal.basis_form
        w = cal.wedge
        ok = True
        # d^2 = 0; the unnormalised mu d squares to mu^2 d^2, so this proves both normalizations
        for f in FORMS:
            ok = ok and not cal.exterior_d(cal.exterior_d(e(f)))
        for (p, r) in basis_monomials():
            x = cal.from_function(alg.monomial(p, r))
            ok = ok and not cal.exterior_d(cal.exterior_d(x))
        # graded Leibniz on 100 random pairs
        for _ in range(100):
            deg_x = rng.randrange(2)
            fx, fy = random_element(alg, rng), random_element(alg, rng)
            x = cal.from_function(fx) if deg_x == 0 else DiffForm(cal, {(rng.choice(FORMS),): fx})
            y = cal.from_function(fy) if rng.randrange(2) == 0 else DiffForm(cal, {(rng.choice(FORMS),): fy})
            sign = ONE if deg_x % 2 == 0 else -ONE
            ok = ok and cal.exterior_d(cal.wedge(x, y)) == \
                cal.wedge(cal.exterior_d(x), y) + cal.wedge(x, cal.exterior_d(y)).scale(sign)
        # bimodule associativity on all generator triples
        gens = [alg.generator(n) for n in ("alpha", "beta", "beta_star", "delta")]
        for form in FORMS:
            for g1, g2 in itertools.product(gens, gens):
                lhs = cal.commute_past(form, g1 * g2)
                mid = cal.commute_past(form, g1)
                rhs = cal.zero()
                for (fm,), el in mid.terms.items():
                    rhs = rhs + cal.commute_past(fm, g2).left_multiply(el)
                ok = ok and lhs == rhs
        # the four reference values of d on basis 1-forms
        ok = ok and cal.exterior_d(e("a")) == -w(e("c"), e("b"))
        ok = ok and cal.exterior_d(e("d")) == w(e("c"), e("b"))
        ok = ok and cal.exterior_d(e("b")) == -w(e("b"), e("a")).scale(alg.q2.inverse()) + w(e("b"), e("d"))
        ok = ok and cal.exterior_d(e("c")) == w(e("c"), e("a")) - w(e("c"), e("d")).scale(alg.q2)
    record_criterion(6, "calculus suite (d^2, Leibniz, bimodule, reference d-values)", ok)
    assert ok


def test_criterion_7_metric_symmetry():
    with timed(1.0):
        ok = True
        rng = random.Random(7)
        for mode in ("i", "-i"):
            m = Metric(Calculus(QuantumAlgebra(mode)))
            ok = ok and not m.wedge_contraction()
            for _ in range(10):
                c = GaussianRational(rng.randrange(-9, 10), rng.randrange(-9, 10))
                ok = ok and not m.wedge_contraction(c)
    record_criterion(7, "metric symmetry wedge(eta) = 0 (+ theta shifts)", ok)
    assert ok


def test_criterion_8_non_regularity():
    with timed(5.0):
        cal = Calculus(QuantumAlgebra("i"))
        conn = reference_connection(cal)
        rep = regularity_check(cal, conn)
    ok = rep["n_violations"] >= 1
    record_criterion(8, "non-regularity reproduced", ok,
                     f"{rep['n_violations']} of {rep['kernel_dimension']} kernel "
                     "directions violate")
    assert ok


def test_criterion_9_riemann_tensoriality():
    with timed(10.0):
        cal = Calculus(QuantumAlgebra("i"))
        conn = reference_connection(cal)
        rng = random.Random(9)
        ok = True
        for i in FORMS:
            base = riemann_basis(cal, conn, i)
            for _ in range(13):
                f = random_element(alg=cal.algebra, rng=rng)
                lhs = riemann(cal, conn, DiffForm(cal, {(i,): f}))
                ok = ok and lhs == base.left_multiply(f)
    record_criterion(9, "curvature tensoriality (50+ random multiples, all forms)", ok)
    assert ok


def test_criterion_10_audit_completeness():
    from ncgq.audit import audit_report

    with timed(10.0):
        doc = audit_report("i")
        quantities = " | ".join(row["quantity"] for row in doc["rows"])
        required = [
            "translation matrix alpha", "translation matrix beta",
            "translation matrix beta_star", "claim R_delta = R_alpha",
            "structure constants (right)", "structure constants (left)",
            "nu closed form", "xi closed form", "lambda closed form",
            "covariant derivative of e_a", "covariant derivative of e_b",
            "covariant derivative of e_c", "covariant derivative of e_d",
            "curvature of e_a", "curvature of e_b", "curvature of e_c",
            "curvature of e_d", "connection-term entry",
            "connection entry", "spectrum reproduction",
        ]
        missing = [need for need in required if need not in quantities]
        alg = QuantumAlgebra("i")
        printed = printed_translation_matrices(alg.q2)
        exact_alpha = alg.translation_matrix("alpha") == printed["alpha"]
        exact_beta = alg.translation_matrix("beta") == printed["beta"]
        bs_enumerated = any("beta_star" in row["quantity"] and "32 entry mismatches" in row["computed"]
                            for row in doc["rows"])
    ok = not missing and exact_alpha and exact_beta and bs_enumerated
    record_criterion(10, "audit completeness (all fixtures have verdicts)", ok,
                     f"{len(doc['rows'])} rows; summary {doc['summary']}")
    assert not missing, f"missing audit rows: {missing}"
    assert exact_alpha and exact_beta
    assert bs_enumerated


def test_criterion_11_connection_term_necessity():
    with timed(5.0):
        _, full, _ = spectrum_pipeline("i")
        bare = sector_eigenvalues(build_dirac("i", include_connection=False).matrix, "i")
        a = sorted(full.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        b = sorted(bare.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        differs = any(abs(x - y) > 1e-6 for x, y in zip(a, b))
    record_criterion(11, "connection term changes the spectrum (not the bare operator)",
                     differs)
    assert differs
