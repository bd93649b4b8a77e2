"""Named invariant checks shared by the CLI verify command and the test suite.

Each check returns a dict {mode, name, passed, detail}; the hard invariants
here are the ones the acceptance gate requires, so `ncgq verify` exits 0
exactly when the suite is green.
"""
from __future__ import annotations

import itertools


def _random_element(alg, rng):
    from .scalars import GaussianRational

    coeffs = {}
    for _ in range(2):
        coeffs[(rng.randrange(4), rng.randrange(4))] = GaussianRational(
            rng.randrange(-4, 5), rng.randrange(-4, 5))
    return alg.element(coeffs)


def run_checks(mode: str, forms_level_only: bool = False) -> list[dict]:
    """The verify suite at one root: the exact checks, then the spectral ones.

    Each check is a dict {mode, name, passed, detail}; `forms_level_only`
    keeps the forms-level checks alone.
    """
    out = exact_checks(mode, forms_level_only)
    if not forms_level_only:
        out += spectral_checks(mode)
    return out


def _recorder(mode: str, out: list[dict]):
    def record(name: str, passed: bool, detail: str = ""):
        out.append({"mode": mode, "name": name, "passed": bool(passed), "detail": detail})
    return record


def exact_checks(mode: str, forms_level_only: bool = False) -> list[dict]:
    """The forms-level and Hopf-level checks, exact over Q(i); no numerics."""
    import random

    from .algebra import QuantumAlgebra, basis_monomials  # here: `verify` forks before it compiles them
    from .calculus import Calculus, DiffForm, FORMS
    from .riemannian import Metric, reference_connection, regularity_check, riemann, riemann_basis
    from .scalars import ONE
    from .structure import reference_d_values
    alg = QuantumAlgebra(mode)
    cal = Calculus(alg)
    rng = random.Random(20260810)
    out: list[dict] = []
    record = _recorder(mode, out)

    # forms-level checks
    e = cal.basis_form
    record("reference values of d on basis 1-forms", all(reference_d_values(cal).values()))

    conf_ok = all(
        cal.wedge(cal.wedge(e(x), e(y)), e(z)) == cal.wedge(e(x), cal.wedge(e(y), e(z)))
        for x, y, z in itertools.product(FORMS, repeat=3)
    )
    record("wedge normal form confluence on basis triples", conf_ok)

    # wedge(eta + c theta (x) theta) = wedge(eta) + c theta ^ theta, so two zeros prove every c
    th = cal.theta()
    sym_ok = not Metric(cal).wedge_contraction() and not cal.wedge(th, th)
    record("metric symmetry wedge(eta) = 0 (with theta (x) theta shifts)", sym_ok)

    # the unnormalised mu d is 2 d, so its square is 4 d^2: one zero proves both normalizations
    dd_ok = all(not cal.exterior_d(cal.exterior_d(e(f))) for f in FORMS)
    record("d^2 = 0 on basis 1-forms (both normalizations)", dd_ok)

    if forms_level_only:
        return out

    # Hopf-level checks
    from .hopf import antipode_axioms_hold  # here: `verify --q generic` takes no antipode

    record("antipode axioms on all 16 basis monomials", antipode_axioms_hold(alg))

    dd_fn_ok = all(not cal.exterior_d(cal.exterior_d(cal.from_function(alg.monomial(p, r))))
                   for (p, r) in basis_monomials())  # one zero proves both, as for the 1-forms
    record("d^2 = 0 on all basis monomials (both normalizations)", dd_fn_ok)

    bimod_ok = True
    gens = [alg.generator(n) for n in ("alpha", "beta", "beta_star", "delta")]
    for form in FORMS:
        for g1 in gens:
            for g2 in gens:
                lhs = cal.commute_past(form, g1 * g2)
                mid = cal.commute_past(form, g1)
                rhs = cal.zero()
                for (fm,), el in mid.terms.items():
                    rhs = rhs + cal.commute_past(fm, g2).left_multiply(el)
                bimod_ok = bimod_ok and lhs == rhs
    record("bimodule associativity on all (form, generator, generator) triples", bimod_ok)

    leib_ok = True
    for _ in range(100):
        deg_x = rng.randrange(2)
        fx = _random_element(alg, rng)
        fy = _random_element(alg, rng)
        x = cal.from_function(fx) if deg_x == 0 else DiffForm(cal, {(rng.choice(FORMS),): fx})
        y = cal.from_function(fy) if rng.randrange(2) == 0 else DiffForm(cal, {(rng.choice(FORMS),): fy})
        sign = ONE if deg_x % 2 == 0 else -ONE
        leib_ok = leib_ok and (
            cal.exterior_d(cal.wedge(x, y))
            == cal.wedge(cal.exterior_d(x), y) + cal.wedge(x, cal.exterior_d(y)).scale(sign)
        )
    record("graded Leibniz rule on 100 random pairs", leib_ok)

    conn = reference_connection(cal)
    reg = regularity_check(cal, conn)
    record("connection is not regular (nonzero kernel violations)",
           not reg["regular"], f"{reg['n_violations']} violating directions")

    tens_ok = True
    for _ in range(50):
        f = _random_element(alg, rng)
        i = rng.choice(FORMS)
        lhs = riemann(cal, conn, DiffForm(cal, {(i,): f}))
        rhs_t = riemann_basis(cal, conn, i).left_multiply(f)
        tens_ok = tens_ok and lhs == rhs_t
    record("curvature tensoriality on 50 random function multiples", tens_ok)
    return out


def spectral_checks(mode: str) -> list[dict]:
    """The checks on the Dirac spectrum at one root.

    They share nothing with `exact_checks`, so the two halves can run side by
    side.  They first run `dirac`'s pipeline, so a D or a reference list that
    `dirac` rejects fails `verify` with the same error.  D then goes through
    the dense solver `dirac.eigenvalues`, and so imports numpy, because the
    residual and trace details print its digits.  Whether the connection term
    changes the spectrum matches the sector spectra of D and of the bare D.
    """
    from .dirac import build_dirac, compare_spectrum, eigenvalues, spectrum_pipeline
    from .sectors import sector_eigenvalues

    out: list[dict] = []
    record = _recorder(mode, out)
    dm, sectors, _ = spectrum_pipeline(mode)
    spec = eigenvalues(dm.matrix)
    record("eigensolver residual contract (1e-9 ||M||)",
           spec.max_residual() <= 1e-9 * spec.matrix_norm,
           f"max residual {spec.max_residual():.3g}")
    trace = sum(spec.eigenvalues)
    expected = sum(dm.matrix[k][k] for k in range(len(dm.matrix)))
    record("eigenvalue sum equals trace (1e-8 ||M||)",
           abs(trace - expected) <= 1e-8 * spec.matrix_norm)
    bare = sector_eigenvalues(build_dirac(mode, include_connection=False).matrix, mode)
    record("connection term changes the spectrum",
           compare_spectrum(sectors, bare.eigenvalues).max_distance > 1e-6)
    return out
