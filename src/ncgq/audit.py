"""Consistency audit: every reference fixture gets a printed/computed verdict.

The report is a flat list of rows {section, quantity, printed, computed,
verdict} with verdict in {match, mismatch, unparseable}; nothing is silently
patched, and reconstruction decisions (where the reproduction pipeline departs
from corrupted reference data) each get their own row.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from . import linalg
from .algebra import QuantumAlgebra
from .calculus import Calculus, DiffForm, FORMS
from .constants import (CONNECTION_PRINTED, LAMBDA_C, NU, XI,
                        evaluate_connection_printed)
from .fixtures import printed_spectrum, printed_translation_matrices
from .riemannian import (ConnectionAssembler, SpinConnection, TensorForm,
                         connection_residuals, covariant_derivative_basis,
                         printed_ad_tables, reference_connection, regularity_check,
                         riemann_basis)
from .scalars import ONE, ZERO, format_gaussian
from .verification import antipode_axioms_hold, reference_d_values


@dataclass
class AuditRow:
    section: str
    quantity: str
    printed: str
    computed: str
    verdict: str  # match | mismatch | unparseable


def _row(section, quantity, printed, computed, verdict) -> AuditRow:
    return AuditRow(section, quantity, str(printed), str(computed), verdict)


def _verdict(equal: bool) -> str:
    return "match" if equal else "mismatch"


# -- algebra section ----------------------------------------------------------------


def audit_algebra(alg: QuantumAlgebra) -> list[AuditRow]:
    rows: list[AuditRow] = []
    printed = printed_translation_matrices(alg.q)

    for name in ("alpha", "beta", "beta_star", "delta"):
        derived = alg.translation_matrix(name)
        bad = [(i + 1, j + 1) for i in range(16) for j in range(16)
               if derived[(i, j)] != printed[name][(i, j)]]
        detail = f"derived from normal forms; {len(bad)} entry mismatches"
        if bad:
            detail += " at (row, col): " + ", ".join(f"({i},{j})" for i, j in bad)
        rows.append(_row(
            "algebra", f"translation matrix {name}",
            "reference fixture (source: paper)",
            detail,
            _verdict(not bad),
        ))

    # the reference claim that the delta and alpha operators coincide
    derived_delta = alg.translation_matrix("delta")
    derived_alpha = alg.translation_matrix("alpha")
    same = derived_delta.entries == derived_alpha.entries
    rows.append(_row(
        "algebra", "claim R_delta = R_alpha",
        "asserted equal",
        "derived operators differ (delta normal form is a^3); "
        "spectra instead require R_delta = q^2 R_alpha",
        _verdict(same),
    ))

    # laws satisfied by the printed matrices themselves
    ra = printed["alpha"].rows()
    rb = printed["beta"].rows()
    rbs = printed["beta_star"].rows()
    rd = printed["delta"].rows()
    lhs = linalg.mat_mul(ra, rb, ZERO)
    rhs = [[alg.q2 * x for x in row] for row in linalg.mat_mul(rb, ra, ZERO)]
    rows.append(_row(
        "algebra", "printed matrices: R_alpha R_beta = q^2 R_beta R_alpha",
        "implied by the swap relation", "checked entrywise",
        _verdict(linalg.mat_eq(lhs, rhs)),
    ))
    comm = [[a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(linalg.mat_mul(rbs, rb, ZERO), linalg.mat_mul(rb, rbs, ZERO))]
    rda = linalg.mat_mul(rd, ra, ZERO)
    ra2 = linalg.mat_mul(ra, ra, ZERO)
    target = [[alg.mu * (x - y) for x, y in zip(r1, r2)] for r1, r2 in zip(rda, ra2)]
    n_bad = sum(1 for r1, r2 in zip(comm, target) for x, y in zip(r1, r2) if x != y)
    rows.append(_row(
        "algebra", "printed matrices: commutator law for bstar and beta",
        "mu (R_delta R_alpha - R_alpha^2)",
        f"discrepant in {n_bad} entries",
        _verdict(n_bad == 0),
    ))

    # defining relations under the operational normal forms
    for rel, residual in alg.relation_residuals().items():
        rows.append(_row(
            "algebra", f"relation {rel}",
            "holds in the reference presentation",
            "residual 0" if not residual else f"residual {residual}",
            _verdict(not residual),
        ))

    # operational normal-form assumptions, recorded explicitly
    rows.append(_row(
        "algebra", "normal form bstar",
        f"reference matrix column encodes {alg.beta_star_reference}",
        f"operational value {alg.beta_star} (forced by the exact Hopf axioms)",
        "mismatch",
    ))
    rows.append(_row(
        "algebra", "normal form delta = a^3 (1 + q^2 bstar b)",
        "reference formula", f"operational value {alg.delta}", "match",
    ))
    rows.append(_row(
        "algebra", "normal form b^4",
        "reference matrix forces b^3 * b = 1", "operational value 1", "match",
    ))

    # Hopf axioms
    ok = antipode_axioms_hold(alg)
    rows.append(_row(
        "algebra", "antipode axioms on all 16 monomials",
        "required", "hold exactly" if ok else "fail", _verdict(ok),
    ))

    # bialgebra multiplicativity fails on wraparound products (braided obstruction)
    x = alg.beta ** 2
    y = alg.beta ** 3
    lhs_t = alg.coproduct(x) * alg.coproduct(y)
    rhs_t = alg.coproduct(x * y)
    rows.append(_row(
        "algebra", "coproduct multiplicativity Delta(xy) = Delta(x) Delta(y)",
        "required for an ordinary bialgebra",
        "fails on b-degree wraparound (witness x = b^2, y = b^3); "
        "the reduced object is braided",
        _verdict(lhs_t == rhs_t),
    ))
    return rows


# -- calculus section ------------------------------------------------------------------


def audit_calculus(cal: Calculus) -> list[AuditRow]:
    rows: list[AuditRow] = []
    alg = cal.algebra

    for q_, ok in reference_d_values(cal).items():
        rows.append(_row("calculus", q_, "reference value", "reproduced exactly" if ok else "differs",
                         _verdict(ok)))

    rows.append(_row(
        "calculus", "square relations e_a^2 = e_b^2 = e_c^2 = 0",
        "not printed; Grassmann behaviour asserted in prose",
        "adopted; validated by the metric symmetry and d^2 = 0", "match",
    ))
    rows.append(_row(
        "calculus", "pair rule e_c ^ e_b = -e_b ^ e_c",
        "one printed relation implies the symmetric variant (+)",
        "antisymmetric variant forced by wedge(eta) = 0; the printed variant "
        "is inconsistent with the metric and treated as a misprint",
        "mismatch",
    ))

    # dependent-generator commutation rules vs operational normal forms
    gamma = alg.beta_star
    delta = alg.delta
    rule_delta_a = cal.commute_past("a", delta)
    printed_rule_a = DiffForm(cal, {
        ("a",): delta.scale(alg.q.inverse()) + alg.alpha.scale(alg.q * alg.mu * alg.mu),
        ("b",): alg.beta.scale(alg.mu),
    })
    rows.append(_row(
        "calculus", "rule [e_a, delta]_{q^-1} vs operational delta",
        "mu b e_b + q mu^2 a e_a",
        "operational commutation of e_a past a^3 disagrees",
        _verdict(rule_delta_a == printed_rule_a),
    ))
    rows.append(_row(
        "calculus", "repaired rule assignment (e_c, delta)",
        "final printed rule reassigned from the duplicated (e_d, delta) slot",
        "retained as fixture; dependent-generator rules never fire in the "
        "engine because bstar and delta are eliminated on input",
        "unparseable",
    ))
    rows.append(_row(
        "calculus", "power line e_c b^r",
        "printed line duplicates the e_b b^r line",
        "engine rule [e_c, b]_q = 0 gives e_c b^r = q^r b^r e_c",
        "unparseable",
    ))

    # projection values on the four generators
    proj_alpha = cal.pi_tilde(alg.alpha)
    q = alg.q
    two_q = ONE + q
    ok_a = (proj_alpha["a"] == q * q / two_q and proj_alpha["d"] == -q / two_q
            and not proj_alpha["b"] and not proj_alpha["c"])
    rows.append(_row("calculus", "projection of alpha", "q/[2]_q (q e_a - e_d)",
                     "reproduced exactly" if ok_a else "differs", _verdict(ok_a)))
    proj_beta = cal.pi_tilde(alg.beta)
    ok_b = proj_beta == {"a": ZERO, "b": ZERO, "c": ONE, "d": ZERO}
    rows.append(_row("calculus", "projection of beta", "e_c",
                     "reproduced exactly" if ok_b else "differs", _verdict(ok_b)))
    proj_gamma = cal.pi_tilde(gamma)
    rows.append(_row("calculus", "projection of bstar", "e_b",
                     f"operational value {dict((k, str(v)) for k, v in proj_gamma.items() if v) or 0}",
                     "mismatch"))
    proj_delta = cal.pi_tilde(delta)
    rows.append(_row("calculus", "projection of delta",
                     "1/[2]_q (q^2 e_d - (1+q^-1) e_a)",
                     f"operational value on a^3: "
                     f"{ {k: str(v) for k, v in proj_delta.items() if v} }",
                     "mismatch"))

    # partials vs translation-minus-identity
    parts = cal.partials(alg.alpha, normalized=False)
    r_minus_id = alg.alpha * alg.alpha - alg.alpha
    rows.append(_row(
        "calculus", "unnormalized a-partial vs R_alpha - id",
        "claimed equal",
        f"graded-commutator value {parts['a']}; translation value {r_minus_id}",
        _verdict(parts["a"] == r_minus_id),
    ))

    # structure constants: recomputed vs printed, entrywise counts
    printed_l, printed_r = printed_ad_tables(q)
    got_r = cal.ad_right()
    got_l = cal.ad_left()
    for label, printed_t, got_t in (("right", printed_r, got_r), ("left", printed_l, got_l)):
        n_bad = 0
        for i in FORMS:
            keys = set(printed_t[i]) | set(got_t.get(i, {}))
            for k in keys:
                if printed_t[i].get(k, ZERO) != got_t.get(i, {}).get(k, ZERO):
                    n_bad += 1
        rows.append(_row(
            "calculus", f"braided structure constants ({label}) recomputation",
            "reference table",
            f"first-principles recomputation disagrees in {n_bad} entries "
            "(the reference table remains the operative input)",
            _verdict(n_bad == 0),
        ))

    # nu, xi closed forms vs their self-referential definitions
    A = evaluate_connection_printed(q)
    ada, aaa = A[("d", "a")], A[("a", "a")]
    nu_self = (q * q * ada) / (ada * ada - aaa * aaa)
    xi_self = (q * q * aaa) / (aaa * aaa - ada * ada)
    rows.append(_row(
        "calculus", "nu closed form vs self-referential definition",
        format_gaussian(NU.evaluate_at(q)), format_gaussian(nu_self),
        _verdict(NU.evaluate_at(q) == nu_self),
    ))
    rows.append(_row(
        "calculus", "xi closed form vs self-referential definition",
        format_gaussian(XI.evaluate_at(q)), format_gaussian(xi_self),
        _verdict(XI.evaluate_at(q) == xi_self),
    ))
    rows.append(_row(
        "calculus", "lambda closed form vs the (c,c) connection entry",
        format_gaussian(LAMBDA_C.evaluate_at(q)),
        format_gaussian(CONNECTION_PRINTED[("c", "c")].evaluate_at(q)),
        _verdict(LAMBDA_C == CONNECTION_PRINTED[("c", "c")]),
    ))

    dims = cal.exterior.graded_dimensions()
    rows.append(_row(
        "calculus", "graded dimensions of the invariant exterior algebra",
        "top degree not stated in the reference",
        str(dims), "unparseable",
    ))
    return rows


# -- riemannian section ---------------------------------------------------------------


def audit_riemannian(cal: Calculus, conn: SpinConnection) -> list[AuditRow]:
    rows: list[AuditRow] = []
    q = cal.algebra.q

    system = ConnectionAssembler(cal).assemble()
    rep = system.rank_report()
    rows.append(_row(
        "riemannian", "torsion + cotorsion linear system",
        "unique solution claimed",
        f"rank {rep['rank']}/{rep['n_unknowns']}, augmented rank "
        f"{rep['augmented_rank']}: exactly inconsistent",
        _verdict(rep["consistent"]),
    ))

    printed_vals = evaluate_connection_printed(q)
    rest = system.substitute(printed_vals).rank_report()
    rows.append(_row(
        "riemannian", "reference connection table vs the assembled equations",
        "stated to solve the torsion/cotorsion equations",
        f"substituting the {len(printed_vals)} parseable values leaves "
        f"{'a consistent' if rest['consistent'] else 'an inconsistent'} system in "
        f"the {rest['n_unknowns']} remaining unknowns (every assembly convention; see scripts/)",
        _verdict(rest["consistent"]),
    ))
    res = connection_residuals(system, conn)
    n_torsion = sum(1 for v in res["torsion"].values() if v)
    n_cotorsion = sum(1 for v in res["cotorsion"].values() if v)
    rows.append(_row(
        "riemannian", "reference connection residuals",
        "torsion and cotorsion zero",
        f"nonzero torsion rows: {n_torsion}/4, cotorsion rows: {n_cotorsion}/4",
        _verdict(n_torsion == 0 and n_cotorsion == 0),
    ))

    # covariant derivative audit against the reference expansions
    from .constants import NABLA_PRINTED

    for i in FORMS:
        got = covariant_derivative_basis(cal, conn, i)
        want = TensorForm(cal, {})
        for (j, k, coeff) in NABLA_PRINTED[i]:
            c = coeff.evaluate_at(q)
            add = conn.form(j, cal).scale(c)
            want = want + TensorForm(cal, {k: add})
        rows.append(_row(
            "riemannian", f"covariant derivative of e_{i} vs reference expansion",
            "reference display", "computed from the structure-constant formula",
            _verdict(got == want),
        ))

    # curvature audit
    from .constants import RIEMANN_PRINTED

    for i in FORMS:
        got = riemann_basis(cal, conn, i)
        want = TensorForm(cal, {})
        for (j, j2, k, coeff) in RIEMANN_PRINTED[i]:
            c = coeff.evaluate_at(q)
            wedge = cal.wedge(conn.form(j, cal), conn.form(j2, cal)).scale(c)
            want = want + TensorForm(cal, {k: wedge})
        rows.append(_row(
            "riemannian", f"curvature of e_{i} vs reference expansion",
            "reference display", "computed from (id ^ nabla - d (x) id) nabla",
            _verdict(got == want),
        ))

    reg = regularity_check(cal, conn)
    rows.append(_row(
        "riemannian", "regularity of the connection",
        "not in general regular",
        f"{reg['n_violations']} of {reg['kernel_dimension']} kernel directions violate",
        _verdict(not reg["regular"]),
    ))

    # per-entry verdicts for the reference table: the diagonal sector is
    # cross-validated (self-referential constants; spectral trace identities),
    # the b/c-columns are not
    validated = {("a", "a"), ("d", "d"), ("d", "a"), ("a", "d"), ("c", "c"), ("b", "b")}
    for key in sorted(CONNECTION_PRINTED):
        cross = key in validated
        rows.append(_row(
            "riemannian", f"connection entry ({key[0]},{key[1]})",
            format_gaussian(printed_vals[key]),
            "cross-validated by independent identities" if cross
            else "inconsistent with the assembled equations and the published spectra",
            _verdict(cross),
        ))

    # per-entry comparison of the corrupted entry reconstruction
    rows.append(_row(
        "riemannian", "connection entry (d,b)",
        "denominator constant unreadable",
        f"adopted constant 9 (digit pattern match); value at this q: "
        f"{format_gaussian(conn.entry('d', 'b'))}",
        "unparseable",
    ))
    for key in (("c", "a"), ("c", "b")):
        rows.append(_row(
            "riemannian", f"connection entry ({key[0]},{key[1]})",
            "never printed", "taken as 0 (as the reference Dirac proof does)",
            "unparseable",
        ))
    return rows


# -- dirac section -------------------------------------------------------------------


def audit_dirac(cal: Calculus, conn: SpinConnection) -> list[AuditRow]:
    from .dirac import (a_slash_first_principles, a_slash_printed,
                        build_dirac, compare_spectrum, diagonal_scalars,
                        eigenvalues)

    rows: list[AuditRow] = []
    q = cal.algebra.q

    printed_as = a_slash_printed(conn, q)
    fp_as = a_slash_first_principles(cal, conn)
    for entry in sorted(printed_as):
        rows.append(_row(
            "dirac", f"connection-term entry {entry}",
            format_gaussian(printed_as[entry]),
            format_gaussian(fp_as[entry]) + " (first principles over the operational algebra)",
            _verdict(printed_as[entry] == fp_as[entry]),
        ))

    diag = diagonal_scalars("i")
    rows.append(_row(
        "dirac", "diagonal connection scalars at q=i",
        "from reference closed forms",
        f"s11 = {format_gaussian(diag['s11'])}, s22 = {format_gaussian(diag['s22'])}; "
        "eigenvalue sums of the printed lists confirm both (trace identity)",
        "match",
    ))

    for mode in ("1", "i", "-i"):
        dm = build_dirac(mode)
        spec = eigenvalues(dm.matrix, mode=mode)
        rep = compare_spectrum(spec, printed_spectrum(mode))
        rows.append(_row(
            "dirac", f"spectrum reproduction at q={mode}",
            "reference eigenvalue list",
            f"max matched distance {rep.max_distance:.3g}",
            _verdict(rep.max_distance <= 1e-3),
        ))

    rows.append(_row(
        "dirac", "off-diagonal block assignment",
        "not stated (only the a-partial is identified)",
        "bstar-translation block pairs with the first spinor row "
        "(projection duality); adjudicated by the q=1 spectrum decode",
        "unparseable",
    ))
    rows.append(_row(
        "dirac", "off-diagonal connection scalars",
        "formulas reference corrupted table entries (values give distance ~3)",
        "reconstructed from the published spectra; see fixture dirac_scalars.json",
        "mismatch",
    ))
    rows.append(_row(
        "dirac", "q=1 spectral mode",
        "printed despite q^2 != 1 in the reference presentation",
        "labeled extrapolated in all outputs",
        "unparseable",
    ))
    return rows


def _calculus(mode: str) -> Calculus:
    return Calculus(QuantumAlgebra(mode if mode in ("i", "-i") else "i"))


def exact_sections(mode: str) -> list[AuditRow]:
    """The algebra, calculus and riemannian rows, exact over Q(i); no numerics."""
    cal = _calculus(mode)
    return (audit_algebra(cal.algebra) + audit_calculus(cal)
            + audit_riemannian(cal, reference_connection(cal)))


def dirac_section(mode: str) -> list[AuditRow]:
    """The Dirac rows, from a calculus and reference connection of their own.

    They share nothing with `exact_sections`, and numpy is imported here
    only, so the two can run side by side.
    """
    cal = _calculus(mode)
    return audit_dirac(cal, reference_connection(cal))


def build_audit_report(mode: str = "i") -> dict:
    return audit_report(mode, exact_sections(mode) + dirac_section(mode))


def audit_report(mode: str, rows: list[AuditRow]) -> dict:
    """The audit document: the rows of every section, in order, and their verdict counts."""
    summary = {
        "match": sum(1 for r in rows if r.verdict == "match"),
        "mismatch": sum(1 for r in rows if r.verdict == "mismatch"),
        "unparseable": sum(1 for r in rows if r.verdict == "unparseable"),
    }
    return {
        "q_mode": mode,
        "rows": [asdict(r) for r in rows],
        "summary": summary,
    }
