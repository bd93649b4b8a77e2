import random
from fractions import Fraction

import pytest

from ncgq.algebra import QuantumAlgebra, basis_monomials
from ncgq.calculus import Calculus, DiffForm, FORMS
from ncgq.constants import (CONNECTION_DB_DENOMINATOR_TAIL, CONNECTION_PRINTED,
                            evaluate_connection_printed)
from ncgq.riemannian import (DB_DENOMINATOR_CONSTANT, ConnectionAssembler, Metric,
                             SpinConnection, TensorForm, UNKNOWNS, connection_residuals,
                             covariant_derivative, covariant_derivative_basis,
                             printed_ad_tables, reference_connection,
                             regularity_check, riemann, riemann_basis,
                             riemann_of_tensor)
from ncgq.scalars import GaussianRational, ONE, ZERO

random.seed(20260810)


@pytest.fixture(scope="module", params=["i", "-i"])
def cal(request):
    return Calculus(QuantumAlgebra(request.param))


@pytest.fixture(scope="module")
def conn(cal):
    return reference_connection(cal)


def direct_riemann(cal, conn, x):
    """R(x) by its defining formula, with no image table."""
    return riemann_of_tensor(cal, conn, covariant_derivative(cal, conn, x))


def dense_one_form(cal, rng):
    """A 1-form on all four words and 16 monomials; every fourth coefficient has a 6-7 digit denominator."""
    terms = {}
    for n, (i, m) in enumerate((i, m) for i in FORMS for m in basis_monomials()):
        if n % 4 == 0:
            c = GaussianRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)),
                                 Fraction(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)))
        else:
            c = GaussianRational(rng.choice([-9, -5, -1, 1, 2, 7]), rng.randint(-9, 9))
        terms.setdefault((i,), {})[m] = c
    return DiffForm(cal, {w: cal.algebra.element(c) for w, c in terms.items()})


def random_element(alg, rng, n_terms=2):
    coeffs = {}
    for _ in range(n_terms):
        coeffs[(rng.randrange(4), rng.randrange(4))] = GaussianRational(
            rng.randrange(-4, 5), rng.randrange(-4, 5))
    return alg.element(coeffs)


class TestMetric:
    def test_symmetry(self, cal):
        assert not Metric(cal).wedge_contraction()

    def test_symmetry_with_theta_shifts(self, cal):
        m = Metric(cal)
        rng = random.Random(3)
        for _ in range(10):
            c = GaussianRational(rng.randrange(-9, 10), rng.randrange(-9, 10))
            assert not m.wedge_contraction(c)

    def test_rho_value_at_root(self):
        cal = Calculus(QuantumAlgebra("i"))
        assert Metric(cal).rho == GaussianRational("3/2", "1/2")

    def test_coefficient_entries(self, cal):
        m = Metric(cal)
        q = cal.algebra.q
        assert m.coeffs[("c", "b")] == ONE
        assert m.coeffs[("b", "c")] == q * q


class TestConnectionSystem:
    def test_assembly_shape(self, cal):
        system = ConnectionAssembler(cal).assemble()
        assert system.n_equations == 48
        assert len(system.unknowns) == 16

    def test_expected_equation_present(self, cal):
        # the cotorsion component pairing the (c,c) entry with the mixed
        # diagonal entries: -1 + A_c^c - (q^2/[2]_q) A_d^a + ((1+q^-1)/[2]_q) A_a^a = 0
        # holds at the reference values; locate a row proportional to it.
        q = cal.algebra.q
        A = evaluate_connection_printed(q)
        system = ConnectionAssembler(cal).assemble()
        res = system.residual({k: v for k, v in A.items()})
        # rows from the cotorsion family for e_c must include two that vanish
        labels = [lab for lab, r in zip(system.row_labels, res)
                  if lab[:2] == ("cotorsion", "c") and not r]
        assert len(labels) >= 2

    def test_system_is_exactly_inconsistent(self, cal):
        report = ConnectionAssembler(cal).assemble().rank_report()
        assert report["rank"] == 16
        assert report["augmented_rank"] == 17
        assert not report["consistent"]

    def test_substitute_keeps_the_equations_in_the_open_unknowns(self, cal):
        system = ConnectionAssembler(cal).assemble()
        printed = evaluate_connection_printed(cal.algebra.q)
        rest = system.substitute(printed)
        assert rest.unknowns == (("c", "a"), ("c", "b"), ("d", "b"))
        trial = {u: GaussianRational(k + 1, -k) for k, u in enumerate(rest.unknowns)}
        assert rest.residual(trial) == system.residual({**printed, **trial})

    def test_reference_values_do_not_solve_any_row_subset_fully(self, cal):
        system = ConnectionAssembler(cal).assemble()
        conn = reference_connection(cal)
        res = system.residual(conn.coefficients)
        assert any(res)  # nonzero residual rows exist: the table fails the equations


class TestReferenceConnection:
    def test_anchor_values_at_i(self):
        cal = Calculus(QuantumAlgebra("i"))
        conn = reference_connection(cal)
        assert conn.entry("a", "a") == GaussianRational("-3/17", "5/17")
        assert conn.entry("d", "a") == GaussianRational("4/17", "16/17")
        assert conn.entry("c", "c") == GaussianRational("2/17", "-9/17")
        assert conn.entry("b", "b") == GaussianRational("-11/17", "7/17")
        assert conn.entry("b", "a") == ZERO

    def test_adopted_db_constant_is_the_digit_pattern(self):
        # q^2 den(a,b) mod (q^4 - 1), in the printed integers, gives the (d,b)
        # denominator: the adopted constant (the audit's "9"), then the readable tail
        folded = [0] * 4
        for k, c in enumerate(CONNECTION_PRINTED[("a", "b")].den):
            folded[(k + 2) % 4] += c
        assert folded == [DB_DENOMINATOR_CONSTANT, *CONNECTION_DB_DENOMINATOR_TAIL]
        assert DB_DENOMINATOR_CONSTANT == 9

    def test_equality_ignores_the_caches(self):
        cal = Calculus(QuantumAlgebra("i"))
        a, b = reference_connection(cal), reference_connection(cal)
        covariant_derivative_basis(cal, a, "a")
        riemann_basis(cal, a, "a")
        assert a._nabla and a._riemann and not b._nabla
        assert a == b
        assert a != SpinConnection(dict(a.coefficients), "solver")

    @pytest.mark.parametrize("mode", ["i", "-i"])
    def test_one_read_only_table_per_q(self, mode):
        # every reference connection at a q shares one table of all 16 entries
        a, b = (reference_connection(Calculus(QuantumAlgebra(mode))) for _ in range(2))
        assert a.coefficients is b.coefficients
        assert sorted(a.coefficients) == sorted(UNKNOWNS)
        assert a.entry("c", "a") == a.entry("c", "b") == ZERO
        with pytest.raises(TypeError):
            a.coefficients[("d", "b")] = ZERO

    def test_closed_forms_at_one(self):
        one = GaussianRational(1)
        A = evaluate_connection_printed(one)
        assert A[("a", "a")] == GaussianRational(6)
        assert A[("d", "a")] == GaussianRational(4)
        assert A[("b", "b")] == ZERO
        assert A[("c", "c")] == GaussianRational(5)

    def test_residual_flags_computed(self, cal, conn):
        res = connection_residuals(ConnectionAssembler(cal).assemble(), conn)
        assert any(res["torsion"].values())
        assert any(res["cotorsion"].values())


def wedge_residuals(cal, connection):
    """Oracle: the torsion and cotorsion 2-forms of a connection, by wedges of forms.

    d e_i + sum_jk ad_L(jk|i) A_j ^ e_k and d e_i + sum_jk ad_R(jk|i) e_j ^ A_k.
    """
    ad_left, ad_right = printed_ad_tables(cal.algebra.q)
    out = {"torsion": {}, "cotorsion": {}}
    for i in FORMS:
        de = cal.exterior_d(cal.basis_form(i))
        t = ct = de
        for (j, k), c in ad_left[i].items():
            t = t + cal.wedge(connection.form(j, cal), cal.basis_form(k)).scale(c)
        for (j, k), c in ad_right[i].items():
            ct = ct + cal.wedge(cal.basis_form(j), connection.form(k, cal)).scale(c)
        out["torsion"][i], out["cotorsion"][i] = t, ct
    return out


class TestConnectionResiduals:
    """The residuals read off the assembled equations are the wedge-formula 2-forms."""

    def _check(self, cal, connection):
        got = connection_residuals(ConnectionAssembler(cal).assemble(), connection)
        want = wedge_residuals(cal, connection)
        alg = cal.algebra
        for kind in ("torsion", "cotorsion"):
            assert set(got[kind]) == set(FORMS)
            for i in FORMS:
                form = DiffForm(cal, {w: alg.scalar(r) for w, r in got[kind][i].items()})
                assert form == want[kind][i]

    def test_reference_connection(self, cal, conn):
        self._check(cal, conn)

    def test_random_connections(self, cal):
        rng = random.Random(13)
        for _ in range(10):
            values = {(i, j): GaussianRational(rng.randrange(-4, 5), rng.randrange(-4, 5))
                      for i in FORMS for j in FORMS}
            self._check(cal, SpinConnection(coefficients=values, source="test"))


class TestCovariantDerivativeAndCurvature:
    def test_derivation_rule(self, cal, conn):
        rng = random.Random(9)
        for _ in range(10):
            f = random_element(cal.algebra, rng)
            i = rng.choice(FORMS)
            lhs = covariant_derivative(cal, conn, DiffForm(cal, {(i,): f}))
            df = cal.exterior_d(cal.from_function(f))
            rhs = TensorForm(cal, {i: df}) + covariant_derivative_basis(cal, conn, i).left_multiply(f)
            assert lhs == rhs

    def test_riemann_tensoriality(self, cal, conn):
        rng = random.Random(11)
        for _ in range(50):
            f = random_element(cal.algebra, rng)
            i = rng.choice(FORMS)
            lhs = riemann(cal, conn, DiffForm(cal, {(i,): f}))
            rhs = riemann_basis(cal, conn, i).left_multiply(f)
            assert lhs == rhs

    def test_riemann_tensoriality_on_basis(self, cal, conn):
        # R(f e_i) = f R(e_i) is linear in f, so the 16 monomials x 4 forms prove it
        alg = cal.algebra
        for i in FORMS:
            base = riemann_basis(cal, conn, i)
            for (p, r) in basis_monomials():
                m = alg.monomial(p, r)
                assert riemann(cal, conn, DiffForm(cal, {(i,): m})) == base.left_multiply(m)

    def test_riemann_nonzero(self, cal, conn):
        assert any(riemann_basis(cal, conn, i) for i in FORMS)

    def test_nabla_basis_is_reused_in_each_calculus(self, cal, conn):
        # nabla e_i is computed once per mode and connection; every call gets
        # the defining sum, bound to the calculus it passed
        ad_left, _ = printed_ad_tables(cal.algebra.q)
        fresh = Calculus(QuantumAlgebra(cal.algebra.mode))
        for i in FORMS:
            want = TensorForm(cal, {})
            for (j, k), c in ad_left[i].items():
                want = want + TensorForm(cal, {k: conn.form(j, cal).scale(-c)})
            for c in (cal, fresh, cal):
                got = covariant_derivative_basis(c, conn, i)
                assert got == want
                assert got.calculus is c and all(leg.calculus is c for leg in got.terms.values())

    def test_riemann_basis_is_computed_once_per_mode(self, cal, monkeypatch):
        # R(e_i) is the image of m = 1, which riemann_of_tensor fills once per mode and image
        # table; riemann(f e_i) fills the images of f's monomials (here a and b) on its first call
        # only.  The shared table of the reference connections starts empty here.
        import ncgq.riemannian as riemannian
        monkeypatch.setattr(riemannian, "_REFERENCE_IMAGES", {})
        conn = reference_connection(cal)
        want = {i: riemann_of_tensor(cal, conn, covariant_derivative_basis(cal, conn, i)) for i in FORMS}
        calls = []
        original = riemannian.riemann_of_tensor
        monkeypatch.setattr(riemannian, "riemann_of_tensor",
                            lambda *args: calls.append(args[2]) or original(*args))
        fresh = Calculus(QuantumAlgebra(cal.algebra.mode))
        for c in (cal, fresh, cal):
            for i in FORMS:
                got = riemann_basis(c, conn, i)
                assert got == want[i]
                assert got.calculus is c and all(leg.calculus is c for leg in got.terms.values())
        assert len(calls) == len(FORMS)
        f = cal.algebra.alpha + cal.algebra.beta
        for _ in range(2):
            assert riemann(cal, conn, DiffForm(cal, {("a",): f})) == riemann_basis(cal, conn, "a").left_multiply(f)
        assert len(calls) == len(FORMS) + 2

    @pytest.mark.parametrize("words", [[()], [("a", "c")], [("b",), ("a", "d")]],
                             ids=["0-form", "2-form", "degrees 1 and 2"])
    def test_nabla_and_curvature_take_only_1_forms(self, cal, conn, words):
        x = DiffForm(cal, {w: cal.algebra.alpha + cal.algebra.one for w in words})
        with pytest.raises(ValueError, match="^covariant derivative is defined on 1-forms$"):
            covariant_derivative(cal, conn, x)
        with pytest.raises(ValueError, match="^curvature R is defined on 1-forms$"):
            riemann(cal, conn, x)

    def test_tensor_form_rejects_a_leg_of_another_mode(self):
        cal_i, cal_mi = Calculus(QuantumAlgebra("i")), Calculus(QuantumAlgebra("-i"))
        with pytest.raises(ValueError, match="mixed q modes"):
            TensorForm(cal_i, {"a": cal_mi.basis_form("a")})
        with pytest.raises(ValueError, match="mixed q modes"):
            TensorForm(cal_i, {"a": cal_i.basis_form("b"), "b": cal_mi.zero()})

    def test_tensor_sum_rejects_mixed_modes_on_disjoint_legs(self):
        cal_i, cal_mi = Calculus(QuantumAlgebra("i")), Calculus(QuantumAlgebra("-i"))
        x = TensorForm(cal_i, {"a": cal_i.basis_form("a")})
        y = TensorForm(cal_mi, {"b": cal_mi.basis_form("a")})
        for lhs, rhs in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="mixed q modes"):
                lhs + rhs


class TestCurvatureImages:
    """riemann reads the images R(m e_i), each filled from the defining formula on m e_i."""

    def test_every_image_is_the_formula_on_its_basis_element(self, cal, conn):
        alg = cal.algebra
        for i in FORMS:
            for (p, r) in basis_monomials():
                x = DiffForm(cal, {(i,): alg.monomial(p, r)})
                assert riemann(cal, conn, x) == direct_riemann(cal, conn, x)
        assert all(all(conn._riemann[(alg.mode, i)]) for i in FORMS)

    def test_dense_forms_match_the_formula(self, cal, conn):
        rng = random.Random(20)
        for _ in range(20):
            x = dense_one_form(cal, rng)
            assert riemann(cal, conn, x) == direct_riemann(cal, conn, x)

    def test_a_second_reference_connection_fills_no_image(self, cal, monkeypatch):
        import ncgq.riemannian as riemannian
        x = dense_one_form(cal, random.Random(5))
        want = riemann(cal, reference_connection(cal), x)
        calls = []
        original = riemannian.riemann_of_tensor
        monkeypatch.setattr(riemannian, "riemann_of_tensor",
                            lambda *args: calls.append(args[2]) or original(*args))
        fresh = Calculus(QuantumAlgebra(cal.algebra.mode))
        other = reference_connection(fresh)
        assert riemann(fresh, other, DiffForm(fresh, x.terms)) == want
        assert all(riemann_basis(fresh, other, i) for i in FORMS)
        assert calls == []

    def test_a_changed_connection_has_images_of_its_own(self, cal, conn):
        x = dense_one_form(cal, random.Random(6))
        reference = riemann(cal, conn, x)
        values = dict(conn.coefficients)
        values[("a", "b")] = values[("a", "b")] + ONE
        changed = SpinConnection(values, "reference-table")
        got = riemann(cal, changed, x)
        assert got != reference and got == direct_riemann(cal, changed, x)
        assert changed._riemann is not conn._riemann

    def test_each_fill_derives_one_basis_element(self, cal, monkeypatch):
        import ncgq.riemannian as riemannian
        monkeypatch.setattr(riemannian, "_REFERENCE_IMAGES", {})
        conn = reference_connection(cal)
        derived, fills = [], []
        nabla, curvature = riemannian.covariant_derivative, riemannian.riemann_of_tensor
        monkeypatch.setattr(riemannian, "covariant_derivative",
                            lambda *args: derived.append(args[2]) or nabla(*args))
        monkeypatch.setattr(riemannian, "riemann_of_tensor",
                            lambda *args: fills.append(args[2]) or curvature(*args))
        x = dense_one_form(cal, random.Random(7))
        for _ in range(2):
            riemann(cal, conn, x)
        alg = cal.algebra
        assert len(fills) == len(derived) == 64
        assert {(w, f) for form in derived for w, f in form.terms.items()} == {
            ((i,), alg.monomial(p, r)) for i in FORMS for (p, r) in basis_monomials()}
        assert all(len(form.terms) == 1 for form in derived)

class TestRegularity:
    def test_zero_function_passes(self, cal, conn):
        # the regularity expression on the zero function is trivially zero;
        # the kernel basis is nontrivial and yields violations
        rep = regularity_check(cal, conn)
        assert rep["kernel_dimension"] == 11
        assert rep["n_violations"] >= 1
        assert rep["regular"] is False

    def test_violations_are_exact_2forms(self, cal, conn):
        rep = regularity_check(cal, conn)
        for idx, val in rep["violations"]:
            assert val  # exact nonzero element of the invariant 2-forms
            assert all(len(wrd) == 2 for wrd in val.terms)
