import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from ncgq import linalg
from ncgq.algebra import QuantumAlgebra, TensorElement, basis_monomials, monomial_index, monomial_product
from ncgq.fixtures import printed_translation_matrices
from ncgq.hopf import coproduct_table, relation_residuals
from ncgq.scalars import GaussianRational, ONE, ZERO
from test_table_oracles import oracle_apply, oracle_multiply_out

random.seed(20260810)


@pytest.fixture(scope="module", params=["i", "-i"])
def alg(request):
    return QuantumAlgebra(request.param)


@pytest.fixture(scope="module")
def alg_i():
    return QuantumAlgebra("i")


def random_element(alg, rng, n_terms=3):
    coeffs = {}
    for _ in range(n_terms):
        m = (rng.randrange(4), rng.randrange(4))
        coeffs[m] = GaussianRational(Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6)))
    return alg.element(coeffs)


class TestNormalize:
    def test_swap_rule(self, alg):
        # b a = q^2 a b
        lhs = alg.beta * alg.alpha
        rhs = (alg.alpha * alg.beta).scale(alg.q2)
        assert lhs == rhs

    def test_alpha_fourth_power(self, alg):
        assert alg.alpha * alg.alpha * alg.alpha * alg.alpha == alg.one

    def test_beta_fourth_power_from_reference_matrix(self, alg):
        # the reference translation matrix forces b^3 * b = 1 in this basis
        assert alg.beta ** 4 == alg.one

    def test_commutator_relation_audited(self, alg):
        # The operational normal forms do not satisfy the bstar commutator
        # relation; the audit reports it (rather than silently patching).
        res = relation_residuals(alg)
        lhs = alg.beta * alg.beta_star - alg.beta_star * alg.beta
        rhs = (alg.alpha * (alg.delta - alg.alpha)).scale(alg.mu)
        assert lhs == alg.zero
        assert rhs == (alg.one - alg.alpha ** 2).scale(alg.mu)
        assert res["[b, bstar] = mu a (delta - a)"] == lhs - rhs

    def test_determinant_style_relation_holds(self, alg):
        res = relation_residuals(alg)
        assert not res["a delta - q^2 bstar b = 1"]
        assert not res["b a = q^2 a b"]
        assert not res["delta a = a delta"]
        assert not res["a^4 = 1"]
        assert not res["delta^4 = 1"]

    def test_normalize_idempotent(self, alg):
        w = ["beta", "alpha", "beta", "delta", "alpha", "beta_star"]
        x = math.prod(map(alg.generator, w), start=alg.one)
        # renormalizing the already-normal element is the identity
        assert alg.from_coords(x.coords()) == x


class TestElementValidation:
    """Coefficient keys enter only as the 16 normal-form monomials (p, r), 0 <= p, r <= 3."""

    @pytest.mark.parametrize("key", [(0, 4), (4, 0), (-1, 2), (2, -1), (1, 2, 0), (1,), "a",
                                     (1.0, 0), (True, 0), None])
    def test_element_rejects_keys_outside_the_normal_form(self, alg, key):
        with pytest.raises(ValueError):
            alg.element({key: ONE})
        with pytest.raises(ValueError):
            alg.element({(1, 1): ONE, key: ONE})

    def test_out_of_range_key_cannot_alias_a_monomial(self, alg):
        # b^4 = 1, but the key (0, 4) would have read table slot 4p + r = 4, that of a
        with pytest.raises(ValueError):
            alg.element({(0, 4): ONE})
        x = alg.element({(0, 0): ONE})
        assert x * alg.one == x and x == alg.one
        assert alg.antipode(alg.monomial(0, 4)) == alg.one

    def test_element_accepts_every_normal_form_key(self, alg):
        x = alg.element({m: ONE for m in basis_monomials()})
        assert sorted(x.coeffs) == basis_monomials()

    @pytest.mark.parametrize("n", [0, 15, 17])
    def test_from_coords_needs_sixteen_entries(self, alg, n):
        with pytest.raises(ValueError):
            alg.from_coords([ONE] * n)

    def test_from_coords_round_trip(self, alg):
        x = random_element(alg, random.Random(5))
        assert alg.from_coords(x.coords()) == x


class TestMultiply:
    def test_unit(self, alg):
        rng = random.Random(1)
        x = random_element(alg, rng)
        assert alg.one * x == x
        assert x * alg.one == x

    def test_ab_squared(self, alg):
        ab = alg.alpha * alg.beta
        expected = (alg.monomial(2, 2)).scale(alg.q2)
        assert ab * ab == expected

    def test_associativity_random(self, alg):
        rng = random.Random(7)
        for _ in range(200):
            x, y, z = (random_element(alg, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)


class TestModeChecks:
    """Tensors of the two roots never meet: equal coefficients, different algebras."""

    @pytest.fixture
    def pair(self):
        a_i, a_mi = QuantumAlgebra("i"), QuantumAlgebra("-i")
        return a_i.coproduct(a_i.alpha * a_i.beta), a_mi.coproduct(a_mi.alpha * a_mi.beta)

    def test_tensor_equality_needs_one_mode(self, pair):
        x, y = pair
        assert x.coeffs == y.coeffs
        assert x != y

    def test_tensor_sum_rejects_mixed_modes(self, pair):
        with pytest.raises(ValueError, match="mixed q modes"):
            pair[0] + pair[1]

    def test_tensor_product_rejects_mixed_modes(self, pair):
        with pytest.raises(ValueError, match="mixed q modes"):
            pair[0] * pair[1]


class TestHopfStructure:
    def test_coproduct_unit(self, alg):
        assert alg.coproduct(alg.one) == TensorElement.pure(alg.one, alg.one)

    def test_coproduct_generators(self, alg):
        # matrix-coalgebra form; the bstar term vanishes with the operational normal form
        da = alg.coproduct(alg.alpha)
        assert da == TensorElement.pure(alg.alpha, alg.alpha) + TensorElement.pure(alg.beta, alg.beta_star)
        db = alg.coproduct(alg.beta)
        assert db == TensorElement.pure(alg.alpha, alg.beta) + TensorElement.pure(alg.beta, alg.delta)

    def test_counit_examples(self, alg):
        assert alg.one.counit() == ONE
        assert (alg.beta ** 3).counit() == ZERO
        det = alg.alpha * alg.delta - (alg.beta_star * alg.beta).scale(alg.q2)
        assert det.counit() == ONE

    def test_counit_axioms_all_monomials(self, alg):
        for (p, r) in basis_monomials():
            x = alg.monomial(p, r)
            dx = alg.coproduct(x)
            left = alg.zero
            right = alg.zero
            for (m1, m2), c in dx.coeffs.items():
                left = left + alg.element({m2: c * alg.element({m1: ONE}).counit()})
                right = right + alg.element({m1: c * alg.element({m2: ONE}).counit()})
            assert left == x
            assert right == x

    def test_coassociativity_all_monomials(self, alg):
        for (p, r) in basis_monomials():
            dx = alg.coproduct(alg.monomial(p, r))
            lhs = {}
            rhs = {}
            for (m1, m2), c in dx.coeffs.items():
                for (n1, n2), c2 in alg.coproduct(alg.element({m1: ONE})).coeffs.items():
                    k = (n1, n2, m2)
                    lhs[k] = lhs.get(k, ZERO) + c * c2
                for (n1, n2), c2 in alg.coproduct(alg.element({m2: ONE})).coeffs.items():
                    k = (m1, n1, n2)
                    rhs[k] = rhs.get(k, ZERO) + c * c2
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}

    def test_antipode_axioms_all_monomials(self, alg):
        for (p, r) in basis_monomials():
            left, right = alg.antipode_axiom_defect(alg.monomial(p, r))
            assert not left
            assert not right

    def test_antipode_unit_and_example(self, alg):
        assert alg.antipode(alg.one) == alg.one
        # m(S (x) id) Delta(alpha) = 1, including the S(beta) bstar term
        da = alg.coproduct(alg.alpha)
        val = oracle_multiply_out(oracle_apply(da, alg.antipode, None))
        assert val == alg.one
        # explicit: S(alpha) alpha + S(beta) bstar = delta alpha = 1
        check = alg.antipode_on_generator("alpha") * alg.alpha \
            + alg.antipode_on_generator("beta") * alg.beta_star
        assert check == alg.one

    def test_antipode_is_an_involution_on_the_basis(self, alg):
        # S(S(m)) = m on all 16 monomials, so by linearity S^-1 = S, which the coaction and audit use
        for (p, r) in basis_monomials():
            m = alg.monomial(p, r)
            assert alg.antipode(alg.antipode(m)) == m


class TestUnbraidedCoproduct:
    """Delta(xy) = Delta(x) Delta(y) fails for the plain product of the tensor square, and for
    every diagonal braiding of it: the facts behind the audit's "coproduct multiplicativity" row.

    A diagonal braiding multiplies (m_i (x) m_j)(m_i' (x) m_j') = chi(m_j, m_i') m_i m_i' (x) m_j m_j'
    by a bicharacter chi(a^p b^r, a^p' b^r') = i^(A pp' + B pr' + C rp' + D rr') of Z4 x Z4; the
    256 choices of (A, B, C, D) mod 4 are all of them, and (0, 0, 0, 0) is the plain product.
    """

    @staticmethod
    def braided_defects(mode: str):
        """{(k, l): (the terms of Delta(m_k) Delta(m_l), Delta(m_k m_l))} over the 256 monomial pairs.

        A term is ((index of m_i m_i', index of m_j m_j'), (pp', pr', rp', rr'), coefficient), with
        (p, r) the exponents of m_j and (p', r') those of m_i'; a product is {(i, j): coefficient}.
        Coefficients are Gaussian integers held as complex numbers, exact at these sizes.
        """
        table, monomials = coproduct_table(mode), basis_monomials()

        def terms(k):
            it = iter(table[k])
            return [(i, s >> 1, complex(a, b)) for i, s, a, b in zip(it, it, it, it)]

        def times(i, j):
            m, negated = monomial_product(monomials[i], monomials[j])
            return monomial_index(m), -1 if negated else 1

        out = {}
        for k, l in itertools.product(range(16), repeat=2):
            kl, sign = times(k, l)
            products = []
            for (i, j, c), (i2, j2, c2) in itertools.product(terms(k), terms(l)):
                (left, s1), (right, s2) = times(i, i2), times(j, j2)
                (p, r), (p2, r2) = monomials[j], monomials[i2]
                products.append(((left, right), (p * p2, p * r2, r * p2, r * r2), s1 * s2 * c * c2))
            out[k, l] = products, {(i, j): sign * c for i, j, c in terms(kl)}
        return out

    @staticmethod
    def holds(products, want, chi) -> bool:
        got = {}
        for key, exponents, c in products:
            got[key] = got.get(key, 0) + c * (1, 1j, -1, -1j)[sum(map(mul, chi, exponents)) % 4]
        return {key: c for key, c in got.items() if c} == want

    def test_the_plain_product_fails_on_96_of_the_256_pairs(self, alg):
        monomials = [alg.monomial(p, r) for p, r in basis_monomials()]
        failing = {(k, l) for k, l in itertools.product(range(16), repeat=2)
                   if alg.coproduct(monomials[k]) * alg.coproduct(monomials[l])
                   != alg.coproduct(monomials[k] * monomials[l])}
        assert len(failing) == 96
        assert (2, 3) in failing  # the audit's witness x = b^2, y = b^3
        # the braided product below, at the trivial bicharacter, is TensorElement's product
        defects = self.braided_defects(alg.mode)
        assert failing == {kl for kl, (products, want) in defects.items()
                           if not self.holds(products, want, (0, 0, 0, 0))}

    def test_no_diagonal_braiding_makes_it_multiplicative(self, alg):
        defects = list(self.braided_defects(alg.mode).values())
        for chi in itertools.product(range(4), repeat=4):
            assert any(not self.holds(products, want, chi) for products, want in defects), chi


class TestTranslationMatrices:
    def test_column_of_unit_monomial(self, alg):
        m = alg.translation_matrix("alpha")
        col = [m[i][0] for i in range(16)]  # image of the monomial 1 is alpha = index 4
        assert col[4] == ONE
        assert sum(1 for c in col if c) == 1

    def test_beta_cubed_column(self, alg):
        m = alg.translation_matrix("beta")
        col = [m[i][3] for i in range(16)]  # b^3 * b = 1
        assert col[0] == ONE
        assert sum(1 for c in col if c) == 1

    def test_derived_alpha_beta_match_reference(self, alg_i):
        printed = printed_translation_matrices(alg_i.q2)
        for name in ("alpha", "beta"):
            derived = alg_i.translation_matrix(name)
            assert derived == printed[name]

    def test_betastar_and_delta_diverge_from_reference(self, alg_i):
        printed = printed_translation_matrices(alg_i.q2)
        derived_bs = alg_i.translation_matrix("beta_star")
        mism = sum(
            1
            for i in range(16)
            for j in range(16)
            if derived_bs[i][j] != printed["beta_star"][i][j]
        )
        assert mism == 32  # every nonzero reference entry
        derived_d = alg_i.translation_matrix("delta")
        assert derived_d != printed["delta"]

    def test_right_multiplication_antihomomorphism(self, alg):
        rng = random.Random(11)
        gens = [alg.alpha, alg.beta, alg.beta_star, alg.delta]
        pairs = [(x, y) for x in gens for y in gens]
        pairs += [(random_element(alg, rng), random_element(alg, rng)) for _ in range(50)]
        for x, y in pairs:
            mxy = alg.right_multiplication_matrix(x * y)
            mx = alg.right_multiplication_matrix(x)
            my = alg.right_multiplication_matrix(y)
            assert linalg.mat_eq(mxy, linalg.mat_mul(my, mx, ZERO))

    def test_printed_matrices_swap_rule(self, alg_i):
        # the reference matrices satisfy R_alpha R_beta = q^2 R_beta R_alpha
        printed = printed_translation_matrices(alg_i.q2)
        ra = printed["alpha"]
        rb = printed["beta"]
        lhs = linalg.mat_mul(ra, rb, ZERO)
        rhs = [[alg_i.q2 * x for x in row] for row in linalg.mat_mul(rb, ra, ZERO)]
        assert linalg.mat_eq(lhs, rhs)
