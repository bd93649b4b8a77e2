"""The fraction-free maps against their term-by-term GaussianRational oracles.

Every element is one denominator over Gaussian-integer numerators, and every
map of the algebra and the calculus accumulates those numerators over one
common denominator and normalises its result by one gcd per element.  These
tests check that each result is canonical, and hold each map to the oracles of
tests/test_table_oracles.py, at both roots, on the inputs where that can go
wrong: 6- to 7-digit denominators, denominators that share factors (so their
lcm is not their product), results that cancel to Gaussian integers or to
exact zero.  Table entries are Gaussian integers: an exterior algebra whose
pair rule has a non-integral coefficient is rejected where it reaches one.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from ncgq.algebra import (AlgebraElement, QuantumAlgebra, TensorElement, basis_monomials,
                          monomial_product, monomial_table)
from ncgq.calculus import Calculus, DiffForm, ExteriorAlgebra, FORMS
from ncgq.riemannian import TensorForm
from ncgq.scalars import GaussianRational
from test_table_oracles import (oracle_antipode, oracle_coproduct, oracle_d, oracle_mul, oracle_pure,
                                oracle_tensor_mul, oracle_wedge, tensor_coeffs)

ORDERED_WORDS = [w for n in range(5) for w in itertools.combinations(FORMS, n)]
# denominators built from a few shared primes, so the lcm of several is far below their product
SHARED_PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.fixture(scope="module", params=["i", "-i"])
def cal(request):
    return Calculus(QuantumAlgebra(request.param))


def large_denominators(rng: random.Random) -> GaussianRational:
    if rng.randrange(3):
        return GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
    return GaussianRational(Fraction(rng.randint(-10**7, 10**7), rng.randint(10**5, 10**7)),
                            Fraction(rng.randint(-10**7, 10**7), rng.randint(10**5, 10**7)))


def shared_denominators(rng: random.Random) -> GaussianRational:
    def den():
        out = 1
        for p in rng.sample(SHARED_PRIMES, 3):
            out *= p ** rng.randint(1, 3)
        return out
    return GaussianRational(Fraction(rng.randint(-999, 999), den()),
                            Fraction(rng.randint(-999, 999), den()))


SCALARS = {"large": large_denominators, "shared": shared_denominators}


def element(alg: QuantumAlgebra, rng: random.Random, scalar, density: int) -> AlgebraElement:
    return alg.element({m: scalar(rng) for m in rng.sample(basis_monomials(), density)})


def form(cal: Calculus, rng: random.Random, scalar, words=None) -> DiffForm:
    words = words or rng.sample(ORDERED_WORDS, rng.randint(1, 3))
    return DiffForm(cal, {w: element(cal.algebra, rng, scalar, rng.randint(1, 16)) for w in words})


def tensor(alg: QuantumAlgebra, rng: random.Random, scalar) -> TensorElement:
    pairs = rng.sample(list(itertools.product(basis_monomials(), repeat=2)), rng.randint(1, 40))
    return TensorElement(alg, {pair: scalar(rng) for pair in pairs})


def assert_pruned(x) -> None:
    """No stored zero, and canonical (den, num): in a form, each coefficient is nonzero."""
    for f in getattr(x, "terms", {}).values():
        assert f
        assert_pruned(f)
    if hasattr(x, "num"):
        assert_canonical(x)


def vector_coeffs(vec: list, den: int) -> dict:
    """{monomial: GaussianRational} of a 32-int numerator vector over den."""
    return {m: GaussianRational(Fraction(vec[2 * k], den), Fraction(vec[2 * k + 1], den))
            for k, m in enumerate(basis_monomials()) if vec[2 * k] or vec[2 * k + 1]}


def assert_canonical(x) -> None:
    """den > 0 and gcd(den, *num) == 1, zero is den == 1, and .coeffs is num / den coordinatewise.

    For a tensor, form or tensor form: one den over every key's 32-int vector and no all-zero
    vector.  A tensor's terms are each left index's vector over den; a form's .terms holds
    each word's vector over den as a canonical element, and a tensor form's .terms each right
    leg's words as a canonical form.
    """
    if isinstance(x, (TensorElement, DiffForm, TensorForm)):
        values = [v for vec in x.num.values() for v in vec]
        assert all(len(vec) == 32 and any(vec) for vec in x.num.values())
    if isinstance(x, TensorElement):
        monomials = basis_monomials()
        assert tensor_coeffs(x) == {(monomials[i], m): c for i, vec in x.num.items()
                                    for m, c in vector_coeffs(vec, x.den).items()}
    elif isinstance(x, DiffForm):
        assert list(x.terms) == list(x.num)
        for w, f in x.terms.items():
            assert_canonical(f)
            assert f.coeffs == vector_coeffs(x.num[w], x.den)
    elif isinstance(x, TensorForm):
        assert list(x.terms) == list(dict.fromkeys(k for k, _ in x.num))
        for k, leg in x.terms.items():
            assert_canonical(leg)
            assert {w: f.coeffs for w, f in leg.terms.items()} == {
                w: vector_coeffs(vec, x.den) for (k2, w), vec in x.num.items() if k2 == k}
    else:
        values = x.num
        assert len(values) == 32
        assert x.coeffs == vector_coeffs(values, x.den)
    assert x.den > 0 and math.gcd(x.den, *values) == 1
    if not any(values):
        assert x.den == 1 and not x


def test_monomial_table_is_monomial_product():
    table = monomial_table()
    cases = 0
    for (i, m1), (j, m2) in itertools.product(enumerate(basis_monomials()), repeat=2):
        assert i == 4 * m1[0] + m1[1] and j == 4 * m2[0] + m2[1]
        m, negated = monomial_product(m1, m2)
        assert table[i][j] == (2 * (4 * m[0] + m[1]), negated)
        cases += 1
    assert cases == 256


@pytest.mark.parametrize("kind", sorted(SCALARS))
def test_algebra_maps_on_rational_inputs(cal, kind):
    alg, scalar = cal.algebra, SCALARS[kind]
    rng = random.Random(61)
    for _ in range(25):
        x = element(alg, rng, scalar, rng.randint(1, 16))
        y = element(alg, rng, scalar, rng.randint(1, 16))
        s, t = tensor(alg, rng, scalar), tensor(alg, rng, scalar)
        results = [
            (x * y, oracle_mul(x, y)),
            (TensorElement.pure(x, y), oracle_pure(x, y)),
            (s * t, oracle_tensor_mul(s, t)),
            (alg.coproduct(x), oracle_coproduct(alg, x)),
            (alg.antipode(x), oracle_antipode(alg, x)),
        ]
        for got, want in results:
            assert got == want
            assert_pruned(got)


@pytest.mark.parametrize("kind", sorted(SCALARS))
def test_wedge_and_d_on_rational_inputs(cal, kind):
    rng = random.Random(67)
    for _ in range(20):
        x, y = form(cal, rng, SCALARS[kind]), form(cal, rng, SCALARS[kind])
        got = cal.wedge(x, y)
        assert got == oracle_wedge(cal, x, y)
        assert_pruned(got)
        got = cal.exterior_d(x)
        assert got == oracle_d(cal, x)
        assert_pruned(got)


def test_results_that_cancel_to_zero(cal):
    alg = cal.algebra
    rng = random.Random(71)
    for _ in range(10):
        c, k = large_denominators(rng) or GaussianRational(3), shared_denominators(rng)
        # (1 + a^2)(1 - a^2) = 1 - a^4 = 0
        x = (alg.one + alg.monomial(2, 0)).scale(c)
        y = (alg.one - alg.monomial(2, 0)).scale(k)
        assert (x * y).coeffs == {} and oracle_mul(x, y) == alg.zero
        # f e_a ^ g e_a = f (e_a g) ^ e_a = 0
        f, g = element(alg, rng, large_denominators, 6), element(alg, rng, shared_denominators, 6)
        assert cal.wedge(cal.basis_form("a", f), cal.basis_form("a", g)).terms == {}
        # d^2 = 0 and both antipode axioms, on rational inputs
        z = form(cal, rng, large_denominators)
        assert cal.exterior_d(cal.exterior_d(z)).terms == {}
        left, right = alg.antipode_axiom_defect(element(alg, rng, shared_denominators, 16))
        assert left.coeffs == {} and right.coeffs == {}


def test_results_that_cancel_to_gaussian_integers(cal):
    alg = cal.algebra
    rng = random.Random(73)
    for _ in range(10):
        k = shared_denominators(rng) or GaussianRational(Fraction(1, 6))
        x = element(alg, rng, lambda r: GaussianRational(r.randint(-9, 9), r.randint(-9, 9)), 8)
        y = element(alg, rng, lambda r: GaussianRational(r.randint(-9, 9), r.randint(-9, 9)), 8)
        # x k and y / k carry denominators that cancel in their product
        got = x.scale(k) * y.scale(k.inverse())
        assert got == oracle_mul(x, y) == x * y
        assert all(c.re.denominator == 1 and c.im.denominator == 1 for c in got.coeffs.values())
        assert_pruned(got)
        u = DiffForm(cal, {("b",): x.scale(k)})
        v = DiffForm(cal, {("c",): y.scale(k.inverse())})
        got = cal.wedge(u, v)
        assert got == oracle_wedge(cal, u, v)
        assert all(c.re.denominator == 1 and c.im.denominator == 1
                   for f in got.terms.values() for c in f.coeffs.values())


AB_WORDS = [(), ("a",), ("b",), ("a", "b")]


class ThirdPairRule(ExteriorAlgebra):
    """A swapped exterior algebra: e_c ^ e_b = (2/3 + i/5) e_b ^ e_c, a non-integral coefficient."""

    def _build_pair_rules(self):
        rules = super()._build_pair_rules()
        rules[("c", "b")] = [(GaussianRational(Fraction(2, 3), Fraction(1, 5)), ("b", "c"))]
        return rules


def test_non_integral_pair_rule_is_rejected(cal):
    # table entries are Gaussian integers; a rule that reaches a fraction raises, naming the entry
    swapped = Calculus(QuantumAlgebra(cal.algebra.mode))
    swapped.exterior = ThirdPairRule(cal.algebra.q)
    e = swapped.basis_form
    for _ in range(2):  # the failed entry is not stored, so it raises again
        with pytest.raises(ValueError, match=r"table entry \('c',\) 1 \^ \('b',\) has the non-integral "
                                             r"coefficient 2/3\+1/5\*i at \('b', 'c'\), 1"):
            swapped.wedge(e("c"), e("b"))
        assert swapped.exterior._products[("c",), ("b",)][0] is None
    # e_d ^ e_d = mu e_c ^ e_b, so d(e_d) reaches the rule through theta ^ e_d
    with pytest.raises(ValueError, match="non-integral coefficient"):
        swapped.exterior_d(e("d"))
    # words in e_a and e_b never reach the rule, and their products are the reference ones
    rng = random.Random(79)
    for _ in range(20):
        x = form(swapped, rng, large_denominators, rng.sample(AB_WORDS, 2))
        y = form(swapped, rng, shared_denominators, rng.sample(AB_WORDS, 2))
        assert swapped.wedge(x, y) == cal.wedge(x, y)


def test_equal_values_are_equal_and_hash_alike(cal):
    # the same value reached by different paths has one (den, num), so == and hash agree
    alg = cal.algebra
    rng = random.Random(83)
    for kind in sorted(SCALARS):
        for _ in range(10):
            x, y, z = (element(alg, rng, SCALARS[kind], rng.randint(1, 16)) for _ in range(3))
            for a, b in (((x * y) * z, x * (y * z)), (x + y - y, x), ((x - x) * y, alg.zero),
                         (x.scale(GaussianRational(Fraction(7, 3))).scale(GaussianRational(Fraction(3, 7))), x)):
                assert a == b and hash(a) == hash(b) and a.den == b.den and a.num == b.num
                assert_canonical(a)
                assert_canonical(b)
            u, v = form(cal, rng, SCALARS[kind]), form(cal, rng, SCALARS[kind])
            assert cal.wedge(cal.wedge(u, v), u) == cal.wedge(u, cal.wedge(v, u))
            assert cal.wedge(u, v) + u - u == cal.wedge(u, v)


def test_coeffs_view_matches_the_oracles_coordinatewise(cal):
    # .coeffs of each result equals the per-coordinate GaussianRationals of its oracle
    alg = cal.algebra
    rng = random.Random(89)
    for _ in range(10):
        x = element(alg, rng, shared_denominators, rng.randint(1, 16))
        y = element(alg, rng, large_denominators, rng.randint(1, 16))
        for got, want in ((x * y, oracle_mul(x, y)), (alg.antipode(y), oracle_antipode(alg, y))):
            assert got.coeffs == want.coeffs
            assert_canonical(got)
        got = alg.coproduct(x)
        assert tensor_coeffs(got) == tensor_coeffs(oracle_coproduct(alg, x))
        assert_canonical(got)
        u = form(cal, rng, large_denominators)
        for w, f in cal.exterior_d(u).terms.items():
            assert f.coeffs == oracle_d(cal, u).terms[w].coeffs
            assert_canonical(f)


def test_mixed_modes_do_not_compare_or_combine():
    x, y = QuantumAlgebra("i").alpha, QuantumAlgebra("-i").alpha
    assert (x.den, x.num) == (y.den, y.num) and x != y and x.coeffs == y.coeffs
    for op in (lambda: x + y, lambda: x * y, lambda: TensorElement.pure(x, x) + TensorElement.pure(y, y)):
        with pytest.raises(ValueError, match="mixed q modes"):
            op()


# -- a form is one denominator over {ordered word: numerator vector} ---------------------


def unequal_denominator_form(cal: Calculus, rng: random.Random) -> tuple[DiffForm, dict]:
    """A form on two to four words whose coefficients have pairwise unequal denominators, and
    its coefficients {word: AlgebraElement}."""
    words = rng.sample(ORDERED_WORDS, rng.randint(2, 4))
    while True:
        coeffs = {w: element(cal.algebra, rng, shared_denominators, rng.randint(1, 16)) for w in words}
        if len({f.den for f in coeffs.values()}) == len(coeffs):
            return DiffForm(cal, coeffs), coeffs


def test_a_form_is_canonical_over_one_denominator(cal):
    alg = cal.algebra
    rng = random.Random(97)
    for _ in range(15):
        (x, xs), (y, ys) = unequal_denominator_form(cal, rng), unequal_denominator_form(cal, rng)
        assert x.den == math.lcm(*[f.den for f in xs.values()]) and x.terms == xs
        g, k = element(alg, rng, large_denominators, 16), shared_denominators(rng) or GaussianRational(5)
        results = {"x": x, "x + y": x + y, "x - y": x - y, "-x": -x, "x - x": x - x, "x k": x.scale(k),
                   "g x": x.left_multiply(g), "x ^ y": cal.wedge(x, y), "d x": cal.exterior_d(x)}
        for got in results.values():
            assert_canonical(got)
        # .terms holds each word's canonical coefficient
        zero = alg.zero
        for w in set(xs) | set(ys):
            assert results["x + y"].coefficient(w) == xs.get(w, zero) + ys.get(w, zero)
            assert results["x k"].coefficient(w) == xs.get(w, zero).scale(k)
            assert results["g x"].coefficient(w) == g * xs.get(w, zero)
        # one value reached by different paths is one (den, num)
        reversed_sum = cal.zero()
        for w in reversed(list(xs)):
            reversed_sum = reversed_sum + DiffForm(cal, {w: xs[w]})
        for a, b in ((results["x + y"] - y, x), (results["x k"].scale(k.inverse()), x), (reversed_sum, x),
                     (y + x, results["x + y"]), (results["x - x"], cal.zero()),
                     (cal.wedge(x.scale(k), y), results["x ^ y"].scale(k))):
            assert a == b and (a.den, a.num) == (b.den, b.num)
        # and different values differ, also where only one numerator or the denominator does
        w = next(iter(xs))
        for other in (y, x.scale(GaussianRational(2)), x + DiffForm(cal, {w: alg.monomial(1, 1)}),
                      DiffForm(cal, {**xs, w: xs[w].scale(GaussianRational(Fraction(1, 7)))})):
            assert x != other and other != x


def test_mixed_modes_raise_in_the_form_constructor_and_sum_even_on_a_zero_term():
    cal_i, cal_mi = Calculus(QuantumAlgebra("i")), Calculus(QuantumAlgebra("-i"))
    for coeff in (cal_mi.algebra.zero, cal_mi.algebra.beta):
        with pytest.raises(ValueError, match="mixed q modes"):
            DiffForm(cal_i, {("a",): cal_i.algebra.one, ("b", "c"): coeff})
    x = DiffForm(cal_i, {("a",): cal_i.algebra.one})
    for other in (cal_mi.zero(), DiffForm(cal_mi, {("a",): cal_mi.algebra.zero}), cal_mi.basis_form("a")):
        for lhs, rhs in ((x, other), (other, x), (cal_i.zero(), other)):
            with pytest.raises(ValueError, match="mixed q modes"):
                lhs + rhs


# -- tensors and tensor forms share that layout, keyed by left index and by (right leg, word) --------


def unequal_denominators(rng: random.Random, make, n: int) -> list:
    """n values make(rng) with pairwise unequal denominators."""
    while True:
        values = [make(rng) for _ in range(n)]
        if len({x.den for x in values}) == n:
            return values


def test_tensors_and_tensor_forms_are_canonical_over_one_denominator(cal):
    alg = cal.algebra
    rng = random.Random(107)
    for _ in range(10):
        # a tensor whose three left legs carry right legs of pairwise unequal denominators
        lefts = rng.sample(basis_monomials(), 3)
        rights = unequal_denominators(rng, lambda r: element(alg, r, shared_denominators, r.randint(1, 16)), 3)
        s = TensorElement(alg)
        for m, y in zip(lefts, rights):
            s = s + TensorElement.pure(alg.monomial(*m), y)
        assert s == TensorElement(alg, {(m, m2): c for m, y in zip(lefts, rights) for m2, c in y.coeffs.items()})
        assert s.den == math.lcm(*[y.den for y in rights])
        # a tensor form whose right legs carry left legs of pairwise unequal denominators
        legs = [dict(zip(rng.sample(FORMS, 3),
                         unequal_denominators(rng, lambda r: form(cal, r, shared_denominators), 3)))
                for _ in range(2)]
        u, v = (TensorForm(cal, x) for x in legs)
        assert u.den == math.lcm(*[x.den for x in legs[0].values()]) and u.terms == legs[0]
        k, g = shared_denominators(rng) or GaussianRational(5), element(alg, rng, large_denominators, 16)
        for x, y in ((s, tensor(alg, rng, shared_denominators)), (u, v)):
            for got in (x, y, x + y, x - y, -x, x.scale(k)) + ((x.left_multiply(g),) if x is u else ()):
                assert_canonical(got)
            for a, b in (((x + y) - y, x), (x.scale(k).scale(k.inverse()), x), (y + x, x + y)):
                assert a == b and (a.den, a.num) == (b.den, b.num)
            zero = x - x
            assert not zero and (zero.den, zero.num) == (1, {})
        # a tensor form's legs are the sums of the legs of its summands
        for leg in set(legs[0]) | set(legs[1]):
            want = legs[0].get(leg, cal.zero()) + legs[1].get(leg, cal.zero())
            assert (u + v).terms.get(leg, cal.zero()) == want


def test_curvature_drops_a_word_that_cancels(cal):
    # the reference connection is constant, so R(e_a) and R(e_b) have scalar coefficients, and one
    # combination of e_a and e_b cancels a (leg, word) they share exactly
    from ncgq.riemannian import reference_connection, riemann, riemann_basis

    conn = reference_connection(cal)
    ra, rb = riemann_basis(cal, conn, "a"), riemann_basis(cal, conn, "b")
    key = next(k for k in ra.num if k in rb.num)
    assert not any(ra.num[key][2:]) and not any(rb.num[key][2:])
    ca, cb = (GaussianRational(Fraction(r.num[key][0], r.den), Fraction(r.num[key][1], r.den)) for r in (ra, rb))
    got = riemann(cal, conn, DiffForm(cal, {("a",): cal.algebra.scalar(cb), ("b",): cal.algebra.scalar(-ca)}))
    assert got == ra.scale(cb) - rb.scale(ca) and got and key not in got.num
    assert_canonical(got)


def test_mixed_modes_raise_for_tensors_and_tensor_forms():
    alg_i, alg_mi = QuantumAlgebra("i"), QuantumAlgebra("-i")
    cal_i, cal_mi = Calculus(alg_i), Calculus(alg_mi)
    s, t = TensorElement.pure(alg_i.alpha, alg_i.beta), TensorElement.pure(alg_mi.alpha, alg_mi.beta)
    u, v = TensorForm(cal_i, {"a": cal_i.basis_form("b")}), TensorForm(cal_mi, {"a": cal_mi.basis_form("b")})
    assert (s.den, s.num) == (t.den, t.num) and s != t
    assert (u.den, u.num) == (v.den, v.num) and u != v
    for op in (lambda: s + t, lambda: t - s, lambda: s * t, lambda: u + v, lambda: v - u,
               lambda: u + TensorForm(cal_mi, {}), lambda: u.left_multiply(alg_mi.one),
               lambda: TensorForm(cal_i, {"a": cal_i.basis_form("b"), "b": cal_mi.zero()})):
        with pytest.raises(ValueError, match="mixed q modes"):
            op()


def test_warm_wedge_d_and_curvature_make_no_algebra_element(cal, monkeypatch):
    # on filled tables the maps read and write numerator vectors only: no AlgebraElement is
    # made, neither through __init__ nor by _reduce or _of, on dense rational forms
    from ncgq.algebra import ScalarSum
    from ncgq.riemannian import reference_connection, riemann

    alg, conn = cal.algebra, reference_connection(cal)
    rng = random.Random(103)
    one_forms = [DiffForm(cal, {(f,): element(alg, rng, large_denominators, 16) for f in FORMS})
                 for _ in range(2)]
    two_form = DiffForm(cal, {w: element(alg, rng, shared_denominators, 16) for w in ORDERED_WORDS if len(w) == 2})
    x, y = one_forms

    def run():
        return [cal.wedge(x, y), cal.wedge(x, two_form), cal.exterior_d(x), cal.exterior_d(two_form),
                riemann(cal, conn, x)]

    want = run()  # fills the tables these inputs read
    made = []
    init = AlgebraElement.__init__
    reduce_, of = AlgebraElement.__dict__["_reduce"].__func__, ScalarSum.__dict__["_of"].__func__
    monkeypatch.setattr(AlgebraElement, "__init__", lambda *a, **k: made.append("__init__") or init(*a, **k))
    monkeypatch.setattr(AlgebraElement, "_reduce", classmethod(lambda *a: made.append("_reduce") or reduce_(*a)))
    monkeypatch.setattr(AlgebraElement, "_of", classmethod(lambda *a: made.append("_of") or of(*a)))
    got = run()
    assert made == []
    assert got == want and all(got)
