"""The tabulated wedge, d, coproduct, antipode and antipode axiom defect against their
per-call derivations.

The oracles below derive each map again on every call, as the library did
before it tabulated them: the wedge moves each monomial past the letters of
the left word and reduces the result, d is two wedges with theta, the
coproduct and antipode multiply out the generator images letter by letter,
and the defect applies S to one leg of the coproduct and multiplies out.
Every oracle computes term by term in GaussianRational arithmetic, as the
library did before its maps accumulated numerators over one denominator:
the algebra and tensor products, multiply_out and apply below are those
loops, and tensor_coeffs reads a tensor's terms as GaussianRationals.  The
library must agree with them exactly, on every basis element and on seeded
random sparse forms with rational coefficients.
"""
import functools
import itertools
import random
from fractions import Fraction

import pytest

from ncgq import hopf
from ncgq.algebra import AlgebraElement, QuantumAlgebra, TensorElement, basis_monomials, monomial_product
from ncgq.calculus import Calculus, DiffForm, FORMS, bimodule_table
from ncgq.hopf import antipode_defect_table, antipode_table
from ncgq.scalars import ONE, GaussianRational, gaussian

ORDERED_WORDS = [w for n in range(5) for w in itertools.combinations(FORMS, n)]


@pytest.fixture(scope="module", params=["i", "-i"])
def cal(request):
    return Calculus(QuantumAlgebra(request.param))


def tensor_coeffs(t: TensorElement) -> dict:
    """{(m1, m2): coefficient} of the nonzero terms of t, read from its numerators over t.den."""
    monomials = basis_monomials()
    return {(monomials[i], monomials[j]): gaussian(a, b, t.den) for i, ys in t.nonzero() for j, a, b in ys}


def oracle_wedge(cal: Calculus, x: DiffForm, y: DiffForm) -> DiffForm:
    table = bimodule_table(cal.algebra.mode)
    reduce_word = cal.exterior.reduce_word
    acc = {}
    for w1, f1 in x.terms.items():
        for w2, f2 in y.terms.items():
            # w1 * f2 = sum over words w of (monomial coefficients) * w: f2's
            # monomials pass the letters of w1 from right to left
            moved = {(): f2.coeffs}
            for letter in reversed(w1):
                nxt = {}
                for tail, coeffs in moved.items():
                    for m, c in coeffs.items():
                        for s, m2, fm in table[(letter, m)]:
                            out = nxt.setdefault((fm,) + tail, {})
                            v = c * s
                            out[m2] = out[m2] + v if m2 in out else v
                moved = nxt
            for w, coeffs in moved.items():
                for wred, s in reduce_word(w + w2).items():
                    for m, c in coeffs.items():
                        cs = c * s
                        for m1, c1 in f1.coeffs.items():
                            mp, negated = monomial_product(m1, m)
                            v = -(c1 * cs) if negated else c1 * cs
                            key = (wred, mp)
                            acc[key] = acc[key] + v if key in acc else v
    terms = {}
    for (w, m), c in acc.items():
        terms.setdefault(w, {})[m] = c
    return DiffForm(cal, {w: AlgebraElement(cal.algebra, cs) for w, cs in terms.items()})


def oracle_d(cal: Calculus, x: DiffForm) -> DiffForm:
    th = cal.theta()
    sigma_x = DiffForm(cal, {w: -f if len(w) % 2 else f for w, f in x.terms.items()})
    return (oracle_wedge(cal, th, x) - oracle_wedge(cal, sigma_x, th)).scale(cal.algebra.mu.inverse())


def oracle_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    out = {}
    for m1, c1 in x.coeffs.items():
        for m2, c2 in y.coeffs.items():
            m, negated = monomial_product(m1, m2)
            c = -(c1 * c2) if negated else c1 * c2
            out[m] = out[m] + c if m in out else c
    return AlgebraElement(x.algebra, out)


def oracle_pure(x: AlgebraElement, y: AlgebraElement) -> TensorElement:
    return TensorElement(x.algebra, {(m1, m2): c1 * c2 for m1, c1 in x.coeffs.items()
                                     for m2, c2 in y.coeffs.items()})


def oracle_tensor_mul(s: TensorElement, t: TensorElement) -> TensorElement:
    out = {}
    for (x1, y1), c1 in tensor_coeffs(s).items():
        for (x2, y2), c2 in tensor_coeffs(t).items():
            mx, neg_x = monomial_product(x1, x2)
            my, neg_y = monomial_product(y1, y2)
            c = -(c1 * c2) if neg_x != neg_y else c1 * c2
            key = (mx, my)
            out[key] = out[key] + c if key in out else c
    return TensorElement(s.algebra, out)


def oracle_apply(t: TensorElement, f_left, f_right) -> TensorElement:
    alg = t.algebra
    out = {}
    for (mx, my), c in tensor_coeffs(t).items():
        ex = AlgebraElement(alg, {mx: ONE})
        ey = AlgebraElement(alg, {my: ONE})
        if f_left is not None:
            ex = f_left(ex)
        if f_right is not None:
            ey = f_right(ey)
        for m1, c1 in ex.coeffs.items():
            for m2, c2 in ey.coeffs.items():
                key = (m1, m2)
                v = c * c1 * c2
                out[key] = out[key] + v if key in out else v
    return TensorElement(alg, out)


def oracle_multiply_out(t: TensorElement) -> AlgebraElement:
    out = {}
    for (mx, my), c in tensor_coeffs(t).items():
        m, negated = monomial_product(mx, my)
        if negated:
            c = -c
        out[m] = out[m] + c if m in out else c
    return AlgebraElement(t.algebra, out)


def oracle_coproduct(alg: QuantumAlgebra, x: AlgebraElement) -> TensorElement:
    da = oracle_pure(alg.alpha, alg.alpha) + oracle_pure(alg.beta, alg.beta_star)
    db = oracle_pure(alg.alpha, alg.beta) + oracle_pure(alg.beta, alg.delta)
    out = TensorElement(alg, {})
    unit = oracle_pure(alg.one, alg.one)
    for (p, r), c in x.coeffs.items():
        term = unit
        for _ in range(p):
            term = oracle_tensor_mul(term, da)
        for _ in range(r):
            term = oracle_tensor_mul(term, db)
        out = out + term.scale(c)
    return out


def oracle_antipode(alg: QuantumAlgebra, x: AlgebraElement) -> AlgebraElement:
    s_a = alg.antipode_on_generator("alpha")
    s_b = alg.antipode_on_generator("beta")
    out = alg.zero
    for (p, r), c in x.coeffs.items():
        term = alg.one
        for _ in range(r):  # reversed word: S(a^p b^r) = S(b)^r S(a)^p
            term = oracle_mul(term, s_b)
        for _ in range(p):
            term = oracle_mul(term, s_a)
        out = out + term.scale(c)
    return out


def oracle_antipode_defect(alg: QuantumAlgebra, x: AlgebraElement) -> tuple:
    """m(S (x) id) Delta x - eps(x) 1 and m(id (x) S) Delta x - eps(x) 1, step by step."""
    target = AlgebraElement(alg, {(0, 0): x.counit()})
    dx = oracle_coproduct(alg, x)
    s = functools.partial(oracle_antipode, alg)
    return (oracle_multiply_out(oracle_apply(dx, s, None)) - target,
            oracle_multiply_out(oracle_apply(dx, None, s)) - target)


def _scalar(rng: random.Random) -> GaussianRational:
    if rng.randrange(3) == 0:  # a rational with a large denominator
        return GaussianRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)),
                                Fraction(rng.randint(-10**6, 10**6), rng.randint(10**5, 10**6)))
    return GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))


def _element(alg: QuantumAlgebra, rng: random.Random, density: int) -> AlgebraElement:
    monomials = rng.sample(basis_monomials(), density)
    return alg.element({m: _scalar(rng) for m in monomials})


def _form(cal: Calculus, rng: random.Random) -> DiffForm:
    """A sparse form over a few words, ordered or not, of one or several degrees.

    A form holds ordered words only, so f e_w for a word w outside the normal form, such as
    e_d ^ e_a, enters written on ordered words through reduce_word.
    """
    words = rng.sample(ORDERED_WORDS, rng.randint(1, 3))
    if rng.randrange(4) == 0:  # a word outside the normal form
        words.append(tuple(rng.choice(FORMS) for _ in range(rng.randint(1, 3))))
    out = cal.zero()
    for w in words:
        f = _element(cal.algebra, rng, rng.randint(1, 16))
        out = out + DiffForm(cal, {v: f.scale(c) for v, c in cal.exterior.reduce_word(w).items()})
    return out


def test_coproduct_and_antipode_on_all_monomials(cal):
    alg = cal.algebra
    for (p, r) in basis_monomials():
        m = alg.monomial(p, r)
        assert alg.coproduct(m) == oracle_coproduct(alg, m)
        assert alg.antipode(m) == oracle_antipode(alg, m)


def test_coproduct_and_antipode_on_random_elements(cal):
    alg = cal.algebra
    rng = random.Random(41)
    for _ in range(40):
        x = _element(alg, rng, rng.randint(1, 16))
        assert alg.coproduct(x) == oracle_coproduct(alg, x)
        assert alg.antipode(x) == oracle_antipode(alg, x)


@pytest.fixture
def fresh_antipode_tables():
    """Empty the per-mode antipode tables before and after the test, so neither a test's
    patched S nor its fills reach another test."""
    caches = (antipode_table, antipode_defect_table)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_antipode_defect_with_a_wrong_antipode_equals_the_formula(cal, monkeypatch,
                                                                  fresh_antipode_tables):
    # with S(a) = a and S(b) = b both axioms fail on every monomial but 1 and
    # a^2 (a^2 a^2 = 1), so the defect of a dense rational x reads 14 nonzero images
    def wrong(self, name):
        return {"alpha": self.alpha, "beta": self.beta}[name]

    monkeypatch.setattr(QuantumAlgebra, "antipode_on_generator", wrong)
    alg = cal.algebra
    table = antipode_defect_table(alg.mode)
    assert [k for k, image in enumerate(table) if not image] == [0, 8]
    rng = random.Random(47)
    for _ in range(12):
        x = _element(alg, rng, 16)
        left, right = alg.antipode_axiom_defect(x)
        assert left and right
        assert (left, right) == oracle_antipode_defect(alg, x)


def test_antipode_defect_images_are_filled_once_per_mode(monkeypatch, fresh_antipode_tables):
    reads = []
    for name in ("coproduct_table", "antipode_table"):
        table = getattr(hopf, name)
        monkeypatch.setattr(hopf, name, lambda mode, _t=table, _n=name: reads.append((_n, mode)) or _t(mode))
    rng = random.Random(53)
    for n, mode in enumerate(("i", "-i"), start=1):
        alg = QuantumAlgebra(mode)
        assert alg.antipode_axiom_defect(_element(alg, rng, 3)) == (alg.zero, alg.zero)
        # the first call fills the 16 images of both sides from one read of each Hopf table
        assert sorted(reads) == sorted((name, m) for name in ("coproduct_table", "antipode_table")
                                       for m in ("i", "-i")[:n])
    for mode in ("i", "-i"):
        alg = QuantumAlgebra(mode)
        for _ in range(5):
            assert alg.antipode_axiom_defect(_element(alg, rng, 16)) == (alg.zero, alg.zero)
    assert len(reads) == 4


def test_d_on_all_basis_elements(cal):
    cases = 0
    for w in ORDERED_WORDS:
        for (p, r) in basis_monomials():
            x = DiffForm(cal, {w: cal.algebra.monomial(p, r)})
            assert cal.exterior_d(x) == oracle_d(cal, x)
            cases += 1
    assert cases == 256


def test_wedge_on_all_word_products(cal):
    # e_w1 ^ (m e_w2) for every pair of ordered words and every monomial
    alg = cal.algebra
    cases = 0
    for w1, w2 in itertools.product(ORDERED_WORDS, repeat=2):
        x = DiffForm(cal, {w1: alg.one})
        for (p, r) in basis_monomials():
            y = DiffForm(cal, {w2: alg.monomial(p, r)})
            assert cal.wedge(x, y) == oracle_wedge(cal, x, y)
            cases += 1
    assert cases == 4096


def test_wedge_and_d_on_random_rational_forms(cal):
    rng = random.Random(43)
    for _ in range(60):
        x, y = _form(cal, rng), _form(cal, rng)
        assert cal.wedge(x, y) == oracle_wedge(cal, x, y)
        assert cal.exterior_d(x) == oracle_d(cal, x)
