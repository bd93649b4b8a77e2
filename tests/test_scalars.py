from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgq.algebra import AlgebraElement, QuantumAlgebra, TensorElement, basis_monomials
from ncgq.constants import (CONNECTION_PRINTED, LAMBDA_C, MU, NU, QINV, QP1INV_OVER_2Q, RHO, TWO_Q2,
                            XI)
from ncgq.scalars import (
    DegenerateDenominator,
    GaussianRational,
    PoleError,
    format_gaussian,
    q_root,
    rf,
)
from test_table_oracles import tensor_coeffs

I = q_root("i")
ALG = QuantumAlgebra("i")
MONOMIALS = basis_monomials()


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def parse_gaussian(s: str) -> GaussianRational:
    """Inverse of :func:`format_gaussian`: the oracle of its round trips."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-/*":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    re = Fraction(0)
    im = Fraction(0)
    try:
        for t in terms:
            if t.endswith("*i") or t == "i" or t == "-i" or t == "+i":
                if t in ("i", "+i"):
                    im += 1
                elif t == "-i":
                    im -= 1
                else:
                    im += Fraction(t[:-2])
            else:
                re += Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None
    return GaussianRational(re, im)


# Every n/d with d <= 12 and |n/d| <= 50, the domain of
# st.fractions(min_value=-50, max_value=50, max_denominator=12), drawn from
# integers because building fractions dominated the cost of these tests.
# floor(k d / 12) steps by d/12 <= 1 as k runs over -600..600, so it takes
# every numerator from -50 d to 50 d.
rationals = st.tuples(st.integers(-600, 600), st.integers(1, 12)).map(
    lambda t: Fraction(t[0] * t[1] // 12, t[1]))
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(bool)


class TestGaussianRational:
    def test_mu_at_root(self):
        # 1 - q^-2 with q^2 = -1
        q = I
        assert GaussianRational(1) - (q * q).inverse() == gr(2)
        assert MU.evaluate_at(q) == gr(2)

    def test_two_q_squared_vanishes_at_root(self):
        assert TWO_Q2.evaluate_at(I) == gr(0)

    def test_lambda_constant_at_root(self):
        # (1+2q+2q^2)/(-2+2q^2+q^3) at q = i
        assert LAMBDA_C.evaluate_at(I) == GaussianRational("2/17", "-9/17")

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=1000, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(nonzero_gaussians)
    @settings(max_examples=1000, deadline=None)
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == gr(1)

    def test_division_by_zero(self):
        with pytest.raises(DegenerateDenominator):
            gr(1) / gr(0)

    @given(gaussians)
    def test_serialization_roundtrip(self, a):
        assert parse_gaussian(format_gaussian(a)) == a

    def test_format_examples(self):
        assert format_gaussian(gr(0)) == "0"
        assert format_gaussian(GaussianRational("-11/17", "7/17")) == "-11/17+7/17*i"
        assert format_gaussian(GaussianRational(0, -1)) == "-1*i"

    def test_root_powers(self):
        for mode in ("i", "-i"):
            q = q_root(mode)
            assert q ** 4 == gr(1)
            assert q ** 2 != gr(1)


# coefficients as the benchmark's library inputs draw them: mostly small
# Gaussian integers, some rationals with 6- to 7-digit denominators
parts = st.one_of(
    st.integers(-9, 9).map(Fraction),
    rationals,
    st.builds(Fraction, st.integers(-10**7, 10**7), st.integers(10**5, 10**7)),
)
pairs = st.tuples(parts, parts)


def _reference_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _reference_inverse(x):
    a, b = x
    n = a * a + b * b
    return a / n, -b / n


def _triple(z):
    return z._a, z._b, z._d


def _assert_canonical(den, num):
    assert den > 0 and gcd(den, *num) == 1
    if not any(num):
        assert den == 1


def _assert_normal(z):
    a, b, d = _triple(z)
    assert d > 0 and gcd(a, b, d) == 1
    if not z:
        assert (a, b, d) == (0, 0, 1)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (Fraction(a, d), Fraction(b, d))


class TestTripleAgainstFractionPairs:
    """The (a, b, d) triple against a pair-of-Fraction model of Q(i)."""

    @given(pairs, pairs)
    @settings(max_examples=300, deadline=None)
    def test_field_operations(self, x, y):
        zx, zy = GaussianRational(*x), GaussianRational(*y)
        results = {
            "add": (zx + zy, (x[0] + y[0], x[1] + y[1])),
            "sub": (zx - zy, (x[0] - y[0], x[1] - y[1])),
            "mul": (zx * zy, _reference_mul(x, y)),
            "neg": (-zx, (-x[0], -x[1])),
            "conjugate": (zx.conjugate(), (x[0], -x[1])),
        }
        if any(y):
            results["div"] = (zx / zy, _reference_mul(x, _reference_inverse(y)))
            results["inverse"] = (zy.inverse(), _reference_inverse(y))
        for name, (z, (re, im)) in results.items():
            _assert_normal(z)
            assert (z.re, z.im) == (re, im), name

    @given(pairs, st.integers(-9, 9))
    @settings(max_examples=150, deadline=None)
    def test_mixed_with_int_and_fraction(self, x, k):
        z = GaussianRational(*x)
        for other in (k, Fraction(k, 7)):
            assert z + other == GaussianRational(x[0] + other, x[1])
            assert other - z == GaussianRational(other - x[0], -x[1])
            assert other * z == GaussianRational(other * x[0], other * x[1])
            _assert_normal(z * other)

    @given(pairs, pairs)
    @settings(max_examples=200, deadline=None)
    def test_equal_values_compare_and_hash_equal(self, x, y):
        z = GaussianRational(*x)
        paths = [
            GaussianRational(f"{x[0]}", f"{x[1]}"),
            parse_gaussian(format_gaussian(z)),
            (z + GaussianRational(*y)) - GaussianRational(*y),
            z * gr(3, 4) / gr(3, 4),
            z.conjugate().conjugate(),
        ]
        for w in paths:
            _assert_normal(w)
            assert w == z and hash(w) == hash(z)
            # a real value hashes as its Fraction (so as an equal int), any other as (re, im)
            assert hash(w) == (hash(w.re) if w.im == 0 else hash((w.re, w.im)))

    def test_real_values_hash_as_the_int_or_fraction_they_equal(self):
        # == with an int or a Fraction implies equal hashes, so sets and dict keys agree with ==
        assert len({GaussianRational(3), 3}) == 1 and {3: "x"}.get(GaussianRational(3)) == "x"
        for n in range(-20, 21):
            for k in range(1, 13):
                for other in (n, Fraction(n, k)):
                    z = GaussianRational(other)
                    assert z == other and hash(z) == hash(other)
                    assert len({z, other}) == 1 and {other: "x"}.get(z) == "x"

    def test_zero_is_one_triple(self):
        z = gr(0)
        for zero in (gr(0), GaussianRational(Fraction(0, 5), 0), gr("1/3") - gr("1/3"),
                     GaussianRational(0, Fraction(7, 10**6)) * 0, -gr(0)):
            _assert_normal(zero)
            assert _triple(zero) == (0, 0, 1)
            assert zero == z == 0 and hash(zero) == hash(z)

    def test_triples_of_examples(self):
        assert _triple(GaussianRational("-11/17", "7/17")) == (-11, 7, 17)
        assert _triple(GaussianRational("1/2", "1/3")) == (3, 2, 6)
        assert _triple(gr(2, 4) / 2) == (1, 2, 1)
        assert repr(GaussianRational("1/2", 3)) == "GaussianRational(Fraction(1, 2), Fraction(3, 1))"


def fraction_rendering(z: GaussianRational) -> str:
    """format_gaussian as it was written over the Fraction parts, the oracle below."""
    def part(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    if not z:
        return "0"
    parts = [part(z.re)] if z.re else []
    if z.im:
        piece = part(z.im) + "*i"
        parts.append("+" + piece if parts and not piece.startswith("-") else piece)
    return "".join(parts)


class TestIntegerFormatting:
    """format_gaussian reduces each part of the triple by a gcd, and no Fraction is made."""

    def test_equals_the_fraction_rendering_on_a_grid(self):
        cases = 0
        for d in range(1, 13):
            for a in range(-12, 13):
                for b in range(-12, 13):
                    z = GaussianRational(Fraction(a, d), Fraction(b, d))
                    text = format_gaussian(z)
                    assert text == fraction_rendering(z), (a, b, d)
                    assert parse_gaussian(text) == z
                    cases += 1
        assert cases == 7500

    def test_views_and_hash_are_still_fractions(self):
        z = GaussianRational(Fraction(1, 3), Fraction(-2, 6))
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert (z.re, z.im) == (Fraction(1, 3), Fraction(-1, 3))
        assert hash(GaussianRational(Fraction(1, 3))) == hash(Fraction(1, 3))

    def test_a_fraction_is_recognised_as_an_operand(self):
        z = GaussianRational(1, 1)
        assert z * Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1, 2))
        assert Fraction(1, 2) + z == GaussianRational(Fraction(3, 2), 1)
        assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(TypeError):
            GaussianRational(0.5)


class TestNumeratorHelpers:
    """The two ends of every algebra map: {key: GaussianRational} to (den, num) and back.

    An element's constructor brings its coefficients over one denominator, its
    .coeffs view reads them back, and _reduce brings any (den, num) to the
    canonical form gcd(den, *num) == 1.
    """

    # a coefficient as (re numerator, re denominator, im numerator, im denominator): small
    # integers, zero, or 6- to 7-digit denominators, drawn as integers
    @given(st.lists(st.tuples(st.integers(-10**7, 10**7), st.sampled_from((1, 2, 6, 10**5, 999983)),
                              st.integers(-9, 9), st.integers(1, 10**7)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, drawn):
        coeffs = {MONOMIALS[k]: GaussianRational(Fraction(a, b), Fraction(c, e))
                  for k, (a, b, c, e) in enumerate(drawn)}
        x = AlgebraElement(ALG, coeffs)
        assert x.den == lcm(*(_triple(c)[2] for c in coeffs.values()))
        _assert_canonical(x.den, x.num)
        for (p, r), c in coeffs.items():
            k = 4 * p + r
            assert (Fraction(x.num[2 * k], x.den), Fraction(x.num[2 * k + 1], x.den)) == (c.re, c.im)
        assert x.coeffs == {m: c for m, c in coeffs.items() if c}
        for c in x.coeffs.values():
            _assert_normal(c)
        # the same coefficients on the pairs (m, m^-1) of a tensor
        pairs = {(m, ((-m[0]) % 4, (-m[1]) % 4)): c for m, c in coeffs.items()}
        t = TensorElement(ALG, pairs)
        assert t.den == x.den and tensor_coeffs(t) == {k: c for k, c in pairs.items() if c}
        _assert_canonical(t.den, [v for row in t.num.values() for v in row])

    @given(st.dictionaries(st.integers(0, 15), st.tuples(st.integers(-10**8, 10**8),
                                                         st.integers(-10**8, 10**8)), max_size=8),
           st.integers(1, 10**7), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_one_normal_form_per_coordinate(self, acc, d, g):
        # numerators scaled by any common factor g give the same element, zeros dropped
        num = [0] * 32
        for k, (a, b) in acc.items():
            num[2 * k], num[2 * k + 1] = a, b
        out = AlgebraElement._reduce(ALG, d, num)
        assert out == AlgebraElement._reduce(ALG, d * g, [v * g for v in num])
        _assert_canonical(out.den, out.num)
        coeffs = out.coeffs
        assert sorted(coeffs) == sorted(MONOMIALS[k] for k, (a, b) in acc.items() if a or b)
        for (p, r), z in coeffs.items():
            _assert_normal(z)
            a, b = acc[4 * p + r]
            assert (z.re, z.im) == (Fraction(a, d), Fraction(b, d))

    def test_examples(self):
        coeffs = {(0, 1): GaussianRational("1/6", "1/4"), (0, 2): GaussianRational(2, -1), (0, 3): gr(0)}
        x = AlgebraElement(ALG, coeffs)
        assert (x.den, x.num) == (12, [0, 0, 2, 3, 24, -12] + [0] * 26)
        assert (ALG.zero.den, ALG.zero.num) == (1, [0] * 32) == ((x - x).den, (x - x).num)
        assert x.coeffs == {(0, 1): GaussianRational("1/6", "1/4"), (0, 2): GaussianRational(2, -1)}
        y = AlgebraElement._reduce(ALG, 10, [-6, 4] + [0] * 30)
        assert (y.den, y.num[:2]) == (5, [-3, 2])
        assert _triple(y.coeffs[(0, 0)]) == (-3, 2, 5)


class TestRationalFunctionQ:
    def test_trivial_cancellation(self):
        f = rf([1, 1], [1, 1])  # (1+q)/(1+q)
        assert f.evaluate_at(1) == gr(1)
        assert f == rf([1])

    def test_rho_at_root(self):
        assert RHO.evaluate_at(I) == GaussianRational("3/2", "1/2")

    def test_connection_entry_at_one(self):
        # (4+6+5+3)/(5-4+2)
        assert CONNECTION_PRINTED[("a", "a")].evaluate_at(1) == gr(6)

    def test_pole_error(self):
        f = rf([1], [1, 1])  # 1/(1+q)
        with pytest.raises(PoleError):
            f.evaluate_at(-1)

    def test_zero_denominator(self):
        with pytest.raises(DegenerateDenominator):
            rf([1], [0, 0])
        with pytest.raises(DegenerateDenominator):
            rf([1]) / rf([0])

    def test_equality_by_cross_multiplication(self):
        # (q^2-1)/(q-1) equals q+1 but keeps its printed coefficients
        f = rf([-1, 0, 1, 0], [-1, 1])
        assert (f.num, f.den) == ((-1, 0, 1), (-1, 1))
        assert f == rf([1, 1])
        assert f != rf([1, 1], [1, 2])

    def test_constants_equal_as_stated(self):
        # constants.py: (1 + q^-1)/[2]_q equals 1/q; the audit: lambda equals A_c^c
        assert QP1INV_OVER_2Q == QINV
        assert LAMBDA_C == CONNECTION_PRINTED[("c", "c")]
        assert NU != XI

    def test_forms_are_not_hashable(self):
        # equal forms can hold different coefficient tuples
        with pytest.raises(TypeError):
            hash(rf([1, 1], [1, 1]))

    @given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_evaluation_is_homomorphism(self, a, b):
        f = rf(a)
        g = rf(b)
        if not g.evaluate_at(I):
            return
        q0 = I
        assert (f + g).evaluate_at(q0) == f.evaluate_at(q0) + g.evaluate_at(q0)
        assert (f * g).evaluate_at(q0) == f.evaluate_at(q0) * g.evaluate_at(q0)
        assert (f / g).evaluate_at(q0) == f.evaluate_at(q0) / g.evaluate_at(q0)
