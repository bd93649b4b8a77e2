"""The text forms of elements and forms, read back through strict test-side parsers.

str(AlgebraElement), str(DiffForm) and monomial_name are the spellings that
reprs, table-entry labels and error messages print; the parsers below are
their inverses, and they accept nothing that the printing never emits.
"""
import random
import re

import pytest

from ncgq.algebra import QuantumAlgebra, basis_monomials, monomial_name
from ncgq.calculus import Calculus, DiffForm
from ncgq.scalars import GaussianRational
from test_scalars import parse_gaussian


def parse_monomial_name(name) -> tuple[int, int]:
    """Inverse of monomial_name: 'a^p b^r', a before b, exponent 1 unwritten, '1' for the unit."""
    if name == "1":
        return (0, 0)
    exps = []
    for part in name.split(" ") if isinstance(name, str) and name else [""]:
        letter, caret, exp = part.partition("^")
        if letter not in ("a", "b") or exps and exps[-1][0] >= letter or caret and exp not in ("2", "3"):
            raise ValueError(f"not a normal-form monomial name: {name!r}")
        exps.append((letter, int(exp) if caret else 1))
    exps = dict(exps)
    return exps.get("a", 0), exps.get("b", 0)


def parse_element(alg: QuantumAlgebra, text: str):
    """Inverse of str(AlgebraElement): '(c)*name + ...', the unit term without '*1'."""
    coeffs = {}
    for term in text.split(" + ") if text != "0" else ():
        found = re.fullmatch(r"\(([^()]*)\)(?:\*(.+))?", term)
        if not found or found[2] == "1":
            raise ValueError(f"not an element term: {term!r}")
        coeffs[parse_monomial_name(found[2]) if found[2] else (0, 0)] = parse_gaussian(found[1])
    return alg.element(coeffs)


def parse_form(cal: Calculus, text: str) -> DiffForm:
    """Inverse of str(DiffForm): '[element] e_x^e_y  +  ...', '1' for the empty word."""
    terms = {}
    for term in text.split("  +  ") if text != "0" else ():
        found = re.fullmatch(r"\[(.*)\] (1|e_[a-d](?:\^e_[a-d])*)", term)
        if not found:
            raise ValueError(f"not a form term: {term!r}")
        word = () if found[2] == "1" else tuple(x[2:] for x in found[2].split("^"))
        terms[word] = parse_element(cal.algebra, found[1])
    return DiffForm(cal, terms)


def test_algebra_element_wire_roundtrip():
    alg = QuantumAlgebra("i")
    rng = random.Random(4)
    for _ in range(25):
        coeffs = {}
        for _ in range(3):
            coeffs[(rng.randrange(4), rng.randrange(4))] = GaussianRational(
                rng.randrange(-9, 10), rng.randrange(-9, 10))
        x = alg.element(coeffs)
        assert parse_element(alg, str(x)) == x
        assert repr(x) == f"<{x}>"


def test_algebra_element_wire_format_shape():
    alg = QuantumAlgebra("i")
    x = alg.monomial(2, 3).scale(GaussianRational("-11/17", "7/17"))
    assert str(x) == "(-11/17+7/17*i)*a^2 b^3"
    assert str(x + alg.one) == "(1) + (-11/17+7/17*i)*a^2 b^3"
    assert str(alg.zero) == "0"


@pytest.mark.parametrize("m", basis_monomials(), ids=monomial_name)
def test_every_normal_form_name_parses(m):
    alg = QuantumAlgebra("i")
    x = alg.monomial(*m).scale(GaussianRational(2, -1))
    assert parse_monomial_name(monomial_name(m)) == m
    assert str(x) == "(2-1*i)" + (f"*{monomial_name(m)}" if m != (0, 0) else "")
    assert parse_element(alg, str(x)) == x


# not normal forms: unknown letters, exponents out of range, repeated or
# reordered letters (b a = -a b at q = +/-i), spacing the printing never emits
@pytest.mark.parametrize("name", ["x", "c^2", "a b a", "b a", "ab", "a^4", "b^0",
                                  "a^1", "", " 1", "a  b", "A", "a^-1", None, 1])
def test_non_normal_form_names_are_rejected(name):
    assert name not in {monomial_name(m) for m in basis_monomials()}
    with pytest.raises(ValueError, match="normal-form monomial") as err:
        parse_monomial_name(name)
    assert repr(name) in str(err.value)


@pytest.mark.parametrize("text", ["1/0", "0/0", "1/0*i", "2+3/0*i"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_gaussian(text)
    with pytest.raises(ValueError):
        parse_element(QuantumAlgebra("i"), f"({text})*a")


def test_diff_form_wire_format():
    cal = Calculus(QuantumAlgebra("i"))
    x = cal.wedge(cal.basis_form("c"), cal.basis_form("d"))
    assert str(x) == "[(1)] e_c^e_d"
    assert parse_form(cal, str(x)) == x
    y = x + cal.basis_form("a")
    assert str(y) == "[(1)] e_a  +  [(1)] e_c^e_d"
    assert parse_form(cal, str(y)) == y


def test_diff_form_with_function_coefficient():
    cal = Calculus(QuantumAlgebra("i"))
    alg = cal.algebra
    x = DiffForm(cal, {("b",): alg.alpha * alg.beta})
    assert str(x) == "[(1)*a b] e_b"
    assert parse_form(cal, str(x)) == x
    assert repr(x) == f"<DiffForm {x}>"
