import json
import random

import pytest

from ncgq.algebra import QuantumAlgebra, basis_monomials, monomial_name
from ncgq.calculus import Calculus, DiffForm
from ncgq.scalars import GaussianRational, parse_gaussian


def test_algebra_element_wire_roundtrip():
    alg = QuantumAlgebra("i")
    rng = random.Random(4)
    for _ in range(25):
        coeffs = {}
        for _ in range(3):
            coeffs[(rng.randrange(4), rng.randrange(4))] = GaussianRational(
                rng.randrange(-9, 10), rng.randrange(-9, 10))
        x = alg.element(coeffs)
        blob = json.dumps(x.to_json())
        assert alg.from_json(json.loads(blob)) == x


def test_algebra_element_wire_format_shape():
    alg = QuantumAlgebra("i")
    x = alg.monomial(2, 3).scale(GaussianRational("-11/17", "7/17"))
    assert x.to_json() == [{"monomial": "a^2 b^3", "coeff": "-11/17+7/17*i"}]


@pytest.mark.parametrize("m", basis_monomials(), ids=monomial_name)
def test_every_normal_form_name_parses(m):
    alg = QuantumAlgebra("i")
    assert alg.from_json([{"monomial": monomial_name(m), "coeff": "2-i"}]) == \
        alg.monomial(*m).scale(GaussianRational(2, -1))


# not normal forms: unknown letters, exponents out of range, repeated or
# reordered letters (b a = -a b at q = +/-i), spacing the wire format never emits
@pytest.mark.parametrize("name", ["x", "c^2", "a b a", "b a", "ab", "a^4", "b^0",
                                  "a^1", "", " 1", "a  b", "A", "a^-1", None, 1])
def test_non_normal_form_names_are_rejected(name):
    with pytest.raises(ValueError, match="normal-form monomial") as err:
        QuantumAlgebra("i").from_json([{"monomial": name, "coeff": "1"}])
    assert repr(name) in str(err.value)


@pytest.mark.parametrize("text", ["1/0", "0/0", "1/0*i", "2+3/0*i"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_gaussian(text)
    with pytest.raises(ValueError):
        QuantumAlgebra("i").from_json([{"monomial": "a", "coeff": text}])


def test_diff_form_wire_format():
    cal = Calculus(QuantumAlgebra("i"))
    x = cal.wedge(cal.basis_form("c"), cal.basis_form("d"))
    doc = x.to_json()
    assert doc["degree"] == 2
    assert doc["terms"] == [{"coeff": [{"monomial": "1", "coeff": "1"}],
                             "wedge": ["e_c", "e_d"]}]


def test_diff_form_with_function_coefficient():
    cal = Calculus(QuantumAlgebra("i"))
    alg = cal.algebra
    x = DiffForm(cal, {("b",): alg.alpha * alg.beta})
    doc = x.to_json()
    assert doc["degree"] == 1
    assert doc["terms"][0]["wedge"] == ["e_b"]
    assert doc["terms"][0]["coeff"] == [{"monomial": "a b", "coeff": "1"}]
