"""Galois equivariance: each value at q = -i is the complex conjugate of the same value at q = i.

sigma, complex conjugation on Q(i), swaps the two roots.  Every structure
constant of the algebra and the calculus is a polynomial in q with rational
coefficients, and every closed form of constants.py a quotient of two, so
sigma carries each map at q = i onto the same map at q = -i, coefficient by
coefficient.  These tests check that exactly, on basis
elements and through the public maps only (never the tables behind them), so
code that writes i where it means q, or hard-codes a root, fails here.  The
last two tests hold the verify and connection documents of the CLI to the same
rule.
"""
import io
import itertools
import json
from contextlib import redirect_stdout

import pytest

from ncgq.algebra import QuantumAlgebra, TensorElement, basis_monomials
from ncgq.calculus import Calculus, DiffForm, FORMS
from ncgq.cli import main
from ncgq.riemannian import (ConnectionAssembler, TensorForm, covariant_derivative_basis,
                             reference_connection, riemann_basis)
from ncgq.scalars import format_gaussian, q_root
from test_closed_forms import closed_forms
from test_scalars import parse_gaussian

ORDERED_WORDS = [w for n in range(5) for w in itertools.combinations(FORMS, n)]
ALG = {mode: QuantumAlgebra(mode) for mode in ("i", "-i")}
CAL = {mode: Calculus(alg) for mode, alg in ALG.items()}


def sigma(x):
    """The conjugate at q = -i of an algebra element, tensor, form or tensor form at q = i."""
    if isinstance(x, (DiffForm, TensorForm)):
        return type(x)(CAL["-i"], {w: sigma(f) for w, f in x.terms.items()})
    cls = type(x)
    return cls(ALG["-i"], {k: c.conjugate() for k, c in x.coeffs.items()})


def both(make):
    """make(calculus) at q = i and at q = -i."""
    return make(CAL["i"]), make(CAL["-i"])


def test_sigma_maps_the_roots_onto_each_other():
    assert ALG["-i"].q == ALG["i"].q.conjugate()
    x = ALG["i"].alpha + ALG["i"].beta.scale(ALG["i"].q)
    assert sigma(x) == ALG["-i"].alpha + ALG["-i"].beta.scale(ALG["-i"].q)
    assert isinstance(sigma(ALG["i"].coproduct(x)), TensorElement)


def test_commute_past_on_every_form_and_monomial():
    cases = 0
    for form in FORMS:
        for p, r in basis_monomials():
            at_i, at_mi = both(lambda cal: cal.commute_past(form, cal.algebra.monomial(p, r)))
            assert at_mi == sigma(at_i)
            cases += 1
    assert cases == 64


def test_coproduct_and_antipode_on_every_monomial():
    for p, r in basis_monomials():
        x_i, x_mi = ALG["i"].monomial(p, r), ALG["-i"].monomial(p, r)
        assert ALG["-i"].coproduct(x_mi) == sigma(ALG["i"].coproduct(x_i))
        assert ALG["-i"].antipode(x_mi) == sigma(ALG["i"].antipode(x_i))


def test_wedge_on_every_word_product():
    # e_w1 m ^ e_w2 = e_w1 ^ (m e_w2), for every pair of ordered words and every monomial
    cases = 0
    for w1, w2 in itertools.product(ORDERED_WORDS, repeat=2):
        for p, r in basis_monomials():
            at_i, at_mi = both(lambda cal: cal.wedge(DiffForm(cal, {w1: cal.algebra.one}),
                                                     DiffForm(cal, {w2: cal.algebra.monomial(p, r)})))
            assert at_mi == sigma(at_i)
            cases += 1
    assert cases == 4096


def test_exterior_d_on_every_basis_element():
    cases = 0
    for w in ORDERED_WORDS:
        for p, r in basis_monomials():
            at_i, at_mi = both(lambda cal: cal.exterior_d(
                DiffForm(cal, {w: cal.algebra.monomial(p, r)})))
            assert at_mi == sigma(at_i)
            cases += 1
    assert cases == 256


def test_closed_forms_at_every_root():
    for label, f in closed_forms():
        assert f.evaluate_at(q_root("-i")) == f.evaluate_at(q_root("i")).conjugate(), label


def test_connection_system():
    at_i, at_mi = both(lambda cal: ConnectionAssembler(cal).assemble())
    assert at_i.n_equations == 48
    assert at_mi.row_labels == at_i.row_labels
    assert at_mi.matrix == [[c.conjugate() for c in row] for row in at_i.matrix]
    assert at_mi.rhs == [c.conjugate() for c in at_i.rhs]


def test_nabla_and_curvature_of_the_reference_connection():
    conn_i, conn_mi = both(reference_connection)
    assert conn_mi.coefficients == {k: c.conjugate() for k, c in conn_i.coefficients.items()}
    for i in FORMS:
        for fn in (covariant_derivative_basis, riemann_basis):
            at_i, at_mi = fn(CAL["i"], conn_i, i), fn(CAL["-i"], conn_mi, i)
            assert at_i and at_mi == sigma(at_i)


def cli_json(*args):
    """The JSON document of one CLI command, run in this process; the command must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(args)) == 0
    return json.loads(out.getvalue())


# The audit and curvature documents print Gaussian values inside free text; the
# tests above cover the objects behind them.
def test_verify_differs_between_the_roots_only_in_its_mode_labels():
    at_i, at_mi = cli_json("verify", "--q", "i"), cli_json("verify", "--q", "-i")
    assert at_mi["q"] == "-i" and {c["mode"] for c in at_mi["checks"]} == {"-i"}
    assert {**at_mi, "q": "i", "checks": [{**c, "mode": "i"} for c in at_mi["checks"]]} == at_i


def test_connection_at_minus_i_is_sigma_of_every_coefficient_at_i():
    at_i, at_mi = cli_json("connection", "--q", "i"), cli_json("connection", "--q", "-i")
    coefficients = at_i["results"]["i"]["connection"]
    conjugated = {k: format_gaussian(parse_gaussian(v).conjugate()) for k, v in coefficients.items()}
    assert conjugated != coefficients
    assert at_mi == {**at_i, "q": "-i", "results": {"-i": {**at_i["results"]["i"], "connection": conjugated}}}
