"""Every entry of the image tables that `verify` fills, against its form-level formula, in order.

Equality of two forms or tensor forms is equality of their keyed numerators as
dicts, which ignores key order.  No output reads that order either: `curvature`
and `audit` print words, legs and monomials sorted, and the last test here
fills every table and sum in reverse to show that their bytes stay the same.
So the key order pinned below is stricter than any output needs.  Each oracle
here builds the image by the form-level formula, reduced at each step:

* the d image of m e_w as theta ^ m e_w - sigma(m e_w) ^ theta, through KeyedSum
  arithmetic;
* the curvature image R(m e_i) as, for each right leg m in turn, the reduced
  wedge_sum of its wedges and then the reduced exterior_d of its leg, added
  with + over their lcm;
* the antipode axiom defects through the oracles' apply and multiply_out;

and each table entry must equal the oracle's flat entry, entry for entry and
in key order.  Every table starts empty here, so each entry is filled by the
test that reads it.
"""
import itertools
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from ncgq.algebra import KeyedSum, QuantumAlgebra, basis_monomials
from ncgq.calculus import Calculus, ExteriorAlgebra, FORMS
from ncgq.hopf import antipode_defect_table, antipode_table
from ncgq.riemannian import (SpinConnection, TensorForm, covariant_derivative, covariant_derivative_basis,
                             reference_connection_values, riemann, riemann_of_tensor)
from test_table_oracles import oracle_apply, oracle_multiply_out

ORDERED_WORDS = [w for n in range(5) for w in itertools.combinations(FORMS, n)]


@pytest.fixture(params=["i", "-i"])
def cal(request):
    """A calculus of each root with an exterior algebra, and so d image tables, of its own."""
    cal = Calculus(QuantumAlgebra(request.param))
    cal.exterior = ExteriorAlgebra(cal.algebra.q)
    return cal


def fresh_connection(cal: Calculus) -> SpinConnection:
    """The reference connection with nabla and curvature image tables of its own, all empty."""
    return SpinConnection(reference_connection_values(cal.algebra.q), "reference-table")


def flat(x) -> tuple:
    """A form, tensor form or tensor as a flat table entry (key, slot, A, B, ...) in key order."""
    return tuple(chain.from_iterable((key, 2 * j, a, b) for key, coords in x.nonzero() for j, a, b in coords))


def oracle_d_image(cal: Calculus, w: tuple, k: int) -> tuple:
    basis = cal._single(w, cal.algebra.monomial(k >> 2, k & 3))
    sigma = -basis if len(w) % 2 else basis
    return flat(cal.wedge(cal.theta(), basis) - cal.wedge(sigma, cal.theta()))


def oracle_riemann(cal: Calculus, conn: SpinConnection, t: TensorForm) -> TensorForm:
    legs, wedges = t.terms, {}
    for k, x in legs.items():
        for m, leg in covariant_derivative_basis(cal, conn, k).terms.items():
            wedges.setdefault(m, []).append((x, leg))
        wedges.setdefault(k, [])
    out = TensorForm(cal, {})
    for m, pairs in wedges.items():
        out = out + TensorForm(cal, {m: cal.wedge_sum(pairs)})
        if m in legs:
            out = out + TensorForm(cal, {m: -cal.exterior_d(legs[m])})
    return out


def test_every_d_image_is_its_formula_in_order(cal):
    images = cal.exterior.d_images
    for w in ORDERED_WORDS:
        for k, (p, r) in enumerate(basis_monomials()):
            cal.exterior_d(cal._single(w, cal.algebra.monomial(p, r)))
            assert images[w][k] == oracle_d_image(cal, w, k), (w, k)
    assert sum(len(slots) for slots in images.values()) == 256


def test_every_curvature_image_is_its_formula_in_order(cal):
    conn, alg = fresh_connection(cal), cal.algebra
    for i in FORMS:
        for k, (p, r) in enumerate(basis_monomials()):
            basis = cal.basis_form(i, alg.monomial(p, r))
            riemann(cal, conn, basis)
            want = oracle_riemann(cal, conn, covariant_derivative(cal, conn, basis))
            assert conn._riemann[(alg.mode, i)][k] == (want.den, flat(want)), (i, k)
    assert len(conn._riemann) == 4


@pytest.fixture
def fresh_antipode_tables():
    caches = (antipode_table, antipode_defect_table)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_every_antipode_defect_is_its_formula_in_order(cal, fresh_antipode_tables):
    alg = cal.algebra
    table = antipode_defect_table(alg.mode)
    for k, (p, r) in enumerate(basis_monomials()):
        m = alg.monomial(p, r)
        dm, unit = alg.coproduct(m), alg.scalar(m.counit())
        sides = (oracle_apply(dm, alg.antipode, None), oracle_apply(dm, None, alg.antipode))
        want = tuple(chain.from_iterable((key, 2 * j, a, b) for key, side in enumerate(sides)
                                         for j, a, b in (oracle_multiply_out(side) - unit).nonzero()))
        assert table[k] == want, k
    assert len(table) == 16


def test_a_curvature_fill_sums_once_and_reduces_once(cal, monkeypatch):
    # riemann_of_tensor sums every wedge and every d into one numerator per (leg, word) over one
    # denominator: with the d images and nabla legs warm, it calls neither public map, and the
    # one gcd of its result is the only reduction it makes
    conn, alg = fresh_connection(cal), cal.algebra
    for i in FORMS:
        riemann(cal, conn, cal.basis_form(i))
    for w in ORDERED_WORDS[1:5]:
        for p, r in basis_monomials():
            cal.exterior_d(cal._single(w, alg.monomial(p, r)))
    t = covariant_derivative(cal, conn, cal.basis_form("b", alg.alpha * alg.beta))
    calls = []
    for name in ("wedge_sum", "exterior_d"):
        original = getattr(Calculus, name)
        monkeypatch.setattr(Calculus, name,
                            lambda *args, _f=original, _n=name, **kw: calls.append(_n) or _f(*args, **kw))
    lowest = KeyedSum._lowest.__func__
    monkeypatch.setattr(KeyedSum, "_lowest", classmethod(lambda *args: calls.append("_lowest") or lowest(*args)))
    got = riemann_of_tensor(cal, conn, t)
    assert calls == ["_lowest"]
    monkeypatch.undo()
    want = oracle_riemann(cal, conn, t)
    assert (got.den, flat(got)) == (want.den, flat(want))


# Runs each argv of a JSON list through ncgq.cli.main in one fresh process, every table empty at the
# start, and prints [[exit code, stdout], ...]; with "reversed" first, every sum that _of makes keeps
# its keys and its support in reverse order, so every table fills and every sum iterates the other way.
REVERSED_FILL_ENTRY = """
import io, json, sys
from contextlib import redirect_stdout
from ncgq.algebra import ScalarSum
from ncgq.calculus import FormSum
from ncgq.cli import main

def reversing(of):
    def _of(cls, context, den, num, nonzero=None):
        if isinstance(num, dict):
            num = dict(reversed(num.items()))
        return of(cls, context, den, num, None if nonzero is None else nonzero[::-1])
    return classmethod(_of)

if sys.argv[1] == "reversed":
    for cls in (ScalarSum, FormSum):
        cls._of = reversing(cls.__dict__["_of"].__func__)
runs = []
for argv in json.loads(sys.argv[2]):
    with redirect_stdout(io.StringIO()) as out:
        runs.append([main(argv), out.getvalue()])
print(json.dumps(runs))
"""


def test_no_output_depends_on_fill_order():
    argvs = [[command, "--q", "i", "--format", fmt] for command in ("curvature", "audit") for fmt in ("json", "text")]
    runs = {}
    for order in ("as filled", "reversed"):
        done = subprocess.run([sys.executable, "-c", REVERSED_FILL_ENTRY, order, json.dumps(argvs)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
        assert done.returncode == 0, done.stderr
        runs[order] = json.loads(done.stdout)
    assert [code for code, _ in runs["as filled"]] == [0] * 4
    for argv, plain, turned in zip(argvs, runs["as filled"], runs["reversed"]):
        assert plain == turned, argv
