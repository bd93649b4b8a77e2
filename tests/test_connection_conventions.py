"""Every torsion/cotorsion assembly convention, judged by exact rank.

A convention is data: the printed structure-constant table (ad_L or ad_R);
whether its two lower indices are swapped; where the connection form sits
(torsion A_j ^ e_k, cotorsion e_j ^ A_k, or the cotorsion derived from the
metric); an overall sign; the scale of d (normalised, unnormalised, negated);
and the pair rule for e_c ^ e_b (the engine's antisymmetric one, or the
printed symmetric one).  ConnectionAssembler builds every equation and
ExteriorAlgebra.reduce_word every wedge normal form.  A system counts as
consistent when its rank equals its augmented rank, so an underdetermined but
solvable system counts as consistent.

Everything is checked at q = i.  Every table, metric entry and rewriting
coefficient is a rational function of q with rational coefficients, so the
q = -i systems are the complex conjugates of these and have the same ranks.
"""
import itertools
from collections import Counter

import pytest

from ncgq import linalg
from ncgq.algebra import QuantumAlgebra
from ncgq.calculus import Calculus, ExteriorAlgebra, FORMS
from ncgq.constants import evaluate_connection_printed
from ncgq.riemannian import ConnectionAssembler, ConnectionSystem, Metric
from ncgq.scalars import ONE, ZERO

TABLES = ("ad_L", "ad_R")
SIDES = ("torsion", "cotorsion", "metric cotorsion")
PAIR_RULES = ("antisymmetric", "symmetric")
D_SCALES = ("normalised", "unnormalised", "negated")


class SymmetricPairRule(ExteriorAlgebra):
    """The printed variant e_c ^ e_b = +e_b ^ e_c of the engine's pair rule."""

    def _build_pair_rules(self):
        rules = super()._build_pair_rules()
        rules[("c", "b")] = [(ONE, ("b", "c"))]
        return rules


def _assembler(pair_rule):
    cal = Calculus(QuantumAlgebra("i"))
    if pair_rule == "symmetric":
        cal.exterior = SymmetricPairRule(cal.algebra.q)
    return ConnectionAssembler(cal)


def _table(asm, name, transpose, sign):
    out = {}
    for i, row in (asm.ad_left if name == "ad_L" else asm.ad_right).items():
        acc = out[i] = {}
        for (j, k), c in row.items():
            key = (k, j) if transpose else (j, k)
            acc[key] = acc.get(key, ZERO) + (c if sign > 0 else -c)
    return out


def _metric_cotorsion(eta, table, de, t):
    """Component t of sum_jk eta_jk (d e_j (x) e_k - e_j ^ nabla e_k).

    Here nabla e_k = -sum_mn ad(mn|k) A_m (x) e_n, from the convention's table.
    """
    row, const = {}, {}
    for (j, k), e in eta.items():
        for (m, n), c in table[k].items():
            if n == t:
                row[(j, m)] = row.get((j, m), ZERO) + e * c
        if k == t:
            for w, v in de[j].items():
                const[w] = const.get(w, ZERO) + e * v
    return row, const


def _family(asm, table, side, de, eta):
    matrix, rhs, labels = [], [], []
    for i in FORMS:
        if side == "metric cotorsion":
            row, const = _metric_cotorsion(eta, table, de, i)
        else:
            row, const = table[i], de[i]
        r, c, l = asm._family(i, row, const, "left" if side == "torsion" else "right", side)
        matrix += r; rhs += c; labels += l
    return ConnectionSystem(matrix=matrix, rhs=rhs, row_labels=labels)


@pytest.fixture(scope="module")
def families():
    """Every single family at q = i, keyed (pair rule, d scale, table, transpose, sign, side)."""
    out = {}
    for rule in PAIR_RULES:
        asm = _assembler(rule)
        eta = Metric(asm.calculus).coeffs
        # _de_coords is the normalised d; mu times it is the unnormalised one
        mu = asm.calculus.algebra.mu
        for scale_name, scale in zip(D_SCALES, (ONE, mu, -ONE)):
            de = {i: {w: scale * c for w, c in asm._de_coords(i).items()} for i in FORMS}
            for name, transpose, sign in itertools.product(TABLES, (False, True), (1, -1)):
                table = _table(asm, name, transpose, sign)
                for side in SIDES:
                    key = (rule, scale_name, name, transpose, sign, side)
                    out[key] = _family(asm, table, side, de, eta)
    return out


def _rows(system):
    return Counter((tuple(row), b) for row, b in zip(system.matrix, system.rhs))


def test_sweep_contains_the_operative_assembly(families):
    operative = ConnectionAssembler(Calculus(QuantumAlgebra("i"))).assemble()
    base = ("antisymmetric", "normalised")
    swept = (_rows(families[(*base, "ad_L", False, 1, "torsion")])
             + _rows(families[(*base, "ad_R", False, 1, "cotorsion")]))
    assert swept == _rows(operative)


def test_printed_table_solves_no_single_family(families):
    """After substituting the 13 printed entries, every family is inconsistent.

    Adding equations keeps a system inconsistent, so every pair, and every
    larger combination of families, is inconsistent with the table as well.
    """
    printed = evaluate_connection_printed(QuantumAlgebra("i").q)
    assert len(printed) == 13 and len(families) == 144
    solved = [key for key, system in families.items()
              if system.substitute(printed).rank_report()["consistent"]]
    assert not solved


def _reduced(system):
    """Nonzero rows of the reduced [A | b]: the same row space, so the same ranks."""
    red, pivots = linalg.row_reduce([row + [b] for row, b in zip(system.matrix, system.rhs)])
    return red[:len(pivots)]


def _consistent(rows):
    """rank [A | b] = rank A exactly when no pivot falls in the b column."""
    return len(rows[0]) - 1 not in linalg.row_reduce(rows)[1]


def test_every_torsion_cotorsion_pair_is_inconsistent(families):
    """Under the operative pair rule, no torsion + cotorsion pair has any solution.

    On all 16 unknowns, a common scale s of d is the substitution x -> s x,
    and flipping both signs is x -> -x, so normalised d with a positive
    torsion sign and either cotorsion sign covers every scale and sign.  The
    printed symmetric pair rule, which the metric rules out (see the audit's
    pair-rule row), does admit consistent pairs, e.g. transposed ad_L torsion
    with ad_L cotorsion; the printed table still solves none of them.
    """
    base = ("antisymmetric", "normalised")
    torsion = [(*base, name, transpose, 1, "torsion")
               for name, transpose in itertools.product(TABLES, (False, True))]
    cotorsion = [(*base, name, transpose, sign, side)
                 for name, transpose, sign, side in itertools.product(
                     TABLES, (False, True), (1, -1), SIDES[1:])]
    reduced = {key: _reduced(families[key]) for key in torsion + cotorsion}
    consistent = [(t, c) for t, c in itertools.product(torsion, cotorsion)
                  if _consistent(reduced[t] + reduced[c])]
    assert len(torsion) * len(cotorsion) == 64
    assert not consistent

    symmetric = ("symmetric", "normalised")
    mirror = [_reduced(families[(*symmetric, "ad_L", True, 1, "torsion")]),
              _reduced(families[(*symmetric, "ad_L", False, 1, "cotorsion")])]
    assert _consistent(mirror[0] + mirror[1])
