"""The per-mode Hopf tables of the reduced algebra and the checks that read them.

QuantumAlgebra.coproduct, antipode and antipode_axiom_defect read these tables
and import this module on their first call, so a command that never takes a
coproduct or an antipode never compiles it.  Each table holds the images of
the 16 basis monomials as flat entries (see algebra.table_entry), filled once
per q mode on first use: the coproduct and the antipode from their defining
formulas (products of monomials over the denominator 1, so their numerators
are their coefficients), the antipode axiom defects from the integer entries
of those two.
"""
from __future__ import annotations

from functools import lru_cache

from .algebra import (DIM, AlgebraElement, QuantumAlgebra, TensorElement, add_products, basis_monomials,
                      table_entry)


@lru_cache(maxsize=None)
def coproduct_table(mode: str) -> tuple[tuple, ...]:
    """Delta(a^p b^r) = Delta(a)^p Delta(b)^r at index 4p + r, as flat entries keyed by left index i.

    The slots of key i hold the right legs m_j of the terms m_i (x) m_j.

    Built once per q mode on first use; shared, so never mutate it.
    """
    alg = QuantumAlgebra(mode)
    da = TensorElement.pure(alg.alpha, alg.alpha) + TensorElement.pure(alg.beta, alg.beta_star)
    db = TensorElement.pure(alg.alpha, alg.beta) + TensorElement.pure(alg.beta, alg.delta)
    unit = TensorElement.pure(alg.one, alg.one)
    images = []
    for p, r in basis_monomials():
        term = unit
        for _ in range(p):
            term = term * da
        for _ in range(r):
            term = term * db
        images.append(table_entry(term.num))
    return tuple(images)


@lru_cache(maxsize=None)
def antipode_table(mode: str) -> tuple[tuple, ...]:
    """S(a^p b^r) = S(b)^r S(a)^p at index 4p + r, as flat entries under the one key 0.

    Built once per q mode on first use; shared, so never mutate it.
    """
    alg = QuantumAlgebra(mode)
    s_a = alg.antipode_on_generator("alpha")
    s_b = alg.antipode_on_generator("beta")
    images = []
    for p, r in basis_monomials():
        term = alg.one
        for _ in range(r):  # reversed word
            term = term * s_b
        for _ in range(p):
            term = term * s_a
        images.append(table_entry({0: term.num}))
    return tuple(images)


@lru_cache(maxsize=None)
def antipode_defect_table(mode: str) -> tuple[tuple, ...]:
    """The antipode axiom defects of m = a^p b^r at index 4p + r, as flat entries: under key 0
    m(S (x) id) Delta(m) - eps(m) 1, under key 1 m(id (x) S) Delta(m) - eps(m) 1.

    Each entry is summed from the integer entries of `coproduct_table` and `antipode_table`: over
    the terms (A + B i) m_i (x) m_j of Delta(m), (A + B i) S(m_i) m_j under key 0 and
    (A + B i) m_i S(m_j) under key 1, minus eps(m) 1.  Both axioms hold exactly when every entry is
    (), a proof, since both sides are linear.
    Built once per q mode on first use; shared, so never mutate it.
    """
    antipodes = [[(s >> 1, c, e) for _, s, c, e in zip(it, it, it, it)]
                 for it in map(iter, antipode_table(mode))]
    images = []
    for (_, r), entry in zip(basis_monomials(), coproduct_table(mode)):
        sides = ([0] * (2 * DIM), [0] * (2 * DIM))
        it = iter(entry)
        for i, s, a, b in zip(it, it, it, it):
            j = s >> 1
            add_products(sides[0], antipodes[i], ((j, a, b),))
            add_products(sides[1], ((i, a, b),), antipodes[j])
        if not r:  # eps(a^p) = 1, and eps(a^p b^r) = 0 for r > 0
            sides[0][0] -= 1
            sides[1][0] -= 1
        images.append(table_entry(dict(enumerate(sides))))
    return tuple(images)


def antipode_axioms_hold(alg: QuantumAlgebra) -> bool:
    """Both antipode axioms, exactly, on all 16 basis monomials (a proof: they are linear).

    Reads the 16 defect images of `antipode_defect_table`: the axioms hold when all are zero."""
    return not any(antipode_defect_table(alg.mode))


def relation_residuals(alg: QuantumAlgebra) -> dict[str, AlgebraElement]:
    """Residual (lhs - rhs) of each defining relation under the operational normal forms."""
    bs, dl = alg.beta_star, alg.delta
    a, b, mu = alg.alpha, alg.beta, alg.mu
    q2 = alg.q2
    return {
        "b a = q^2 a b": b * a - (a * b).scale(q2),
        "delta a = a delta": dl * a - a * dl,
        "[b, bstar] = mu a (delta - a)": (b * bs - bs * b) - (a * (dl - a)).scale(mu),
        "[delta, b] = mu a b": (dl * b - b * dl) - (a * b).scale(mu),
        "a delta - q^2 bstar b = 1": a * dl - (bs * b).scale(q2) - alg.one,
        "a^4 = 1": alg.alpha ** 4 - alg.one,
        "delta^4 = 1": dl ** 4 - alg.one,
        "b^4 = bstar^4": alg.beta ** 4 - bs ** 4,
    }
