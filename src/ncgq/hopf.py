"""The per-mode Hopf tables of the reduced algebra and the checks that read them.

QuantumAlgebra.coproduct, antipode and antipode_axiom_defect read these tables
and import this module on their first call, so a command that never takes a
coproduct or an antipode never compiles it.  Each table holds the images of
the 16 basis monomials as flat entries (see algebra.flat_entry), filled once
per q mode from the defining formula on first use.
"""
from __future__ import annotations

from functools import lru_cache

from .algebra import (AlgebraElement, QuantumAlgebra, TensorElement, basis_monomials, flat_entry,
                      monomial_index, monomial_name)


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
        images.append(flat_entry({(monomial_index(m1), m2): c for (m1, m2), c in term.coeffs.items()},
                                 f"Delta({monomial_name((p, r))})"))
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
        images.append(flat_entry({(0, m): c for m, c in term.coeffs.items()}, f"S({monomial_name((p, r))})"))
    return tuple(images)


@lru_cache(maxsize=None)
def antipode_defect_table(mode: str) -> tuple[tuple, ...]:
    """The antipode axiom defects of a^p b^r at index 4p + r, as flat entries: under key 0
    m(S (x) id) Delta(a^p b^r) - eps(a^p b^r) 1, under key 1 m(id (x) S) Delta(a^p b^r) - eps(a^p b^r) 1.

    Each entry is filled once from that formula: coproduct, apply, multiply_out, minus the
    counit.  Both axioms hold exactly when every entry is (), a proof, since both sides are linear.
    Built once per q mode on first use; shared, so never mutate it.
    """
    alg = QuantumAlgebra(mode)
    images = []
    for p, r in basis_monomials():
        m = alg.monomial(p, r)
        dm, unit = alg.coproduct(m), alg.scalar(m.counit())
        sides = (dm.apply(alg.antipode, None), dm.apply(None, alg.antipode))
        images.append(flat_entry({(key, mk): c for key, side in enumerate(sides)
                                  for mk, c in (side.multiply_out() - unit).coeffs.items()},
                                 f"antipode defect of {monomial_name((p, r))}"))
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
