"""Closed-form reference constants and tables: rational functions in q, as printed.

Everything here transcribes the published reference tables that the engine
reproduces and audits: the braided-Lie structure constants, the metric
parameter, the spin-connection table, the covariant-derivative and curvature
expansions, and the Dirac connection-term formulas.  The values are data, not
derivations; first-principles recomputations live in the engine modules and
are compared against these in the audit.

Index conventions: connection coefficients are keyed ("i", "j") for the
j-component of the connection form attached to basis 1-form i, i.e. A_i^j.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .scalars import ZERO, GaussianRational, RationalFunctionQ, rf

Q = rf([0, 1])
ONE_RF = rf([1])

# deformation scalar 1 - q^-2 = (q^2 - 1)/q^2
MU = rf([-1, 0, 1], [0, 0, 1])
# [2]_q = 1 + q
TWO_Q = rf([1, 1])
# [2]_{q^2} = 1 + q^2
TWO_Q2 = rf([1, 0, 1])

# braided-Lie constants
NU = rf([34, 7, -24, 1], [-30, -50, -15, 5])
XI = rf([-13, -15, 0, 1], [-30, -50, -15, 5])
LAMBDA_C = rf([1, 2, 2], [-2, 0, 2, 1])

# metric normalization rho = q(1-q-q^2)/(1+q)
RHO = rf([0, 1, -1, -1], [1, 1])

# (1 + q^-1 - q)/(1 + q), the weight on the d->a connection entry in the
# Dirac connection term (kept unsimplified to mirror the reference display)
F_DIAG = rf([1, 1, -1], [0, 1, 1])

Q2 = rf([0, 0, 1])
Q3 = rf([0, 0, 0, 1])
QINV = rf([1], [0, 1])

Q2_OVER_2Q = Q2 / TWO_Q
Q_OVER_2Q = Q / TWO_Q
QP1INV_OVER_2Q = (ONE_RF + QINV) / TWO_Q  # equals 1/q


# -- spin connection table -------------------------------------------------------
# A_i^j keyed ("i","j"); entries are rational functions in q, as printed, unreduced.
# The ("d","b") entry's printed denominator is typographically corrupted; it is
# carried separately with the readable digits and excluded from comparisons.

CONNECTION_PRINTED: dict[tuple[str, str], RationalFunctionQ] = {
    ("a", "a"): rf([4, 6, 5, 3], [5, 0, -4, 2]),
    ("d", "d"): rf([4, 6, 5, 3], [5, 0, -4, 2]),
    ("d", "a"): rf([-1, 5, 7, 1], [2, 5, 0, -4]),
    ("a", "d"): rf([-1, 5, 7, 1], [2, 5, 0, -4]),
    ("d", "c"): rf([-295, 655, 430, -48], [319, -112, -333, 99]),
    ("a", "b"): rf([-146, -270, -25, 90], [14, -84, 9, 106]),
    ("a", "c"): rf([-330, 285, 465, -292], [99, 319, -112, -333]),
    ("c", "c"): rf([1, 2, 2], [-2, 0, 2, 1]),
    ("b", "b"): rf([-2, -3, 3, 2], [2, 5, 0, -4]),
}

# zeros asserted in the reference proof (not in the table itself)
CONNECTION_PROOF_ZEROS: tuple[tuple[str, str], ...] = (
    ("b", "a"), ("b", "c"), ("b", "d"), ("c", "d"),
)

# entries never printed anywhere
CONNECTION_UNPRINTED: tuple[tuple[str, str], ...] = (("c", "a"), ("c", "b"))

# ("d","b"): numerator readable, denominator corrupted ("-+106q+14q^2-84q^3").
CONNECTION_DB_NUMERATOR = rf([-275, -120, 140, -15])
CONNECTION_DB_DENOMINATOR_TAIL = (106, 14, -84)  # q, q^2, q^3 coefficients; constant unreadable


def connection_db_candidate(constant_term: int) -> RationalFunctionQ:
    """The corrupted entry with a hypothesised constant denominator coefficient."""
    den = [constant_term, *CONNECTION_DB_DENOMINATOR_TAIL]
    return RationalFunctionQ(CONNECTION_DB_NUMERATOR.num, den)


# -- structure-constant tables ------------------------------------------------------
# ad(e_i) = sum_{j,k} ad(jk|i) e_j (x) e_k; stored as {i: {(j,k): coefficient}}.

AdTable = dict[str, dict[tuple[str, str], RationalFunctionQ]]


def _table(rows) -> AdTable:
    out: AdTable = {}
    for i, entries in rows.items():
        acc: dict[tuple[str, str], RationalFunctionQ] = {}
        for j, k, c in entries:
            acc[(j, k)] = acc.get((j, k), rf([0])) + c
        out[i] = {key: val for key, val in acc.items() if val}
    return out


AD_R_PRINTED: AdTable = _table({
    "a": [("c", "b", ONE_RF), ("d", "b", -Q2), ("a", "b", NU), ("d", "b", XI)],
    "d": [("a", "c", -Q2), ("b", "c", ONE_RF), ("a", "c", -LAMBDA_C * NU), ("d", "c", -LAMBDA_C * XI)],
    "b": [("b", "a", Q2_OVER_2Q), ("b", "d", -Q_OVER_2Q), ("c", "b", -Q2), ("d", "b", ONE_RF)],
    "c": [("a", "c", ONE_RF), ("b", "c", -Q2), ("c", "d", Q2_OVER_2Q), ("c", "a", -QP1INV_OVER_2Q)],
})

AD_L_PRINTED: AdTable = _table({
    "a": [("b", "c", -Q2), ("b", "d", -Q2), ("b", "a", NU), ("b", "d", XI)],
    "d": [("c", "a", -Q2), ("c", "b", -Q2), ("c", "a", LAMBDA_C * NU), ("c", "d", LAMBDA_C * XI)],
    "b": [("b", "d", -Q2), ("b", "c", -Q2), ("d", "b", Q2_OVER_2Q), ("a", "b", -QP1INV_OVER_2Q)],
    "c": [("c", "a", -Q2), ("c", "b", -Q2), ("a", "c", Q2_OVER_2Q), ("d", "c", -Q_OVER_2Q)],
})


def evaluate_ad_table(table: AdTable, q0: GaussianRational) -> dict[str, dict[tuple[str, str], GaussianRational]]:
    return {i: {jk: c.evaluate_at(q0) for jk, c in row.items()} for i, row in table.items()}


# -- covariant derivative reference expansions ---------------------------------------
# nabla e_i = sum  coeff * A_j (x) e_k ; stored as {i: [(j, k, coeff), ...]}.

NABLA_PRINTED: dict[str, list[tuple[str, str, RationalFunctionQ]]] = {
    "a": [("b", "c", Q2), ("b", "d", Q2), ("b", "a", -NU), ("b", "d", -XI)],
    "d": [("c", "a", Q2), ("c", "b", Q2), ("c", "a", LAMBDA_C * NU), ("c", "d", LAMBDA_C * XI)],
    "b": [("b", "d", Q2), ("b", "c", Q2), ("d", "b", -Q2_OVER_2Q), ("a", "b", -QP1INV_OVER_2Q)],
    "c": [("c", "a", Q2), ("c", "b", Q2), ("a", "c", -Q * Q_OVER_2Q), ("c", "c", Q_OVER_2Q)],
}

# -- curvature reference expansions ---------------------------------------------------
# Riemann(e_i) = sum coeff * A_j ^ A_j2 (x) e_k ; {i: [(j, j2, k, coeff), ...]}.

RIEMANN_PRINTED: dict[str, list[tuple[str, str, str, RationalFunctionQ]]] = {
    "a": [
        ("b", "c", "a", ONE_RF), ("b", "c", "b", ONE_RF),
        ("b", "a", "c", -(Q3 * Q) / TWO_Q), ("b", "c", "c", Q3 / TWO_Q),
        ("b", "c", "a", Q2 * LAMBDA_C * NU), ("b", "c", "d", Q2 * LAMBDA_C * XI),
    ],
    "b": [
        ("b", "c", "a", Q2 * Q2), ("b", "c", "b", Q2 * Q2),
        ("b", "c", "a", Q2 * LAMBDA_C * NU), ("b", "c", "d", Q2 * LAMBDA_C * XI),
        ("b", "a", "c", -(Q2 * Q * Q) / TWO_Q), ("b", "c", "c", (Q2 * Q) / TWO_Q),
    ],
    "c": [
        ("c", "b", "c", Q2 * Q2), ("c", "b", "d", Q2 * Q2),
        ("c", "b", "a", -Q2 * NU), ("c", "b", "d", -Q2 * XI),
        ("c", "b", "d", Q2 * Q2), ("c", "b", "c", Q2 * Q2),
        ("c", "d", "b", -(Q2 * Q2) / TWO_Q), ("c", "a", "b", Q2 * QP1INV_OVER_2Q),
    ],
    "d": [
        ("c", "b", "c", ONE_RF), ("c", "b", "d", ONE_RF),
        ("c", "b", "a", -Q2 * NU), ("c", "b", "d", -Q2 * XI),
        ("c", "d", "b", -(Q2 * Q2) / TWO_Q), ("c", "a", "b", Q2 * QP1INV_OVER_2Q),
    ],
}

# -- Dirac connection term -------------------------------------------------------------
# Reference values of the connection 1-form applied to the four generator
# projections: A(proj inv-antipode t) as combinations sum coeff * A_j.

ASLASH_GENERATOR_VALUES: dict[str, list[tuple[str, RationalFunctionQ]]] = {
    "alpha": [("a", -ONE_RF), ("d", F_DIAG)],
    "beta": [("c", -Q2)],
    "beta_star": [("b", -Q2)],
    "delta": [("a", Q2_OVER_2Q), ("d", -Q_OVER_2Q)],
}

# Proof-form entries of the 2x2 connection-term matrix in terms of A_i^j.
# Each entry: list of (i, j, coeff) meaning coeff * A_i^j.
ASLASH_MATRIX_PRINTED: dict[tuple[int, int], list[tuple[str, str, RationalFunctionQ]]] = {
    (0, 0): [("d", "a", F_DIAG), ("a", "a", -ONE_RF), ("b", "b", -Q2)],
    (1, 0): [("d", "c", F_DIAG), ("a", "c", -ONE_RF)],
    (0, 1): [("a", "b", Q2_OVER_2Q), ("d", "b", -Q_OVER_2Q)],
    (1, 1): [("a", "d", Q2_OVER_2Q), ("d", "d", -Q_OVER_2Q), ("c", "c", -Q2)],
}


@lru_cache(maxsize=None)
def evaluate_connection_printed(q0: GaussianRational) -> Mapping[tuple[str, str], GaussianRational]:
    """All parseable reference connection entries at q = q0 (proof zeros included), once per q0.

    The mapping is shared and read-only: a caller that adds entries copies it first.
    """
    out = {key: c.evaluate_at(q0) for key, c in CONNECTION_PRINTED.items()}
    out.update(dict.fromkeys(CONNECTION_PROOF_ZEROS, ZERO))
    return MappingProxyType(out)
