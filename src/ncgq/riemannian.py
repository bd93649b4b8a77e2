"""Metric, torsion/cotorsion system, spin connection, curvature, regularity.

The linear system for the 16 connection coefficients is assembled from the
torsion and cotorsion equations

    d e_i + sum_jk ad_L(jk|i) A_j ^ e_k = 0
    d e_i + sum_jk ad_R(jk|i) e_j ^ A_k = 0

with the reference structure-constant tables as operative input.  The
assembled system is exactly inconsistent, and the reference connection table
solves no assembly convention (tables, transposes, sides, signs, scales of d,
both pair rules, the metric-derived cotorsion); each is checked by exact rank
in tests/test_connection_conventions.py.  The reference geometry data is
internally corrupted beyond reconstruction of "the" system.  The solver
therefore reports the exact rank defect, and downstream geometry consumes the
reference closed forms (whose uncorrupted entries are independently confirmed
by the spectral layer), carrying provenance and honest residuals.

The curvature R is Q(i)-linear, so R(x) is read from the images R(m e_i) of
the 64 basis elements, over one denominator.  Each image is filled on first
read from (id ^ nabla - d (x) id) nabla on the one element m e_i, never as
m R(e_i), so the basis checks of R(f e_i) = f R(e_i) still compare two
computations and, with linearity, prove tensoriality.  Every reference
connection of one q shares one image table.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import lcm
from types import MappingProxyType

from .algebra import DIM, AlgebraElement, check_mode, sum_entries
from .calculus import Calculus, DiffForm, FORMS, ModuleSum
from .constants import (AD_L_PRINTED, AD_R_PRINTED, CONNECTION_UNPRINTED, RHO,
                        TWO_Q, connection_db_candidate, evaluate_ad_table,
                        evaluate_connection_printed)
from .scalars import GaussianRational, ONE, ZERO

LAMBDA2_BASIS: tuple[tuple[str, str], ...] = (
    ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))
UNKNOWNS: tuple[tuple[str, str], ...] = tuple((i, j) for i in FORMS for j in FORMS)

# constant denominator coefficient adopted for the corrupted reference entry,
# chosen so the corrupted denominator equals q^2 * (denominator of the
# (a,b) entry) modulo q^4 = 1, matching the visible digit pattern
DB_DENOMINATOR_CONSTANT = 9


class Metric:
    """The reference invariant metric as scalar coefficients on e_j (x) e_k."""

    def __init__(self, calculus: Calculus):
        self.calculus = calculus
        q = calculus.algebra.q
        inv2 = TWO_Q.evaluate_at(q).inverse()
        rho = RHO.evaluate_at(q)
        coeffs: dict[tuple[str, str], GaussianRational] = {
            ("c", "b"): ONE,
            ("b", "c"): q * q,
            ("a", "a"): inv2,
            ("a", "d"): -q * inv2,
            ("d", "a"): -q * inv2,
            ("d", "d"): q * (q * q + q - ONE) * inv2,
        }
        for t1 in ("a", "d"):
            for t2 in ("a", "d"):
                coeffs[(t1, t2)] = coeffs.get((t1, t2), ZERO) + rho
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.rho = rho

    def wedge_contraction(self, extra_theta_multiple: GaussianRational = ZERO) -> DiffForm:
        """Image under the wedge map, optionally after adding c * theta (x) theta."""
        cal = self.calculus
        coeffs = dict(self.coeffs)
        if extra_theta_multiple:
            for t1 in ("a", "d"):
                for t2 in ("a", "d"):
                    coeffs[(t1, t2)] = coeffs.get((t1, t2), ZERO) + extra_theta_multiple
        out = cal.zero()
        for (j, k), c in coeffs.items():
            out = out + cal.wedge(cal.basis_form(j), cal.basis_form(k)).scale(c)
        return out


class ConnectionSystem:
    """Assembled linear system: rows over the 16 unknowns, labelled (kind, i, (x, y))."""

    __slots__ = ("matrix", "rhs", "row_labels", "unknowns")

    def __init__(self, matrix: list, rhs: list, row_labels: list, unknowns: tuple = UNKNOWNS):
        self.matrix = matrix
        self.rhs = rhs
        self.row_labels = row_labels
        self.unknowns = unknowns

    @property
    def n_equations(self) -> int:
        return len(self.matrix)

    def rank_report(self) -> dict:
        from . import linalg  # here, not at the top: `curvature` needs no exact linear algebra

        # one reduction of [A | b]: its pivots left of b are exactly those of A
        n = len(self.unknowns)
        _, pivots = linalg.row_reduce([row + [b] for row, b in zip(self.matrix, self.rhs)])
        r_aug = len(pivots)
        r_coeff = r_aug - (n in pivots)
        return {
            "n_equations": self.n_equations,
            "n_unknowns": len(self.unknowns),
            "rank": r_coeff,
            "augmented_rank": r_aug,
            "consistent": r_coeff == r_aug,
        }

    def solve(self) -> dict[tuple[str, str], GaussianRational]:
        from . import linalg

        x = linalg.solve_unique(self.matrix, self.rhs, ZERO)
        return dict(zip(self.unknowns, x))

    def substitute(self, values: Mapping[tuple[str, str], GaussianRational]) -> "ConnectionSystem":
        """The system left in the unknowns that `values` does not fix."""
        keep = [k for k, u in enumerate(self.unknowns) if u not in values]
        return ConnectionSystem(
            matrix=[[row[k] for k in keep] for row in self.matrix],
            rhs=[-r for r in self.residual(values)],
            row_labels=list(self.row_labels),
            unknowns=tuple(self.unknowns[k] for k in keep))

    def residual(self, values: Mapping[tuple[str, str], GaussianRational]) -> list[GaussianRational]:
        vec = [values.get(u, ZERO) for u in self.unknowns]
        out = []
        for row, b in zip(self.matrix, self.rhs):
            acc = -b
            for c, v in zip(row, vec):
                if c and v:
                    acc = acc + c * v
            out.append(acc)
        return out


class SpinConnection:
    """Coefficients A_i^j plus their provenance; the coefficients are fixed once built.

    Two connections are equal when their coefficients and sources are; the
    caches play no part.
    """

    __slots__ = ("coefficients", "source", "_nabla", "_riemann")

    def __init__(self, coefficients: dict, source: str):
        self.coefficients = coefficients
        self.source = source  # "solver" | "reference-table"
        # (q mode, i) -> the legs of nabla e_i, and the 16 images R(m e_i) (see riemann), filled on first use
        self._nabla = {}
        self._riemann = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coefficients, self.source) == (other.coefficients, other.source)

    def form(self, i: str, calculus: Calculus) -> DiffForm:
        alg = calculus.algebra
        return DiffForm(
            calculus,
            {(k,): alg.scalar(self.coefficients[(i, k)]) for k in FORMS if self.coefficients[(i, k)]},
        )

    def entry(self, i: str, j: str) -> GaussianRational:
        return self.coefficients[(i, j)]


@lru_cache(maxsize=None)
def printed_ad_tables(q: GaussianRational) -> tuple[dict, dict]:
    """(ad_L, ad_R) evaluated at q, once per root; shared, so never mutate them."""
    return evaluate_ad_table(AD_L_PRINTED, q), evaluate_ad_table(AD_R_PRINTED, q)


class ConnectionAssembler:
    """Builds the torsion/cotorsion equations over one root-of-unity calculus."""

    def __init__(self, calculus: Calculus):
        self.calculus = calculus
        self.ad_left, self.ad_right = printed_ad_tables(calculus.algebra.q)

    def _de_coords(self, i: str) -> dict[tuple[str, str], GaussianRational]:
        df = self.calculus.exterior_d(self.calculus.basis_form(i), normalized=True)
        return {(w[0], w[1]): el.counit() for w, el in df.terms.items()}

    def _wedge_pair(self, x: str, y: str) -> dict[tuple[str, str], GaussianRational]:
        return {(w[0], w[1]): c for w, c in self.calculus.exterior.reduce_word((x, y)).items()}

    def _family(self, i: str, entries, rhs, side: str, kind: str):
        """Equations rhs + sum_jk entries[jk] X_jk = 0, one per 2-form basis word w.

        X_jk is A_j ^ e_k on the "left" side and e_j ^ A_k on the "right";
        rhs holds the 2-form coordinates of the constant term (d e_i).  Each
        row is labelled (kind, i, w).
        """
        coeff: dict[tuple[str, str], dict[tuple[str, str], GaussianRational]] = {}
        for (j, k), c in entries.items():
            for m in FORMS:
                red = self._wedge_pair(m, k) if side == "left" else self._wedge_pair(j, m)
                unk = (j, m) if side == "left" else (k, m)
                for w, sc in red.items():
                    d = coeff.setdefault(w, {})
                    d[unk] = d.get(unk, ZERO) + c * sc
        rows, consts, labels = [], [], []
        for w in LAMBDA2_BASIS:
            row = [coeff.get(w, {}).get(u, ZERO) for u in UNKNOWNS]
            const = rhs.get(w, ZERO)
            if any(row) or const:
                rows.append(row)
                consts.append(-const)
                labels.append((kind, i, w))
        return rows, consts, labels

    def assemble(self) -> ConnectionSystem:
        matrix, rhs, labels = [], [], []
        for i in FORMS:
            de = self._de_coords(i)
            for table, side, kind in ((self.ad_left, "left", "torsion"),
                                      (self.ad_right, "right", "cotorsion")):
                r, c, l = self._family(i, table[i], de, side, kind)
                matrix += r; rhs += c; labels += l
        return ConnectionSystem(matrix=matrix, rhs=rhs, row_labels=labels)


def solve_connection(calculus: Calculus) -> SpinConnection:
    """Exact solve of the assembled system.

    Raises InconsistentSystem / UnderdeterminedSystem with the rank defect; for
    this reference data the full system is inconsistent (see module docstring
    and the audit report).
    """
    system = ConnectionAssembler(calculus).assemble()
    values = system.solve()  # raises with rank defect when not uniquely solvable
    return SpinConnection(coefficients=values, source="solver")


@lru_cache(maxsize=None)
def reference_connection_values(q: GaussianRational) -> Mapping[tuple[str, str], GaussianRational]:
    """All 16 entries of the reference connection table at q, once per q.

    Unprinted entries are taken as zero (the reference Dirac construction
    implicitly does the same); the corrupted (d,b) denominator uses the adopted
    constant term.  The mapping is shared and read-only.
    """
    values = {**evaluate_connection_printed(q), **dict.fromkeys(CONNECTION_UNPRINTED, ZERO)}
    values[("d", "b")] = connection_db_candidate(DB_DENOMINATOR_CONSTANT).evaluate_at(q)
    return MappingProxyType(values)


# q mode -> the curvature images of the reference connection at that q, shared by every instance
_REFERENCE_IMAGES: dict = {}


def reference_connection(calculus: Calculus) -> SpinConnection:
    """The reference closed-form connection table evaluated at this q."""
    conn = SpinConnection(coefficients=reference_connection_values(calculus.algebra.q),
                          source="reference-table")
    conn._riemann = _REFERENCE_IMAGES.setdefault(calculus.algebra.mode, {})
    return conn


def connection_residuals(system: ConnectionSystem, connection: SpinConnection) -> dict:
    """Exact torsion and cotorsion residuals of a connection, per basis 1-form.

    Read from the assembled equations: out[kind][i] maps each 2-form basis
    word (x, y) whose row (kind, i, (x, y)) fails to its nonzero residual, so
    an empty map means the equations for e_i hold.
    """
    out: dict = {"torsion": {i: {} for i in FORMS}, "cotorsion": {i: {} for i in FORMS}}
    for (kind, i, w), r in zip(system.row_labels, system.residual(connection.coefficients)):
        if r:
            out[kind][i][w] = r
    return out


# -- covariant derivative and curvature ----------------------------------------------


class TensorForm(ModuleSum):
    """Element of Omega^* (x) Lambda^1: left legs keyed by the invariant right leg."""

    __slots__ = ()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "  +  ".join(f"({self.terms[k]}) (x) e_{k}" for k in sorted(self.terms))


def covariant_derivative_basis(calculus: Calculus, connection: SpinConnection, i: str) -> TensorForm:
    """nabla e_i = - sum ad_L(jk|i) A_j (x) e_k, from the operative table, once per q mode and connection."""
    key = (calculus.algebra.mode, i)
    legs = connection._nabla.get(key)
    if legs is None:
        out = TensorForm(calculus, {})
        for (j, k), c in printed_ad_tables(calculus.algebra.q)[0][i].items():
            out = out + TensorForm(calculus, {k: connection.form(j, calculus).scale(-c)})
        # kept as plain data; each call wraps it in its own calculus
        legs = connection._nabla[key] = {k: x.terms for k, x in out.terms.items()}
    return TensorForm(calculus, {k: DiffForm(calculus, terms) for k, terms in legs.items()})


def covariant_derivative(calculus: Calculus, connection: SpinConnection, x: DiffForm) -> TensorForm:
    """nabla on a degree-1 form with function coefficients, by the derivation rule."""
    out = TensorForm(calculus, {})
    for w, f in x.terms.items():
        if len(w) != 1:
            raise ValueError("covariant derivative is defined on 1-forms")
        df = calculus.exterior_d(calculus.from_function(f), normalized=True)
        out = out + TensorForm(calculus, {w[0]: df})
        out = out + covariant_derivative_basis(calculus, connection, w[0]).left_multiply(f)
    return out


def riemann_of_tensor(calculus: Calculus, connection: SpinConnection, t: TensorForm) -> TensorForm:
    """(id ^ nabla - d (x) id) applied to an element of Omega^1 (x) Lambda^1."""
    # id ^ nabla on the invariant right leg: the wedges onto each leg m, summed at once, with
    # the legs in the order of their first term
    wedges: dict[str, list] = {}
    for k, x in t.terms.items():
        for m, leg in covariant_derivative_basis(calculus, connection, k).terms.items():
            wedges.setdefault(m, []).append((x, leg))
        wedges.setdefault(k, [])
    legs = {m: calculus.wedge_sum(pairs) for m, pairs in wedges.items()}
    # - d (x) id
    for k, x in t.terms.items():
        legs[k] = legs[k] - calculus.exterior_d(x, normalized=True)
    return TensorForm(calculus, legs)


def riemann(calculus: Calculus, connection: SpinConnection, x: DiffForm) -> TensorForm:
    """R(x) for a degree-1 form x: its coefficients times the images R(m e_i), over one denominator."""
    images, mode, parts = connection._riemann, calculus.algebra.mode, []
    for w, f in x.terms.items():
        if len(w) != 1:
            raise ValueError("covariant derivative is defined on 1-forms")
        check_mode(calculus, f)
        slots = images.get((mode, w[0])) or images.setdefault((mode, w[0]), [None] * DIM)
        for k, a, b in f.nonzero():
            den, entry = slots[k] or _fill_image(calculus, connection, slots, w[0], k)
            parts.append((f.den * den, entry, a, b))
    d = lcm(*[p[0] for p in parts])
    legs: dict = {}
    for (leg, w), num in sum_entries([(e, a * (d // dp), b * (d // dp)) for dp, e, a, b in parts]).items():
        if any(num):  # each coefficient normalised by one gcd
            legs.setdefault(leg, {})[w] = AlgebraElement._reduce(calculus.algebra, d, num)
    return TensorForm._of(calculus, {leg: DiffForm._of(calculus, words) for leg, words in legs.items()})


def riemann_basis(calculus: Calculus, connection: SpinConnection, i: str) -> TensorForm:
    """R(e_i): the image of m = 1, once per q mode and image table."""
    return riemann(calculus, connection, calculus.basis_form(i))


def _fill_image(calculus: Calculus, connection: SpinConnection, slots: list, i: str, k: int) -> tuple:
    """R(m e_i), m of index k, by the formula on that one element; at slots[k] as (den, entry by (leg, word))."""
    basis = DiffForm(calculus, {(i,): calculus.algebra.monomial(k >> 2, k & 3)})
    legs = riemann_of_tensor(calculus, connection, covariant_derivative(calculus, connection, basis)).terms
    den = lcm(*[g.den for x in legs.values() for g in x.terms.values()])
    entry = []
    for leg, x in legs.items():
        for w, g in x.terms.items():
            key, f = (leg, w), den // g.den
            for j, a, b in g.nonzero():
                entry += (key, 2 * j, a * f, b * f)
    slots[k] = image = (den, tuple(entry))
    return image


# -- regularity ------------------------------------------------------------------------


def regularity_check(calculus: Calculus, connection: SpinConnection) -> dict:
    """Evaluate sum_ij A_i ^ A_j eps(d^i d^j f) over a basis of ker(pi) in ker(eps).

    Returns the exact violations; a nonzero entry certifies non-regularity.
    """
    kernel = calculus.pi_tilde_kernel_in_counit_kernel()
    wedges: dict[tuple[str, str], DiffForm] = {}
    for i in FORMS:
        for j in FORMS:
            wedges[(i, j)] = calculus.wedge(connection.form(i, calculus),
                                            connection.form(j, calculus))
    violations = []
    for idx, f in enumerate(kernel):
        first = calculus.partials(f, normalized=True)
        total = calculus.zero()
        for j in FORMS:
            second = calculus.partials(first[j], normalized=True)
            for i in FORMS:
                s = second[i].counit()
                if s:
                    total = total + wedges[(i, j)].scale(s)
        violations.append((idx, total))
    nonzero = [(idx, v) for idx, v in violations if v]
    return {
        "kernel_dimension": len(kernel),
        "violations": nonzero,
        "n_violations": len(nonzero),
        "regular": not nonzero,
    }
