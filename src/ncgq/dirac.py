"""Gamma matrices, the Dirac connection term, block assembly, and spectra.

The operator acts on two-component spinors over the 16-dimensional algebra:

    D = [[R_alpha - I, X12], [X21, R_delta - I]] + (s (x) I_16)

with the reference translation matrices as the operative blocks and a scalar
2x2 connection term s.  The diagonal scalars evaluate from the uncorrupted
reference connection entries and are confirmed by the printed spectra (trace
identities hold to printing precision at q = 1 and q = i).  The off-diagonal
scalars depend on reference entries that are corrupted; the q = 1 spectrum
determines them exactly (see the decode in the audit), and they ship as
reconstructed fixture values with provenance flags.

`spectrum_pipeline` solves D one small block at a time in pure Python
(`sectors.sector_eigenvalues`), certifying each eigenvalue by a disk in exact
arithmetic; `eigenvalues` is the dense LAPACK solver, and numpy is imported
there only.
"""
from __future__ import annotations

import math

from .constants import (ASLASH_GENERATOR_VALUES, ASLASH_MATRIX_PRINTED,
                        F_DIAG, Q_OVER_2Q, Q2_OVER_2Q, evaluate_connection_printed)
from .fixtures import (TranslationMatrix, printed_spectrum, printed_translation_matrices,
                       reconstructed_offdiagonal_scalars)
from .scalars import GaussianRational, ZERO, q_root

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers take it as True
if TYPE_CHECKING:  # only the audit's connection-term rows need the calculus
    from .calculus import Calculus
    from .riemannian import SpinConnection


def gamma_matrix(form: str) -> list[list[int]]:
    """Elementary 2x2 matrix attached to a basis 1-form (identity map in the
    endomorphism labeling)."""
    from .calculus import MATRIX_UNITS

    i, j = MATRIX_UNITS[form]
    out = [[0, 0], [0, 0]]
    out[i][j] = 1
    return out


def gamma_of_invariant_form(weights: dict[str, GaussianRational]) -> list[list[GaussianRational]]:
    from .calculus import MATRIX_UNITS

    out = [[ZERO, ZERO], [ZERO, ZERO]]
    for f, c in weights.items():
        i, j = MATRIX_UNITS[f]
        out[i][j] = out[i][j] + c
    return out


def a_slash_printed(connection: SpinConnection, q: GaussianRational) -> dict[tuple[int, int], GaussianRational]:
    """The 2x2 connection-term matrix from the reference proof formulas."""
    out = {}
    for entry, terms in ASLASH_MATRIX_PRINTED.items():
        acc = ZERO
        for i, j, coeff in terms:
            acc = acc + coeff.evaluate_at(q) * connection.entry(i, j)
        out[entry] = acc
    return out


def a_slash_first_principles(calculus: Calculus, connection: SpinConnection) -> dict[tuple[int, int], GaussianRational]:
    """Recompute the connection term from the engine's Hopf and calculus layers.

    A_slash^alpha_beta = sum_gamma [A(pi S^-1 t^gamma_beta)]^alpha_gamma with the
    operational generator matrix; compared against the proof formulas in the audit.
    """
    from .calculus import FORMS

    alg = calculus.algebra
    t = alg.generator_matrix()
    out = {}
    for beta in range(2):
        col = {}
        for gamma in range(2):
            elem = alg.inverse_antipode(t[gamma][beta])
            proj = calculus.pi_tilde(elem)
            one_form = {f: c for f, c in proj.items() if c}
            # apply the connection: e_i -> A_i, then read the gamma-matrix entry
            acc = {f2: ZERO for f2 in FORMS}
            for f, c in one_form.items():
                for f2 in FORMS:
                    acc[f2] = acc[f2] + c * connection.entry(f, f2)
            mat = gamma_of_invariant_form(acc)
            for alpha in range(2):
                col[(alpha, gamma)] = mat[alpha][gamma]
        for alpha in range(2):
            out[(alpha, beta)] = sum((col[(alpha, g)] for g in range(2)), ZERO)
    return out


def a_slash_generator_values_printed(connection: SpinConnection, q: GaussianRational) -> dict[str, dict[str, GaussianRational]]:
    """Reference values of A(pi S^-1 gen) as 1-forms (components on e_j)."""
    from .calculus import FORMS

    out = {}
    for gen, terms in ASLASH_GENERATOR_VALUES.items():
        comp = {f: ZERO for f in FORMS}
        for i, coeff in terms:
            c = coeff.evaluate_at(q)
            for f in FORMS:
                comp[f] = comp[f] + c * connection.entry(i, f)
        out[gen] = comp
    return out


class DiracMatrix:
    """32x32 complex matrix, as a list of rows, with assembly metadata."""

    __slots__ = ("mode", "matrix", "scalars", "extrapolated")

    def __init__(self, mode: str, matrix: list[list[complex]], scalars: dict,
                 extrapolated: bool = False):
        self.mode = mode
        self.matrix = matrix
        self.scalars = scalars
        self.extrapolated = extrapolated


def diagonal_scalars(mode: str) -> dict[str, GaussianRational]:
    """The two diagonal connection scalars from the reference closed forms.

    s11 = -f A_d^a + A_a^a + q^2 A_b^b,  s22 = -(q^2/[2]_q) A_a^d
          + (q/[2]_q) A_d^d + q^2 A_c^c; both confirmed by the printed spectra.
    """
    q = q_root(mode)
    q2 = q * q
    f = F_DIAG.evaluate_at(q)
    w1 = Q2_OVER_2Q.evaluate_at(q)
    w2 = Q_OVER_2Q.evaluate_at(q)
    A = evaluate_connection_printed(q)
    s11 = -(f * A[("d", "a")]) + A[("a", "a")] + q2 * A[("b", "b")]
    s22 = -(w1 * A[("a", "d")]) + w2 * A[("d", "d")] + q2 * A[("c", "c")]
    return {"s11": s11, "s22": s22}


def to_complex_matrix(tm: TranslationMatrix) -> list[list[complex]]:
    return [[x.to_complex() for x in row] for row in tm.entries]


def build_dirac(mode: str, include_connection: bool = True) -> DiracMatrix:
    """Assemble the 32x32 operator for a q mode from the reference fixtures.

    Block layout (adjudicated against the printed spectra; see audit):
    the (1,2) block carries the bstar translation matrix, the (2,1) block the
    beta translation matrix; unnormalized partials R - id on the diagonal.
    """
    if mode not in ("1", "i", "-i"):
        raise ValueError(f"no spectral mode {mode!r}")
    q = q_root(mode)
    R = {name: to_complex_matrix(tm) for name, tm in printed_translation_matrices(q).items()}

    diag = diagonal_scalars(mode)
    off = reconstructed_offdiagonal_scalars(mode)
    s = {
        (0, 0): diag["s11"].to_complex(),
        (1, 1): diag["s22"].to_complex(),
        (0, 1): off["s12"],
        (1, 0): off["s21"],
    }
    if not include_connection:
        s = {k: 0.0 for k in s}
    # each entry is R + s, or (R - 1) + s on the diagonal blocks' diagonals, in
    # that order: verify prints LAPACK's residual digits for these exact floats
    m = []
    for a, (left, right) in enumerate(((R["alpha"], R["beta_star"]), (R["beta"], R["delta"]))):
        for i in range(16):
            row = left[i] + right[i]
            for b in range(2):
                k = 16 * b + i
                row[k] = (row[k] - 1 if a == b else row[k]) + s[(a, b)]
            m.append(row)
    return DiracMatrix(mode=mode, matrix=m, scalars=s, extrapolated=(mode == "1"))


class EigensolverError(RuntimeError):
    pass


class Spectrum:
    """Eigenvalues, a residual bound for each, and the norm that judges the bounds.

    The dense solver measures ||M v - lambda v|| / ||v|| and ||M||_2.  The
    sector solver gives the radii of certified disks, each holding one true
    eigenvalue lambda, so a radius bounds ||M x - z x|| / ||x|| for lambda's
    eigenvector x; its `matrix_norm` is a lower bound of ||M||_2.
    """

    __slots__ = ("mode", "eigenvalues", "residuals", "matrix_norm")

    def __init__(self, mode: str, eigenvalues: list, residuals: list, matrix_norm: float):
        self.mode = mode
        self.eigenvalues = eigenvalues
        self.residuals = residuals
        self.matrix_norm = matrix_norm

    def max_residual(self) -> float:
        return max(self.residuals)

    def check_contract(self) -> "Spectrum":
        """Raise EigensolverError unless every residual is at most 1e-9 `matrix_norm` (<= ||M||_2)."""
        if self.max_residual() > 1e-9 * self.matrix_norm:
            raise EigensolverError(f"residual contract violated: max {self.max_residual():.3g} "
                                   f"vs {1e-9 * self.matrix_norm:.3g}")
        return self


def eigenvalues(matrix, mode: str = "?") -> Spectrum:
    """Dense LAPACK eigensolve with a per-eigenpair backward-error certificate.

    The test oracle for `sectors.sector_eigenvalues`, and the solver of
    `verify`, whose output prints its residual digits.
    """
    import numpy as np

    matrix = np.asarray(matrix)
    if not np.all(np.isfinite(matrix)):
        raise EigensolverError("matrix has non-finite entries")
    lam, vecs = np.linalg.eig(matrix)
    norm = float(np.linalg.norm(matrix, 2))
    residuals = []
    for k in range(matrix.shape[0]):
        v = vecs[:, k]
        r = np.linalg.norm(matrix @ v - lam[k] * v) / np.linalg.norm(v)
        residuals.append(float(r))
    return Spectrum(mode=mode, eigenvalues=[complex(x) for x in lam],
                    residuals=residuals, matrix_norm=norm).check_contract()


# -- matching against the printed lists ------------------------------------------------


class MatchReport:
    __slots__ = ("mode", "max_distance", "mean_distance", "distances")

    def __init__(self, mode: str, max_distance: float, mean_distance: float, distances: list):
        self.mode = mode
        self.max_distance = max_distance
        self.mean_distance = mean_distance
        self.distances = distances


def compare_spectrum(computed: Spectrum, reference: list[complex]) -> MatchReport:
    """Minimum-cost bipartite matching under absolute complex distance."""
    if len(computed.eigenvalues) != len(reference):
        raise ValueError(
            f"length mismatch: {len(computed.eigenvalues)} vs {len(reference)}")
    cost = [[abs(a - b) for b in reference] for a in computed.eigenvalues]
    _, cols = _linear_sum_assignment(cost)
    d = [row[j] for row, j in zip(cost, cols)]
    return MatchReport(
        mode=computed.mode,
        max_distance=max(d),
        mean_distance=math.fsum(d) / len(d),
        distances=d,
    )


def _linear_sum_assignment(cost) -> tuple[list[int], list[int]]:
    """Minimum-cost perfect matching of a square cost matrix (rows), as (rows, cols).

    A square-only port of the shortest-augmenting-path solver with dual updates
    behind scipy.optimize.linear_sum_assignment (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016).  It returns
    scipy's assignment, not only one of equal cost, because it keeps the three
    details that break near-ties (the computed q = i spectrum comes in exact
    pairs): the reduced cost is summed in scipy's order, the unscanned columns
    start reversed and a scanned one is replaced by the last, and on an equal
    path cost an unassigned column wins.
    """
    try:
        c = [[float(x) for x in row] for row in cost]
    except TypeError:  # a row that is a number: a vector, not a matrix
        raise ValueError(f"cost matrix is not square: shape ({len(cost)},)") from None
    n = len(c)
    if any(len(row) != n for row in c):
        raise ValueError(f"cost matrix is not square: shape {(n, *sorted({len(row) for row in c}))}")
    if not all(math.isfinite(x) for row in c for x in row):
        raise ValueError("cost matrix has non-finite entries")
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        # shortest augmenting path from the unassigned row cur
        spc = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        n_remaining = n
        rows_seen, cols_seen = [], []
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            rows_seen.append(i)
            row, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it in range(n_remaining):
                j = remaining[it]
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return list(range(n)), col4row


def spectrum_pipeline(mode: str, include_connection: bool = True) -> tuple[DiracMatrix, Spectrum, MatchReport | None]:
    dm = build_dirac(mode, include_connection=include_connection)
    from .sectors import sector_eigenvalues

    spec = sector_eigenvalues(dm.matrix, mode)
    report = None
    if include_connection:
        report = compare_spectrum(spec, printed_spectrum(mode))
    return dm, spec, report
