"""The Dirac connection term, block assembly, and spectra.

The operator acts on two-component spinors over the 16-dimensional algebra:

    D = [[R_alpha - I, X12], [X21, R_delta - I]] + (s (x) I_16)

with the reference translation matrices as the operative blocks and a scalar
2x2 connection term s.  The diagonal scalars evaluate from the uncorrupted
reference connection entries and are confirmed by the printed spectra (trace
identities hold to printing precision at q = 1 and q = i).  The off-diagonal
scalars depend on reference entries that are corrupted; the q = 1 spectrum
determines them exactly (see the decode in the audit), and they ship as
reconstructed fixture values with provenance flags.  D is assembled in floats
from the fixture symbols and DIAGONAL_SCALARS, so `dirac` loads no exact arithmetic.

`spectrum_pipeline` solves D one small block at a time in pure Python
(`sectors.sector_eigenvalues`), certifying each eigenvalue by a disk in exact
arithmetic; `eigenvalues` is the dense LAPACK solver, and numpy is imported
there only.
"""
from __future__ import annotations

import math

from .fixtures import printed_spectrum, printed_translation_matrices, reconstructed_offdiagonal_scalars


class DiracMatrix:
    """32x32 complex matrix, as a list of rows, with the 2x2 connection scalars it adds."""

    __slots__ = ("matrix", "scalars")

    def __init__(self, matrix: list[list[complex]], scalars: dict):
        self.matrix = matrix
        self.scalars = scalars


# per spectral mode: q^2, and the diagonal scalars (s11, s22), the doubles nearest the exact values of
# the closed forms in audit.diagonal_scalars; test_dirac.py's test_assembly_matches_the_exact_oracle
# holds the two to each other, bit for bit
Q_SQUARED = {"1": 1, "i": -1, "-i": -1}
DIAGONAL_SCALARS = {
    "1": (complex(4, 0), complex(6, 0)),
    "i": (complex(-14 / 17, 12 / 17), complex(4 / 17, 16 / 17)),
    "-i": (complex(-14 / 17, -12 / 17), complex(4 / 17, -16 / 17)),
}


def build_dirac(mode: str, include_connection: bool = True) -> DiracMatrix:
    """Assemble the 32x32 operator for a q mode from the reference fixtures.

    Block layout (adjudicated against the printed spectra; see audit):
    the (1,2) block carries the bstar translation matrix, the (2,1) block the
    beta translation matrix; unnormalized partials R - id on the diagonal.
    """
    if mode not in Q_SQUARED:
        raise ValueError(f"no spectral mode {mode!r}")
    R = printed_translation_matrices(Q_SQUARED[mode])
    s11, s22 = DIAGONAL_SCALARS[mode]
    off = reconstructed_offdiagonal_scalars(mode)
    s = {(0, 0): s11, (1, 1): s22, (0, 1): off["s12"], (1, 0): off["s21"]}
    if not include_connection:
        s = {k: 0.0 for k in s}
    # each entry is R + s, or (R - 1) + s on the diagonal blocks' diagonals, in
    # that order: verify prints LAPACK's residual digits for these exact floats
    m = []
    for a, (left, right) in enumerate(((R["alpha"], R["beta_star"]), (R["beta"], R["delta"]))):
        for i in range(16):
            row = [complex(x) for x in left[i] + right[i]]
            for b in range(2):
                k = 16 * b + i
                row[k] = (row[k] - 1 if a == b else row[k]) + s[(a, b)]
            m.append(row)
    return DiracMatrix(matrix=m, scalars=s)


class EigensolverError(RuntimeError):
    pass


class Spectrum:
    """Eigenvalues, a residual bound for each, and the norm that judges the bounds.

    The dense solver measures ||M v - lambda v|| / ||v|| and ||M||_2.  The
    sector solver gives the radii of certified disks, each holding one true
    eigenvalue lambda, so a radius bounds ||M x - z x|| / ||x|| for lambda's
    eigenvector x; its `matrix_norm` is a lower bound of ||M||_2.
    """

    __slots__ = ("eigenvalues", "residuals", "matrix_norm")

    def __init__(self, eigenvalues: list, residuals: list, matrix_norm: float):
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


def eigenvalues(matrix) -> Spectrum:
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
    return Spectrum(eigenvalues=[complex(x) for x in lam], residuals=residuals, matrix_norm=norm).check_contract()


# -- matching against the printed lists ------------------------------------------------


class MatchReport:
    __slots__ = ("max_distance", "mean_distance", "distances")

    def __init__(self, max_distance: float, mean_distance: float, distances: list):
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
    return MatchReport(max_distance=max(d), mean_distance=math.fsum(d) / len(d), distances=d)


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


def spectrum_pipeline(mode: str) -> tuple[DiracMatrix, Spectrum, MatchReport]:
    dm = build_dirac(mode)
    from .sectors import sector_eigenvalues

    spec = sector_eigenvalues(dm.matrix, mode)
    return dm, spec, compare_spectrum(spec, printed_spectrum(mode))
