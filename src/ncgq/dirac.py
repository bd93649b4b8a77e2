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
arithmetic, and matches the spectrum to the printed list at least total
distance; `eigenvalues` is the dense LAPACK solver, and numpy is imported
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


# per spectral mode: q^2, and the diagonal scalars (s11, s22), the doubles nearest audit.diagonal_scalars,
# minus the diagonal of constants.ASLASH_MATRIX_PRINTED at the reference connection; test_dirac.py's
# test_assembly_matches_the_exact_oracle holds the two to each other, bit for bit
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
    """A minimum-cost bipartite matching under absolute complex distance."""
    if len(computed.eigenvalues) != len(reference):
        raise ValueError(
            f"length mismatch: {len(computed.eigenvalues)} vs {len(reference)}")
    cost = [[abs(a - b) for b in reference] for a in computed.eigenvalues]
    _, cols = _linear_sum_assignment(cost)
    d = [row[j] for row, j in zip(cost, cols)]
    return MatchReport(max_distance=max(d), mean_distance=math.fsum(d) / len(d), distances=d)


def _linear_sum_assignment(cost) -> tuple[list[int], list[int]]:
    """A minimum-cost perfect matching of a square cost matrix (rows), as (rows, cols).

    The Hungarian method with row and column potentials, O(n^3) (Kuhn 1955, Munkres
    1957): each row in turn joins along a shortest augmenting path in reduced cost.
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
    u, v = [0.0] * n, [0.0] * (n + 1)  # row and column potentials; each path starts at column n
    row4col, way = [-1] * (n + 1), [n] * n  # way: the column before each on the path
    for i in range(n):
        row4col[n] = i
        j0, minv, used = n, [math.inf] * (n + 1), [False] * (n + 1)
        while row4col[j0] != -1:  # until the path reaches an unassigned column
            used[j0] = True
            i0, delta, j1 = row4col[j0], math.inf, n
            for j in range(n):
                if not used[j]:
                    r = c[i0][j] - u[i0] - v[j]
                    if r < minv[j]:
                        minv[j], way[j] = r, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row4col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0 != n:  # augment: each column on the path takes the row of the one before it
            row4col[j0], j0 = row4col[way[j0]], way[j0]
    cols = [0] * n
    for j in range(n):
        cols[row4col[j]] = j
    return list(range(n)), cols


def spectrum_pipeline(mode: str) -> tuple[DiracMatrix, Spectrum, MatchReport]:
    dm = build_dirac(mode)
    from .sectors import sector_eigenvalues

    spec = sector_eigenvalues(dm.matrix, mode)
    return dm, spec, compare_spectrum(spec, printed_spectrum(mode))
