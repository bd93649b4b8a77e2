"""The sector eigensolver: all 32 eigenpairs of the Dirac matrix from small blocks.

D is built from right translations and scalars, so it commutes with every
left multiplication.  The characters of a commutative group H of monomials
give an exact orthogonal basis of C^32 in which D is block-diagonal: 8 blocks
of 4x4 at q = +-i and 16 of 2x2 at q = 1.  Each block is solved in pure
Python, and each eigenpair is certified in C^32 against the full D, so this
module needs no numpy; `dirac.eigenvalues`, the dense LAPACK solver, is its
test oracle.
"""
from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from operator import mul

from .dirac import EigensolverError, Spectrum

_UNITS = (1, 1j, -1, -1j)
_EPS = sys.float_info.epsilon


@lru_cache(maxsize=None)
def sector_basis(mode: str) -> tuple[int, tuple]:
    """(|H|, blocks): an orthogonal basis of C^32 in which D is block-diagonal.

    H is a commutative group of monomials whose left multiplications form a
    true (unsigned) representation: <a> x <b^2> at q = +-i, where b a = -a b,
    with coset representatives 1 and b; all of Z4 x Z4 at q = 1, where the
    algebra is commutative, with representative 1.  For each character chi
    of H the block holds, for each spinor row and representative r,

        w = sum_h conj(chi(h)) (h r).

    For h = a^p b^k and r = b^e, h r = a^p b^(k + e), at monomial index
    4p + (k + e) mod 4, with sign + at every q: r has no factor a to commute
    past (tests/test_dirac.py checks this against algebra.monomial_product).
    Left multiplication by g in H sends w to chi(g) w, and D commutes with it,
    so D keeps each block's span.  A vector is (indices, values) of its |H|
    nonzero entries, each 1, -1, i or -i, so the basis is exact; the vectors
    are orthogonal with squared norm |H|, and within a block their supports
    are disjoint and cover C^32.
    """
    if mode not in ("1", "i", "-i"):
        raise ValueError(f"no spectral mode {mode!r}")
    step = 1 if mode == "1" else 2  # the exponents of b in H
    group = [(p, r) for p in range(4) for r in range(0, 4, step)]
    blocks = []
    for s in range(4):
        for t in range(4 // step):  # chi(a^p b^r) = i^(s p + t r)
            block = []
            for row in range(2):
                for rep in range(step):
                    indices, values = [], []
                    for p, r in group:
                        indices.append(16 * row + 4 * p + (r + rep) % 4)
                        values.append(_UNITS[-(s * p + t * r) % 4])
                    block.append((tuple(indices), tuple(values)))
            blocks.append(tuple(block))
    return len(group), tuple(blocks)


def sector_eigenvalues(matrix: list[list[complex]], mode: str) -> Spectrum:
    """All 32 eigenpairs of D through `sector_basis`, with no dense eigensolve.

    D w for each basis vector w sums the nonzero entries of the columns of D
    that w touches (at most 5 per column), and block b is
    B_b = W_b^H (D W_b) / |H|.
    With W the unitary matrix of all the basis vectors over sqrt|H|, the
    columns of W^H D W outside block b's diagonal square have the norm of
    D W_b - W_b B_b over sqrt|H|; that leak is certified to 1e-9 ||D||_2, and
    a matrix that does not commute with the left multiplications raises
    EigensolverError.  ||D||_2 is the largest block 2-norm, since W is
    unitary.  A 2x2 block is solved by the quadratic formula, a 4x4 block from
    its characteristic polynomial; each eigenvector v is a null vector of
    B - lambda, and its residual ||(D W_b) v - lambda W_b v|| / ||W_b v|| is
    ||D x - lambda x|| / ||x|| for the lifted x = W_b v in C^32.
    """
    if len(matrix) != 32 or any(len(row) != 32 for row in matrix):
        raise ValueError("the sector solver takes the 32x32 Dirac matrix")
    if not all(cmath.isfinite(z) for row in matrix for z in row):
        raise EigensolverError("matrix has non-finite entries")
    columns = [[] for _ in range(32)]
    for i, row in enumerate(matrix):
        for j, z in enumerate(row):
            if z:
                columns[j].append((i, z))
    order, bases = sector_basis(mode)
    solved = []
    for basis in bases:
        images = []  # D w for each w in the block, dense
        for indices, values in basis:
            image = [0j] * 32
            for n, value in zip(indices, values):
                for i, z in columns[n]:
                    image[i] += z * value
            images.append(image)
        block = [[sum(image[n] * value.conjugate() for n, value in zip(indices, values)) / order
                  for image in images] for indices, values in basis]
        # (D W_b - W_b B_b)[n, k] for n in the support of w_i is D w_k [n] - w_i[n] B[i][k]
        leak = math.sqrt(sum(abs(image[n] - value * row[k]) ** 2
                             for k, image in enumerate(images)
                             for (indices, values), row in zip(basis, block)
                             for n, value in zip(indices, values)) / order)
        solved.append((basis, list(zip(*images)), block, leak))  # D W_b as rows
    norm = max(_spectral_norm(block) for _, _, block, _ in solved)
    for k, (_, _, _, leak) in enumerate(solved):
        if leak > 1e-9 * norm:
            raise EigensolverError(
                f"sector {k} is not invariant: |D W - W B| = {leak:.3g} vs {1e-9 * norm:.3g}; "
                "the matrix does not commute with the left multiplications")
    lams, residuals = [], []
    for basis, dw, block, _ in solved:
        roots = _quadratic_roots(block) if len(block) == 2 else _polynomial_roots(
            _characteristic_polynomial(block))
        for lam in roots:
            v = _null_vector([[x - lam if i == j else x for j, x in enumerate(row)]
                              for i, row in enumerate(block)])
            r = [sum(map(mul, v, row)) for row in dw]  # (D W_b) v
            x = [0j] * 32  # W_b v
            for c, (indices, values) in zip(v, basis):
                for n, value in zip(indices, values):
                    x[n] = c * value
                    r[n] -= lam * x[n]
            lams.append(lam)
            residuals.append(_norm(r) / _norm(x))
    return Spectrum(mode=mode, eigenvalues=lams, residuals=residuals,
                    matrix_norm=norm).check_contract()


def _norm(v) -> float:
    return math.hypot(*map(abs, v))


def _spectral_norm(b: list[list[complex]]) -> float:
    """The largest singular value of a small square matrix.

    Cyclic Jacobi on the Hermitian G = B^H B: each rotation first turns the
    phase of G[p][q] out of row and column q, then zeroes it by a real
    rotation (Golub and Van Loan, Matrix Computations, 8.5).
    """
    n = len(b)
    g = [[sum(b[k][i].conjugate() * b[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    scale = sum(g[i][i].real for i in range(n))
    for _ in range(50):
        if sum(abs(g[p][q]) ** 2 for p in range(n) for q in range(n) if p != q) <= (_EPS * scale) ** 2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if g[p][q] == 0:
                    continue
                phase = g[p][q] / abs(g[p][q])
                for k in range(n):
                    g[k][q] *= phase.conjugate()
                    g[q][k] *= phase
                tau = (g[q][q].real - g[p][p].real) / (2 * g[p][q].real)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1 / math.hypot(1.0, t)
                s = t * c
                for k in range(n):
                    g[k][p], g[k][q] = c * g[k][p] - s * g[k][q], s * g[k][p] + c * g[k][q]
                for k in range(n):
                    g[p][k], g[q][k] = c * g[p][k] - s * g[q][k], s * g[p][k] + c * g[q][k]
    return math.sqrt(max(g[i][i].real for i in range(n)))


def _quadratic_roots(b: list[list[complex]]) -> list[complex]:
    (a, x), (y, d) = b
    mid = (a + d) / 2
    disc = cmath.sqrt(((a - d) / 2) ** 2 + x * y)  # = mid^2 - det, without the cancellation
    return [mid + disc, mid - disc]


def _characteristic_polynomial(b: list[list[complex]]) -> list[complex]:
    """det(z - B) as [1, c1, ..., cn], highest power first (Faddeev-LeVerrier)."""
    n = len(b)
    coeffs = [1]
    m = [[0j] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(b[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(-sum(b[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)
    return coeffs


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _polynomial_roots(coeffs: list[complex]) -> list[complex]:
    """All roots of a monic polynomial by the Aberth-Ehrlich iteration, then a Newton step.

    Each root takes a Newton step p/p' corrected by its repulsion from the
    others (Aberth, Math. Comp. 27 (1973) 339-344).  A root is done when its
    step is at the rounding level of its value, or when |p| is within the
    rounding error of evaluating p there.  One plain Newton step then
    polishes each root: the second test can stop a root a few ulps short.
    """
    n = len(coeffs) - 1
    deriv = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
    magnitudes = [abs(c) for c in coeffs]
    radius = max(abs(c) ** (1 / k) for k, c in enumerate(coeffs) if k) or 1.0
    centre = -coeffs[1] / n
    z = [centre + radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    done = [False] * n
    for _ in range(200):
        for k in range(n):
            if done[k]:
                continue
            p = _horner(coeffs, z[k])
            if abs(p) <= 8 * _EPS * _horner(magnitudes, abs(z[k])).real:
                done[k] = True
                continue
            repulsion = sum(1 / (z[k] - z[j]) for j in range(n) if j != k)
            step = p / (_horner(deriv, z[k]) - p * repulsion)
            z[k] -= step
            done[k] = abs(step) <= 2 * _EPS * abs(z[k])
        if all(done):
            slopes = [_horner(deriv, x) for x in z]
            return [x - _horner(coeffs, x) / slope if slope else x for x, slope in zip(z, slopes)]
    raise EigensolverError(f"root finder did not converge on a degree-{n} block")


def _null_vector(m: list[list[complex]]) -> list[complex]:
    """A nonzero x with m x ~ 0, by elimination with complete pivoting."""
    n = len(m)
    cols = list(range(n))
    rank = 0
    while rank < n - 1:
        i, j = max(((i, j) for i in range(rank, n) for j in range(rank, n)),
                   key=lambda ij: abs(m[ij[0]][ij[1]]))
        if m[i][j] == 0:
            break
        m[rank], m[i] = m[i], m[rank]
        for row in m:
            row[rank], row[j] = row[j], row[rank]
        cols[rank], cols[j] = cols[j], cols[rank]
        pivot = m[rank]
        for row in m[rank + 1:]:
            f = row[rank] / pivot[rank]
            for c in range(rank, n):
                row[c] -= f * pivot[c]
        rank += 1
    y = [0j] * n
    y[rank] = 1
    for t in range(rank - 1, -1, -1):
        y[t] = -sum(m[t][c] * y[c] for c in range(t + 1, n)) / m[t][t]
    x = [0j] * n
    for t, c in enumerate(cols):
        x[c] = y[t]
    return x
