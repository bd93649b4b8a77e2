"""The sector eigensolver: all 32 eigenvalues of the Dirac matrix, each certified exactly.

D is built from right translations and scalars, so it commutes with every
left multiplication.  The characters of a commutative group H of monomials
give an exact orthogonal basis of C^32 in which D is block-diagonal: 8 blocks
of 4x4 at q = +-i and 16 of 2x2 at q = 1.  The blocks, their invariance and
their characteristic polynomials are exact integer computations; the roots
are found in floats and certified by Smith's disks, again in integers.  So
this module needs no numpy; `dirac.eigenvalues`, the dense LAPACK solver, is
its test oracle.
"""
from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache

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
    """All 32 eigenvalues of D through `sector_basis`, each in a certified disk.

    Each float entry of D is a dyadic rational, so D' = 2**s D is a
    Gaussian-integer matrix for one s, and B_b = W_b^H D W_b / |H| is formed
    in integers.  D W_b = W_b B_b is checked with no tolerance: a matrix that
    does not keep each block's span raises EigensolverError, and so does a
    root or norm too large for a float.  Equal block polynomials (they pair up
    at q = +-i) are solved once.

    `residuals` holds the disk radii: a radius r bounds |lambda - z| for the
    one eigenvalue lambda in the disk around z, and so ||D x - z x|| / ||x||
    for its eigenvector x.  `matrix_norm` is D's largest column norm rounded
    down, a lower bound of ||D||_2.
    """
    if len(matrix) != 32 or any(len(row) != 32 for row in matrix):
        raise ValueError("the sector solver takes the 32x32 Dirac matrix")
    if not all(cmath.isfinite(z) for row in matrix for z in row):
        raise EigensolverError("matrix has non-finite entries")
    s = max((_exponent(z) for row in matrix for z in row if z), default=0)
    columns = [[(i, _scaled(z.real, s), _scaled(z.imag, s)) for i, z in enumerate(col) if z]
               for col in zip(*matrix)]  # the nonzero entries of D'
    turned = [[col, [(n, -b, a) for n, a, b in col], [(n, -a, -b) for n, a, b in col],
               [(n, b, -a) for n, a, b in col]] for col in columns]  # times 1, i, -1, -i
    solved, lams, radii = {}, [], []
    for k, basis in enumerate(sector_basis(mode)[1]):
        images = []  # D' w for each w in the block, as real and imaginary parts
        for indices, values in basis:
            re, im = [0] * 32, [0] * 32
            for m, v in zip(indices, values):
                for n, a, b in turned[m][_UNITS.index(v)]:
                    re[n] += a
                    im[n] += b
            images.append((re, im))
        block = []  # 2**s B[i][k] = conj(w_i[n]) D' w_k [n] wherever w_i, alone in the block, is nonzero
        for indices, values in basis:
            units = [(int(v.real), int(v.imag)) for v in values]
            row = [{(ur * re[n] + ui * im[n], ur * im[n] - ui * re[n])
                    for n, (ur, ui) in zip(indices, units)} for re, im in images]
            if any(len(terms) != 1 for terms in row):
                raise EigensolverError(f"sector {k} is not invariant: D W - W B is not exactly 0; "
                                       "the matrix does not commute with the left multiplications")
            block.append([terms.pop() for terms in row])
        poly = _characteristic_polynomial(block)
        if poly not in solved:
            solved[poly] = _in_float_range(_certified_roots, poly, s)
        lams += solved[poly][0]
        radii += solved[poly][1]
    norm = _in_float_range(_root, max(sum(a * a + b * b for _, a, b in col) for col in columns),
                           1, -s, up=False)
    return Spectrum(eigenvalues=lams, residuals=radii, matrix_norm=norm).check_contract()


def _in_float_range(convert, *args, **kwargs):
    """convert(*args, **kwargs), whose exact integers become floats; one that no float holds is an EigensolverError."""
    try:
        return convert(*args, **kwargs)
    except OverflowError as exc:
        raise EigensolverError(f"a value of the matrix's sectors leaves the float range ({exc})") from None


def _exponent(z: complex) -> int:
    """The least e with z * 2**e a Gaussian integer."""
    return max(z.real.as_integer_ratio()[1], z.imag.as_integer_ratio()[1]).bit_length() - 1


def _scaled(x: float, e: int) -> int:
    """x * 2**e, for e at least x's exponent."""
    num, den = x.as_integer_ratio()
    return num << (e - den.bit_length() + 1)


def _root(num: int, den: int, exp: int, up: bool) -> float:
    """sqrt(num / den) * 2**exp rounded up (or down) to a float, for ints num >= 0, den > 0.

    The root is taken at a scale 2**k where it has 51 to 53 bits, so the float holds it exactly.
    """
    if not num:
        return 0.0
    k = (104 - num.bit_length() + den.bit_length()) // 2
    a, b = (num << 2 * k, den) if k >= 0 else (num, den << -2 * k)
    x = -(-a // b) if up else a // b
    root = math.isqrt(x)
    if up and root * root < x:
        root += 1
    return math.ldexp(root, exp - k)


def _characteristic_polynomial(m: list[list[tuple[int, int]]]) -> tuple:
    """det(y - M) for a Gaussian-integer matrix M, as the (re, im) pairs of 1, c_1, ..., c_n.

    Faddeev-LeVerrier: A_1 = M, c_k = -tr(A_k) / k and A_(k+1) = M (A_k + c_k I).
    Each c_k is a Gaussian integer, so the division by k is exact.
    """
    n = len(m)
    coeffs, a = [(1, 0)], m
    for k in range(1, n + 1):
        cr = -sum(a[i][i][0] for i in range(n)) // k
        ci = -sum(a[i][i][1] for i in range(n)) // k
        coeffs.append((cr, ci))
        if k < n:
            cols = list(zip(*[[(x + cr, y + ci) if i == j else (x, y) for j, (x, y) in enumerate(row)]
                              for i, row in enumerate(a)]))
            a = []
            for row in m:
                a.append([])
                for col in cols:
                    re = im = 0
                    for (xr, xi), (yr, yi) in zip(row, col):
                        re += xr * yr - xi * yi
                        im += xr * yi + xi * yr
                    a[-1].append((re, im))
    return tuple(coeffs)


def _certified_roots(poly: tuple, shift: int) -> tuple[list[complex], list[float]]:
    """The roots z_i of p(z) = det(z - B) for B = M / 2**shift, given poly = det(y - M), and their radii.

    A quadratic's roots come from its exact discriminant; if that is 0, the
    root is double and its radius bounds its float's rounding.  Otherwise z_i
    has Smith's radius n |p(z_i)| / prod_(j != i) |z_i - z_j|, rounded up: the
    disks hold every root, k disks that meet only each other hold k roots
    (B. T. Smith, J. ACM 17 (1970) 661-674), and two that meet raise
    EigensolverError.  In integers, p(z_i) is 2**(n f) p(y_i / 2**f) for the
    Gaussian integers y_i = 2**f z_i, with coefficients C_k 2**(k (f - shift)).
    """
    n = len(poly) - 1
    if n == 2:
        _, (br, bi), (cr, ci) = poly
        dr, di = br * br - bi * bi - 4 * cr, 2 * br * bi - 4 * ci  # C_1^2 - 4 C_2
        half = 1 << (shift + 1)
        mid = complex(-br / half, -bi / half)
        if not (dr or di):  # mid rounds each part of the root -C_1 / half to nearest
            exact = (_scaled(mid.real, shift + 1), _scaled(mid.imag, shift + 1)) == (-br, -bi)
            radius = 0.0 if exact else max(math.ulp(mid.real), math.ulp(mid.imag))
            return [mid, mid], [radius, radius]
        disc = cmath.sqrt(complex(dr / half ** 2, di / half ** 2))
        roots = [mid + disc, mid - disc]
    else:
        roots = _polynomial_roots([complex(re / (1 << k * shift), im / (1 << k * shift))
                                   for k, (re, im) in enumerate(poly)])
    f = max(shift, *map(_exponent, roots))
    ys = [(_scaled(z.real, f), _scaled(z.imag, f)) for z in roots]
    q = [(re << k * (f - shift), im << k * (f - shift)) for k, (re, im) in enumerate(poly)]
    gaps = [[(yr - xr) ** 2 + (yi - xi) ** 2 for xr, xi in ys] for yr, yi in ys]  # 4**f |z_i - z_j|^2
    radii = []
    for i, (yr, yi) in enumerate(ys):
        pr = pi = 0
        for xr, xi in q:
            pr, pi = pr * yr - pi * yi + xr, pr * yi + pi * yr + xi
        prod = math.prod(gap for j, gap in enumerate(gaps[i]) if j != i)
        if not prod:
            raise EigensolverError(f"two roots of a degree-{n} block coincide, so no disk is certified")
        radii.append(_root(n * n * (pr * pr + pi * pi), prod, -f, up=True))
        a, da = radii[i].as_integer_ratio()
        for j in range(i):  # the disks meet when |z_i - z_j| <= r_i + r_j
            b, db = radii[j].as_integer_ratio()
            if gaps[i][j] * (da * db) ** 2 <= (a * db + b * da) ** 2 << 2 * f:
                raise EigensolverError(f"two root disks of a degree-{n} block meet, so neither is certified")
    return roots, radii


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
