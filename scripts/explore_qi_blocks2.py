#!/usr/bin/env python3
"""q=i block enumeration round 2: left- vs right-multiplication off-diagonals.

Also prints the per-eigenvalue residual distribution of the best fits to
distinguish structural mismatch from isolated misprints in the reference list.
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ncgq.algebra import QuantumAlgebra, basis_monomials
from ncgq.fixtures import printed_spectrum, printed_translation_matrices
from ncgq.scalars import q_root

alg = QuantumAlgebra("i")


def to_complex(z):
    a, b, d = z.triple
    return complex(a / d, b / d)


REF = np.array(printed_spectrum("i"))
I = np.eye(16)


def to_np_cols(cols):
    return np.array([[to_complex(cols[j][i]) for j in range(16)] for i in range(16)])


def right_mult(x):
    return to_np_cols([(alg.monomial(p, r) * x).coords() for (p, r) in basis_monomials()])


def left_mult(x):
    return to_np_cols([(x * alg.monomial(p, r)).coords() for (p, r) in basis_monomials()])


R = printed_translation_matrices(q_root("i") * q_root("i"))
Rnp = {n: np.array([[to_complex(R[n][i][j]) for j in range(16)] for i in range(16)]) for n in R}

CAND = {
    "R_b": Rnp["beta"],
    "R_bs": Rnp["beta_star"],
    "L_b": left_mult(alg.beta),
    "L_bs": left_mult(alg.beta_star_reference),
}

V1 = complex(-14 / 17, 12 / 17)
V2 = complex(4 / 17, 16 / 17)


def cost(mat):
    eigs = np.linalg.eigvals(mat)
    c = np.abs(eigs[:, None] - REF[None, :])
    r, col = linear_sum_assignment(c)
    return float(c[r, col].sum()), float(c[r, col].max()), np.sort(c[r, col])[::-1]


def fit(sigma1, sigma2, X12, X21, n_starts=60):
    def build(x):
        return np.block([
            [Rnp["alpha"] - I + sigma1 * I, X12 + complex(x[0], x[1]) * I],
            [X21 + complex(x[2], x[3]) * I, Rnp["delta"] - I + sigma2 * I],
        ])

    def obj(x):
        return cost(build(x))[0]

    rng = np.random.default_rng(11)
    best = None
    for _ in range(n_starts):
        x0 = rng.uniform(-3, 3, size=4)
        if obj(x0) > 25:
            continue
        r = minimize(obj, x0, method="Nelder-Mead",
                     options={"xatol": 1e-11, "fatol": 1e-11, "maxiter": 4000, "maxfev": 4000})
        if best is None or r.fun < best.fun:
            best = r
        if best.fun < 1e-4:
            break
    total, mx, dist = cost(build(best.x))
    return best.x, total, mx, dist


def main():
    results = []
    for (n12, X12), (n21, X21) in itertools.product(CAND.items(), CAND.items()):
        for dlab, (s1, s2) in (("12", (V1, V2)), ("21", (V2, V1))):
            x, total, mx, dist = fit(s1, s2, X12, X21)
            results.append((mx, total, f"off=({n12},{n21}) diag={dlab}", x, dist))
    results.sort(key=lambda t: t[0])
    for mx, total, lab, x, dist in results[:8]:
        print(f"max={mx:.6g} total={total:.6g}  {lab}  "
              f"s12={x[0]:.6f}{x[1]:+.6f}i s21={x[2]:.6f}{x[3]:+.6f}i")
    mx, total, lab, x, dist = results[0]
    print(f"\nworst matched distances for best config ({lab}):")
    print("  " + "  ".join(f"{d:.4g}" for d in dist[:12]))


if __name__ == "__main__":
    main()
