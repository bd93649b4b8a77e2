#!/usr/bin/env python3
"""Verify the R_delta = q^2 R_alpha hypothesis at q = i.

The printed q=i list is point-symmetric: every eigenvalue pairs to
(-44+28i)/17 exactly, forcing the (2,2) matrix part to be -Ra - I at q = i.
With B22 = q^2 Ra - I, scan the diagonal split d and off-diagonal pairs,
score k=3..7 moments, then run the full 32-eigenvalue match.
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


def to_np(tm):
    return np.array([[to_complex(tm[i][j]) for j in range(16)] for i in range(16)])


def to_np_cols(cols):
    return np.array([[to_complex(cols[j][i]) for j in range(16)] for i in range(16)])


R = printed_translation_matrices(q_root("i") * q_root("i"))
Ra, Rb, Rbs = (to_np(R[n]) for n in ("alpha", "beta", "beta_star"))
I16 = np.eye(16)
REF = np.array(printed_spectrum("i"))
P = np.array([np.sum(REF ** k) for k in range(1, 8)])

L_b = to_np_cols([(alg.beta * alg.monomial(p, r)).coords() for (p, r) in basis_monomials()])
L_bs = to_np_cols([(alg.beta_star_reference * alg.monomial(p, r)).coords() for (p, r) in basis_monomials()])

B22 = -Ra  # q^2 Ra at q = i
G1 = {"Rb": Rb, "RbsT": Rbs.T, "L_b": L_b, "-Rb": -Rb, "qRb": 1j * Rb, "-qRb": -1j * Rb}
G3 = {"Rbs": Rbs, "RbT": Rb.T, "L_bs": L_bs, "-Rbs": -Rbs, "qRbs": 1j * Rbs, "-qRbs": -1j * Rbs}
OFF = [(n1, m1, n2, m2) for (n1, m1) in G1.items() for (n2, m2) in G3.items()]
OFF += [(n1, m1, n2, m2) for (n1, m1) in G3.items() for (n2, m2) in G1.items()]


def hunt(X12name, X12, X21name, X21):
    N1 = Ra - I16
    N2 = B22 - I16
    e = (P[0] - np.trace(N1) - np.trace(N2)) / 16.0

    def build(d, s12, s21):
        return np.block([
            [N1 + (e / 2 + d) * I16, X12 + s12 * I16],
            [X21 + s21 * I16, N2 + (e / 2 - d) * I16],
        ])

    def u_of_d(d):
        base = build(d, 0.0, 0.0)
        return (P[1] - np.trace(base @ base)) / 32.0

    def score(d):
        u = u_of_d(d)
        m = build(d, 1.0, u)
        acc = 0.0
        mk = m @ m
        for k in range(3, 8):
            mk = mk @ m
            acc += abs(np.trace(mk) - P[k - 1]) ** 2 / max(1.0, abs(P[k - 1])) ** 2
        return acc, u

    best = None
    for re in np.linspace(-3, 3, 25):
        for im in np.linspace(-3, 3, 25):
            d = complex(re, im)
            sc, u = score(d)
            if best is None or sc < best[0]:
                best = (sc, d, u)
    _, d, _ = best

    r = minimize(lambda x: score(complex(x[0], x[1]))[0], [d.real, d.imag],
                 method="Nelder-Mead", options={"xatol": 1e-14, "fatol": 1e-18,
                                                "maxiter": 10000, "maxfev": 10000})
    d = complex(r.x[0], r.x[1])
    sc, u = score(d)
    return sc, d, u, e, build


def main():
    results = []
    for n12, X12, n21, X21 in OFF:
        sc, d, u, e, build = hunt(n12, X12, n21, X21)
        results.append((sc, n12, n21, d, u, e, build))
    results.sort(key=lambda t: t[0])
    for sc, n12, n21, d, u, e, _ in results[:8]:
        print(f"score {sc:12.4g}  off=({n12:5s},{n21:5s})  d={d:.6f}  u={u:.6f}")

    seen = set()
    for sc, n12, n21, d, u, e, build in results[:4]:
        if sc > 1e-7:
            continue

        def cost(z):
            m = build(d, z, u / z)
            eigs = np.linalg.eigvals(m)
            c = np.abs(eigs[:, None] - REF[None, :])
            rr, cc = linear_sum_assignment(c)
            return float(c[rr, cc].sum()), float(c[rr, cc].max())

        best = None
        for lr in np.linspace(-1.5, 1.5, 31):
            for ph in np.linspace(-np.pi, np.pi, 61):
                z = 10.0 ** lr * np.exp(1j * ph)
                t, _ = cost(z)
                if best is None or t < best[0]:
                    best = (t, z)
        _, z0 = best
        r = minimize(lambda x: 1e9 if abs(complex(x[0], x[1])) < 1e-9
                     else cost(complex(x[0], x[1]))[0],
                     [z0.real, z0.imag], method="Nelder-Mead",
                     options={"xatol": 1e-15, "fatol": 1e-15, "maxiter": 50000, "maxfev": 50000})
        z = complex(r.x[0], r.x[1])
        total, mx = cost(z)
        print(f"\noff=({n12},{n21}): FULL MATCH total={total:.6g} max={mx:.6g}")
        print(f"   s11 = {e/2+d:.10f}")
        print(f"   s22 = {e/2-d:.10f}")
        print(f"   s12 = {z:.10f}")
        print(f"   s21 = {u/z:.10f}")
        print(f"   s11*17 = {(e/2+d)*17:.6f}   s22*17 = {(e/2-d)*17:.6f}")
        print(f"   s12*17 = {z*17:.6f}   s21*17 = {(u/z)*17:.6f}")


if __name__ == "__main__":
    main()
