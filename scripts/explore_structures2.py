#!/usr/bin/env python3
"""Trace-based structure hunt at q=i, round 2.

Parametrize s11 = e/2 + d, s22 = e/2 - d (e fixed by k=1); for each candidate
block structure get u(d) from k=2; score k=3..7 power-sum residuals via fast
matrix powers on a d-grid; Newton-polish the winners; only then eigensolve.

Covers fourth-block hypotheses Ra, Ra^T (= Ra^3), identity (delta = 1), and
I + Ra - Ra^2 (delta = 1 + a - a^2), and all grading-balanced off-diagonal
pairs from right/left multiplication operators and transposes.
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


def left_mult(x):
    return to_np_cols([(x * alg.monomial(p, r)).coords() for (p, r) in basis_monomials()])


R = printed_translation_matrices(q_root("i") * q_root("i"))
Ra, Rb, Rbs = (to_np(R[n]) for n in ("alpha", "beta", "beta_star"))
I16 = np.eye(16)
REF = np.array(printed_spectrum("i"))
P = np.array([np.sum(REF ** k) for k in range(1, 8)])

L_b = left_mult(alg.beta)
L_bs = left_mult(alg.beta_star_reference)

B22S = {
    "Ra": Ra,
    "RaT": Ra.T,
    "I(delta=1)": I16,
    "Rquad": I16 + Ra - Ra @ Ra,
}
G1 = {"Rb": Rb, "RbsT": Rbs.T, "L_b": L_b}      # grading +1
G3 = {"Rbs": Rbs, "RbT": Rb.T, "L_bs": L_bs}    # grading +3 (== -1)

OFF_PAIRS = [(n1, m1, n2, m2) for (n1, m1) in G1.items() for (n2, m2) in G3.items()]
OFF_PAIRS += [(n1, m1, n2, m2) for (n1, m1) in G3.items() for (n2, m2) in G1.items()]


def structure_scan(B22name, B22, X12name, X12, X21name, X21):
    N1 = Ra - I16

    def build(d, s12, s21):
        e = (P[0] - np.trace(N1) - np.trace(B22 - I16)) / 16.0
        s11 = e / 2 + d
        s22 = e / 2 - d
        return np.block([
            [N1 + s11 * I16, X12 + s12 * I16],
            [X21 + s21 * I16, (B22 - I16) + s22 * I16],
        ])

    if abs(np.trace(X12)) > 1e-9 or abs(np.trace(X21)) > 1e-9:
        return None

    def u_of_d(d):
        # k=2: tr(D^2) with s12 s21 = u entering as 32u + 2 tr(X12 X21)
        base = build(d, 0.0, 0.0)
        t2 = np.trace(base @ base)
        return (P[1] - t2) / 32.0

    def score(d):
        u = u_of_d(d)
        m = build(d, 1.0, u)
        acc = 0.0
        mk = m.copy()
        for k in range(2, 8):
            mk = mk @ m
            if k >= 3:
                acc += abs(np.trace(mk) - P[k - 1]) ** 2 / max(1.0, abs(P[k - 1])) ** 2
        return acc, u

    best = None
    for re in np.linspace(-4, 4, 33):
        for im in np.linspace(-4, 4, 33):
            d = complex(re, im)
            sc, u = score(d)
            if best is None or sc < best[0]:
                best = (sc, d, u)
    sc, d, u = best

    def obj(x):
        return score(complex(x[0], x[1]))[0]

    r = minimize(obj, [d.real, d.imag], method="Nelder-Mead",
                 options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 8000, "maxfev": 8000})
    d = complex(r.x[0], r.x[1])
    sc, u = score(d)
    return sc, d, u, build


def main():
    results = []
    for B22name, B22 in B22S.items():
        for (n12, X12, n21, X21) in OFF_PAIRS:
            out = structure_scan(B22name, B22, n12, X12, n21, X21)
            if out is None:
                continue
            sc, d, u, build = out
            results.append((sc, B22name, n12, n21, d, u, build))
    results.sort(key=lambda t: t[0])
    for sc, b22, n12, n21, d, u, _ in results[:12]:
        print(f"score {sc:10.4g}  B22={b22:12s} off=({n12},{n21})  d={d:.5f} u={u:.5f}")

    # full spectrum match for the best few
    for sc, b22, n12, n21, d, u, build in results[:3]:
        if sc > 1e-6:
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
        t0, z0 = best

        def obj(xx):
            z = complex(xx[0], xx[1])
            return 1e9 if abs(z) < 1e-9 else cost(z)[0]

        r = minimize(obj, [z0.real, z0.imag], method="Nelder-Mead",
                     options={"xatol": 1e-14, "fatol": 1e-14, "maxiter": 50000, "maxfev": 50000})
        z = complex(r.x[0], r.x[1])
        total, mx = cost(z)
        e = (P[0] - np.trace(Ra - I16) - np.trace(B22S[b22] - I16)) / 16.0
        print(f"\nB22={b22} off=({n12},{n21}): total={total:.6g} max={mx:.6g}")
        print(f"   s11 = {e/2+d:.8f}  s22 = {e/2-d:.8f}")
        print(f"   s12 = {z:.8f}  s21 = {u/z:.8f}")


if __name__ == "__main__":
    main()
