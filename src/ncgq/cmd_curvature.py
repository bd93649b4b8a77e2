"""`ncgq curvature`: nabla e_i and R(e_i) of the reference connection."""
from __future__ import annotations

from .algebra import QuantumAlgebra
from .calculus import FORMS, Calculus
from .cli import ROOT_MODES, emit
from .riemannian import covariant_derivative_basis, reference_connection, riemann_basis


def run(cfg) -> int:
    modes = ROOT_MODES if cfg.qmode == "generic" else (cfg.qmode,)
    docs = {}
    for mode in modes:
        cal = Calculus(QuantumAlgebra(mode))
        conn = reference_connection(cal)
        nabla = {}
        riem = {}
        for i in FORMS:
            nd = covariant_derivative_basis(cal, conn, i)
            nabla[i] = {k: str(x) for k, x in nd.terms.items()}
            rd = riemann_basis(cal, conn, i)
            riem[i] = {k: str(x) for k, x in rd.terms.items()}
        docs[mode] = {"covariant_derivative": nabla, "riemann": riem,
                      "connection_source": conn.source}
    doc = {"command": "curvature", "q": cfg.qmode, "results": docs}
    lines = [f"curvature (q = {cfg.qmode})"]
    for mode, d in docs.items():
        for i, legs in d["riemann"].items():
            lines.append(f"mode {mode}: Riemann(e_{i}):")
            for k, x in sorted(legs.items()):
                lines.append(f"    [{x}] (x) e_{k}")
    emit(cfg, doc, lines)
    return 0
