"""`ncgq connection`: the rank of the connection system, the reference connection and its residuals."""
from __future__ import annotations

from .algebra import QuantumAlgebra
from .calculus import Calculus
from .cli import ROOT_MODES, emit
from .riemannian import ConnectionAssembler, connection_residuals, reference_connection
from .scalars import format_gaussian


def run(cfg) -> int:
    modes = ROOT_MODES if cfg.qmode == "generic" else (cfg.qmode,)
    docs = {}
    for mode in modes:
        cal = Calculus(QuantumAlgebra(mode))
        system = ConnectionAssembler(cal).assemble()
        report = system.rank_report()
        conn = reference_connection(cal)
        res = connection_residuals(system, conn)
        docs[mode] = {
            "system": report,
            "solver": {
                "status": "inconsistent" if not report["consistent"] else "solved",
                "rank": report["rank"],
                "n_unknowns": report["n_unknowns"],
            },
            "connection": {
                f"{i} {j}": format_gaussian(conn.coefficients[(i, j)])
                for (i, j) in sorted(conn.coefficients)
            },
            "connection_source": conn.source,
            "torsion_free": not any(res["torsion"].values()),
            "cotorsion_free": not any(res["cotorsion"].values()),
            "nonzero_torsion_rows": sum(1 for v in res["torsion"].values() if v),
            "nonzero_cotorsion_rows": sum(1 for v in res["cotorsion"].values() if v),
        }
    doc = {"command": "connection", "q": cfg.qmode, "results": docs}
    lines = [f"spin connection (q = {cfg.qmode})"]
    for mode, d in docs.items():
        lines.append(f"mode {mode}: system rank {d['system']['rank']}"
                     f"/{d['system']['n_unknowns']}, consistent: {d['system']['consistent']}")
        for key, val in d["connection"].items():
            lines.append(f"  A_{key.split()[0]}^{key.split()[1]} = {val}")
    emit(cfg, doc, lines)
    return 0
