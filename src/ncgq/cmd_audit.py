"""`ncgq audit`: every reference fixture with its printed/computed verdict."""
from __future__ import annotations

from .audit import audit_report
from .cli import emit


def run(cfg) -> int:
    doc = audit_report(cfg.qmode)
    lines = [f"consistency audit (q = {doc['q_mode']})", "-" * 60]
    for row in doc["rows"]:
        lines.append(f"[{row['verdict']:>11s}] {row['section']}: {row['quantity']}")
        lines.append(f"   printed:  {row['printed']}")
        lines.append(f"   computed: {row['computed']}")
    lines.append("-" * 60)
    lines.append(str(doc["summary"]))
    emit(cfg, doc, lines)
    return 0
