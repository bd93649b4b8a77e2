"""Every closed form that constants.py holds, evaluated at q = 1, i and -i.

The forms keep their printed coefficients and are never reduced.  A compound
whose numerator and denominator both vanish at a root would raise PoleError
there, and one transcribed or combined wrongly would change a value, so the
digest below pins every value as format_gaussian prints it, in the order of
closed_forms().
"""
import hashlib

from ncgq import constants as C
from ncgq.riemannian import DB_DENOMINATOR_CONSTANT
from ncgq.scalars import format_gaussian, q_root

MODES = ("1", "i", "-i")
NAMED = ("Q", "ONE_RF", "MU", "TWO_Q", "TWO_Q2", "NU", "XI", "LAMBDA_C", "RHO", "F_DIAG",
         "Q2", "Q3", "QINV", "Q2_OVER_2Q", "Q_OVER_2Q", "QP1INV_OVER_2Q", "CONNECTION_DB_NUMERATOR")

# sha256 of the lines "label mode value", recorded with the reduced Q(q) field
# that held these forms before they kept their printed coefficients
DIGEST = "25407bd8ead127679c36e372f68b2bb0e6a4a231c205d0dc5bb61df7b9a084d7"


def closed_forms() -> list[tuple[str, object]]:
    """(label, form) for every rational function reachable from constants.py, in a fixed order."""
    out = [(name, getattr(C, name)) for name in NAMED]
    out += [(f"CONNECTION_PRINTED{key}", f) for key, f in sorted(C.CONNECTION_PRINTED.items())]
    for name in ("AD_L_PRINTED", "AD_R_PRINTED"):
        table = getattr(C, name)
        out += [(f"{name}[{i}]{jk}", f) for i in sorted(table) for jk, f in sorted(table[i].items())]
    for name in ("NABLA_PRINTED", "RIEMANN_PRINTED", "ASLASH_GENERATOR_VALUES", "ASLASH_MATRIX_PRINTED"):
        table = getattr(C, name)
        out += [(f"{name}[{key}][{n}]", term[-1]) for key in sorted(table)
                for n, term in enumerate(table[key])]
    out.append((f"connection_db_candidate({DB_DENOMINATOR_CONSTANT})",
                C.connection_db_candidate(DB_DENOMINATOR_CONSTANT)))
    return out


def test_every_closed_form_keeps_its_value_at_each_root():
    forms = closed_forms()
    assert len(forms) == 113
    lines = [f"{label} {mode} {format_gaussian(f.evaluate_at(q_root(mode)))}"
             for label, f in forms for mode in MODES]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
