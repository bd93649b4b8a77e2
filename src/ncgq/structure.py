"""The calculus's structure recomputed from first principles and checked against the reference.

The braided structure constants ad_L and ad_R come from the right coaction of
the basis 1-forms and the projection pi_tilde; the graded dimensions of the
exterior algebra from exact reduction; the four reference values of d are
compared with d on the basis 1-forms.  The operative geometry reads the
printed ad tables instead (riemannian.printed_ad_tables), so only `verify`,
the audit and the tests import this module.
"""
from __future__ import annotations

from .algebra import AlgebraElement
from .calculus import FORMS, MATRIX_UNITS, Calculus, ExteriorAlgebra
from .scalars import ZERO, GaussianRational


def right_coaction_on_form(cal: Calculus, form: str) -> list[tuple[str, AlgebraElement]]:
    """Delta_R(e_form) as sum e_g (x) (algebra element)."""
    alg = cal.algebra
    t = alg.generator_matrix()
    al, be = MATRIX_UNITS[form]
    out = [(g, t[ga][al] * alg.antipode(t[be][de])) for g, (ga, de) in MATRIX_UNITS.items()]
    return [(g, c) for g, c in out if c]


def ad_right(cal: Calculus) -> dict[str, dict[tuple[str, str], GaussianRational]]:
    """(id (x) pi_tilde) applied to the right coaction, from first principles."""
    return _ad(cal, left=False)


def ad_left(cal: Calculus) -> dict[str, dict[tuple[str, str], GaussianRational]]:
    """(pi_tilde (x) id) applied to the flipped coaction with inverse antipode."""
    return _ad(cal, left=True)


def _ad(cal: Calculus, left: bool) -> dict[str, dict[tuple[str, str], GaussianRational]]:
    # each coaction term has its own g and each projection its own k, so no key repeats
    out: dict[str, dict[tuple[str, str], GaussianRational]] = {}
    for form in FORMS:
        row = out[form] = {}
        for g, coeff in right_coaction_on_form(cal, form):
            proj = cal.pi_tilde(cal.algebra.antipode(coeff) if left else coeff)  # S^-1 = S
            row.update({((k, g) if left else (g, k)): s for k, s in proj.items() if s})
    return out


def graded_dimensions(ext: ExteriorAlgebra) -> list[int]:
    """Dimension of each graded piece of ext, computed by exact reduction, not assumed.

    Degree d is spanned by the reductions of the normal monomials n of
    degree d - 1 followed by one letter x.  Every word of degree d is some
    w·x, and reduce(w·x) = reduce(reduce(w)·x): the rewriting terminates
    and is confluent (`verify` checks it on every triple of letters), so a
    word has one normal form whatever order its rewrites take; and reduce(w)
    is a sum of such n.  So four words per normal monomial stand in for all
    4^d words of degree d.
    """
    from . import linalg  # here: `verify` reads the reference values of d, not the dimensions

    dims = []
    reduced = [ext.reduce_word(())]
    for _ in range(9):  # safety bound; the calculus terminates well before it
        if not any(reduced):
            break
        normal = sorted({m for red in reduced for m in red})
        dims.append(linalg.rank([[red.get(m, ZERO) for m in normal] for red in reduced]))
        reduced = [ext.reduce_word(n + (x,)) for n in normal for x in FORMS]
    return dims


def reference_d_values(cal: Calculus) -> dict[str, bool]:
    """Whether d reproduces each of the four reference values on the basis 1-forms."""
    e, w, d = cal.basis_form, cal.wedge, cal.exterior_d
    q2 = cal.algebra.q2
    return {
        "d e_a = -e_c ^ e_b": d(e("a")) == -w(e("c"), e("b")),
        "d e_b = -q^-2 e_b ^ e_a + e_b ^ e_d":
            d(e("b")) == -w(e("b"), e("a")).scale(q2.inverse()) + w(e("b"), e("d")),
        "d e_c = e_c ^ e_a - q^2 e_c ^ e_d": d(e("c")) == w(e("c"), e("a")) - w(e("c"), e("d")).scale(q2),
        "d e_d = e_c ^ e_b": d(e("d")) == w(e("c"), e("b")),
    }
