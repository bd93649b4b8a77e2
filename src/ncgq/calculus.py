"""The 4-dimensional bicovariant exterior calculus over the reduced algebra.

Basis 1-forms a < b < c < d.  The invariant exterior algebra is presented by
the reference wedge relations

    d^a + a^d + mu c^b = 0        d^c + q^2 c^d + mu a^c = 0
    b^d + q^2 d^b + mu b^a = 0    d^d = mu c^b

together with Grassmann behaviour of a, b, c (squares zero, pairwise
anticommuting).  Orienting these toward the ordered monomials gives a
terminating rewriting system whose confluence is checked by tests rather than
assumed; the metric symmetry and all four reference values of the exterior
derivative on basis 1-forms come out exactly.

The bimodule structure moves basis 1-forms past algebra elements through a
table of the 64 images e_x a^p b^r, built once per calculus by pushing each
form through the monomial with the eight generator-level rules; the
dependent-generator rules of the reference table (including the repaired
assignment of the orphaned rule to the pair (c, delta)) are retained as audit
fixtures in :mod:`ncgq.fixtures`.
"""
from __future__ import annotations

from typing import Mapping

from .algebra import AlgebraElement, Monomial, QuantumAlgebra, basis_monomials
from .scalars import ZERO, ONE, GaussianRational

FORMS = ("a", "b", "c", "d")

WedgeWord = tuple[str, ...]
# e_x * monomial as [(form y, [(monomial, coefficient)])]: the y-coefficients on the left
BimoduleImage = list[tuple[str, list[tuple[Monomial, GaussianRational]]]]


class ExteriorAlgebra:
    """Normal forms for wedge words with scalar coefficients, at a fixed root q."""

    def __init__(self, q: GaussianRational):
        if q * q != GaussianRational(-1):
            raise ValueError("the wedge relations are used in their q^2 = -1 form")
        self.q = q
        self.q2 = q * q
        self.mu = ONE - (q * q).inverse()
        self._pair_rules = self._build_pair_rules()
        self._memo: dict[WedgeWord, dict[WedgeWord, GaussianRational]] = {}

    def _build_pair_rules(self) -> dict[tuple[str, str], list[tuple[GaussianRational, WedgeWord]]]:
        q2, mu = self.q2, self.mu
        m1 = -ONE
        return {
            ("a", "a"): [],
            ("b", "b"): [],
            ("c", "c"): [],
            ("b", "a"): [(m1, ("a", "b"))],
            ("c", "a"): [(m1, ("a", "c"))],
            ("c", "b"): [(m1, ("b", "c"))],
            ("d", "d"): [(mu, ("c", "b"))],
            ("d", "a"): [(m1, ("a", "d")), (-mu, ("c", "b"))],
            ("d", "b"): [(-q2, ("b", "d")), (-q2 * mu, ("b", "a"))],
            ("d", "c"): [(-q2, ("c", "d")), (-mu, ("a", "c"))],
        }

    def reduce_word(self, word: WedgeWord) -> dict[WedgeWord, GaussianRational]:
        """Canonical form of a wedge word as a combination of ordered monomials."""
        if word in self._memo:
            return dict(self._memo[word])
        out: dict[WedgeWord, GaussianRational] = {}
        stack: list[tuple[GaussianRational, WedgeWord]] = [(ONE, word)]
        while stack:
            coeff, w = stack.pop()
            for k in range(len(w) - 1):
                pair = (w[k], w[k + 1])
                if pair in self._pair_rules:
                    for c2, repl in self._pair_rules[pair]:
                        stack.append((coeff * c2, w[:k] + repl + w[k + 2:]))
                    break
            else:
                out[w] = out.get(w, ZERO) + coeff
        out = {w: c for w, c in out.items() if c}
        self._memo[word] = dict(out)
        return out

    def basis(self, degree: int) -> list[WedgeWord]:
        """Irreducible (strictly increasing) wedge monomials of a given degree."""
        from itertools import combinations

        return [tuple(c) for c in combinations(FORMS, degree)]

    def graded_dimensions(self) -> list[int]:
        """Dimension of each graded piece, computed by exact reduction, not assumed."""
        dims = []
        degree = 0
        while True:
            words = self._all_words(degree)
            if degree > 0 and all(not self.reduce_word(w) for w in words):
                break
            span: dict[WedgeWord, int] = {}
            vecs = []
            for w in words:
                red = self.reduce_word(w)
                for m in red:
                    span.setdefault(m, len(span))
            cols = sorted(span, key=span.get)
            rows = []
            for w in words:
                red = self.reduce_word(w)
                rows.append([red.get(m, ZERO) for m in cols])
            from . import linalg

            dims.append(linalg.rank(rows) if rows and cols else (1 if degree == 0 else 0))
            degree += 1
            if degree > 8:  # safety; the calculus terminates well before this
                break
        return dims

    def _all_words(self, degree: int) -> list[WedgeWord]:
        from itertools import product

        return [tuple(w) for w in product(FORMS, repeat=degree)] if degree else [()]


class DiffForm:
    """Sum of (algebra coefficient) x (ordered wedge monomial), coefficients on the left."""

    __slots__ = ("calculus", "terms")

    def __init__(self, calculus: "Calculus", terms: Mapping[WedgeWord, AlgebraElement] | None = None):
        self.calculus = calculus
        pruned: dict[WedgeWord, AlgebraElement] = {}
        if terms:
            for w, f in terms.items():
                if f:
                    pruned[w] = f
        self.terms = pruned

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"<DiffForm {self}>"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            mono = "^".join(f"e_{x}" for x in w) if w else "1"
            bits.append(f"[{self.terms[w]}] {mono}")
        return "  +  ".join(bits)

    def __add__(self, other: "DiffForm") -> "DiffForm":
        out = dict(self.terms)
        alg = self.calculus.algebra
        for w, f in other.terms.items():
            out[w] = out.get(w, alg.zero) + f
        return DiffForm(self.calculus, out)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.calculus, {w: -f for w, f in self.terms.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scale(self, s: GaussianRational) -> "DiffForm":
        return DiffForm(self.calculus, {w: f.scale(s) for w, f in self.terms.items()})

    def left_multiply(self, g: AlgebraElement) -> "DiffForm":
        return DiffForm(self.calculus, {w: g * f for w, f in self.terms.items()})

    def degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def coefficient(self, word: WedgeWord) -> AlgebraElement:
        return self.terms.get(tuple(word), self.calculus.algebra.zero)

    def to_json(self) -> dict:
        """Wire format: degree-tagged list of {coeff, wedge} terms."""
        degs = sorted(self.degrees())
        return {
            "degree": degs[0] if len(degs) == 1 else degs,
            "terms": [
                {"coeff": f.to_json(), "wedge": [f"e_{x}" for x in w]}
                for w, f in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
        }

    def wedge(self, other: "DiffForm") -> "DiffForm":
        return self.calculus.wedge(self, other)


class Calculus:
    """Exterior calculus bound to one root-of-unity algebra context."""

    def __init__(self, algebra: QuantumAlgebra):
        self.algebra = algebra
        self.exterior = ExteriorAlgebra(algebra.q)
        q, mu = algebra.q, algebra.mu
        qi = q.inverse()
        a, b = algebra.alpha, algebra.beta
        # e_x * g = sum coeff * (element) * e_y over the listed (coeff, element, y)
        self._rules: dict[tuple[str, str], list[tuple[GaussianRational, AlgebraElement, str]]] = {
            ("a", "alpha"): [(q, a, "a")],
            ("a", "beta"): [(qi, b, "a")],
            ("b", "alpha"): [(qi, a, "b")],
            ("b", "beta"): [(qi, b, "b"), (mu, a, "a")],
            ("c", "alpha"): [(q, a, "c"), (algebra.q2 * mu, b, "a")],
            ("c", "beta"): [(q, b, "c")],
            ("d", "alpha"): [(qi, a, "d"), (mu, b, "b")],
            ("d", "beta"): [(q, b, "d"), (mu, a, "c"), (q * mu * mu, b, "a")],
        }
        self._images: dict[tuple[str, Monomial], BimoduleImage] | None = None

    # -- construction helpers ---------------------------------------------------

    def zero(self) -> DiffForm:
        return DiffForm(self, {})

    def from_function(self, f: AlgebraElement) -> DiffForm:
        return DiffForm(self, {(): f})

    def basis_form(self, name: str, coeff: AlgebraElement | None = None) -> DiffForm:
        if name not in FORMS:
            raise ValueError(f"unknown basis 1-form {name!r}")
        return DiffForm(self, {(name,): coeff if coeff is not None else self.algebra.one})

    def theta(self) -> DiffForm:
        return DiffForm(self, {("a",): self.algebra.one, ("d",): self.algebra.one})

    # -- bimodule commutation -----------------------------------------------------

    def _bimodule_images(self) -> dict[tuple[str, Monomial], BimoduleImage]:
        """e_x * a^p b^r for all 4 forms and 16 monomials, built once per calculus."""
        if self._images is None:
            self._images = {(form, m): self._push_through(form, m)
                            for form in FORMS for m in basis_monomials()}
        return self._images

    def _push_through(self, form: str, m: Monomial) -> BimoduleImage:
        """e_form * a^p b^r by the eight generator rules, letter by letter."""
        alg = self.algebra
        p, r = m
        partial: dict[str, AlgebraElement] = {form: alg.one}
        for letter in ["alpha"] * p + ["beta"] * r:
            nxt: dict[str, AlgebraElement] = {}
            for fm, coeff_el in partial.items():
                for s, el, fm2 in self._rules[(fm, letter)]:
                    nxt[fm2] = nxt.get(fm2, alg.zero) + coeff_el.scale(s) * el
            partial = {k: v for k, v in nxt.items() if v}
        return [(fm, list(el.coeffs.items())) for fm, el in partial.items()]

    def commute_past(self, form: str, f: AlgebraElement) -> DiffForm:
        """e_form * f rewritten with all algebra coefficients moved to the left."""
        images = self._bimodule_images()
        out: dict[str, dict[Monomial, GaussianRational]] = {}
        for m, c in f.coeffs.items():
            # linear in f: c times the tabulated image of e_form * m
            for fm, terms in images[(form, m)]:
                acc = out.setdefault(fm, {})
                for m2, s in terms:
                    v = c * s
                    acc[m2] = acc[m2] + v if m2 in acc else v
        alg = self.algebra
        return DiffForm(self, {(fm,): AlgebraElement(alg, acc) for fm, acc in out.items()})

    def _word_past(self, word: WedgeWord, f: AlgebraElement) -> dict[WedgeWord, AlgebraElement]:
        """word * f -> sum (coefficient) * word' with coefficients on the left."""
        alg = self.algebra
        if not word:
            return {(): f} if f else {}
        head, last = word[:-1], word[-1]
        moved = self.commute_past(last, f)
        out: dict[WedgeWord, AlgebraElement] = {}
        for (fm,), el in moved.terms.items():
            for w2, el2 in self._word_past(head, el).items():
                key = w2 + (fm,)
                out[key] = out.get(key, alg.zero) + el2
        return {k: v for k, v in out.items() if v}

    # -- wedge product ---------------------------------------------------------------

    def wedge(self, x: DiffForm, y: DiffForm) -> DiffForm:
        alg = self.algebra
        acc: dict[WedgeWord, AlgebraElement] = {}
        for w1, f1 in x.terms.items():
            for w2, f2 in y.terms.items():
                for w1b, coeff_el in self._word_past(w1, f2).items():
                    total = f1 * coeff_el
                    if not total:
                        continue
                    for wred, s in self.exterior.reduce_word(w1b + w2).items():
                        cur = acc.get(wred, alg.zero) + total.scale(s)
                        if cur:
                            acc[wred] = cur
                        elif wred in acc:
                            del acc[wred]
        return DiffForm(self, acc)

    # -- exterior derivative -----------------------------------------------------------

    def exterior_d(self, x: DiffForm, normalized: bool = True) -> DiffForm:
        """Graded-commutator derivative: c * (theta ^ x - (-1)^deg x ^ theta)."""
        th = self.theta()
        out = self.zero()
        for w, f in x.terms.items():
            piece = DiffForm(self, {w: f})
            sign = ONE if len(w) % 2 == 0 else -ONE
            out = out + self.wedge(th, piece) - self.wedge(piece, th).scale(sign)
        if normalized:
            out = out.scale(self.algebra.mu.inverse())
        return out

    def partials(self, f: AlgebraElement, normalized: bool = True) -> dict[str, AlgebraElement]:
        """Unique left coefficients of d f on the basis 1-forms."""
        df = self.exterior_d(self.from_function(f), normalized=normalized)
        out = {}
        for name in FORMS:
            out[name] = df.coefficient((name,))
        return out

    def pi_tilde(self, f: AlgebraElement) -> dict[str, GaussianRational]:
        """Projection to invariant 1-forms: counit of each partial derivative."""
        parts = self.partials(f, normalized=True)
        return {name: parts[name].counit() for name in FORMS}

    def pi_tilde_matrix(self) -> list[list[GaussianRational]]:
        """4x16 matrix of pi_tilde over the monomial basis (rows: forms a..d)."""
        cols = []
        for (p, r) in basis_monomials():
            vals = self.pi_tilde(self.algebra.monomial(p, r))
            cols.append([vals[f] for f in FORMS])
        return [[cols[j][k] for j in range(16)] for k in range(4)]

    # -- braided-Lie structure constants, first principles ------------------------------

    def _form_matrix_labels(self) -> dict[str, tuple[int, int]]:
        return {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}

    def right_coaction_on_form(self, form: str) -> list[tuple[str, AlgebraElement]]:
        """Delta_R(e_form) as sum e_g (x) (algebra element)."""
        alg = self.algebra
        t = alg.generator_matrix()
        lab = self._form_matrix_labels()
        al, be = lab[form]
        out: dict[str, AlgebraElement] = {}
        for g_form, (ga, de) in lab.items():
            coeff = t[ga][al] * alg.antipode(t[be][de])
            if coeff:
                out[g_form] = out.get(g_form, alg.zero) + coeff
        return [(g, c) for g, c in out.items() if c]

    def ad_right(self) -> dict[str, dict[tuple[str, str], GaussianRational]]:
        """(id (x) pi_tilde) applied to the right coaction, from first principles."""
        out: dict[str, dict[tuple[str, str], GaussianRational]] = {}
        for form in FORMS:
            row: dict[tuple[str, str], GaussianRational] = {}
            for g, coeff in self.right_coaction_on_form(form):
                proj = self.pi_tilde(coeff)
                for k, s in proj.items():
                    if s:
                        row[(g, k)] = row.get((g, k), ZERO) + s
            out[form] = {jk: s for jk, s in row.items() if s}
        return out

    def ad_left(self) -> dict[str, dict[tuple[str, str], GaussianRational]]:
        """(pi_tilde (x) id) applied to the flipped coaction with inverse antipode."""
        alg = self.algebra
        out: dict[str, dict[tuple[str, str], GaussianRational]] = {}
        for form in FORMS:
            row: dict[tuple[str, str], GaussianRational] = {}
            for g, coeff in self.right_coaction_on_form(form):
                proj = self.pi_tilde(alg.inverse_antipode(coeff))
                for k, s in proj.items():
                    if s:
                        row[(k, g)] = row.get((k, g), ZERO) + s
            out[form] = {jk: s for jk, s in row.items() if s}
        return out

    # -- kernel computations --------------------------------------------------------------

    def pi_tilde_kernel_in_counit_kernel(self) -> list[AlgebraElement]:
        """Exact basis of ker(pi_tilde) intersected with ker(counit)."""
        from . import linalg

        alg = self.algebra
        rows = self.pi_tilde_matrix()
        counit_row = [alg.monomial(p, r).counit() for (p, r) in basis_monomials()]
        mat = rows + [counit_row]
        basis = linalg.nullspace(mat, ONE, ZERO)
        return [alg.from_coords(v) for v in basis]
