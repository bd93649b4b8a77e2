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
table of the 64 images e_x a^p b^r, built once per q mode and shared by
pushing each form through the monomial with the eight generator-level rules;
the dependent-generator rules of the reference table (including the repaired
assignment of the orphaned rule to the pair (c, delta)) are retained as audit
fixtures in :mod:`ncgq.fixtures`.

The wedge product and d are fixed linear maps for a given exterior algebra.
Each ExteriorAlgebra tabulates the word products e_w1 m ^ e_w2 and the images
d(m e_w) of its basis elements, one entry at a time on first use; every
calculus of a q mode shares one default exterior algebra and so its tables.
Both maps sum those entries into one numerator vector per output word over
one denominator, so each coefficient of a result costs one gcd.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache
from math import gcd, lcm

from .algebra import (DIM, AlgebraElement, Monomial, QuantumAlgebra, add_products, basis_monomials,
                      check_mode, flat_entry, monomial_name, monomial_product, sum_entries, support)
from .scalars import ZERO, ONE, GaussianRational, q_root

FORMS = ("a", "b", "c", "d")
# basis 1-form -> its 2x2 matrix unit (row, column), the index pair of the
# generator matrix t = [[alpha, beta], [beta_star, delta]] it is attached to
MATRIX_UNITS = {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}

WedgeWord = tuple[str, ...]
# a form as its scalar coordinates {(word, monomial): coefficient}
Terms = dict[tuple[WedgeWord, Monomial], GaussianRational]


@lru_cache(maxsize=None)
def bimodule_table(mode: str) -> dict[tuple[str, Monomial], tuple[tuple[GaussianRational, Monomial, str], ...]]:
    """e_x a^p b^r = sum of coefficient * monomial * e_y, for all 4 forms x and 16 monomials.

    Built once per q mode from the eight generator rules, letter by letter;
    shared, so never mutate it.
    """
    q = q_root(mode)
    qi, q2 = q.inverse(), q * q
    mu = ONE - q2.inverse()
    a, b = (1, 0), (0, 1)
    # e_x * generator = sum coefficient * monomial * e_y over the listed (coefficient, monomial, y)
    rules = {
        ("a", a): [(q, a, "a")],
        ("a", b): [(qi, b, "a")],
        ("b", a): [(qi, a, "b")],
        ("b", b): [(qi, b, "b"), (mu, a, "a")],
        ("c", a): [(q, a, "c"), (q2 * mu, b, "a")],
        ("c", b): [(q, b, "c")],
        ("d", a): [(qi, a, "d"), (mu, b, "b")],
        ("d", b): [(q, b, "d"), (mu, a, "c"), (q * mu * mu, b, "a")],
    }
    table = {}
    for form in FORMS:
        for p, r in basis_monomials():
            partial = {(form, (0, 0)): ONE}
            for g in [a] * p + [b] * r:
                nxt: dict[tuple[str, Monomial], GaussianRational] = {}
                for (fm, m), c in partial.items():
                    for s, el, fm2 in rules[(fm, g)]:
                        m2, negated = monomial_product(m, el)
                        v = -(c * s) if negated else c * s
                        key = (fm2, m2)
                        nxt[key] = nxt[key] + v if key in nxt else v
                partial = {k: v for k, v in nxt.items() if v}
            table[(form, (p, r))] = tuple((c, m, fm) for (fm, m), c in partial.items())
    return table


def _lifted(coords: list, f: int) -> list:
    """The support coords [(k, A, B)] of a numerator vector, times the integer f."""
    return coords if f == 1 else [(k, a * f, b * f) for k, a, b in coords]


class ExteriorAlgebra:
    """Normal forms for wedge words with scalar coefficients, at a fixed root q.

    Also the tables that the wedge relations fix: the word products
    e_w1 m ^ e_w2 and the images d(m e_w), the latter filled by
    Calculus.exterior_d.  Both are filled lazily, one entry at a time, and
    keyed by words and the monomial index 4p + r; an instance with other pair
    rules has tables of its own.
    """

    def __init__(self, q: GaussianRational):
        if q * q != GaussianRational(-1):
            raise ValueError("the wedge relations are used in their q^2 = -1 form")
        self.q = q
        self.q2 = q * q
        self.mu = ONE - (q * q).inverse()
        self.mode = "i" if q == q_root("i") else "-i"
        self._pair_rules = self._build_pair_rules()
        self._memo: dict[WedgeWord, dict[WedgeWord, GaussianRational]] = {}
        # (w1, w2) -> the 16 slots of e_w1 m ^ e_w2 by monomial index, None until read
        self._products: dict = {}
        # w -> the 16 slots of the unnormalised d(m e_w), filled by Calculus.exterior_d
        self.d_images: dict = {}

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
        """Canonical form of a wedge word as a combination of ordered monomials.

        Memoised per word; the result is shared, so never mutate it.
        """
        if word in self._memo:
            return self._memo[word]
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
                out[w] = out[w] + coeff if w in out else coeff
        out = self._memo[word] = {w: c for w, c in out.items() if c}
        return out

    def word_product(self, w1: WedgeWord, k: int, w2: WedgeWord) -> tuple:
        """e_w1 m ^ e_w2, for m of monomial index k, as a flat table entry keyed by ordered word.

        Filled on first use by moving m past the letters of w1, right to left,
        through the bimodule table, then reducing each word followed by w2.
        Shared, so never mutate it.
        """
        slots = self._products.get((w1, w2)) or self._products.setdefault((w1, w2), [None] * DIM)
        entry = slots[k]
        if entry is None:
            table = bimodule_table(self.mode)
            moved: Terms = {((), (k >> 2, k & 3)): ONE}
            for letter in reversed(w1):
                nxt: Terms = {}
                for (tail, m1), c in moved.items():
                    for s, m2, fm in table[(letter, m1)]:
                        key, v = ((fm,) + tail, m2), c * s
                        nxt[key] = nxt[key] + v if key in nxt else v
                moved = nxt
            acc: Terms = {}
            for (w, m1), c in moved.items():
                for wred, s in self.reduce_word(w + w2).items():
                    key, v = (wred, m1), c * s
                    acc[key] = acc[key] + v if key in acc else v
            entry = slots[k] = flat_entry(acc, f"{w1} {monomial_name((k >> 2, k & 3))} ^ {w2}")
        return entry

    def graded_dimensions(self) -> list[int]:
        """Dimension of each graded piece, computed by exact reduction, not assumed.

        Degree d is spanned by the reductions of the normal monomials n of
        degree d - 1 followed by one letter x.  Every word of degree d is some
        w·x, and reduce(w·x) = reduce(reduce(w)·x): the rewriting terminates
        and is confluent (`verify` checks it on every triple of letters), so a
        word has one normal form whatever order its rewrites take; and reduce(w)
        is a sum of such n.  So four words per normal monomial stand in for all
        4^d words of degree d.
        """
        from . import linalg

        dims = []
        reduced = [self.reduce_word(())]
        for _ in range(9):  # safety bound; the calculus terminates well before it
            if not any(reduced):
                break
            normal = sorted({m for red in reduced for m in red})
            dims.append(linalg.rank([[red.get(m, ZERO) for m in normal] for red in reduced]))
            reduced = [self.reduce_word(n + (x,)) for n in normal for x in FORMS]
        return dims


@lru_cache(maxsize=None)
def default_exterior(mode: str) -> ExteriorAlgebra:
    """The exterior algebra of the reference wedge relations, one per q mode, with its tables."""
    return ExteriorAlgebra(q_root(mode))


class ModuleSum:
    """Finite sum of module-valued terms over a fixed basis, in one q mode.

    The linear structure shared by differential forms (algebra coefficients on
    wedge words) and tensor forms (forms on the invariant right leg): zero
    terms are pruned on construction, equality needs one q mode, and
    construction and + raise ValueError on mixed modes, even for a zero term
    or when the two sums share no basis key.
    """

    __slots__ = ("calculus", "terms")

    def __init__(self, calculus: "Calculus", terms: Mapping | None = None):
        self.calculus = calculus
        self.terms = {}
        for k, x in terms.items() if terms else ():
            check_mode(calculus, x)
            if x:
                self.terms[k] = x

    @classmethod
    def _of(cls, calculus: "Calculus", terms: dict):
        """An instance holding terms itself, which must have no zero term and one q mode."""
        out = object.__new__(cls)
        out.calculus = calculus
        out.terms = terms
        return out

    @property
    def algebra(self) -> QuantumAlgebra:
        return self.calculus.algebra

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.calculus.algebra.mode == other.calculus.algebra.mode and self.terms == other.terms

    def __add__(self, other):
        check_mode(self, other)
        out = dict(self.terms)
        for k, x in other.terms.items():
            out[k] = out[k] + x if k in out else x
        return self._of(self.calculus, {k: x for k, x in out.items() if x})

    def __neg__(self):
        return self._of(self.calculus, {k: -x for k, x in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s: GaussianRational):
        return self._of(self.calculus, {k: y for k, x in self.terms.items() if (y := x.scale(s))})

    def left_multiply(self, g: AlgebraElement):
        """g times each term, from the left."""
        check_mode(self, g)
        return self._of(self.calculus, {k: y for k, x in self.terms.items() if (y := x.left_multiply(g))})


class DiffForm(ModuleSum):
    """Sum of (algebra coefficient) x (ordered wedge monomial), coefficients on the left."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<DiffForm {self}>"

    def __str__(self) -> str:
        return "  +  ".join(f"[{self.terms[w]}] " + ("^".join(f"e_{x}" for x in w) if w else "1")
                            for w in sorted(self.terms, key=lambda w: (len(w), w))) or "0"

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


class Calculus:
    """Exterior calculus bound to one root-of-unity algebra context."""

    def __init__(self, algebra: QuantumAlgebra):
        self.algebra = algebra
        self.exterior = default_exterior(algebra.mode)

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

    def commute_past(self, form: str, f: AlgebraElement) -> DiffForm:
        """e_form * f rewritten with all algebra coefficients moved to the left."""
        return self.wedge(self.basis_form(form), self.from_function(f))

    # -- wedge product ---------------------------------------------------------------

    def wedge(self, x: DiffForm, y: DiffForm) -> DiffForm:
        return self.wedge_sum([(x, y)])

    def wedge_sum(self, pairs: Iterable[tuple[DiffForm, DiffForm]]) -> DiffForm:
        """The sum of x ^ y over the pairs (x, y) of forms, over one denominator."""
        table, product = self.exterior._products, self.exterior.word_product
        # f1 e_w1 ^ y = f1 (e_w1 ^ y) for each word w1 of x, with e_w1 ^ y over dy,
        # summed into {output word: numerator vector} over d
        acc: dict = {}
        d = 1
        for x, y in pairs:
            check_mode(self, x.calculus)
            check_mode(self, y.calculus)
            # y's coefficients over the lcm dy of their denominators, as (w2, [(k, A, B)])
            dy = lcm(*[g.den for g in y.terms.values()])
            ys = [(w2, _lifted(g.nonzero(), dy // g.den)) for w2, g in y.terms.items()]
            for w1, f1 in x.terms.items():
                terms = []
                for w2, coords in ys:
                    slots = table.get((w1, w2)) or table.setdefault((w1, w2), [None] * DIM)
                    # a zero entry is (), so an unfilled slot is told apart by None
                    terms += [(product(w1, k, w2) if (e := slots[k]) is None else e, a, b)
                              for k, a, b in coords]
                right = sum_entries(terms)
                dr = f1.den * dy
                if d % dr:
                    # bring what is summed so far over a denominator that dr divides
                    g = dr // gcd(d, dr)
                    for out in acc.values():
                        out[:] = [v * g for v in out]
                    d *= g
                xs = _lifted(f1.nonzero(), d // dr)
                for w, vec in right.items():
                    add_products(acc.get(w) or acc.setdefault(w, [0] * (2 * DIM)), xs, support(vec))
        return self._form(acc, d)

    def _form(self, acc: dict, den: int) -> DiffForm:
        """The form {word: numerator vector / den}, each coefficient normalised by one gcd."""
        alg = self.algebra
        return DiffForm._of(self, {w: AlgebraElement._reduce(alg, den, num)
                                   for w, num in acc.items() if any(num)})

    # -- exterior derivative -----------------------------------------------------------

    def exterior_d(self, x: DiffForm, normalized: bool = True) -> DiffForm:
        """Graded-commutator derivative: c * (theta ^ x - sigma(x) ^ theta).

        sigma is the grading automorphism: it negates the odd-degree terms.
        Linear over the scalars, so read off the tabulated images of the basis
        elements m e_w, each derived once by its two wedges with theta.
        """
        check_mode(self, x.calculus)
        images = self.exterior.d_images
        d = lcm(*[g.den for g in x.terms.values()])
        terms = []
        for w, g in x.terms.items():
            slots = images.get(w) or images.setdefault(w, [None] * DIM)
            f = d // g.den
            # a zero entry is (), so an unfilled slot is told apart by None
            terms += [(self._d_image(slots, k, w) if (e := slots[k]) is None else e, a * f, b * f)
                      for k, a, b in g.nonzero()]
        # normalized: divided by mu = 1 - q^-2, which is 2 at q = +-i
        return self._form(sum_entries(terms), 2 * d if normalized else d)

    def _d_image(self, slots: list, k: int, w: WedgeWord) -> tuple:
        """The unnormalised d(m e_w) = theta ^ m e_w - sigma(m e_w) ^ theta, for m of index k.

        Stored as a flat table entry at slots[k].
        """
        basis = DiffForm(self, {w: self.algebra.monomial(k >> 2, k & 3)})
        sigma = -basis if len(w) % 2 else basis
        image = self.wedge(self.theta(), basis) - self.wedge(sigma, self.theta())
        coeffs = {(v, mv): c for v, g in image.terms.items() for mv, c in g.coeffs.items()}
        slots[k] = entry = flat_entry(coeffs, f"d({monomial_name((k >> 2, k & 3))} {w})")
        return entry

    def partials(self, f: AlgebraElement, normalized: bool = True) -> dict[str, AlgebraElement]:
        """Unique left coefficients of d f on the basis 1-forms."""
        df = self.exterior_d(self.from_function(f), normalized=normalized)
        return {name: df.coefficient((name,)) for name in FORMS}

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

    def right_coaction_on_form(self, form: str) -> list[tuple[str, AlgebraElement]]:
        """Delta_R(e_form) as sum e_g (x) (algebra element)."""
        alg = self.algebra
        t = alg.generator_matrix()
        al, be = MATRIX_UNITS[form]
        out = [(g, t[ga][al] * alg.antipode(t[be][de])) for g, (ga, de) in MATRIX_UNITS.items()]
        return [(g, c) for g, c in out if c]

    def ad_right(self) -> dict[str, dict[tuple[str, str], GaussianRational]]:
        """(id (x) pi_tilde) applied to the right coaction, from first principles."""
        return self._ad(left=False)

    def ad_left(self) -> dict[str, dict[tuple[str, str], GaussianRational]]:
        """(pi_tilde (x) id) applied to the flipped coaction with inverse antipode."""
        return self._ad(left=True)

    def _ad(self, left: bool) -> dict[str, dict[tuple[str, str], GaussianRational]]:
        # each coaction term has its own g and each projection its own k, so no key repeats
        out: dict[str, dict[tuple[str, str], GaussianRational]] = {}
        for form in FORMS:
            row = out[form] = {}
            for g, coeff in self.right_coaction_on_form(form):
                proj = self.pi_tilde(self.algebra.inverse_antipode(coeff) if left else coeff)
                row.update({((k, g) if left else (g, k)): s for k, s in proj.items() if s})
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
