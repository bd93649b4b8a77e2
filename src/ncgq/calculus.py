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
A form (DiffForm) is a KeyedSum by ordered word: one denominator over one
32-int numerator vector per word, as an algebra element is over its 16
monomials; FormSum binds it, and a tensor form, to its calculus.  Both maps
multiply their operands' numerators as they stand, over the product of their
denominators, sum the table entries into one vector per output word, and
reduce the whole result by one gcd: no coefficient is normalised on its own.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import chain, combinations
from math import lcm
from types import MappingProxyType

from .algebra import (DIM, AlgebraElement, KeyedSum, Monomial, QuantumAlgebra, add_products,
                      basis_monomials, check_mode, flat_entry, monomial_name, monomial_product, monomial_table,
                      sum_entries, support)
from .scalars import ZERO, ONE, GaussianRational, q_root

FORMS = ("a", "b", "c", "d")
# basis 1-form -> its 2x2 matrix unit (row, column), the index pair of the
# generator matrix t = [[alpha, beta], [beta_star, delta]] it is attached to
MATRIX_UNITS = {"a": (0, 0), "b": (0, 1), "c": (1, 0), "d": (1, 1)}

WedgeWord = tuple[str, ...]
# the 16 ordered words: the keys of a form
_WORDS = frozenset(w for n in range(5) for w in combinations(FORMS, n))


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
        # the bimodule table as Gaussian integers: (form, index) -> terms (A, B, monomial index, form)
        self._moves = {(x, 4 * p + r): tuple((*c.triple[:2], 4 * m[0] + m[1], y) for c, m, y in terms)
                       for (x, (p, r)), terms in bimodule_table(self.mode).items()}
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
        """e_w1 m ^ e_w2, for m of monomial index k, as terms (ordered word, monomial index, A, B).

        Each term is (A + B*i) times that monomial times e_word.  Filled on first use in Gaussian
        integers, by moving m past the letters of w1, right to left, through the bimodule table and
        reducing each word followed by w2.  Shared, so never mutate it.
        """
        slots = self._products.get((w1, w2)) or self._products.setdefault((w1, w2), [None] * DIM)
        entry = slots[k]
        if entry is None:
            moved = {((), k): (1, 0)}
            for letter in reversed(w1):
                nxt: dict = {}
                for (tail, m1), (c, e) in moved.items():
                    for s, t, m2, fm in self._moves[(letter, m1)]:
                        u, v = nxt.get(key := ((fm,) + tail, m2), (0, 0))
                        nxt[key] = u + c * s - e * t, v + c * t + e * s
                moved = nxt
            acc: dict = {}
            for (w, m1), (c, e) in moved.items():
                for wred, g in self.reduce_word(w + w2).items():
                    s, t, d = g.triple
                    if d != 1:  # a non-integral rule coefficient: flat_entry raises, naming the entry
                        flat_entry({(wred, divmod(m1, 4)): g}, f"{w1} {monomial_name(divmod(k, 4))} ^ {w2}")
                    u, v = acc.get(key := (wred, m1), (0, 0))
                    acc[key] = u + c * s - e * t, v + c * t + e * s
            entry = slots[k] = tuple((w, j, a, b) for (w, j), (a, b) in acc.items() if a or b)
        return entry


@lru_cache(maxsize=None)
def default_exterior(mode: str) -> ExteriorAlgebra:
    """The exterior algebra of the reference wedge relations, one per q mode, with its tables."""
    return ExteriorAlgebra(q_root(mode))


class FormSum(KeyedSum):
    """A KeyedSum bound to a calculus whose numerator vectors are left coefficients: the common
    part of a differential form and a tensor form."""

    __slots__ = ("calculus", "_terms")  # _terms: the read-only view .terms, built on first read

    @classmethod
    def _of(cls, calculus: "Calculus", den: int, num: dict, nonzero: list | None = None):
        """An instance holding num itself; (den, num) must be canonical, and nonzero its support or None."""
        out = object.__new__(cls)
        out.calculus, out.algebra, out.den, out.num = calculus, calculus.algebra, den, num
        out._nonzero = nonzero
        out._terms = None
        return out

    @property
    def _context(self) -> "Calculus":
        return self.calculus

    def left_multiply(self, g: AlgebraElement):
        """g times each coefficient, from the left."""
        check_mode(self, g)
        gs, num = g.nonzero(), {}
        for k, ys in self.nonzero():
            add_products(num.setdefault(k, [0] * (2 * DIM)), gs, ys)
        return self._reduce(self.calculus, self.den * g.den, num)


class DiffForm(FormSum):
    """Sum of (algebra coefficient) x (ordered wedge monomial), coefficients on the left.

    A KeyedSum by word: num is {ordered word: 32-int numerator vector}, over
    the one denominator den of the whole form.  The words are the 16 ordered
    ones (tuples over a < b < c < d, each letter at most once); the
    constructor rejects any other key.  The read-only view .terms gives
    {word: AlgebraElement}.
    """

    __slots__ = ()

    def __init__(self, calculus: "Calculus", terms: Mapping | None = None):
        """The form sum f * e_w over {ordered word w: AlgebraElement f}."""
        items = []
        for w, f in terms.items() if terms else ():
            if w not in _WORDS:
                raise ValueError(f"not an ordered wedge word over a < b < c < d: {w!r}")
            check_mode(calculus, f)
            if f:
                items.append((w, f))
        # over the lcm of canonical denominators, the numerators share no factor with it
        den = lcm(*[f.den for _, f in items])
        self.calculus, self.algebra, self.den, self._nonzero, self._terms = \
            calculus, calculus.algebra, den, None, None
        self.num = {w: f.num if f.den == den else [v * (den // f.den) for v in f.num] for w, f in items}

    @property
    def terms(self) -> Mapping[WedgeWord, AlgebraElement]:
        """{word: canonical coefficient}, built on first read; read-only."""
        if self._terms is None:
            alg, den = self.algebra, self.den
            self._terms = MappingProxyType({w: AlgebraElement._reduce(alg, den, vec)
                                            for w, vec in self.num.items()})
        return self._terms

    def __repr__(self) -> str:
        return f"<DiffForm {self}>"

    def __str__(self) -> str:
        terms = self.terms
        return "  +  ".join(f"[{terms[w]}] " + ("^".join(f"e_{x}" for x in w) if w else "1")
                            for w in sorted(terms, key=lambda w: (len(w), w))) or "0"

    def coefficient(self, word: WedgeWord) -> AlgebraElement:
        return self.terms.get(tuple(word), self.algebra.zero)


class Calculus:
    """Exterior calculus bound to one root-of-unity algebra context."""

    def __init__(self, algebra: QuantumAlgebra):
        self.algebra = algebra
        self.exterior = default_exterior(algebra.mode)

    # -- construction helpers ---------------------------------------------------

    def zero(self) -> DiffForm:
        return DiffForm._of(self, 1, {}, [])

    def _single(self, word: WedgeWord, f: AlgebraElement) -> DiffForm:
        """The form f e_word, for an ordered word."""
        check_mode(self, f)
        return DiffForm._of(self, f.den, {word: f.num}, [(word, f.nonzero())]) if f else self.zero()

    def from_function(self, f: AlgebraElement) -> DiffForm:
        return self._single((), f)

    def basis_form(self, name: str, coeff: AlgebraElement | None = None) -> DiffForm:
        if name not in FORMS:
            raise ValueError(f"unknown basis 1-form {name!r}")
        return self._single((name,), coeff if coeff is not None else self.algebra.one)

    def theta(self) -> DiffForm:
        one = self.algebra.one
        return DiffForm._of(self, 1, {("a",): one.num, ("d",): one.num},
                            [(("a",), one.nonzero()), (("d",), one.nonzero())])

    # -- bimodule commutation -----------------------------------------------------

    def commute_past(self, form: str, f: AlgebraElement) -> DiffForm:
        """e_form * f rewritten with all algebra coefficients moved to the left."""
        return self.wedge(self.basis_form(form), self.from_function(f))

    # -- wedge product ---------------------------------------------------------------

    def wedge(self, x: DiffForm, y: DiffForm) -> DiffForm:
        return self.wedge_sum([(x, y)])

    def wedge_sum(self, pairs: Iterable[tuple[DiffForm, DiffForm]]) -> DiffForm:
        """The sum of x ^ y over the pairs (x, y) of forms, over one denominator, reduced by one gcd."""
        pairs = list(pairs)
        for x, y in pairs:
            check_mode(self, x)
            check_mode(self, y)
        # x ^ y is num(x) ^ num(y) over den(x) den(y); the pairs are summed over the lcm of those
        den = lcm(*[x.den * y.den for x, y in pairs])
        return DiffForm._reduce(self, den, self._add_wedges({}, pairs, den))

    def _add_wedges(self, acc: dict, pairs: list, den: int) -> dict:
        """acc plus the sum of x ^ y over den, a multiple of each den(x) den(y): wedge_sum unreduced."""
        table, product, monomials = self.exterior._products, self.exterior.word_product, monomial_table()
        for x, y in pairs:
            f = den // (x.den * y.den)
            ys = y.nonzero() if f == 1 else [(w2, [(k, a * f, b * f) for k, a, b in coords])
                                             for w2, coords in y.nonzero()]
            # f1 e_w1 ^ g e_w2 = f1 (e_w1 g ^ e_w2): each term of the table entry of e_w1 m ^ e_w2
            # times the coefficient of m in g, then f1 times that, into {output word: numerator vector}
            for w1, xs in x.nonzero():
                rows = [(monomials[i], a, b) for i, a, b in xs]
                for w2, coords in ys:
                    slots = table.get((w1, w2)) or table.setdefault((w1, w2), [None] * DIM)
                    for k, c, e in coords:
                        # a zero entry is (), so an unfilled slot is told apart by None
                        for w, j, s, t in product(w1, k, w2) if (entry := slots[k]) is None else entry:
                            u, v = c * s - e * t, c * t + e * s
                            out = acc.get(w) or acc.setdefault(w, [0] * (2 * DIM))
                            # f1 times that term: add_products inlined, as a call per term
                            # costs about 5 % of a library_mixed pass
                            for row, a, b in rows:
                                r, negated = row[j]
                                if negated:
                                    out[r] -= a * u - b * v
                                    out[r + 1] -= a * v + b * u
                                else:
                                    out[r] += a * u - b * v
                                    out[r + 1] += a * v + b * u
        return acc

    # -- exterior derivative -----------------------------------------------------------

    def exterior_d(self, x: DiffForm) -> DiffForm:
        """Graded-commutator derivative: (theta ^ x - sigma(x) ^ theta) / mu.

        sigma is the grading automorphism: it negates the odd-degree terms.
        Linear over the scalars, so read off the tabulated images of the basis
        elements m e_w, each derived once by its two wedges with theta.
        """
        check_mode(self, x)
        # the stored images are the unnormalised mu d, and mu = 1 - q^-2 is 2 at q = +-i
        return DiffForm._reduce(self, 2 * x.den, self._add_d({}, x, 1))

    def _add_d(self, acc: dict, x: DiffForm, f: int) -> dict:
        """acc plus f times the unnormalised d(x) over den(x): exterior_d unreduced."""
        images, terms = self.exterior.d_images, []
        for w, coords in x.nonzero():
            slots = images.get(w) or images.setdefault(w, [None] * DIM)
            # a zero entry is (), so an unfilled slot is told apart by None
            terms += [(self._d_image(slots, k, w) if (e := slots[k]) is None else e, f * a, f * b)
                      for k, a, b in coords]
        return sum_entries(terms, acc)

    def _d_image(self, slots: list, k: int, w: WedgeWord) -> tuple:
        """The unnormalised d(m e_w) = theta ^ m e_w - sigma(m e_w) ^ theta, for m of index k.

        Stored at slots[k] as a flat table entry, the words of theta ^ m e_w first.  Its coefficients are
        Gaussian integers, as are those of every word product it sums; a non-integral pair rule raises there.
        """
        basis, sign = self._single(w, self.algebra.monomial(k >> 2, k & 3)), 1 if len(w) % 2 else -1
        num = self.wedge(self.theta(), basis).num
        for v, vec in self.wedge(basis, self.theta()).num.items():
            num[v] = [u + sign * t for u, t in zip(num[v], vec)] if v in num else [sign * t for t in vec]
        slots[k] = entry = tuple(chain.from_iterable((v, 2 * j, a, b) for v, vec in num.items()
                                                     for j, a, b in support(vec)))
        return entry

    def partials(self, f: AlgebraElement) -> dict[str, AlgebraElement]:
        """Unique left coefficients of d f on the basis 1-forms."""
        df = self.exterior_d(self.from_function(f))
        return {name: df.coefficient((name,)) for name in FORMS}

    def pi_tilde(self, f: AlgebraElement) -> dict[str, GaussianRational]:
        """Projection to invariant 1-forms: counit of each partial derivative."""
        parts = self.partials(f)
        return {name: parts[name].counit() for name in FORMS}

    def pi_tilde_matrix(self) -> list[list[GaussianRational]]:
        """4x16 matrix of pi_tilde over the monomial basis (rows: forms a..d)."""
        cols = [self.pi_tilde(self.algebra.monomial(p, r)) for p, r in basis_monomials()]
        return [[col[f] for col in cols] for f in FORMS]

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
