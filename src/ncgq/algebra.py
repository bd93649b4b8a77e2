"""The 16-dimensional reduced quantum algebra and its Hopf-type structure.

Basis monomials are a^p b^r with 0 <= p, r <= 3 in the order
1, b, b^2, b^3, a, a b, ..., a^3 b^3 (index 4p + r).  The defining rewriting
system is b a -> q^2 a b, a^4 -> 1, b^4 -> 1, with the two dependent
generators eliminated on input:

* delta := a^3 (1 + q^2 bstar b), which reduces to a^3,
* bstar := 0.

bstar := 0 is the unique normal form (within scalar multiples of the
reference column a^k b^3 shape) for which the counit and antipode axioms
close exactly on all 16 basis monomials; the reference right-translation
matrix instead encodes bstar = q^2 (a - 1) b^3, and hopf.relation_residuals()
reports every defining relation that the operational normal forms break.
The reference matrices stay the operative input of the spectral layer.

An element is one denominator den > 0 over Gaussian-integer numerators num,
with gcd(den, *num) == 1: 32 ints (Re, Im) by monomial index for an
AlgebraElement.  Tensors, forms and tensor forms share one layout, a KeyedSum:
{key: those 32 ints} over one denominator, keyed by left leg for a
TensorElement, by ordered word for a form (calculus.DiffForm) and by (right
leg, word) for a tensor form (riemannian.TensorForm).  Every map is a fixed
linear or bilinear map on that basis, so it sums plain ints over one
denominator and normalises its result by one gcd per value, never per
coefficient; GaussianRationals appear only in the .coeffs view.  Right
multiplication by x is a plain matrix of 16 row tuples, the shape in which
fixtures.printed_translation_matrices gives the reference matrices.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .scalars import ZERO, ONE, GaussianRational, gaussian, q_root

Monomial = tuple[int, int]  # (p, r): exponents of a and b

DIM = 16


def monomial_index(m: Monomial) -> int:
    return 4 * m[0] + m[1]


def basis_monomials() -> list[Monomial]:
    return [(p, r) for p in range(4) for r in range(4)]


def monomial_name(m: Monomial) -> str:
    p, r = m
    out = []
    if p:
        out.append("a" if p == 1 else f"a^{p}")
    if r:
        out.append("b" if r == 1 else f"b^{r}")
    return " ".join(out) if out else "1"


def monomial_product(m1: Monomial, m2: Monomial) -> tuple[Monomial, bool]:
    """a^p1 b^r1 * a^p2 b^r2 as (a^(p1+p2) b^(r1+r2), whether it is negated).

    b^r1 a^p2 = q^(2 r1 p2) a^p2 b^r1 = (-1)^(r1 p2) a^p2 b^r1, since q^2 = -1;
    a^4 = b^4 = 1.  This is the whole product of the twisted group algebra of Z4 x Z4.
    """
    (p1, r1), (p2, r2) = m1, m2
    return ((p1 + p2) & 3, (r1 + r2) & 3), bool(r1 * p2 & 1)


@lru_cache(maxsize=None)
def monomial_table() -> tuple[tuple[tuple[int, bool], ...], ...]:
    """m_i m_j = +-m_k as (2k, negated) at [i][j], for monomial indices i, j and k (4p + r).

    2k is the slot of m_k's real part in a numerator vector.  Read from monomial_product.
    """
    return tuple(tuple((2 * monomial_index(m), negated) for m, negated in
                       (monomial_product(m1, m2) for m2 in _MONOMIALS)) for m1 in _MONOMIALS)


def check_mode(x, y) -> None:
    """Raise ValueError unless x and y (anything with an .algebra) share one q mode."""
    if x.algebra.mode != y.algebra.mode:
        raise ValueError("mixed q modes in one expression")


_MONOMIALS = tuple(basis_monomials())
_MONOMIAL_SET = frozenset(_MONOMIALS)


class ScalarSum:
    """Finite sum of Q(i) coefficients over a fixed basis, in one q mode, over one denominator.

    The value is num / den: den > 0 and the Gaussian-integer numerators num
    are canonical, gcd(den, *num) == 1, so zero has den == 1 and equal values
    have equal (den, num).  A sum is a value: den and num never change after
    it is made.  Equality needs one q mode, and + raises ValueError on mixed
    modes.  An element's read-only view .coeffs gives {monomial: GaussianRational}
    (a form's .terms, {word: AlgebraElement}; a tensor form's, {leg: form}).
    """

    __slots__ = ("algebra", "den", "num", "_nonzero")  # _nonzero: the support nonzero() finds, kept

    @classmethod
    def _of(cls, algebra: "QuantumAlgebra", den: int, num, nonzero: list | None = None):
        """An instance holding num itself; (den, num) must be canonical, and nonzero its support or None."""
        out = object.__new__(cls)
        out.algebra, out.den, out.num, out._nonzero = algebra, den, num, nonzero
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.algebra.mode == other.algebra.mode and self.den == other.den
                and self.num == other.num)

    def __sub__(self, other):
        return self + (-other)


class AlgebraElement(ScalarSum):
    """Element of the reduced algebra: num holds (Re, Im) of monomial index k at slots 2k, 2k + 1."""

    __slots__ = ()

    def __init__(self, algebra: "QuantumAlgebra", coeffs: Mapping | None = None):
        """The element sum c * a^p b^r over {(p, r): GaussianRational c}."""
        items = [(4 * p + r, c.triple) for (p, r), c in coeffs.items()] if coeffs else ()
        den = lcm(*[t[2] for _, t in items])
        num = [0] * (2 * DIM)
        for k, (a, b, d) in items:
            num[2 * k], num[2 * k + 1] = a * (den // d), b * (den // d)
        self.algebra, self.den, self.num, self._nonzero = algebra, den, num, None

    @classmethod
    def _reduce(cls, algebra: "QuantumAlgebra", den: int, num: list) -> "AlgebraElement":
        """num / den, for any den > 0, brought to canonical form by one gcd over the nonzero slots."""
        g = gcd(den, *filter(None, num)) if den != 1 else 1
        if g != 1:
            den, num = den // g, [v // g for v in num]
        return cls._of(algebra, den, num)

    def nonzero(self) -> list[tuple[int, int, int]]:
        """support(self.num), found on first use: the terms that every kernel loops over."""
        if self._nonzero is None:
            self._nonzero = support(self.num)
        return self._nonzero

    @property
    def coeffs(self) -> dict[Monomial, GaussianRational]:
        """{monomial: coefficient} of the nonzero terms, built on each read."""
        return {_MONOMIALS[k]: gaussian(a, b, self.den) for k, a, b in self.nonzero()}

    def __bool__(self) -> bool:
        return any(self.num)

    def __hash__(self) -> int:
        return hash((self.algebra.mode, self.den, tuple(self.num)))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        check_mode(self, other)
        if self.den == other.den:
            return AlgebraElement._reduce(self.algebra, self.den,
                                          [u + v for u, v in zip(self.num, other.num)])
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return AlgebraElement._reduce(self.algebra, den,
                                      [u * f + v * g for u, v in zip(self.num, other.num)])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of(self.algebra, self.den, [-v for v in self.num])

    def scale(self, s: GaussianRational) -> "AlgebraElement":
        a, b, d = s.triple
        it = iter(self.num)
        return AlgebraElement._reduce(self.algebra, self.den * d, [
            v for c, e in zip(it, it) for v in (a * c - b * e, a * e + b * c)])

    def __repr__(self) -> str:
        return f"<{self}>"

    def __str__(self) -> str:
        coeffs = self.coeffs
        return " + ".join(f"({coeffs[m]})" + (f"*{monomial_name(m)}" if m != (0, 0) else "")
                          for m in sorted(coeffs, key=monomial_index)) or "0"

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        check_mode(self, other)
        out = [0] * (2 * DIM)
        add_products(out, self.nonzero(), other.nonzero())
        return AlgebraElement._reduce(self.algebra, self.den * other.den, out)

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers not supported; use explicit inverses")
        out = self.algebra.one
        for _ in range(n):
            out = out * self
        return out

    # -- conversions ------------------------------------------------------------

    def coords(self) -> list[GaussianRational]:
        it = iter(self.num)
        return [gaussian(a, b, self.den) if a or b else ZERO for a, b in zip(it, it)]

    def counit(self) -> GaussianRational:
        # the monomials a^p, at indices 4p, hold their real parts at slots 8p
        return gaussian(sum(self.num[0::8]), sum(self.num[1::8]), self.den)


class KeyedSum(ScalarSum):
    """One denominator over {key: 32-int numerator vector, laid out as an AlgebraElement's num}.

    Canonical as gcd(den, *every numerator) == 1 with no all-zero vector, so
    zero is den == 1 over {}.  The key is the left leg's monomial index for a
    TensorElement, the ordered word for a differential form, and (right leg,
    word) for a tensor form.  Every result is built as type(self) in the
    operand's _context: the algebra, or the calculus of a form.
    """

    __slots__ = ()

    @property
    def _context(self):
        """What _of and _reduce take first: the algebra; a form's calculus."""
        return self.algebra

    @classmethod
    def _reduce(cls, context, den: int, num: dict):
        """num / den, for any den > 0, without all-zero vectors and in lowest terms by one gcd."""
        return cls._lowest(context, den, {k: vec for k, vec in num.items() if any(vec)})

    @classmethod
    def _lowest(cls, context, den: int, num: dict):
        """num / den, for any den > 0 and num without all-zero vectors, in lowest terms by one gcd
        over the nonzero slots."""
        g = den
        for vec in num.values():
            if g == 1:
                break
            g = gcd(g, *filter(None, vec))
        if g != 1:
            den, num = den // g, {k: [v // g for v in vec] for k, vec in num.items()}
        return cls._of(context, den, num)

    def nonzero(self) -> list[tuple]:
        """[(key, support of its numerator vector)], found on first use: what the kernels loop over."""
        if self._nonzero is None:
            self._nonzero = [(k, support(vec)) for k, vec in self.num.items()]
        return self._nonzero

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        check_mode(self, other)
        den = self.den if self.den == other.den else lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        num = dict(self.num) if f == 1 else {k: [v * f for v in vec] for k, vec in self.num.items()}
        # a support other keeps, in the order of its keys, adds only its nonzero slots
        coords = other._nonzero if g == 1 else None
        shared = False
        for n, (k, vec) in enumerate(other.num.items()):
            mine = num.get(k)
            if mine is None:
                num[k] = vec if g == 1 else [v * g for v in vec]
                continue
            shared = True
            if coords is not None:
                out = mine[:]
                for j, a, b in coords[n][1]:
                    out[2 * j] += a
                    out[2 * j + 1] += b
            else:
                out = list(map(add, mine, vec)) if g == 1 else [u + v * g for u, v in zip(mine, vec)]
            if any(out):
                num[k] = out
            else:
                del num[k]
        # keys in one summand only are canonical over the lcm as they stand
        return self._lowest(self._context, den, num) if shared else self._of(self._context, den, num)

    def __neg__(self):
        return self._of(self._context, self.den, {k: [-v for v in vec] for k, vec in self.num.items()})

    def scale(self, s: GaussianRational):
        a, b, d = s.triple
        num = {}
        for k, vec in self.num.items():
            it = iter(vec)
            num[k] = [v for c, e in zip(it, it) for v in (a * c - b * e, a * e + b * c)]
        return self._reduce(self._context, self.den * d, num)


class TensorElement(KeyedSum):
    """Element of the 256-dimensional two-fold tensor square of the algebra.

    A KeyedSum by left leg: num[i] is the numerator vector of the right legs
    of the terms m_i (x) m_j, by monomial index.
    """

    __slots__ = ()

    def __init__(self, algebra: "QuantumAlgebra", coeffs: Mapping | None = None):
        """The sum c * m1 (x) m2 over {(m1, m2): GaussianRational c}."""
        items = [(4 * p + r, 4 * s + t, c.triple)
                 for ((p, r), (s, t)), c in coeffs.items() if c] if coeffs else ()
        den = lcm(*[t[2] for _, _, t in items])
        num: dict = {}
        for i, j, (a, b, d) in items:
            vec = num.get(i) or num.setdefault(i, [0] * (2 * DIM))
            vec[2 * j], vec[2 * j + 1] = a * (den // d), b * (den // d)
        self.algebra, self.den, self.num, self._nonzero = algebra, den, num, None

    @classmethod
    def pure(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        ys, num = y.nonzero(), {}
        for i, a, b in x.nonzero():
            # (a + b*i) m_0 = a + b*i, so this adds the scalar times y
            add_products(num.setdefault(i, [0] * (2 * DIM)), ((0, a, b),), ys)
        return cls._reduce(x.algebra, x.den * y.den, num)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        check_mode(self, other)
        products, num = monomial_table(), {}
        zs = other.nonzero()
        for i1, ys in self.nonzero():
            row, negated_ys = products[i1], [(j, -a, -b) for j, a, b in ys]
            for i2, vs in zs:
                s, negated = row[i2]
                add_products(num.get(s >> 1) or num.setdefault(s >> 1, [0] * (2 * DIM)),
                             negated_ys if negated else ys, vs)
        return TensorElement._reduce(self.algebra, self.den * other.den, num)


class QuantumAlgebra:
    """Context object fixing the q mode and owning the generator normal forms."""

    def __init__(self, mode: str = "i"):
        if mode not in ("i", "-i"):
            raise ValueError("the reduced algebra exists only at q = i or q = -i")
        self.mode = mode
        self.q = q_root(mode)
        self.q2 = self.q * self.q  # equals -1 in both modes
        self.mu = ONE - (self.q * self.q).inverse()  # 1 - q^-2 = 2 at q = +/-i
        self.zero = AlgebraElement(self)
        self.one, self.alpha, self.beta = self.monomial(0, 0), self.monomial(1, 0), self.monomial(0, 1)
        # dependent generators, eliminated on input (see module docstring)
        self.beta_star = AlgebraElement(self)
        self.delta = self.monomial(3, 0)
        # reference normal form encoded by the printed translation matrix
        self.beta_star_reference = AlgebraElement(
            self, {(1, 3): self.q2, (0, 3): -self.q2}
        )

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Mapping[Monomial, GaussianRational]) -> AlgebraElement:
        """The element sum c * a^p b^r; every key must be a normal-form (p, r), 0 <= p, r <= 3."""
        for key in coeffs:
            if not (type(key) is tuple and key in _MONOMIAL_SET and type(key[0]) is type(key[1]) is int):
                raise ValueError(f"not a normal-form monomial (p, r) with 0 <= p, r <= 3: {key!r}")
        return AlgebraElement(self, coeffs)

    def scalar(self, s: GaussianRational) -> AlgebraElement:
        return AlgebraElement(self, {(0, 0): s})

    def monomial(self, p: int, r: int) -> AlgebraElement:
        k, num = 4 * (p % 4) + r % 4, [0] * (2 * DIM)
        num[2 * k] = 1
        return AlgebraElement._of(self, 1, num, [(k, 1, 0)])

    def from_coords(self, v: Sequence[GaussianRational]) -> AlgebraElement:
        if len(v) != DIM:
            raise ValueError(f"expected {DIM} coordinates, got {len(v)}")
        return AlgebraElement(self, {m: v[monomial_index(m)] for m in basis_monomials()})

    def generator(self, name: str) -> AlgebraElement:
        try:
            return {"alpha": self.alpha, "beta": self.beta,
                    "beta_star": self.beta_star, "delta": self.delta}[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    # -- Hopf-type structure ----------------------------------------------------

    def coproduct(self, x: AlgebraElement) -> TensorElement:
        """Delta x, read from the per-mode table of the 16 monomial images."""
        from .hopf import coproduct_table

        return TensorElement._reduce(self, x.den, _apply_images(coproduct_table(self.mode), x))

    def antipode_on_generator(self, name: str) -> AlgebraElement:
        return {
            "alpha": self.delta,
            "delta": self.alpha,
            "beta": self.beta.scale(-self.q2),
            "beta_star": self.beta_star.scale(-(self.q2.inverse())),
        }[name]

    def antipode(self, x: AlgebraElement) -> AlgebraElement:
        """Anti-multiplicative extension of the generator values, read from the per-mode table.

        S is its own inverse: S(a) = a^3 and S(b) = b, so S^2 fixes both generators."""
        from .hopf import antipode_table

        acc = _apply_images(antipode_table(self.mode), x)
        return AlgebraElement._reduce(self, x.den, acc.get(0) or [0] * (2 * DIM))

    def antipode_axiom_defect(self, x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
        """Both convolution identities minus eps(x)*1, read from the per-mode table of the 16
        monomial images; exact zeros when the axiom holds."""
        from .hopf import antipode_defect_table

        acc = _apply_images(antipode_defect_table(self.mode), x)
        return (AlgebraElement._reduce(self, x.den, acc.get(0) or [0] * (2 * DIM)),
                AlgebraElement._reduce(self, x.den, acc.get(1) or [0] * (2 * DIM)))

    # -- translation operators -----------------------------------------------

    def right_multiplication_matrix(self, x: AlgebraElement) -> tuple[tuple[GaussianRational, ...], ...]:
        """The matrix of f -> f x as 16 row tuples: column j holds monomial_j * x."""
        cols = [(self.monomial(p, r) * x).coords() for (p, r) in basis_monomials()]
        return tuple(zip(*cols))

    def translation_matrix(self, name: str) -> tuple[tuple[GaussianRational, ...], ...]:
        return self.right_multiplication_matrix(self.generator(name))

    # -- generator matrix -------------------------------------------------------

    def generator_matrix(self) -> list[list[AlgebraElement]]:
        return [[self.alpha, self.beta], [self.beta_star, self.delta]]


# -- numerator vectors: each map sums plain ints over one denominator --------------------


def support(num: list) -> list[tuple[int, int, int]]:
    """[(k, A, B)] for each monomial index k whose numerator A + B*i in num is nonzero."""
    it = iter(num)
    return [(k, a, b) for k, a, b in zip(range(DIM), it, it) if a or b]


def add_products(out: list, xs: Iterable, ys: list) -> None:
    """out += x * y, for x and y given by their supports xs and ys (see support)."""
    products = monomial_table()
    for i, a, b in xs:
        row = products[i]
        for j, c, e in ys:
            s, negated = row[j]
            if negated:
                out[s] -= a * c - b * e
                out[s + 1] -= a * e + b * c
            else:
                out[s] += a * c - b * e
                out[s + 1] += a * e + b * c


# -- tables of basis images ------------------------------------------------------------


def table_entry(num: Mapping) -> tuple:
    """{key: numerator vector} as one flat table entry (key, s, A, B, key, s, A, B, ...).

    Each nonzero numerator A + B*i of a key's vector is at the slot s = 2k of its monomial index k;
    the zero entry is ().  sum_entries reads it.
    """
    return tuple(v for key, vec in num.items() for k, a, b in support(vec) for v in (key, 2 * k, a, b))


def sum_entries(terms: Iterable[tuple], acc: dict) -> dict:
    """acc plus the sum of (c + e*i) * entry over the (entry, c, e) in terms, as {key: numerator vector}."""
    for entry, c, e in terms:
        it = iter(entry)
        for key, k, s, t in zip(it, it, it, it):
            out = acc.get(key) or acc.setdefault(key, [0] * (2 * DIM))
            out[k] += c * s - e * t
            out[k + 1] += c * t + e * s
    return acc


def _apply_images(images: tuple, x: AlgebraElement) -> dict:
    """The linear map whose image of monomial index k is images[k], on x's numerators (over x.den)."""
    return sum_entries([(images[k], a, b) for k, a, b in x.nonzero()], {})
