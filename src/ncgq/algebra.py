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
matrix instead encodes bstar = q^2 (a - 1) b^3, and audit_relations()
reports every defining relation that the operational normal forms break.
The reference matrices stay the operative input of the spectral layer.

An element is one denominator den > 0 over Gaussian-integer numerators num,
with gcd(den, *num) == 1: 32 ints (Re, Im) by monomial index for an
AlgebraElement.  Every map is a fixed linear or bilinear map on that basis,
so it sums plain ints over one denominator and normalises its result by one
gcd per element; GaussianRationals appear only in the .coeffs view.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from .fixtures import TranslationMatrix
from .scalars import ZERO, ONE, GaussianRational, format_gaussian, gaussian, parse_gaussian, q_root

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
_MONOMIALS_BY_NAME = {monomial_name(m): m for m in _MONOMIALS}


class ScalarSum:
    """Finite sum of Q(i) coefficients over a fixed basis, in one q mode, over one denominator.

    The value is num / den: den > 0 and the Gaussian-integer numerators num
    are canonical, gcd(den, *num) == 1, so zero has den == 1 and equal values
    have equal (den, num).  A sum is a value: den and num never change after
    it is made.  Equality needs one q mode, and + raises ValueError on mixed
    modes.  The read-only view .coeffs gives {basis key: GaussianRational}.
    """

    __slots__ = ("algebra", "den", "num", "_nonzero")  # _nonzero: AlgebraElement.nonzero(), kept

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
        """num / den, for any den > 0, brought to canonical form by one gcd."""
        g = gcd(den, *num) if den != 1 else 1
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

    def left_multiply(self, g: "AlgebraElement") -> "AlgebraElement":
        return g * self

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

    def to_json(self) -> list[dict]:
        """Wire format: [{"monomial": "a^p b^r", "coeff": scalar-string}, ...]."""
        coeffs = self.coeffs
        return [{"monomial": monomial_name(m), "coeff": format_gaussian(coeffs[m])}
                for m in sorted(coeffs, key=monomial_index)]

    def counit(self) -> GaussianRational:
        # the monomials a^p, at indices 4p, hold their real parts at slots 8p
        return gaussian(sum(self.num[0::8]), sum(self.num[1::8]), self.den)


class TensorElement(ScalarSum):
    """Element of the 256-dimensional two-fold tensor square of the algebra.

    num is {(i, j): [A, B]}: the nonzero numerator A + B*i of m_i (x) m_j, by monomial index.
    """

    __slots__ = ()

    def __init__(self, algebra: "QuantumAlgebra", coeffs: Mapping | None = None):
        """The sum c * m1 (x) m2 over {(m1, m2): GaussianRational c}."""
        items = [(4 * p + r, 4 * s + t, c.triple)
                 for ((p, r), (s, t)), c in coeffs.items() if c] if coeffs else ()
        den = lcm(*[t[2] for _, _, t in items])
        self.algebra, self.den, self.num = algebra, den, {
            (i, j): [a * (den // d), b * (den // d)] for i, j, (a, b, d) in items}

    @classmethod
    def _reduce(cls, algebra: "QuantumAlgebra", den: int, num: dict) -> "TensorElement":
        """num / den, for any den > 0, without zero terms and brought to canonical form by one gcd."""
        num = {k: ab for k, ab in num.items() if ab[0] or ab[1]}
        g = gcd(den, *chain.from_iterable(num.values())) if den != 1 else 1
        if g != 1:
            den, num = den // g, {k: [a // g, b // g] for k, (a, b) in num.items()}
        return cls._of(algebra, den, num)

    @property
    def coeffs(self) -> dict[tuple[Monomial, Monomial], GaussianRational]:
        """{(m1, m2): coefficient} of the nonzero terms, built on each read."""
        return {(_MONOMIALS[i], _MONOMIALS[j]): gaussian(a, b, self.den)
                for (i, j), (a, b) in self.num.items()}

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        check_mode(self, other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        num = {k: [a * f, b * f] for k, (a, b) in self.num.items()}
        for k, (a, b) in other.num.items():
            _add(num, k, a * g, b * g)
        return TensorElement._reduce(self.algebra, den, num)

    def __neg__(self) -> "TensorElement":
        return TensorElement._of(self.algebra, self.den, {k: [-a, -b] for k, (a, b) in self.num.items()})

    def scale(self, s: GaussianRational) -> "TensorElement":
        a, b, d = s.triple
        return TensorElement._reduce(self.algebra, self.den * d, {
            k: [a * c - b * e, a * e + b * c] for k, (c, e) in self.num.items()})

    @classmethod
    def pure(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        ys = y.nonzero()
        return cls._reduce(x.algebra, x.den * y.den, {
            (i, j): [a * c - b * e, a * e + b * c] for i, a, b in x.nonzero() for j, c, e in ys})

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        check_mode(self, other)
        products = monomial_table()
        ys = [(i, j, c, e) for (i, j), (c, e) in other.num.items()]
        num: dict = {}
        for (i1, j1), (a, b) in self.num.items():
            row_x, row_y = products[i1], products[j1]
            for i2, j2, c, e in ys:
                sx, neg_x = row_x[i2]
                sy, neg_y = row_y[j2]
                u, v = a * c - b * e, a * e + b * c
                if neg_x != neg_y:
                    u, v = -u, -v
                _add(num, (sx >> 1, sy >> 1), u, v)
        return TensorElement._reduce(self.algebra, self.den * other.den, num)

    def apply(self, f_left: Callable[[AlgebraElement], AlgebraElement] | None,
              f_right: Callable[[AlgebraElement], AlgebraElement] | None) -> "TensorElement":
        """Apply linear maps to the tensor factors (None = identity)."""
        alg = self.algebra
        # (den, support) of f_left(m_i) and f_right(m_j), for each left index i and right index j
        images = {}
        for side, f in ((0, f_left), (1, f_right)):
            for k in {key[side] for key in self.num}:
                x = f(alg.monomial(k >> 2, k & 3)) if f else None
                images[side, k] = (x.den, x.nonzero()) if f else (1, [(k, 1, 0)])
        # summed over the lcm of the products of their denominators
        den = lcm(*{images[0, i][0] * images[1, j][0] for i, j in self.num})
        num: dict = {}
        for (i, j), (c, e) in self.num.items():
            (dx, xs), (dy, ys) = images[0, i], images[1, j]
            f = den // (dx * dy)
            for k, s, t in xs:
                u, v = f * (c * s - e * t), f * (c * t + e * s)
                for m, g, h in ys:
                    _add(num, (k, m), u * g - v * h, u * h + v * g)
        return TensorElement._reduce(alg, self.den * den, num)

    def multiply_out(self) -> AlgebraElement:
        """Collapse x (x) y -> x*y."""
        products = monomial_table()
        out = [0] * (2 * DIM)
        for (i, j), (a, b) in self.num.items():
            s, negated = products[i][j]
            out[s] += -a if negated else a
            out[s + 1] += -b if negated else b
        return AlgebraElement._reduce(self.algebra, self.den, out)


def _add(num: dict, key, u: int, v: int) -> None:
    """num[key] += u + v*i, for num {key: [A, B]}."""
    t = num.setdefault(key, [0, 0])
    t[0] += u
    t[1] += v


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

    def from_json(self, items: Iterable[Mapping[str, str]]) -> AlgebraElement:
        coeffs: dict[Monomial, GaussianRational] = {}
        for item in items:
            name = item["monomial"]
            key = _MONOMIALS_BY_NAME.get(name) if isinstance(name, str) else None
            if key is None:
                raise ValueError(f"not a normal-form monomial name: {item!r}")
            coeffs[key] = coeffs.get(key, ZERO) + parse_gaussian(item["coeff"])
        return AlgebraElement(self, coeffs)

    def generator(self, name: str) -> AlgebraElement:
        try:
            return {"alpha": self.alpha, "beta": self.beta,
                    "beta_star": self.beta_star, "delta": self.delta}[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def normalize(self, word: Iterable[str], scalar: GaussianRational = ONE) -> AlgebraElement:
        """Normal form of scalar * (product of generator letters)."""
        out = self.scalar(scalar)
        for letter in word:
            out = out * self.generator(letter)
        return out

    # -- Hopf-type structure ----------------------------------------------------

    def coproduct(self, x: AlgebraElement) -> TensorElement:
        """Delta x, read from the per-mode table of the 16 monomial images."""
        acc = _apply_images(coproduct_table(self.mode), x)
        return TensorElement._reduce(self, x.den, {(i, j): [a, b] for i, row in acc.items()
                                                   for j, a, b in support(row)})

    def counit(self, x: AlgebraElement) -> GaussianRational:
        return x.counit()

    def antipode_on_generator(self, name: str) -> AlgebraElement:
        return {
            "alpha": self.delta,
            "delta": self.alpha,
            "beta": self.beta.scale(-self.q2),
            "beta_star": self.beta_star.scale(-(self.q2.inverse())),
        }[name]

    def antipode(self, x: AlgebraElement) -> AlgebraElement:
        """Anti-multiplicative extension of the generator values, read from the per-mode table."""
        acc = _apply_images(antipode_table(self.mode), x)
        return AlgebraElement._reduce(self, x.den, acc.get(0) or [0] * (2 * DIM))

    def inverse_antipode(self, x: AlgebraElement) -> AlgebraElement:
        """S^-1 x = S x: S(a) = a^3 and S(b) = b, so S^2 fixes both generators and S is involutive."""
        return self.antipode(x)

    def antipode_axiom_defect(self, x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
        """Both convolution identities minus eps(x)*1; exact zeros when the axiom holds."""
        target = self.scalar(x.counit())
        dx = self.coproduct(x)
        left = dx.apply(self.antipode, None).multiply_out() - target
        right = dx.apply(None, self.antipode).multiply_out() - target
        return left, right

    # -- translation operators -----------------------------------------------

    def right_multiplication_matrix(self, x: AlgebraElement) -> TranslationMatrix:
        cols = [(self.monomial(p, r) * x).coords() for (p, r) in basis_monomials()]
        entries = tuple(tuple(cols[j][i] for j in range(DIM)) for i in range(DIM))
        return TranslationMatrix(entries=entries)

    def translation_matrix(self, name: str) -> TranslationMatrix:
        return self.right_multiplication_matrix(self.generator(name))

    # -- generator matrix -------------------------------------------------------

    def generator_matrix(self) -> list[list[AlgebraElement]]:
        return [[self.alpha, self.beta], [self.beta_star, self.delta]]

    # -- relation audit -----------------------------------------------------------

    def relation_residuals(self) -> dict[str, AlgebraElement]:
        """Residual (lhs - rhs) of each defining relation under the operational normal forms."""
        bs, dl = self.beta_star, self.delta
        a, b, mu = self.alpha, self.beta, self.mu
        q2 = self.q2
        return {
            "b a = q^2 a b": b * a - (a * b).scale(q2),
            "delta a = a delta": dl * a - a * dl,
            "[b, bstar] = mu a (delta - a)": (b * bs - bs * b) - (a * (dl - a)).scale(mu),
            "[delta, b] = mu a b": (dl * b - b * dl) - (a * b).scale(mu),
            "a delta - q^2 bstar b = 1": a * dl - (bs * b).scale(q2) - self.one,
            "a^4 = 1": self.alpha ** 4 - self.one,
            "delta^4 = 1": dl ** 4 - self.one,
            "b^4 = bstar^4": self.beta ** 4 - bs ** 4,
        }


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


def flat_entry(coeffs: Mapping, name: str) -> tuple:
    """{(key, monomial): coefficient} as one flat table entry (key, s, A, B, key, s, A, B, ...).

    Each nonzero coefficient is the Gaussian integer A + B*i, at the slot s = 2k of its monomial
    index k in the numerator vector of its key; the zero entry is ().  At q = +-i every rule
    coefficient (q, q^-1, q^2 = -1, mu = 2) is one, so a fraction raises ValueError naming the entry.
    """
    entry = []
    for (key, m), c in coeffs.items():
        a, b, d = c.triple
        if d != 1:
            raise ValueError(f"table entry {name} has the non-integral coefficient {format_gaussian(c)} "
                             f"at {key!r}, {monomial_name(m)}")
        if a or b:
            entry += (key, 2 * monomial_index(m), a, b)
    return tuple(entry)


def sum_entries(terms: Iterable[tuple]) -> dict:
    """The sum of (c + e*i) * entry over the (entry, c, e) in terms, as {key: numerator vector}."""
    acc: dict = {}
    for entry, c, e in terms:
        it = iter(entry)
        for key, k, s, t in zip(it, it, it, it):
            out = acc.get(key) or acc.setdefault(key, [0] * (2 * DIM))
            out[k] += c * s - e * t
            out[k + 1] += c * t + e * s
    return acc


def _apply_images(images: tuple, x: AlgebraElement) -> dict:
    """The linear map whose image of monomial index k is images[k], on x's numerators (over x.den)."""
    return sum_entries([(images[k], a, b) for k, a, b in x.nonzero()])


@lru_cache(maxsize=None)
def coproduct_table(mode: str) -> tuple[tuple, ...]:
    """Delta(a^p b^r) = Delta(a)^p Delta(b)^r at index 4p + r, as flat entries keyed by left index i.

    The slots of key i hold the right legs m_j of the terms m_i (x) m_j.

    Built once per q mode on first use; shared, so never mutate it.
    """
    alg = QuantumAlgebra(mode)
    da = TensorElement.pure(alg.alpha, alg.alpha) + TensorElement.pure(alg.beta, alg.beta_star)
    db = TensorElement.pure(alg.alpha, alg.beta) + TensorElement.pure(alg.beta, alg.delta)
    unit = TensorElement.pure(alg.one, alg.one)
    images = []
    for p, r in basis_monomials():
        term = unit
        for _ in range(p):
            term = term * da
        for _ in range(r):
            term = term * db
        images.append(flat_entry({(monomial_index(m1), m2): c for (m1, m2), c in term.coeffs.items()},
                                 f"Delta({monomial_name((p, r))})"))
    return tuple(images)


@lru_cache(maxsize=None)
def antipode_table(mode: str) -> tuple[tuple, ...]:
    """S(a^p b^r) = S(b)^r S(a)^p at index 4p + r, as flat entries under the one key 0.

    Built once per q mode on first use; shared, so never mutate it.
    """
    alg = QuantumAlgebra(mode)
    s_a = alg.antipode_on_generator("alpha")
    s_b = alg.antipode_on_generator("beta")
    images = []
    for p, r in basis_monomials():
        term = alg.one
        for _ in range(r):  # reversed word
            term = term * s_b
        for _ in range(p):
            term = term * s_a
        images.append(flat_entry({(0, m): c for m, c in term.coeffs.items()}, f"S({monomial_name((p, r))})"))
    return tuple(images)
