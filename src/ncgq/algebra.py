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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import linalg
from .scalars import ZERO, ONE, GaussianRational, from_numerators, numerators, q_root

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
def monomial_table() -> tuple[tuple[tuple[Monomial, bool], ...], ...]:
    """monomial_product(m_i, m_j) at [i][j], for monomial indices i and j (4p + r).

    Read from monomial_product on first use, so the sign law is stated once.
    """
    monomials = basis_monomials()
    return tuple(tuple(monomial_product(m1, m2) for m2 in monomials) for m1 in monomials)


def check_mode(x, y) -> None:
    """Raise ValueError unless x and y (anything with an .algebra) share one q mode."""
    if x.algebra.mode != y.algebra.mode:
        raise ValueError("mixed q modes in one expression")


_MONOMIALS_BY_NAME = {monomial_name(m): m for m in basis_monomials()}


class ScalarSum:
    """Finite sum of Q(i) coefficients over a fixed basis, in one q mode.

    The linear structure shared by algebra and tensor elements: zero terms are
    pruned on construction, equality needs one q mode, and + raises ValueError
    on mixed modes.  A sum is a value: its coefficients never change after it
    is made, so the numerators the kernels read are computed once.
    """

    __slots__ = ("algebra", "coeffs", "_num")

    def __init__(self, algebra: "QuantumAlgebra", coeffs: Mapping | None = None):
        self.algebra = algebra
        self.coeffs = {k: c for k, c in coeffs.items() if c} if coeffs else {}
        self._num = None

    @classmethod
    def _of(cls, algebra: "QuantumAlgebra", coeffs: dict):
        """An instance holding coeffs itself, which must have no zero coefficient."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.coeffs = coeffs
        out._num = None
        return out

    def numerators(self) -> tuple[list, int]:
        """scalars.numerators of the coefficients, computed on first use."""
        if self._num is None:
            self._num = numerators(self.coeffs)
        return self._num

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.algebra.mode == other.algebra.mode and self.coeffs == other.coeffs

    def __add__(self, other):
        check_mode(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(self.algebra, out)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s: GaussianRational):
        return type(self)(self.algebra, {k: s * c for k, c in self.coeffs.items()})


class AlgebraElement(ScalarSum):
    """Element of the reduced algebra as a sparse coefficient map over monomials."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"<{self}>"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs, key=monomial_index):
            c = self.coeffs[m]
            name = monomial_name(m)
            if name == "1":
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*{name}")
        return " + ".join(parts)

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        check_mode(self, other)
        products = monomial_table()
        xs, dx = self.numerators()
        ys, dy = other.numerators()
        acc: dict = {}
        terms = [(acc, 4 * p + r, c, e) for (p, r), c, e in ys]
        for (p, r), a, b in xs:
            add_products(terms, products[4 * p + r], a, b)
        return AlgebraElement._of(self.algebra, from_numerators(acc, dx * dy))

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers not supported; use explicit inverses")
        out = self.algebra.one
        for _ in range(n):
            out = out * self
        return out

    # -- conversions ------------------------------------------------------------

    def coords(self) -> list[GaussianRational]:
        v = [ZERO] * DIM
        for m, c in self.coeffs.items():
            v[monomial_index(m)] = c
        return v

    def to_json(self) -> list[dict]:
        """Wire format: [{"monomial": "a^p b^r", "coeff": scalar-string}, ...]."""
        from .scalars import format_gaussian

        return [
            {"monomial": monomial_name(m), "coeff": format_gaussian(self.coeffs[m])}
            for m in sorted(self.coeffs, key=monomial_index)
        ]

    def counit(self) -> GaussianRational:
        out = ZERO
        for (p, r), c in self.coeffs.items():
            if r == 0:
                out = out + c
        return out


class TensorElement(ScalarSum):
    """Element of the 256-dimensional two-fold tensor square of the algebra."""

    __slots__ = ()

    @classmethod
    def pure(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        # each (m1, m2) occurs once, so no coefficient needs summing
        xs, dx = x.numerators()
        ys, dy = y.numerators()
        acc = {(m1, m2): (a * c - b * e, a * e + b * c) for m1, a, b in xs for m2, c, e in ys}
        return cls._of(x.algebra, from_numerators(acc, dx * dy))

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        check_mode(self, other)
        products = monomial_table()
        xs, dx = self.numerators()
        ys, dy = other.numerators()
        ys = [(4 * p2 + r2, 4 * s2 + t2, c, e) for ((p2, r2), (s2, t2)), c, e in ys]
        acc: dict = {}
        for ((p1, r1), (s1, t1)), a, b in xs:
            row_x, row_y = products[4 * p1 + r1], products[4 * s1 + t1]
            for jx, jy, c, e in ys:
                mx, neg_x = row_x[jx]
                my, neg_y = row_y[jy]
                u, v = a * c - b * e, a * e + b * c
                if neg_x != neg_y:
                    u, v = -u, -v
                _add(acc, (mx, my), u, v)
        return TensorElement._of(self.algebra, from_numerators(acc, dx * dy))

    def apply(self, f_left: Callable[[AlgebraElement], AlgebraElement] | None,
              f_right: Callable[[AlgebraElement], AlgebraElement] | None) -> "TensorElement":
        """Apply linear maps to the tensor factors (None = identity)."""
        alg = self.algebra
        ts, dt = self.numerators()
        left = {m: _image(alg, f_left, m) for m in {mx for (mx, _), _, _ in ts}}
        right = {m: _image(alg, f_right, m) for m in {my for (_, my), _, _ in ts}}
        scale = lcm(*{left[mx][1] * right[my][1] for (mx, my), _, _ in ts})
        acc: dict = {}
        for (mx, my), c, e in ts:
            (xs, dx), (ys, dy) = left[mx], right[my]
            f = scale // (dx * dy)
            for m1, s, t in xs:
                u, v = f * (c * s - e * t), f * (c * t + e * s)
                for m2, g, h in ys:
                    _add(acc, (m1, m2), u * g - v * h, u * h + v * g)
        return TensorElement._of(alg, from_numerators(acc, dt * scale))

    def multiply_out(self) -> AlgebraElement:
        """Collapse x (x) y -> x*y."""
        products = monomial_table()
        ts, d = self.numerators()
        acc: dict = {}
        for ((p, r), (s, t)), a, b in ts:
            m, negated = products[4 * p + r][4 * s + t]
            if negated:
                a, b = -a, -b
            _add(acc, m, a, b)
        return AlgebraElement._of(self.algebra, from_numerators(acc, d))


@dataclass(frozen=True)
class TranslationMatrix:
    """16x16 matrix of right multiplication: column j holds monomial_j * g."""

    entries: tuple  # tuple of 16 row-tuples of GaussianRational

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        return self.entries[ij[0]][ij[1]]

    def rows(self) -> list[list[GaussianRational]]:
        return [list(r) for r in self.entries]


class SingularAntipode(ValueError):
    pass


class QuantumAlgebra:
    """Context object fixing the q mode and owning the generator normal forms."""

    def __init__(self, mode: str = "i"):
        if mode not in ("i", "-i"):
            raise ValueError("the reduced algebra exists only at q = i or q = -i")
        self.mode = mode
        self.q = q_root(mode)
        self.q2 = self.q * self.q  # equals -1 in both modes
        self.mu = ONE - (self.q * self.q).inverse()  # 1 - q^-2 = 2 at q = +/-i
        self.zero = AlgebraElement(self, {})
        self.one = AlgebraElement(self, {(0, 0): ONE})
        self.alpha = AlgebraElement(self, {(1, 0): ONE})
        self.beta = AlgebraElement(self, {(0, 1): ONE})
        # dependent generators, eliminated on input (see module docstring)
        self.beta_star = AlgebraElement(self, {})
        self.delta = AlgebraElement(self, {(3, 0): ONE})
        # reference normal form encoded by the printed translation matrix
        self.beta_star_reference = AlgebraElement(
            self, {(1, 3): self.q2, (0, 3): -self.q2}
        )
        self._antipode_matrix: list[list[GaussianRational]] | None = None
        self._antipode_inverse: list[list[GaussianRational]] | None = None

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Mapping[Monomial, GaussianRational]) -> AlgebraElement:
        """The element sum c * a^p b^r; every key must be a normal-form (p, r), 0 <= p, r <= 3."""
        for key in coeffs:
            if not (type(key) is tuple and len(key) == 2 and all(type(x) is int and 0 <= x <= 3
                                                                  for x in key)):
                raise ValueError(f"not a normal-form monomial (p, r) with 0 <= p, r <= 3: {key!r}")
        return AlgebraElement(self, coeffs)

    def scalar(self, s: GaussianRational) -> AlgebraElement:
        return AlgebraElement(self, {(0, 0): s})

    def monomial(self, p: int, r: int) -> AlgebraElement:
        return AlgebraElement(self, {(p % 4, r % 4): ONE})

    def from_coords(self, v: Sequence[GaussianRational]) -> AlgebraElement:
        if len(v) != DIM:
            raise ValueError(f"expected {DIM} coordinates, got {len(v)}")
        return AlgebraElement(self, {m: v[monomial_index(m)] for m in basis_monomials()})

    def from_json(self, items: Iterable[Mapping[str, str]]) -> AlgebraElement:
        from .scalars import parse_gaussian

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
        return TensorElement._of(self, _apply_images(coproduct_table(self.mode), x))

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
        return AlgebraElement._of(self, _apply_images(antipode_table(self.mode), x))

    def _antipode_matrices(self) -> tuple[list[list[GaussianRational]], list[list[GaussianRational]]]:
        if self._antipode_matrix is None:
            cols = [self.antipode(self.monomial(p, r)).coords() for (p, r) in basis_monomials()]
            mat = [[cols[j][i] for j in range(DIM)] for i in range(DIM)]
            try:
                inv = linalg.invert(mat, ONE, ZERO)
            except ValueError as exc:
                raise SingularAntipode("computed antipode matrix is singular") from exc
            self._antipode_matrix = mat
            self._antipode_inverse = inv
        return self._antipode_matrix, self._antipode_inverse

    def inverse_antipode(self, x: AlgebraElement) -> AlgebraElement:
        _, inv = self._antipode_matrices()
        return self.from_coords(linalg.mat_apply(inv, x.coords(), ZERO))

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


# -- fraction-free accumulation ---------------------------------------------------------
#
# Each map brings its inputs to Gaussian-integer numerators over one common
# denominator (scalars.numerators) and sums plain ints into an accumulator
# {key: [A, B]}, read as (A + B*i)/d for the d its kernel keeps; only the
# nonzero output coordinates are then normalised, one gcd each.


def _add(acc: dict, key, u: int, v: int) -> None:
    """acc[key] += u + v*i."""
    t = acc.get(key)
    if t is None:
        acc[key] = [u, v]
    else:
        t[0] += u
        t[1] += v


def add_products(terms: list, row: tuple, a: int, b: int) -> None:
    """out[m] += (a + b*i)(c + e*i) for each (out, j, c, e), where m_i m_j = +-m.

    row = monomial_table()[i] for the left monomial m_i, so row[j] = (m, negated).
    """
    for out, j, c, e in terms:
        m, negated = row[j]
        u, v = a * c - b * e, a * e + b * c
        if negated:
            u, v = -u, -v
        t = out.get(m)
        if t is None:
            out[m] = [u, v]
        else:
            t[0] += u
            t[1] += v


def _image(alg: "QuantumAlgebra", f: Callable[[AlgebraElement], AlgebraElement] | None,
           m: Monomial) -> tuple[list, int]:
    """The numerators and denominator of f(m), for a linear map f (None = identity)."""
    return ([(m, 1, 0)], 1) if f is None else f(alg.monomial(*m)).numerators()


# -- tables of basis images ------------------------------------------------------------

# one stored copy of each key that the tables hold; it holds only immutable values
_SHARED: dict = {}


def flat_entry(coeffs: Mapping) -> tuple:
    """{key: coefficient} as one flat table entry (E, key, A, B, key, A, B, ...).

    Each nonzero coefficient is (A + B*i)/E over the entry's one denominator E.
    """
    terms, d = numerators({k: c for k, c in coeffs.items() if c})
    share = _SHARED.setdefault
    entry = [d]
    for k, a, b in terms:
        entry += (share(k, k), a, b)
    return tuple(entry)


def sum_entries(terms: Iterable[tuple]) -> tuple[dict, int]:
    """The sum of (c + e*i) * entry over the (entry, c, e) in terms, with its denominator.

    Returned as an accumulator {key: [A, B]} over the lcm of the entries'
    denominators E, and that lcm (1 unless an entry has a non-integral coefficient).
    """
    acc: dict = {}
    scale = 1
    for entry, c, e in terms:
        it = iter(entry)
        d = next(it)
        if scale % d:
            # bring what is summed so far over a denominator that d divides
            f = d // gcd(scale, d)
            for sums in acc.values():
                sums[0] *= f
                sums[1] *= f
            scale *= f
        if d != scale:
            c, e = c * (scale // d), e * (scale // d)
        for key, s, t in zip(it, it, it):
            u, v = c * s - e * t, c * t + e * s
            sums = acc.get(key)
            if sums is None:
                acc[key] = [u, v]
            else:
                sums[0] += u
                sums[1] += v
    return acc, scale


def _apply_images(images: tuple, x: AlgebraElement) -> dict:
    """Coefficients of the linear map whose image of monomial index 4p + r is images[4p + r]."""
    xs, d = x.numerators()
    acc, scale = sum_entries([(images[4 * p + r], a, b) for (p, r), a, b in xs])
    return from_numerators(acc, d * scale)


@lru_cache(maxsize=None)
def coproduct_table(mode: str) -> tuple[tuple, ...]:
    """Delta(a^p b^r) = Delta(a)^p Delta(b)^r at index 4p + r, as flat entries keyed by (m1, m2).

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
        images.append(flat_entry(term.coeffs))
    return tuple(images)


@lru_cache(maxsize=None)
def antipode_table(mode: str) -> tuple[tuple, ...]:
    """S(a^p b^r) = S(b)^r S(a)^p at index 4p + r, as flat entries keyed by monomial.

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
        images.append(flat_entry(term.coeffs))
    return tuple(images)
