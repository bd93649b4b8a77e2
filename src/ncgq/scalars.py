"""Exact scalar arithmetic: Gaussian rationals and rational functions in q.

All symbolic computation in this package runs over one of two exact fields:
Q(i) for the root-of-unity modes (q = i or q = -i), and Q(q) for the
closed-form constants that are stored as rational functions and evaluated
exactly at any non-pole point.  No floating point enters until the spectral
layer converts finished matrices.

A GaussianRational is normalised when it is made: each arithmetic operation
costs one gcd unless its result is a Gaussian integer.  Algebra elements hold
no GaussianRationals but one denominator over Gaussian-integer numerators
(see :mod:`ncgq.algebra`); .triple and :func:`gaussian` convert at the edges.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction, str]


class ScalarError(ArithmeticError):
    pass


class DegenerateDenominator(ScalarError):
    """Division by an exact zero (e.g. a formula evaluated where its denominator vanishes)."""


class PoleError(ScalarError):
    """A rational function was evaluated at a zero of its denominator."""


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """An element (a + b*i)/d of the field Q(i), held as a normalised integer triple.

    The triple satisfies d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and
    equal values have equal triples.  Gaussian integers (d = 1) take a fast
    path through addition and multiplication; every other result costs one
    gcd.  Immutable by convention; every operation returns a new value, so
    instances are safe to share between threads.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        (an, ad), (bn, bd) = _frac(re).as_integer_ratio(), _frac(im).as_integer_ratio()
        # the lcm of two lowest-terms denominators leaves gcd(a, b, d) = 1
        d = lcm(ad, bd)
        self._a, self._b, self._d = an * (d // ad), bn * (d // bd), d

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, d) with self = (a + b*i)/d in normal form: d > 0 and gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # equal to hash((re, im)), computed without Fractions for Gaussian integers
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    # -- field operations ---------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, od = self._d, other._d
        if d == od:
            if d == 1:
                return _triple(self._a + other._a, self._b + other._b, 1)
            return gaussian(self._a + other._a, self._b + other._b, d)
        return gaussian(self._a * od + other._a * d, self._b * od + other._b * d, d * od)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, od = self._d, other._d
        if d == od:
            if d == 1:
                return _triple(self._a - other._a, self._b - other._b, 1)
            return gaussian(self._a - other._a, self._b - other._b, d)
        return gaussian(self._a * od - other._a * d, self._b * od - other._b * d, d * od)

    def __rsub__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _triple(a * c - b * e, a * e + b * c, 1)
        return gaussian(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise DegenerateDenominator("inverse of exact zero")
        return gaussian(a * d, -b * d, n)

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- misc ----------------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def to_complex(self) -> complex:
        # int / int rounds correctly, exactly as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """A value from a triple already in normal form, without a gcd."""
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def gaussian(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any integers with d != 0, brought to normal form."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def _coerce(x) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _triple(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _triple(x.numerator, 0, x.denominator)
    return None


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)


def q_root(mode: str) -> GaussianRational:
    """The exact value of q for a root-of-unity mode ('i', '-i' or '1')."""
    if mode == "i":
        return I
    if mode == "-i":
        return -I
    if mode == "1":
        return ONE
    raise ValueError(f"unknown q mode {mode!r}")


# -- serialization ------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_gaussian(z: GaussianRational) -> str:
    """Render as 'a/b+c/d*i', omitting zero parts ('0' for zero)."""
    if not z:
        return "0"
    parts = []
    if z.re:
        parts.append(_frac_str(z.re))
    if z.im:
        im = _frac_str(z.im)
        piece = f"{im}*i"
        if parts and not piece.startswith("-"):
            parts.append("+" + piece)
        else:
            parts.append(piece)
    return "".join(parts)


def parse_gaussian(s: str) -> GaussianRational:
    """Inverse of :func:`format_gaussian`."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # split into signed terms
    terms: list[str] = []
    cur = ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-/*":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    re = Fraction(0)
    im = Fraction(0)
    try:
        for t in terms:
            if t.endswith("*i") or t == "i" or t == "-i" or t == "+i":
                if t in ("i", "+i"):
                    im += 1
                elif t == "-i":
                    im -= 1
                else:
                    im += Fraction(t[:-2])
            else:
                re += Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None
    return GaussianRational(re, im)


# -- polynomials in q ----------------------------------------------------------


class PolyQ:
    """Dense polynomial in q over Q, coefficients lowest-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, x: RationalLike) -> "PolyQ":
        return cls([_frac(x)])

    @classmethod
    def q(cls) -> "PolyQ":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyQ({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if n == 0:
                parts.append(_frac_str(c))
            else:
                mono = "q" if n == 1 else f"q^{n}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{_frac_str(c)}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return PolyQ(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        if not isinstance(other, PolyQ):
            return NotImplemented
        if not self or not other:
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for n, a in enumerate(self.coeffs):
            if not a:
                continue
            for m, b in enumerate(other.coeffs):
                out[n + m] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if not other:
            raise DegenerateDenominator("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d):
            lead = rem[-1] / d[-1]
            shift = len(rem) - len(d)
            quo[shift] = lead
            for k, c in enumerate(d):
                rem[shift + k] -= lead * c
            while rem and not rem[-1]:
                rem.pop()
            if not rem:
                break
        return PolyQ(quo), PolyQ(rem)

    def monic(self) -> "PolyQ":
        if not self:
            return self
        lead = self.coeffs[-1]
        return PolyQ([c / lead for c in self.coeffs])

    def evaluate(self, x: GaussianRational | RationalLike) -> GaussianRational:
        if not isinstance(x, GaussianRational):
            x = GaussianRational(_frac(x), 0)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + GaussianRational(c, 0)
        return acc


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    while b:
        a, b = b, divmod(a, b)[1]
    return a.monic() if a else a


class RationalFunctionQ:
    """A reduced fraction of polynomials in q; denominator monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ | Iterable[RationalLike], den: PolyQ | Iterable[RationalLike] = (1,)):
        if not isinstance(num, PolyQ):
            num = PolyQ(num)
        if not isinstance(den, PolyQ):
            den = PolyQ(den)
        if not den:
            raise DegenerateDenominator("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g and g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        lead = den.coeffs[-1]
        num = num * (1 / lead)
        den = den * (1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, x: RationalLike) -> "RationalFunctionQ":
        return cls(PolyQ.constant(x))

    @classmethod
    def q(cls) -> "RationalFunctionQ":
        return cls(PolyQ.q())

    def __repr__(self) -> str:
        return f"RationalFunctionQ({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"

    def __str__(self) -> str:
        if self.den == PolyQ([1]):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunctionQ(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunctionQ":
        return RationalFunctionQ(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunctionQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunctionQ":
        if not self.num:
            raise DegenerateDenominator("inverse of the zero rational function")
        return RationalFunctionQ(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RationalFunctionQ":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def evaluate_at(self, q0: GaussianRational | RationalLike) -> GaussianRational:
        """Exact substitution q := q0; raises PoleError at a zero of the denominator."""
        if not isinstance(q0, GaussianRational):
            q0 = GaussianRational(_frac(q0), 0)
        den = self.den.evaluate(q0)
        if not den:
            raise PoleError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / den


def _coerce_rf(x) -> RationalFunctionQ | None:
    if isinstance(x, RationalFunctionQ):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunctionQ.constant(x)
    if isinstance(x, PolyQ):
        return RationalFunctionQ(x)
    return None


def rf(num: Sequence[RationalLike], den: Sequence[RationalLike] = (1,)) -> RationalFunctionQ:
    """Shorthand constructor from coefficient lists (lowest degree first)."""
    return RationalFunctionQ(PolyQ(num), PolyQ(den))
