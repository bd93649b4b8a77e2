"""Exact scalar arithmetic: Gaussian rationals, and closed forms in q that are only evaluated.

All symbolic computation in this package runs over Q(i), the field of the
root-of-unity modes (q = i or q = -i).  The published closed forms in q keep
their printed coefficients (:class:`RationalFunctionQ`) and are only ever
evaluated, exactly, at a point of Q(i) such as q = 1, i or -i.  No floating
point enters until the spectral layer converts finished matrices.

A GaussianRational is normalised when it is made: each arithmetic operation
costs one gcd unless its result is a Gaussian integer.  Algebra elements hold
no GaussianRationals but one denominator over Gaussian-integer numerators
(see :mod:`ncgq.algebra`); .triple and :func:`gaussian` convert at the edges.

The module does not import :mod:`fractions` (which loads :mod:`decimal` and
:mod:`numbers`) at the top: only parsing, the .re/.im views and the hash of a
non-integral real value make a Fraction, and a Fraction argument is
recognised through ``sys.modules``, since one exists only once its module is
loaded.
"""
from __future__ import annotations

import sys
from collections.abc import Iterable
from itertools import zip_longest
from math import gcd, lcm

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers take it as True
if TYPE_CHECKING:
    from fractions import Fraction

    RationalLike = int | Fraction | str


class ScalarError(ArithmeticError):
    pass


class DegenerateDenominator(ScalarError):
    """Division by an exact zero (e.g. a formula evaluated where its denominator vanishes)."""


class PoleError(ScalarError):
    """A rational function was evaluated at a zero of its denominator."""


def _fraction(x) -> bool:
    """Whether x is a Fraction, without importing fractions."""
    module = sys.modules.get("fractions")
    return module is not None and isinstance(x, module.Fraction)


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of x in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if _fraction(x):
        return x.numerator, x.denominator
    if isinstance(x, str):
        from fractions import Fraction

        return Fraction(x).as_integer_ratio()
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
        (an, ad), (bn, bd) = _ratio(re), _ratio(im)
        # the lcm of two lowest-terms denominators leaves gcd(a, b, d) = 1
        d = lcm(ad, bd)
        self._a, self._b, self._d = an * (d // ad), bn * (d // bd), d

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, d) with self = (a + b*i)/d in normal form: d > 0 and gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

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
        # a real value hashes as the int or Fraction it equals, any other as hash((re, im))
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
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
    if _fraction(x):
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


def _part(n: int, d: int) -> str:
    """n/d in lowest terms, as 'n' when that is an integer."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_gaussian(z: GaussianRational) -> str:
    """Render as 'a/b+c/d*i', omitting zero parts ('0' for zero); each part in lowest terms."""
    a, b, d = z._a, z._b, z._d
    re = _part(a, d) if a else ""
    if not b:
        return re or "0"
    return re + ("+" if re and b > 0 else "") + _part(b, d) + "*i"


def parse_gaussian(s: str) -> GaussianRational:
    """Inverse of :func:`format_gaussian`."""
    from fractions import Fraction

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


# -- closed forms in q ------------------------------------------------------------


def _trim(coeffs: Iterable[RationalLike]) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for n, x in enumerate(a):
        if x:
            for m, y in enumerate(b):
                out[n + m] += x * y
    return _trim(out)


def _poly_add(a: tuple, b: tuple) -> tuple:
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _horner(coeffs: tuple, x: GaussianRational) -> GaussianRational:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class RationalFunctionQ:
    """num(q)/den(q), a closed form kept as printed: coefficients lowest degree first, never reduced.

    The forms are only ever evaluated, so no polynomial gcd is taken: + - * /
    multiply out numerators and denominators, and == compares rational
    functions by cross-multiplication.  Equal forms can hold different
    coefficient tuples, so they are not hashable.
    """

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num: Iterable[RationalLike], den: Iterable[RationalLike] = (1,)):
        self.num = _trim(num)
        self.den = _trim(den)
        if not self.den:
            raise DegenerateDenominator("rational function with zero denominator")

    def __repr__(self) -> str:
        return f"RationalFunctionQ({list(self.num)!r}, {list(self.den)!r})"

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def __add__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return RationalFunctionQ(_poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den)),
                                 _poly_mul(self.den, other.den))

    def __neg__(self) -> "RationalFunctionQ":
        return RationalFunctionQ([-c for c in self.num], self.den)

    def __sub__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return self + (-other)

    def __mul__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return RationalFunctionQ(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))

    def __truediv__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return RationalFunctionQ(_poly_mul(self.num, other.den), _poly_mul(self.den, other.num))

    def evaluate_at(self, q0: GaussianRational | RationalLike) -> GaussianRational:
        """Exact substitution q := q0 by Horner's rule; raises PoleError at a zero of the denominator."""
        if not isinstance(q0, GaussianRational):
            q0 = GaussianRational(q0)
        den = _horner(self.den, q0)
        if not den:
            raise PoleError(f"pole at q = {q0}")
        return _horner(self.num, q0) / den


rf = RationalFunctionQ  # rf(num, den): shorthand for the closed forms in constants.py
