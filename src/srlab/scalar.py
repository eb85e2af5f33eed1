"""Exact scalars of the form (a + b*sqrt(p))/den and their extended values.

QuadExt is an immutable quadratic rational over a squarefree radicand p in
{2, 3}; purely rational values carry no radicand and mix freely with either.
ExtVal adjoins a positive infinity that absorbs under addition and is the
neutral element of min; valuations take values here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Union

from .core import kernel
from .errors import ParseError, RadicandMismatchError

RationalLike = Union[int, Fraction]

_ALLOWED_RADICANDS = (2, 3)

_setattr = object.__setattr__


def _to_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


@total_ordering
class QuadExt:
    """Exact value (a + b*sqrt(p)) / den with a canonical int representation.

    Canonical means den > 0, gcd(a, b, den) == 1, and p is None exactly when
    b == 0, so two values are equal exactly when their (a, b, den, p) are.
    """

    __slots__ = ("a", "b", "den", "p")

    def __init__(self, a: RationalLike, b: RationalLike = 0, p: int | None = None) -> None:
        fa = _to_fraction(a)
        fb = _to_fraction(b)
        den = lcm(fa.denominator, fb.denominator)
        self._fill(
            fa.numerator * (den // fa.denominator), fb.numerator * (den // fb.denominator), den, p
        )

    @classmethod
    def from_ints(cls, a: int, b: int, den: int, p: int | None) -> "QuadExt":
        """The value (a + b*sqrt(p)) / den of integers, in canonical form."""
        return object.__new__(cls)._fill(a, b, den, p)

    def _fill(self, a: int, b: int, den: int, p: int | None) -> "QuadExt":
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            a, b, den = -a, -b, -den
        g = gcd(a, b, den)
        if g > 1:
            a //= g
            b //= g
            den //= g
        if not b:
            p = None
        elif p not in _ALLOWED_RADICANDS:
            raise ValueError(f"radicand must be one of {_ALLOWED_RADICANDS}, got {p!r}")
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "den", den)
        _setattr(self, "p", p)
        return self

    @classmethod
    def sqrt(cls, p: int) -> "QuadExt":
        return cls(0, 1, p)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fractions(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.a, self.den), Fraction(self.b, self.den)

    def _join(self, other: "QuadExt") -> int | None:
        """Common radicand of two values, or RadicandMismatchError."""
        if self.p is None:
            return other.p
        if other.p is None or other.p == self.p:
            return self.p
        raise RadicandMismatchError(
            f"cannot combine sqrt({self.p}) value with sqrt({other.p}) value"
        )

    @staticmethod
    def _coerce(x: "QuadExt | RationalLike") -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        return QuadExt(x)

    def __add__(self, other: "QuadExt | RationalLike") -> "QuadExt":
        other = self._coerce(other)
        p = self._join(other)
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return QuadExt.from_ints(self.a * m1 + other.a * m2, self.b * m1 + other.b * m2, d1 * m1, p)

    __radd__ = __add__

    def __sub__(self, other: "QuadExt | RationalLike") -> "QuadExt":
        return self + -self._coerce(other)

    def __rsub__(self, other: "QuadExt | RationalLike") -> "QuadExt":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "QuadExt":
        return QuadExt.from_ints(-self.a, -self.b, self.den, self.p)

    def __mul__(self, other: "QuadExt | RationalLike") -> "QuadExt":
        other = self._coerce(other)
        p = self._join(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadExt.from_ints(
            a1 * a2 + (p or 0) * b1 * b2, a1 * b2 + b1 * a2, self.den * other.den, p
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadExt | RationalLike") -> "QuadExt":
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other: "QuadExt | RationalLike") -> "QuadExt":
        return self._coerce(other).__truediv__(self)

    def inv(self) -> "QuadExt":
        a, b, p = self.a, self.b, self.p
        if not (a or b):
            raise ZeroDivisionError("inverse of zero")
        # 1 / ((a + b sqrt p)/den) = den (a - b sqrt p) / (a^2 - p b^2)
        return QuadExt.from_ints(self.den * a, -self.den * b, a * a - (p or 0) * b * b, p)

    def sign(self) -> int:
        return kernel.irr_sign(self.a, self.b, self.p)

    def __bool__(self) -> bool:
        return not (self.a == 0 and self.b == 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.den == other.den and self.p == other.p
        )

    def __lt__(self, other: "QuadExt | RationalLike") -> bool:
        other = self._coerce(other)
        p = self._join(other)
        d1, d2 = self.den, other.den
        # both denominators are positive, so the sign of the cross difference decides
        return kernel.irr_sign(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, p) < 0

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.den, self.p))

    def __str__(self) -> str:
        ra = Fraction(self.a, self.den)
        if self.b == 0:
            return _frac_str(ra)
        rb = Fraction(self.b, self.den)
        return f"{_frac_str(ra)}+{_frac_str(rb)}r{self.p}"

    def __repr__(self) -> str:
        return f"QuadExt({self})"


def _frac_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_quad(text: str, offset: int = 0, radicand: int | None = None) -> QuadExt:
    """Parse 'a/b' or 'a/b+c/dr2' into a QuadExt.

    `offset` shifts reported error positions; `radicand`, when given, rejects
    values written over a different radicand.
    """
    s = text.strip()
    shift = offset + (len(text) - len(text.lstrip()))
    ra, i = _scan_rational(s, 0, shift)
    if i == len(s):
        return QuadExt(ra)
    if s[i] != "+":
        raise ParseError(f"expected '+' or end of value, found {s[i]!r}", shift + i)
    rb, j = _scan_rational(s, i + 1, shift)
    if j >= len(s) or s[j] != "r":
        raise ParseError("expected 'r' radicand marker", shift + j)
    j += 1
    if j >= len(s) or s[j] not in "23":
        raise ParseError("radicand must be 2 or 3", shift + j)
    p = int(s[j])
    if j + 1 != len(s):
        raise ParseError(f"trailing input {s[j + 1:]!r}", shift + j + 1)
    if radicand is not None and rb != 0 and p != radicand:
        raise RadicandMismatchError(
            f"value written over sqrt({p}) in a sqrt({radicand}) context"
        )
    return QuadExt(ra, rb, p)


def _scan_rational(s: str, i: int, shift: int) -> tuple[Fraction, int]:
    start = i
    if i < len(s) and s[i] in "+-":
        i += 1
    d0 = i
    while i < len(s) and s[i].isdigit():
        i += 1
    if i == d0:
        raise ParseError("expected a rational number", shift + i)
    num = int(s[start:i])
    if i < len(s) and s[i] == "/":
        i += 1
        d1 = i
        while i < len(s) and s[i].isdigit():
            i += 1
        if i == d1:
            raise ParseError("expected a denominator", shift + i)
        den = int(s[d1:i])
        if den == 0:
            raise ParseError("zero denominator", shift + d1)
        return Fraction(num, den), i
    return Fraction(num), i


@total_ordering
class ExtVal:
    """A QuadExt extended with +infinity (the value of a zero element)."""

    __slots__ = ("q",)

    def __init__(self, q: QuadExt | None) -> None:
        object.__setattr__(self, "q", q)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExtVal is immutable")

    @classmethod
    def of(cls, x: "ExtVal | QuadExt | RationalLike") -> "ExtVal":
        if isinstance(x, ExtVal):
            return x
        if isinstance(x, QuadExt):
            return cls(x)
        return cls(QuadExt(x))

    @property
    def is_infinite(self) -> bool:
        return self.q is None

    @property
    def finite(self) -> QuadExt:
        if self.q is None:
            raise ValueError("value is infinite")
        return self.q

    def __add__(self, other: "ExtVal | QuadExt | RationalLike") -> "ExtVal":
        other = ExtVal.of(other)
        if self.q is None or other.q is None:
            return INFINITY
        return ExtVal(self.q + other.q)

    __radd__ = __add__

    def __neg__(self) -> "ExtVal":
        if self.q is None:
            raise ValueError("cannot negate an infinite value")
        return ExtVal(-self.q)

    def __sub__(self, other: "ExtVal | QuadExt | RationalLike") -> "ExtVal":
        other = ExtVal.of(other)
        if other.q is None:
            raise ValueError("cannot subtract an infinite value")
        if self.q is None:
            return INFINITY
        return ExtVal(self.q - other.q)

    def scale(self, c: "QuadExt | RationalLike") -> "ExtVal":
        """Multiply by a positive exact scalar (infinity is fixed)."""
        c = QuadExt._coerce(c)
        if c.sign() <= 0:
            raise ValueError("scaling factor must be positive")
        if self.q is None:
            return INFINITY
        return ExtVal(self.q * c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (QuadExt, int, Fraction)):
            other = ExtVal.of(other)
        if not isinstance(other, ExtVal):
            return NotImplemented
        if self.q is None or other.q is None:
            return self.q is None and other.q is None
        return self.q == other.q

    def __lt__(self, other: "ExtVal | QuadExt | RationalLike") -> bool:
        other = ExtVal.of(other)
        if self.q is None:
            return False
        if other.q is None:
            return True
        return self.q < other.q

    def __hash__(self) -> int:
        return hash((self.q is None, self.q))

    def __str__(self) -> str:
        return "inf" if self.q is None else str(self.q)

    def __repr__(self) -> str:
        return f"ExtVal({self})"


INFINITY = ExtVal(None)


def ext_min(*vals: ExtVal) -> ExtVal:
    """Minimum of one or more extended values."""
    if not vals:
        raise ValueError("ext_min needs at least one value")
    out = vals[0]
    for v in vals[1:]:
        if v < out:
            out = v
    return out
