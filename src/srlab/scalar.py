"""Exact scalars of the form (a + b*sqrt(p))/den and their extended values.

QuadExt is an immutable quadratic rational over a squarefree radicand p in
{2, 3}, kept in canonical form; purely rational values carry no radicand and
mix freely with either.  ExtVal, the values of valuations, adjoins a positive
infinity that absorbs under addition and is the neutral element of min.  Its
finite values are unnormalised int tuples (e, f, den, p), so a valuation, a
scaled bound and a comparison cost a few integer products and no gcd; a
QuadExt is built from one only to show or hand out the value.  Each combines
only with its own kind: ints and Fractions enter through the constructors and
ExtVal.of.  `irr_sign`, the exact sign of a + b*sqrt(p), decides every sign
and comparison of both.  `read_int` reads the integers of every literal, of
scalars here and of field elements, and `QUAD` with `read_quad` is the one
reader of exact-quadratic text, here and in field exponents.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Union

from .errors import ParseError, RadicandMismatchError

RationalLike = Union[int, Fraction]

_ALLOWED_RADICANDS = (2, 3)

_setattr = object.__setattr__
_new = object.__new__


def irr_sign(a: int, b: int, p: int | None) -> int:
    """Exact sign of a + b*sqrt(p) for integers a, b (p is unused when b == 0)."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    s = a * a - p * b * b
    # p is squarefree, so s == 0 would force a == b == 0, excluded above.
    if a > 0:
        return 1 if s > 0 else -1
    return 1 if s < 0 else -1


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
        """Common radicand of two values; TypeError unless both are QuadExt."""
        if not isinstance(other, QuadExt):
            raise TypeError(f"cannot combine a QuadExt with {type(other).__name__}")
        return _join(self.b, self.p, other.b, other.p)

    def __add__(self, other: "QuadExt") -> "QuadExt":
        p = self._join(other)
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return QuadExt.from_ints(self.a * m1 + other.a * m2, self.b * m1 + other.b * m2, d1 * m1, p)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        return self + -other

    def __neg__(self) -> "QuadExt":
        return QuadExt.from_ints(-self.a, -self.b, self.den, self.p)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        p = self._join(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadExt.from_ints(
            a1 * a2 + (p or 0) * b1 * b2, a1 * b2 + b1 * a2, self.den * other.den, p
        )

    def __truediv__(self, other: "QuadExt") -> "QuadExt":
        return self * other.inv() if isinstance(other, QuadExt) else NotImplemented

    def inv(self) -> "QuadExt":
        a, b, p = self.a, self.b, self.p
        if not (a or b):
            raise ZeroDivisionError("inverse of zero")
        # 1 / ((a + b sqrt p)/den) = den (a - b sqrt p) / (a^2 - p b^2)
        return QuadExt.from_ints(self.den * a, -self.den * b, a * a - (p or 0) * b * b, p)

    def sign(self) -> int:
        return irr_sign(self.a, self.b, self.p)

    def __bool__(self) -> bool:
        return not (self.a == 0 and self.b == 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.den == other.den and self.p == other.p
        )

    def __lt__(self, other: "QuadExt") -> bool:
        p = self._join(other)
        d1, d2 = self.den, other.den
        # both denominators are positive, so the sign of the cross difference decides
        return irr_sign(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, p) < 0

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.den, self.p))

    def __str__(self) -> str:
        return quad_str(self.a, self.b, self.den, self.p)

    def __repr__(self) -> str:
        return f"QuadExt({self})"


def quad_str(a: int, b: int, den: int, p: int | None) -> str:
    """Text of (a + b*sqrt(p))/den for den > 0, as parse_quad reads it back.

    Each part is written n/d in lowest terms, or n alone when d reduces to 1;
    the radicand part is left out when b == 0.
    """
    g = gcd(a, den)
    ra = str(a // g) if g == den else f"{a // g}/{den // g}"
    if not b:
        return ra
    g = gcd(b, den)
    rb = str(b // g) if g == den else f"{b // g}/{den // g}"
    return f"{ra}+{rb}r{p}"


# the exact-quadratic text n[/d][+n[/d]rP], in five groups: the numerator
# and denominator, those of the radicand part, and the radicand.  It reads
# any digits; the rules (denominators, radicand) are read_quad's
QUAD = r"([+-]?[0-9]+)(?:/([0-9]+))?(?:\+([+-]?[0-9]+)(?:/([0-9]+))?r([0-9]))?"
_QUAD = re.compile(QUAD)
# every prefix of a QUAD text: its longest match is where text that is not
# one stops following the grammar
_QUAD_PREFIX = re.compile(
    r"[+-]?(?:[0-9]+(?:/[0-9]*)?(?:(?<!/)\+[+-]?(?:[0-9]+(?:/[0-9]*)?(?:(?<!/)r[0-9]?)?)?)?)?"
)

# An integer in a literal has at most this many digits past its leading
# zeros.  640 is the least limit CPython lets int() be set to, so int()
# reads every integer that passes, whatever the setting.
MAX_DIGITS = 640


def read_int(text: str, pos: int) -> int:
    """The integer written [+-]digits in `text`, decided on the text: more
    than MAX_DIGITS digits past the leading zeros is a ParseError at `pos`."""
    digits = text.lstrip("+-").lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"integer has more than {MAX_DIGITS} digits", pos)
    return -int(digits) if text[0] == "-" else int(digits)


def read_quad(m: re.Match[str], g: int, radicand: int | None) -> tuple:
    """The integers (a, da, b, db, p) of the five QUAD groups of `m` from
    group `g` on, for the value a/da + (b/db)*sqrt(p); without a radicand
    part b = 0, db = 1 and p is None.  Ints, not a QuadExt: a field reads
    an exponent's lattice pair from them without taking a gcd.

    Each error is reported at the position of its own text: a zero
    denominator and a radicand other than 2 or 3 as ParseErrors, and a
    nonzero radicand part over a radicand other than `radicand`, when that
    is given, as a RadicandMismatchError.
    """
    a, da, b, db, rad = m.group(g, g + 1, g + 2, g + 3, g + 4)
    a = read_int(a, m.start(g))
    da = read_int(da, m.start(g + 1)) if da else 1
    b = read_int(b, m.start(g + 2)) if b else 0
    db = read_int(db, m.start(g + 3)) if db else 1
    if not da or not db:
        raise ParseError("zero denominator", m.start(g + 3 if da else g + 1))
    if rad is None:
        return a, da, b, db, None
    p = int(rad)
    if p not in _ALLOWED_RADICANDS:
        raise ParseError("radicand must be 2 or 3", m.start(g + 4))
    if b and radicand is not None and p != radicand:
        raise RadicandMismatchError(f"value written over sqrt({p}) in a sqrt({radicand}) context")
    return a, da, b, db, p


def parse_quad(text: str, radicand: int | None = None) -> QuadExt:
    """Parse 'a/b' or 'a/b+c/dr2', with spaces around it, into a QuadExt.

    `radicand`, when given, rejects values written over a different radicand.
    Text that is not n[/d][+n[/d]rP] fails where it stops following it.
    """
    start = len(text) - len(text.lstrip())
    end = start + len(text.strip())
    m = _QUAD.fullmatch(text, start, end)
    if m is None:
        pos = _QUAD_PREFIX.match(text, start, end).end()
        raise ParseError("value must look like n[/d][+n[/d]rP]", pos)
    a, da, b, db, p = read_quad(m, 1, radicand)
    return QuadExt.from_ints(a * db, b * da, da * db, p)


@total_ordering
class ExtVal:
    """An exact value (e + f*sqrt(p))/den extended with +infinity.

    The payload `v` is the int tuple (e, f, den, p) with den > 0, kept as the
    arithmetic left it: no gcd is taken, and p may be set while f == 0.  None
    is +infinity, the value of a zero element.  Sums, comparisons and scaling
    work on cross products of the ints and the exact sign `irr_sign`;
    a QuadExt is built only for `finite` and `str`, and the hash normalises
    so that equal values hash alike.
    """

    __slots__ = ("v",)

    def __init__(self, q: QuadExt | None) -> None:
        _setattr(self, "v", None if q is None else (q.a, q.b, q.den, q.p))

    @classmethod
    def from_ints(cls, e: int, f: int, den: int, p: int | None) -> "ExtVal":
        """The finite value (e + f*sqrt(p))/den for den > 0 and p in {2, 3}
        (or None when f == 0), taken as given."""
        out = _new(cls)
        _setattr(out, "v", (e, f, den, p))
        return out

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
        return self.v is None

    @property
    def finite(self) -> QuadExt:
        if self.v is None:
            raise ValueError("value is infinite")
        return QuadExt.from_ints(*self.v)

    def __add__(self, other: "ExtVal") -> "ExtVal":
        if not isinstance(other, ExtVal):
            return NotImplemented
        x, y = self.v, other.v
        if x is None or y is None:
            return INFINITY
        e1, f1, d1, p1 = x
        e2, f2, d2, p2 = y
        p = _join(f1, p1, f2, p2)
        if d1 == d2:
            return _ext(e1 + e2, f1 + f2, d1, p)
        return _ext(e1 * d2 + e2 * d1, f1 * d2 + f2 * d1, d1 * d2, p)

    def __neg__(self) -> "ExtVal":
        x = self.v
        if x is None:
            raise ValueError("cannot negate an infinite value")
        return _ext(-x[0], -x[1], x[2], x[3])

    def __sub__(self, other: "ExtVal") -> "ExtVal":
        if not isinstance(other, ExtVal):
            return NotImplemented
        if other.v is None:
            raise ValueError("cannot subtract an infinite value")
        return self + -other

    def scale(self, c: QuadExt) -> "ExtVal":
        """Multiply by a positive exact scalar (infinity is fixed)."""
        if not isinstance(c, QuadExt):
            raise TypeError(f"cannot scale an ExtVal by {type(c).__name__}")
        if c.sign() <= 0:
            raise ValueError("scaling factor must be positive")
        x = self.v
        if x is None:
            return INFINITY
        e, f, den, p = x
        a, b = c.a, c.b
        if not b:
            return _ext(a * e, a * f, den * c.den, p)
        p = _join(f, p, b, c.p)
        return _ext(a * e + b * p * f, a * f + b * e, den * c.den, p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtVal):
            return NotImplemented
        x, y = self.v, other.v
        if x is None or y is None:
            return x is y
        e1, f1, d1, p1 = x
        e2, f2, d2, p2 = y
        return e1 * d2 == e2 * d1 and f1 * d2 == f2 * d1 and (not f1 or p1 == p2)

    def __lt__(self, other: "ExtVal") -> bool:
        if not isinstance(other, ExtVal):
            return NotImplemented
        x, y = self.v, other.v
        if x is None:
            return False
        if y is None:
            return True
        e1, f1, d1, p1 = x
        e2, f2, d2, p2 = y
        # both denominators are positive, so the sign of the cross difference decides
        return irr_sign(e1 * d2 - e2 * d1, f1 * d2 - f2 * d1, _join(f1, p1, f2, p2)) < 0

    def __hash__(self) -> int:
        return hash((True, None)) if self.v is None else hash((False, self.finite))

    def __str__(self) -> str:
        return "inf" if self.v is None else str(self.finite)

    def __repr__(self) -> str:
        return f"ExtVal({self})"


INFINITY = ExtVal(None)
_ext = ExtVal.from_ints


def _join(f1: int, p1: int | None, f2: int, p2: int | None) -> int | None:
    """Common radicand of two values whose sqrt parts are f1 and f2."""
    if not f1:
        return p2
    if not f2 or p1 == p2:
        return p1
    raise RadicandMismatchError(f"cannot combine sqrt({p1}) value with sqrt({p2}) value")
