"""Twisted parameter groups of rank one and their norms.

SElem is the two-parameter group attached to characteristic 2 (cases with a
doubled or quadrupled bond); TElem is the three-parameter group attached to
characteristic 3.  Both derive from RankOneElem, which holds what they
share: the identity, the centre, agreement, text and the characteristic
guard.  Norms R and N, the auxiliary pair (u, v), the inverting map omega,
and the torus action through a group parameter all live here.
The negation signs are written out even where characteristic 2 makes them
trivial, so the formulas read the same in both characteristics.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Callable, ClassVar, TypeVar

from .errors import ConfigError
from .field import FieldElem, TitsField
from .scalar import ExtVal, QuadExt


_COUNT = {2: "two", 3: "three"}
Elem = TypeVar("Elem", bound="RankOneElem")

# stores a coordinate as plain assignment does, past the read-only
# __setattr__; writing through the instance __dict__ instead would give every
# element a dict object of its own, 64 bytes more per element
set_field = object.__setattr__


class RankOneElem:
    """An element of a twisted rank-one group, held as its field coordinates.

    A subclass annotates its coordinates, and nothing else, with the
    central one, t, last, and its constructor takes them in that order,
    guards the characteristic (`_wrong_char`) and writes them with
    `set_field`, so `vars(a)` is exactly a's coordinates.  It sets
    its characteristic CHAR and the twisted exponent of the norm that
    scales each coordinate under the torus action (ACTION_EXPONENTS), and
    it supplies only its group law, inverse and norm.  Its COORDS (the
    coordinates of an element, as a tuple in order) and ARITY are set here
    from those annotations.  Elements are read-only (assigning or deleting
    a coordinate raises `AttributeError`) and compare by identity.
    """

    CHAR: ClassVar[int]
    ACTION_EXPONENTS: ClassVar[tuple[tuple[int, int], ...]]
    ARITY: ClassVar[int]
    COORDS: ClassVar[Callable[[RankOneElem], tuple[FieldElem, ...]]]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__["__annotations__"])
        cls.COORDS = attrgetter(*names)
        cls.ARITY = len(names)

    @classmethod
    def _wrong_char(cls) -> ConfigError:
        return ConfigError(
            f"the {_COUNT[cls.ARITY]}-parameter group needs characteristic {cls.CHAR}"
        )

    @property
    def field(self) -> TitsField:
        return self.t.field

    @classmethod
    def identity(cls: type[Elem], field: TitsField) -> Elem:
        return cls(*[field.zero()] * cls.ARITY)

    @classmethod
    def center(cls: type[Elem], t: FieldElem) -> Elem:
        return cls(*[t.field.zero()] * (cls.ARITY - 1), t)

    def is_identity(self) -> bool:
        for c in self.COORDS(self):
            if not c.is_zero():
                return False
        return True

    def agrees(self: Elem, other: Elem) -> bool:
        for a, b in zip(self.COORDS(self), other.COORDS(other)):
            if not a.agrees(b):
                return False
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(str, self.COORDS(self)))})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SElem(RankOneElem):
    """Element (s, t) of the two-parameter twisted group (characteristic 2)."""

    CHAR = 2
    ACTION_EXPONENTS = ((2, -1), (0, 1))
    s: FieldElem
    t: FieldElem

    def __init__(self, s: FieldElem, t: FieldElem) -> None:
        if t.field.p != self.CHAR:
            raise self._wrong_char()
        set_field(self, "s", s)
        set_field(self, "t", t)

    def __mul__(self, other: "SElem") -> "SElem":
        s, t = self.s, self.t
        u, v = other.s, other.t
        return SElem(s + u, t + v + s.theta() * u)

    def inverse(self) -> "SElem":
        s, t = self.s, self.t
        return SElem(s, t + s.twisted_pow(1, 1))

    def norm(self) -> FieldElem:
        """R(s, t) = s^(theta+2) + s t + t^theta."""
        s, t = self.s, self.t
        return s.twisted_pow(2, 1).add_product(1, s, t) + t.theta()


class TElem(RankOneElem):
    """Element (r, s, t) of the three-parameter twisted group (characteristic 3)."""

    CHAR = 3
    ACTION_EXPONENTS = ((2, -1), (-1, 1), (1, 0))
    r: FieldElem
    s: FieldElem
    t: FieldElem

    def __init__(self, r: FieldElem, s: FieldElem, t: FieldElem) -> None:
        if t.field.p != self.CHAR:
            raise self._wrong_char()
        set_field(self, "r", r)
        set_field(self, "s", s)
        set_field(self, "t", t)

    def __mul__(self, other: "TElem") -> "TElem":
        r, s, t = self.r, self.s, self.t
        w, u, v = other.r, other.s, other.t
        return TElem(
            r + w,
            s + u + r.theta() * w,
            t + v - r * u + s * w - r.twisted_pow(1, 1) * w,
        )

    def inverse(self) -> "TElem":
        r, s, t = self.r, self.s, self.t
        return TElem(-r, -s + r.twisted_pow(1, 1), -t)

    def _shared(self) -> tuple[FieldElem, ...]:
        """Powers and products that the norm and the pair (u, v) share.

        Each is formed in full, exactly as the formulas below would form it
        on its own (left to right, powers by repeated multiplication, a
        square in one kernel pass), so sharing them changes no term and no
        precision.  theta(r)^2 is the theta-image of r^2: theta is a ring
        endomorphism that maps exponent keys linearly and keeps their order,
        so the product's terms, its precision (each factor's precision plus
        the other's least exponent) and its support-cap cut all map across.
        The formulas add each summand after the first through `add_product`,
        which forms it only below the precision of the sum so far; the
        shared products are formed before that is known.
        """
        r, s = self.r, self.s
        tr = r.theta()
        r2 = r * r
        r3 = r2 * r
        return tr, s.theta(), self.t.theta(), r2, r3, r2 * s, r3 * tr, r2.theta()

    def _norm(self, shared: tuple[FieldElem, ...]) -> FieldElem:
        r, s, t = self.r, self.s, self.t
        tr, ts, tt, r2, r3, r2s, r3tr, tr2 = shared
        return (
            (r * tr * ts)
            .add_product(-1, r, tt)
            .add_product(-1, r3tr, s)
            .add_product(-1, r2s, s)
            .add_product(1, s, ts)
            .add_product(1, t, t)
            .add_product(-1, r3, r, tr2)
        )

    def _uv(self, shared: tuple[FieldElem, ...]) -> tuple[FieldElem, FieldElem]:
        r, s, t = self.r, self.s, self.t
        tr, ts, tt, r2, r3, r2s, r3tr, tr2 = shared
        u = r2s.add_product(-1, r, t) + ts - r3tr
        # theta(r) theta(s) is theta(rs) (see _shared); + rs * s is + r * s * s
        rs = r * s
        v = (
            (rs.theta() - tt)
            .add_product(1, rs, s)
            .add_product(1, s, t)
            .add_product(-1, r3, tr2)
        )
        return u, v

    def norm(self) -> FieldElem:
        """N = r^(th+1) s^th - r t^th - r^(th+3) s - r^2 s^2 + s^(th+1) + t^2 - r^(2th+4)."""
        return self._norm(self._shared())

    def omega(self) -> "TElem":
        """The inverting involution a -> (-v/N, -u/N, -t/N)."""
        return self.norm_and_omega()[1]

    def norm_and_omega(self) -> tuple[FieldElem, "TElem"]:
        """The norm N and omega(a), from one set of shared products."""
        shared = self._shared()
        n = self._norm(shared)
        ninv = n.inv()
        u, v = self._uv(shared)
        # x (-1/N) is -(x/N), whose terms, precision and cap cut it negates
        neg = -ninv
        return n, TElem(v * neg, u * neg, self.t * neg)


@cache
def _norm_weights(p: int, exponents: tuple[tuple[int, int], ...]) -> tuple[QuadExt, ...]:
    """The weight 2/E of each coordinate, E = a + b sqrt(p) the value of its
    action exponent (a, b): N(h x) = N(h)^2 N(x) forces weight * E = 2."""
    return tuple(QuadExt(2) / QuadExt(a, b, p) for a, b in exponents)


def val_norm_exact(a: RankOneElem) -> ExtVal:
    """Valuation of the norm of a predicted from the component valuations:
    the least of each coordinate's valuation scaled by its weight, which
    the class's torus table (ACTION_EXPONENTS) fixes."""
    weights = _norm_weights(a.CHAR, a.ACTION_EXPONENTS)
    return min(c.val().scale(w) for c, w in zip(a.COORDS(a), weights))


def h_action(h: Elem) -> Callable[[Elem], Elem] | None:
    """Torus action through the parameter h, which scales each coordinate on
    the left by a twisted power of the norm n = norm(h): (u, v) ->
    (n^(2-th) u, n^th v) for S and (w, u, v) -> (n^(2-th) w, n^(th-1) u, n v)
    for T.

    Every scalar comes from that one norm; None when it is zero.
    """
    n = h.norm()
    if n.is_zero():
        return None
    cls, scalars = type(h), [n.twisted_pow(*e) for e in h.ACTION_EXPONENTS]
    return lambda x: cls(*(c * y for c, y in zip(scalars, x.COORDS(x))))
