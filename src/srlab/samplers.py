"""Seeded samplers and finite enumerations shared by the suites and tests.

Every sampler draws from the `random.Random` it is given, in a fixed order,
so a suite's samples depend only on its seed and on the order of its calls.
Series samplers build monomials with exponents in the lattice (a + b rp)/d
of the field; `biased_component` is the law of one group coordinate:
mostly monomials, sometimes two-term sums, occasionally zero.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .field import FieldElem, TitsField
from .groups import Elem, RankOneElem, SElem, TElem
from .scalar import QuadExt


def rand_lat(rng: random.Random, span: int = 6) -> tuple[int, int]:
    return (rng.randint(-span, span), rng.randint(-2, 2))


def rand_monomial(field: TitsField, rng: random.Random) -> FieldElem:
    return field.monomial_at(rand_lat(rng), rng.randrange(1, field.q))


def rand_short(field: TitsField, rng: random.Random, terms: int = 2) -> FieldElem:
    out = field.zero()
    for _ in range(terms):
        out = out + rand_monomial(field, rng)
    if out.is_zero():
        out = field.one()
    return out


def biased_component(field: TitsField, rng: random.Random) -> FieldElem:
    """Mostly monomials, sometimes short sums, occasionally zero."""
    roll = rng.random()
    if roll < 0.10:
        return field.zero()
    if roll < 0.80:
        return rand_monomial(field, rng)
    return rand_short(field, rng, terms=2)


def rand_elem(cls: type[Elem], field: TitsField, rng: random.Random) -> Elem:
    """A group element with `biased_component` coordinates, drawn in order;
    the identity is replaced by the central element at t = 1."""
    a = cls(*[biased_component(field, rng) for _ in range(cls.ARITY)])
    if a.is_identity():
        return cls.center(field.one())
    return a


def finite_elems(cls: type[Elem], field: TitsField) -> list[Elem]:
    """Every element of the group over a finite field, in lexicographic coordinate order."""
    coeffs = [field.from_coeff(k) for k in range(field.q)]
    return [cls(*c) for c in itertools.product(coeffs, repeat=cls.ARITY)]


def finite_index(x: RankOneElem) -> int:
    """The position of a finite-field element in `finite_elems`.

    The identity is at 0.  Finite field elements are interned, so two
    elements agree exactly when their indices are equal.
    """
    q = x.t.field.q
    i = 0
    for c in x.COORDS(x):
        i = i * q + c.k
    return i


def finite_elem(cls: type[Elem], field: TitsField, index: int) -> Elem:
    """The element at `index` in `finite_elems`, the inverse of `finite_index`."""
    coords = []
    for _ in range(cls.ARITY - 1):
        index, k = divmod(index, field.q)
        coords.append(field.from_coeff(k))
    coords.append(field.from_coeff(index))  # out of range raises here
    return cls(*reversed(coords))


def cayley_table(elems: list[TElem] | list[SElem]) -> list[list[int]]:
    """The product of a whole finite group on indices: M[i][j] = index of elems[i] * elems[j]."""
    return [[finite_index(a * b) for b in elems] for a in elems]


def rand_quad(rng: random.Random, p: int | None) -> QuadExt:
    a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    if p is None:
        return QuadExt(a)
    b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return QuadExt(a, b, p)


def lat_mul_quad(lat: tuple[int, int], a: int, b: int, p: int) -> tuple[int, int]:
    """Multiply a lattice exponent by the integer quadratic a + b sqrt(p)."""
    e, f = lat
    return (a * e + b * f * p, a * f + b * e)


def tie_samples_t(field: TitsField, rng: random.Random, count: int) -> list[TElem]:
    """Monomial triples with two of the three norm levels exactly equal."""
    out: list[TElem] = []
    coeff = lambda: rng.randrange(1, field.q)
    for k in range(count):
        mode = k % 3
        if mode < 2:  # r-level == s-level (mode 0) or t-level (mode 1), the other strictly above
            gr = rand_lat(rng, 4)
            levels = [lat_mul_quad(gr, 1, 1, 3), lat_mul_quad(gr, 2, 1, 3)]
            e, f = levels[1 - mode]
            levels[1 - mode] = (e + rng.randint(1, 3), f)
            gs, gt = levels
            r = field.monomial_at(gr, coeff())
        else:  # s-level == t-level with r zero
            e = rng.randint(-4, 4)
            f = rng.randint(-2, 2)
            f += (e - f) % 2
            gs = (e, f)
            gt = ((e + 3 * f) // 2, (e + f) // 2)
            r = field.zero()
        s = field.monomial_at(gs, coeff())
        t = field.monomial_at(gt, coeff())
        out.append(TElem(r, s, t))
    return out
