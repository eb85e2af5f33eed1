"""The rank-one action attached to the three-parameter group.

Points are the group elements together with one point at infinity.  The
group acts by left translations; the inverting map omega exchanges infinity
with the identity point and applies the norm-divided involution elsewhere.
The derived maps rho_a are checked against the torus action of
`groups.h_action`, and in finite mode the full permutation group, read off
the Cayley table, can be enumerated by closure.
"""

from __future__ import annotations

from math import perm
from operator import itemgetter
from typing import Callable, Sequence

from .errors import ConfigError, ResourceBoundError
from .field import TitsField
from .groups import TElem, h_action
from .record import Record, set_field
from .report import CheckResult
from .samplers import cayley_table, finite_elems, finite_index

Point = TElem | None  # None is the point at infinity

# the largest group `enumerate_group` closes: Ree(3) has order 1512, and over
# F27 the group has at least (27^3 + 1) 27^3 elements
ORDER_BOUND = 500000


def translate(a: TElem, x: Point) -> Point:
    """Left translation by a: fixes infinity, multiplies elsewhere."""
    if x is None:
        return None
    return a * x


def omega_point(field: TitsField, x: Point) -> Point:
    """The inverting permutation: swaps infinity with the identity point."""
    if x is None:
        return TElem.identity(field)
    if x.is_identity():
        return None
    return x.omega()


def rho_map(a: TElem) -> Callable[[Point], Point]:
    """The double-transposition-free composite fixing 0 and infinity.

    rho_a is built from a as x(-a') w x(-w(a)) w x(a) w with a' = w(-w(a)),
    applied to points with the rightmost factor first.
    """
    if a.is_identity():
        raise ConfigError("the scaling map needs a nonzero group element")
    field = a.field
    wa = a.omega()
    a_prime = wa.inverse().omega()
    neg_wa = wa.inverse()
    neg_ap = a_prime.inverse()

    def act(x: Point) -> Point:
        x = omega_point(field, x)
        x = translate(a, x)
        x = omega_point(field, x)
        x = translate(neg_wa, x)
        x = omega_point(field, x)
        x = translate(neg_ap, x)
        return x

    return act


def rho_scalar_check(a: TElem, sample_points: Sequence[TElem]) -> CheckResult:
    """rho_a is the torus action through a (`h_action`), whose scalar on the
    central coordinate is the norm N(a)."""
    act, scale = rho_map(a), h_action(a)
    if not scale(TElem.center(a.field.one())).t.agrees(a.norm()):
        return CheckResult(False, "the central scalar is not the norm")
    if act(None) is not None:
        return CheckResult(False, "infinity moved")
    fixed0 = act(TElem.identity(a.field))
    if fixed0 is None or not fixed0.is_identity():
        return CheckResult(False, "the identity point moved")
    for x in sample_points:
        img = act(x)
        if img is None:
            return CheckResult(False, f"finite point sent to infinity: {x!r}")
        if not img.agrees(scale(x)):
            return CheckResult(
                False, "action is not the diagonal twisted scaling", {"x": repr(x)}
            )
    return CheckResult(True)


class PermGroupStats(Record):
    """Summary of an enumerated permutation group."""

    def __init__(
        self, npoints: int, order: int, transitivity: int, point_stab: int, two_point_stab: int
    ) -> None:
        set_field(self, "npoints", npoints)
        set_field(self, "order", order)
        set_field(self, "transitivity", transitivity)
        set_field(self, "point_stab", point_stab)
        set_field(self, "two_point_stab", two_point_stab)


def enumerate_group(field: TitsField) -> PermGroupStats:
    """Close the translations and the inverting map into a permutation group.

    Finite mode only.  Points are indexed with infinity first, then the
    group elements in lexicographic coordinate order; permutations are
    index tuples.  Transitivity is measured directly on tuple orbits and
    the stabilizer orders are cross-checked against orbit-stabilizer.

    The translations fix infinity and act regularly on the q^3 finite
    points, and omega moves infinity, so the group is transitive and its
    order is at least (q^3 + 1) q^3; a field for which that exceeds
    `ORDER_BOUND` is refused before any permutation is built.
    """
    if field.mode != "finite":
        raise ConfigError("group enumeration needs a finite field")
    finite_points = field.q**3
    if (finite_points + 1) * finite_points > ORDER_BOUND:
        raise ResourceBoundError(f"group closure exceeded the bound {ORDER_BOUND}")
    elems = finite_elems(TElem, field)
    npoints = len(elems) + 1
    # a translation fixes infinity (point 0) and sends point j + 1 to the
    # product's index + 1; omega swaps infinity with the identity (point 1)
    gens = {(0, *(k + 1 for k in row)) for row in cayley_table(elems)[1:]}
    gens.add((1, 0, *(finite_index(x.omega()) + 1 for x in elems[1:])))
    identity = tuple(range(npoints))
    els: set[tuple[int, ...]] = {identity} | gens
    frontier = list(els)
    # g h applies h first: (g h)[i] = g[h[i]], which itemgetter(*h) reads off g
    right_factors = [itemgetter(*h) for h in gens]
    while frontier:
        new: list[tuple[int, ...]] = []
        for g in frontier:
            for times_h in right_factors:
                prod = times_h(g)
                if prod not in els:
                    els.add(prod)
                    new.append(prod)
                    if len(els) > ORDER_BOUND:
                        raise ResourceBoundError(
                            f"group closure exceeded the bound {ORDER_BOUND}"
                        )
        frontier = new

    order = len(els)
    # k-transitive: the orbit of the points (0, ..., k - 1) holds every
    # k-tuple of distinct points
    transitivity = 0
    for k in (1, 2, 3):
        if len({g[:k] for g in els}) != perm(npoints, k):
            break
        transitivity = k
    point_stab = sum(1 for g in els if g[0] == 0)
    if transitivity >= 1 and point_stab * npoints != order:
        raise ConfigError("stabilizer count disagrees with orbit-stabilizer")
    two_point_stab = sum(1 for g in els if g[0] == 0 and g[1] == 1)
    if transitivity >= 2 and two_point_stab * npoints * (npoints - 1) != order:
        raise ConfigError("pair stabilizer count disagrees with orbit-stabilizer")
    return PermGroupStats(npoints, order, transitivity, point_stab, two_point_stab)
