import random
import time

import pytest

from srlab import moufang
from srlab.errors import ConfigError, ResourceBoundError
from srlab.field import FieldCfg, TitsField
from srlab.groups import TElem
from srlab.moufang import (
    PermGroupStats,
    enumerate_group,
    omega_point,
    rho_map,
    rho_scalar_check,
    translate,
)
from srlab.scalar import QuadExt
from srlab.suites import RunConfig, run_suite


def f3():
    return TitsField(FieldCfg(char=3, mode="finite", m=1))


def f27():
    return TitsField(FieldCfg(char=3, mode="finite", m=3))


def test_translate_fixes_infinity():
    field = f3()
    a = TElem.center(field.one())
    assert translate(a, None) is None
    assert translate(a, TElem.identity(field)).agrees(a)


def test_omega_point_swaps_zero_and_infinity():
    field = f3()
    assert omega_point(field, None).is_identity()
    assert omega_point(field, TElem.identity(field)) is None
    a = TElem.center(field.one())
    back = omega_point(field, omega_point(field, a))
    assert back is not None and back.agrees(a)


def test_rho_map_needs_nonzero():
    field = f3()
    with pytest.raises(ConfigError):
        rho_map(TElem.identity(field))


def test_rho_scalar_and_identity():
    field = f27()
    rng = random.Random(12)
    elems = [
        TElem(
            field.from_coeff(rng.randrange(27)),
            field.from_coeff(rng.randrange(27)),
            field.from_coeff(rng.randrange(27)),
        )
        for _ in range(25)
    ]
    sample = [e for e in elems if not e.is_identity()][:20]
    a = sample[0]
    assert rho_scalar_check(a, sample).ok
    assert rho_scalar_check(TElem.center(field.one()), sample).ok


def test_rho_unit_fixes_points_exhaustively():
    field = f3()
    one = TElem.center(field.one())
    act = rho_map(one)
    q = field.q
    for r in range(q):
        for s in range(q):
            for t in range(q):
                x = TElem(field.from_coeff(r), field.from_coeff(s), field.from_coeff(t))
                img = act(x)
                assert img is not None and img.agrees(x)


def test_enumerate_group_shape():
    stats = enumerate_group(f3())
    assert stats.npoints == 28
    assert stats.order == 1512
    assert stats.transitivity == 2
    assert stats.point_stab == 54
    assert stats.two_point_stab == 2


@pytest.mark.parametrize("sign, stats", [
    # x -> 1/x has determinant -1, a non-square in F27: PGL(2, 27)
    (1, PermGroupStats(28, 19656, 3, 702, 26)),
    # x -> -1/x has determinant 1: PSL(2, 27), 2- but not 3-transitive
    (-1, PermGroupStats(28, 9828, 2, 351, 13)),
], ids=["PGL", "PSL"])
def test_enumerate_group_measures_three_transitivity(monkeypatch, sign, stats):
    """The translations x -> x + a of F27 and one inversion close to a group
    of the projective line over F27, whose 3-transitivity Ree(3) cannot show.
    The 27 points stand in for group elements, one per coefficient index,
    with F27's addition table as their Cayley table."""
    c = f27().coeff
    q = c.q

    class Point:
        def __init__(self, k):
            self.k = k

        def omega(self):
            inv = c.invf[self.k]
            return points[inv if sign == 1 else c.negf[inv]]

    points = [Point(k) for k in range(q)]
    monkeypatch.setattr(moufang, "finite_elems", lambda cls, field: points)
    monkeypatch.setattr(
        moufang, "cayley_table", lambda elems: [c.addf[a * q:a * q + q] for a in range(q)]
    )
    monkeypatch.setattr(moufang, "finite_index", lambda x: x.k)
    assert enumerate_group(f3()) == stats


def test_enumerate_group_bound(monkeypatch):
    # 1000 is above the pre-check's (3^3 + 1) 3^3 = 756, so it is the check
    # inside the closure that stops Ree(3) short of its order 1512
    monkeypatch.setattr(moufang, "ORDER_BOUND", 1000)
    with pytest.raises(ResourceBoundError, match="exceeded the bound 1000"):
        enumerate_group(f3())


def test_enumerate_group_refuses_a_bound_below_the_transitive_order():
    # over F27 the group order is at least (27^3 + 1) 27^3 > 500000, so the
    # default bound is refused before any of its 19,684-point permutations
    t0 = time.perf_counter()
    with pytest.raises(ResourceBoundError, match="exceeded the bound 500000"):
        enumerate_group(TitsField(FieldCfg(char=3, mode="finite", m=3)))
    assert time.perf_counter() - t0 < 1.0


def test_enumerate_needs_finite_mode():
    hf = TitsField(FieldCfg(char=3, mode="hahn", m=1))
    with pytest.raises(ConfigError):
        enumerate_group(hf)


def test_rho_scalar_hahn_single_slot():
    hf = TitsField(FieldCfg(char=3, mode="hahn", m=1))
    points = [
        TElem(hf.monomial(QuadExt(1), 1), hf.zero(), hf.zero()),
        TElem(hf.zero(), hf.monomial(QuadExt(-1), 2), hf.zero()),
        TElem(hf.zero(), hf.zero(), hf.monomial(QuadExt(0, 1, 3), 1)),
    ]
    a = TElem(hf.zero(), hf.zero(), hf.monomial(QuadExt(2), 2))
    assert rho_scalar_check(a, points).ok


def test_scaling_checks_see_a_wrong_torus_table(monkeypatch):
    """rho_a is checked against `h_action`, so a wrong but self-consistent T
    table fails exactly the two diagonal-scaling entries."""
    monkeypatch.setattr(TElem, "ACTION_EXPONENTS", ((1, 0), (1, 1), (2, 1)))
    checks = run_suite("moufang", RunConfig(samples=5))["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [
        "scaling-map-diagonal-F27",
        "scaling-map-diagonal-hahn",
    ]
