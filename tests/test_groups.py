import random

import pytest

from srlab.errors import ConfigError
from srlab.field import FieldCfg, TitsField
from srlab.groups import (
    SElem,
    TElem,
    h_action_S,
    h_action_T,
    val_norm_exact_S,
    val_norm_exact_T,
)
from srlab.samplers import finite_elems_s, finite_elems_t
from srlab.scalar import ExtVal, QuadExt


def f3():
    return TitsField(FieldCfg(char=3, mode="finite", m=1))


def f27():
    return TitsField(FieldCfg(char=3, mode="finite", m=3))


def test_char_guards():
    with pytest.raises(ConfigError):
        TElem.identity(TitsField(FieldCfg(char=2, mode="finite", m=1)))
    with pytest.raises(ConfigError):
        SElem.identity(f3())


def test_t_group_laws_exhaustive():
    elems = finite_elems_t(f3())
    e = TElem.identity(elems[0].field)
    for a in elems:
        assert (a * a.inverse()).is_identity()
        assert (a * e).agrees(a) and (e * a).agrees(a)
    for a in elems:
        for b in elems:
            for c in elems[::7]:
                assert ((a * b) * c).agrees(a * (b * c))


def test_s_group_laws_exhaustive():
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    elems = finite_elems_s(f8)
    for a in elems:
        assert (a * a.inverse()).is_identity()
    rng = random.Random(3)
    pick = [elems[rng.randrange(len(elems))] for _ in range(40)]
    for a in pick:
        for b in pick:
            for c in pick[::8]:
                assert ((a * b) * c).agrees(a * (b * c))


def test_center_is_central():
    field = f3()
    z = TElem.center(field.one())
    for a in finite_elems_t(field):
        assert (a * z).agrees(z * a)


def test_omega_printed_value():
    field = f3()
    a = TElem.center(field.one())
    w = a.omega()
    assert w.r.agrees(field.one())
    assert w.s.is_zero()
    assert w.t.agrees(-field.one())


def test_omega_involution_and_norm_inverse():
    field = f27()
    rng = random.Random(9)
    elems = finite_elems_t(field)
    for _ in range(200):
        a = elems[rng.randrange(1, len(elems))]
        w = a.omega()
        assert w.omega().agrees(a)
        assert (w.norm() * a.norm()).agrees(field.one())


def test_norm_anisotropic_exhaustive():
    for field in (f3(), f27()):
        for a in finite_elems_t(field):
            assert a.norm().is_zero() == a.is_identity()
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    for a in finite_elems_s(f8):
        assert a.norm().is_zero() == a.is_identity()


def hahn(char):
    return TitsField(FieldCfg(char=char, mode="hahn", m=1))


def test_norm_val_formula_t():
    f = hahn(3)
    r = f.monomial(QuadExt(1), 2)
    s = f.monomial(QuadExt(0, 1, 3), 1)
    t = f.monomial(QuadExt(-2), 1)
    a = TElem(r, s, t)
    got = val_norm_exact_T(a)
    # min((4 + 2 sqrt3)*1, (1 + sqrt3)*sqrt3, 2*(-2)) = -4
    assert got == ExtVal.of(QuadExt(-4))
    assert a.norm().val() == got


def test_norm_val_formula_t_tie():
    f = hahn(3)
    # s-level equals r-level: (1 + sqrt3)(1 + sqrt3) = 4 + 2 sqrt3
    r = f.monomial(QuadExt(1), 1)
    s = f.monomial(QuadExt(1, 1, 3), 2)
    t = f.monomial(QuadExt(9), 1)
    a = TElem(r, s, t)
    assert a.norm().val() == val_norm_exact_T(a) == ExtVal.of(QuadExt(4, 2, 3))


def test_norm_val_formula_s():
    f = hahn(2)
    s = f.monomial(QuadExt(1), 1)
    t = f.monomial(QuadExt(3), 1)
    a = SElem(s, t)
    # min((2 + sqrt2)*1, sqrt2*3) = 2 + sqrt2
    assert val_norm_exact_S(a) == ExtVal.of(QuadExt(2, 1, 2))
    assert a.norm().val() == val_norm_exact_S(a)


def test_h_action_automorphism_finite():
    field = f27()
    elems = finite_elems_t(field)
    rng = random.Random(4)
    for _ in range(60):
        h = elems[rng.randrange(1, len(elems))]
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        assert h_action_T(h, x * y).agrees(h_action_T(h, x) * h_action_T(h, y))
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    selems = finite_elems_s(f8)
    for _ in range(60):
        h = selems[rng.randrange(1, len(selems))]
        x = selems[rng.randrange(len(selems))]
        y = selems[rng.randrange(len(selems))]
        assert h_action_S(h, x * y).agrees(h_action_S(h, x) * h_action_S(h, y))


def test_hahn_omega_square_spot():
    f = hahn(3)
    a = TElem(
        f.monomial(QuadExt(1), 1),
        f.monomial(QuadExt(0, 1, 3), 2) + f.monomial(QuadExt(2), 1),
        f.monomial(QuadExt(-1), 2),
    )
    assert a.omega().omega().agrees(a)
