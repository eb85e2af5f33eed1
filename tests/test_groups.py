import random

import pytest

from srlab.errors import ConfigError, InsufficientPrecisionError
from srlab.field import FieldCfg, TitsField
from srlab.groups import SElem, TElem, h_action, val_norm_exact
from srlab.samplers import (
    cayley_table,
    finite_elem,
    finite_elems,
    finite_index,
    rand_elem,
)
from srlab.scalar import ExtVal, QuadExt
from srlab.suites import RunConfig, run_suite


def f3():
    return TitsField(FieldCfg(char=3, mode="finite", m=1))


def f27():
    return TitsField(FieldCfg(char=3, mode="finite", m=3))


def test_char_guards():
    f2 = TitsField(FieldCfg(char=2, mode="finite", m=1))
    with pytest.raises(ConfigError, match="^the three-parameter group needs characteristic 3$"):
        TElem.identity(f2)
    with pytest.raises(ConfigError, match="^the two-parameter group needs characteristic 2$"):
        SElem.identity(f3())
    assert repr(TElem.center(f3().from_coeff(2))) == "TElem(0, 0, 2)"
    assert repr(SElem(f2.one(), f2.zero())) == "SElem(1, 0)"


def test_uncertified_zero_coordinates_leave_the_identity_undecided():
    """Coordinates that are zero only below their precision raise, as is_zero does."""
    for char, cls in ((3, TElem), (2, SElem)):
        f = TitsField(FieldCfg(char=char))
        x = f.parse("1*t^(0)")
        zero = x - x
        assert not zero.terms and zero.prec is not None
        with pytest.raises(InsufficientPrecisionError):
            cls(*[zero] * cls.ARITY).is_identity()
        assert not cls.center(x).is_identity()


def test_rand_elem_keeps_the_draws():
    """The first draws at two seeds, as the per-group samplers emitted them."""
    want = {
        0: (
            [
                "TElem(2*t^(-1+1r3)+1*t^(3+1/2r3), 2*t^(3), 1*t^(-3/2+1r3))",
                "TElem(2*t^(3+-1r3), 1*t^(-1+-1r3)+1*t^(1+1r3), 2*t^(1+-1r3)+2*t^(2))",
                "TElem(2*t^(3/2+-1/2r3), 1*t^(1), 1*t^(1+-1r3)+1*t^(5/2+1/2r3))",
            ],
            [
                "SElem(1*t^(-1/2+-1/2r2), 1*t^(-5/2+-1/2r2))",
                "SElem(1*t^(-2+1r2), 0)",
                "SElem(1*t^(-1+1r2)+1*t^(1+1/2r2), 1*t^(1))",
            ],
        ),
        5: (
            [
                "TElem(1*t^(5/2), 2*t^(-2+-1r3)+1*t^(3+-1/2r3), 1*t^(-3/2+1/2r3))",
                "TElem(2*t^(-3+-1/2r3), 1*t^(3+1/2r3), 2*t^(-5/2+-1/2r3))",
                "TElem(1*t^(-3+-1r3), 2*t^(-2+-1/2r3), 1*t^(-3/2+1r3))",
            ],
            [
                "SElem(1*t^(5/2+-1/2r2), 1*t^(-1/2+1/2r2))",
                "SElem(1*t^(-1+-1r2)+1*t^(-1+1r2), 1*t^(5/2))",
                "SElem(1*t^(-1+1/2r2), 1*t^(1/2+-1/2r2))",
            ],
        ),
    }
    hf3, hf2 = hahn(3), hahn(2)
    for seed, (t_text, s_text) in want.items():
        rng = random.Random(seed)
        assert [repr(rand_elem(TElem, hf3, rng)) for _ in range(3)] == t_text
        assert [repr(rand_elem(SElem, hf2, rng)) for _ in range(3)] == s_text


def test_t_group_laws_exhaustive():
    elems = finite_elems(TElem, f3())
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
    elems = finite_elems(SElem, f8)
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
    for a in finite_elems(TElem, field):
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
    elems = finite_elems(TElem, field)
    for _ in range(200):
        a = elems[rng.randrange(1, len(elems))]
        w = a.omega()
        assert w.omega().agrees(a)
        assert (w.norm() * a.norm()).agrees(field.one())


def test_norm_anisotropic_exhaustive():
    for field in (f3(), f27()):
        for a in finite_elems(TElem, field):
            assert a.norm().is_zero() == a.is_identity()
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    for a in finite_elems(SElem, f8):
        assert a.norm().is_zero() == a.is_identity()


def hahn(char):
    return TitsField(FieldCfg(char=char, mode="hahn", m=1))


def test_norm_val_formula_t():
    f = hahn(3)
    r = f.monomial(QuadExt(1), 2)
    s = f.monomial(QuadExt(0, 1, 3), 1)
    t = f.monomial(QuadExt(-2), 1)
    a = TElem(r, s, t)
    got = val_norm_exact(a)
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
    assert a.norm().val() == val_norm_exact(a) == ExtVal.of(QuadExt(4, 2, 3))


def test_norm_val_formula_s():
    f = hahn(2)
    s = f.monomial(QuadExt(1), 1)
    t = f.monomial(QuadExt(3), 1)
    a = SElem(s, t)
    # min((2 + sqrt2)*1, sqrt2*3) = 2 + sqrt2
    assert val_norm_exact(a) == ExtVal.of(QuadExt(2, 1, 2))
    assert a.norm().val() == val_norm_exact(a)


def test_h_action_automorphism_finite():
    field = f27()
    elems = finite_elems(TElem, field)
    rng = random.Random(4)
    for _ in range(60):
        act = h_action(elems[rng.randrange(1, len(elems))])
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        assert act(x * y).agrees(act(x) * act(y))
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    selems = finite_elems(SElem, f8)
    for _ in range(60):
        act = h_action(selems[rng.randrange(1, len(selems))])
        x = selems[rng.randrange(len(selems))]
        y = selems[rng.randrange(len(selems))]
        assert act(x * y).agrees(act(x) * act(y))


def test_h_action_map_serves_a_series_product_and_its_factors():
    rng = random.Random(6)
    for cls, field in ((TElem, hahn(3)), (SElem, hahn(2))):
        act = h_action(rand_elem(cls, field, rng))
        assert act is not None
        for _ in range(5):
            x, y = rand_elem(cls, field, rng), rand_elem(cls, field, rng)
            assert act(x * y).agrees(act(x) * act(y))
    assert h_action(TElem.identity(hahn(3))) is None
    assert h_action(SElem.identity(hahn(2))) is None


def test_h_action_computes_one_norm(monkeypatch):
    field = f27()
    calls = []
    norm = TElem.norm
    monkeypatch.setattr(TElem, "norm", lambda a: calls.append(a) or norm(a))
    elems = finite_elems(TElem, field)
    act = h_action(elems[100])
    for x in elems[:50]:
        act(x)
    assert len(calls) == 1


def test_hahn_omega_square_spot():
    f = hahn(3)
    a = TElem(
        f.monomial(QuadExt(1), 1),
        f.monomial(QuadExt(0, 1, 3), 2) + f.monomial(QuadExt(2), 1),
        f.monomial(QuadExt(-1), 2),
    )
    assert a.omega().omega().agrees(a)


def test_finite_index_is_the_enumeration_position():
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    for elems in (finite_elems(TElem, f3()), finite_elems(SElem, f8)):
        assert [finite_index(a) for a in elems] == list(range(len(elems)))
        assert elems[0].is_identity()


def test_finite_elem_t_inverts_finite_index():
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    for cls, field in ((TElem, f3()), (SElem, f8)):
        for i, a in enumerate(finite_elems(cls, field)):
            b = finite_elem(cls, field, i)
            assert type(b) is cls and vars(b) == vars(a)
    field = f27()
    rng = random.Random(4)
    for _ in range(200):
        i = rng.randrange(field.q**3)
        assert finite_index(finite_elem(TElem, field, i)) == i


def test_cayley_table_entries_are_product_indices():
    elems = finite_elems(TElem, f3())
    m = cayley_table(elems)
    rng = random.Random(2)
    for _ in range(100):
        i, j = rng.randrange(len(elems)), rng.randrange(len(elems))
        assert m[i][j] == finite_index(elems[i] * elems[j])
    selems = finite_elems(SElem, TitsField(FieldCfg(char=2, mode="finite", m=1)))
    ms = cayley_table(selems)
    for i, a in enumerate(selems):
        assert ms[i] == [finite_index(a * b) for b in selems]


def failed_group_checks() -> list[str]:
    checks = run_suite("groups", RunConfig(samples=1))["checks"]
    return [c["name"] for c in checks if not c["ok"]]


def in_finite_field(a, q: int) -> bool:
    return a.field.mode == "finite" and a.field.q == q


def test_group_law_check_sees_one_broken_product(monkeypatch):
    mul = TElem.__mul__

    def broken(a, b):
        if in_finite_field(a, 3) and (finite_index(a), finite_index(b)) == (5, 11):
            return mul(mul(a, b), b)  # b is not the identity, so this is wrong
        return mul(a, b)

    monkeypatch.setattr(TElem, "__mul__", broken)
    assert failed_group_checks() == ["T-F3-group-laws-and-center"]


def test_omega_table_check_sees_two_swapped_images(monkeypatch):
    norm_and_omega = TElem.norm_and_omega
    field = f27()
    # indices 1 and 2 are the central elements (0, 0, 1) and (0, 0, 2)
    assert finite_index(TElem.center(field.from_coeff(1)).omega()) != 2

    def swapped(a):
        if in_finite_field(a, 27) and finite_index(a) in (1, 2):
            a = TElem.center(a.field.from_coeff(3 - finite_index(a)))
        return norm_and_omega(a)

    monkeypatch.setattr(TElem, "norm_and_omega", swapped)
    assert failed_group_checks() == ["omega-squared-F27"]


def test_omega_table_check_sees_an_image_at_the_identity(monkeypatch):
    norm_and_omega = TElem.norm_and_omega

    def to_identity(a):
        n, image = norm_and_omega(a)
        if in_finite_field(a, 27) and finite_index(a) == 1:
            image = TElem.identity(a.field)
        return n, image

    monkeypatch.setattr(TElem, "norm_and_omega", to_identity)
    assert failed_group_checks() == ["omega-squared-F27"]


def test_norm_check_sees_a_nonzero_norm_at_the_identity(monkeypatch):
    norm = TElem.norm

    def lifted(a):
        if in_finite_field(a, 27) and a.is_identity():
            return a.field.one()
        return norm(a)

    monkeypatch.setattr(TElem, "norm", lifted)
    assert failed_group_checks() == ["T-norm-anisotropic"]
