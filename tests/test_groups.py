import random

import pytest

from srlab import _kernel_py as kpy
from srlab.errors import ConfigError, InsufficientPrecisionError, SrlabError
from srlab.field import CoeffField, FieldCfg, TitsField
from srlab.groups import SElem, TElem, h_action, val_norm_exact
from srlab.samplers import (
    biased_component,
    cayley_table,
    finite_elem,
    finite_elems,
    finite_index,
    rand_elem,
    rand_lat,
    rand_short,
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


def hahn(char, **kw):
    return TitsField(FieldCfg(char=char, mode="hahn", m=1, **kw))


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


def scales_norm_twice(h, act, x) -> bool:
    """The torus action through h multiplies the norm (N for T, R for S) by
    the square of the norm of h."""
    n = h.norm()
    return act(x).norm().agrees(n * n * x.norm())


def test_h_action_automorphism_finite():
    field = f27()
    elems = finite_elems(TElem, field)
    rng = random.Random(4)
    for _ in range(60):
        h = elems[rng.randrange(1, len(elems))]
        act = h_action(h)
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        assert act(x * y).agrees(act(x) * act(y))
        assert scales_norm_twice(h, act, x) and scales_norm_twice(h, act, y)
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    selems = finite_elems(SElem, f8)
    for _ in range(60):
        h = selems[rng.randrange(1, len(selems))]
        act = h_action(h)
        x = selems[rng.randrange(len(selems))]
        y = selems[rng.randrange(len(selems))]
        assert act(x * y).agrees(act(x) * act(y))
        assert scales_norm_twice(h, act, x) and scales_norm_twice(h, act, y)


def test_h_action_map_serves_a_series_product_and_its_factors():
    rng = random.Random(6)
    for cls, field in ((TElem, hahn(3)), (SElem, hahn(2))):
        h = rand_elem(cls, field, rng)
        act = h_action(h)
        assert act is not None
        for _ in range(5):
            x, y = rand_elem(cls, field, rng), rand_elem(cls, field, rng)
            assert act(x * y).agrees(act(x) * act(y))
            assert scales_norm_twice(h, act, x) and scales_norm_twice(h, act, y)
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


@pytest.mark.parametrize(
    "cls, table, failed",
    [
        (SElem, ((1, 0), (1, 1)), "S-norm-level-prevalidation"),
        (TElem, ((1, 0), (1, 1), (2, 1)), "T-norm-level-formula"),
    ],
    ids=["S", "T"],
)
def test_norm_level_checks_see_a_wrong_torus_table(monkeypatch, cls, table, failed):
    """The norm-level formula reads its weights off the torus table, so a
    wrong table fails the appendix check of that formula."""
    monkeypatch.setattr(cls, "ACTION_EXPONENTS", table)
    checks = run_suite("appendix", RunConfig(samples=5))["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [failed]


# --- the bounded norm products against the plain formulas ---


def plain_t(a):
    """N and (u, v) of a T element by the plain formulas: every product
    formed in full, powers by repeated multiplication."""
    r, s, t = a.r, a.s, a.t
    tr, ts, tt = r.theta(), s.theta(), t.theta()
    n = (
        r * tr * ts - r * tt - r * r * r * tr * s - r * r * s * s + s * ts + t * t
        - r * r * r * r * (tr * tr)
    )
    u = r * r * s - r * t + ts - r * r * r * tr
    v = tr * ts - tt + r * s * s + s * t - r * r * r * (tr * tr)
    return n, (u, v)


def plain_omega(n, uv, t):
    ninv = n.inv()
    u, v = uv
    return -(v * ninv), -(u * ninv), -(t * ninv)


def plain_r(a):
    """R(s, t) = s^(theta+2) + s t + t^theta, every product formed in full."""
    return a.s.twisted_pow(2, 1) + a.s * a.t + a.t.theta()


def prod(factors):
    out = factors[0]
    for x in factors[1:]:
        out = out * x
    return out


def outcome(fn):
    """fn()'s value, or the type of the srlab error it raised."""
    try:
        return fn()
    except SrlabError as exc:
        return type(exc)


def inexact_component(field, rng):
    """An inexact coordinate: a geometric-series inverse (cut at the support
    cap when it has more terms), a product of one, or one cancelled to an
    empty support below its precision."""
    x = rand_short(field, rng, 2)
    while len(x.terms) < 2:
        x = rand_short(field, rng, 2)
    y = x.inv()
    roll = rng.random()
    if roll < 0.15:
        return y - y
    if roll < 0.45:
        return y * biased_component(field, rng)
    return y


def mixed_component(field, rng):
    """A coordinate of any kind: zero, exact with one to four terms (so a
    product of two exact ones can pass a support cap of 8), or inexact."""
    roll = rng.random()
    if roll < 0.1:
        return field.zero()
    if roll < 0.3:
        return biased_component(field, rng)
    if roll < 0.45:
        return rand_short(field, rng, 4)
    return inexact_component(field, rng)


def parity_draws(cls, field, rng, n):
    """Exact draws, draws with mixed exact, inexact, inexact-empty and zero
    coordinates, and (for T) omega of an exact draw, whose coordinates the
    support cap often cuts."""
    out = []
    for k in range(n):
        a = rand_elem(cls, field, rng)
        if k % 3 == 1:
            a = cls(*[mixed_component(field, rng) for _ in range(cls.ARITY)])
        elif k % 3 == 2 and cls is TElem:
            a = a.omega()
        out.append(a)
    return out


def test_bounded_norm_products_equal_the_plain_formulas():
    """N, (u, v), omega and R keep every term and every precision of the
    plain formulas, whose products are formed in full."""
    rng = random.Random(21)
    seen = {"cut": 0, "empty": 0, "zero": 0}
    for cap in (64, 8):
        f3, f2 = hahn(3, support_cap=cap), hahn(2, support_cap=cap)
        for a in parity_draws(TElem, f3, rng, 90):
            n, uv = plain_t(a)
            assert a.norm() == n
            assert a._uv(a._shared()) == uv
            want = outcome(lambda: plain_omega(n, uv, a.t))
            assert outcome(lambda: TElem.COORDS(a.omega())) == want
            for c in a.COORDS(a):
                seen["cut"] += len(c.terms) == cap
                seen["empty"] += not c.terms and c.prec is not None
                seen["zero"] += not c.terms and c.prec is None
        for a in parity_draws(SElem, f2, rng, 60):
            assert a.norm() == plain_r(a)
    assert min(seen.values()) >= 10, seen


def test_add_product_equals_the_plain_sum():
    """self + sign * a * b * c, term for term and precision for precision,
    on running sums and factors of every kind."""
    rng = random.Random(22)
    for char in (2, 3):
        for cap in (64, 8):
            f = hahn(char, support_cap=cap)
            for _ in range(150):
                acc = mixed_component(f, rng)
                factors = [mixed_component(f, rng) for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.2:
                    factors.append(factors[-1])  # a square
                sign = rng.choice((1, -1))
                plain = acc + prod(factors) if sign > 0 else acc - prod(factors)
                assert outcome(lambda: acc.add_product(sign, *factors)) == outcome(lambda: plain)
    # an exact product is not cut at the support cap: here the sum cancels
    # the 9th of its 9 terms (t^4), and keeps the precision 40 of the sum
    f = hahn(3, support_cap=8)
    a, b = (
        sum((f.monomial(f.unlat((e, 0))) for e in exps), f.zero())
        for exps in ((0, 1, 2), (0, 3, 6))
    )
    acc = f.parse("2*t^(4)")
    assert acc.add_product(1, a, b) == acc + a * b
    assert len((acc + a * b).terms) == 8 and (acc + a * b).prec == f.prec_key
    f27 = TitsField(FieldCfg(char=3, mode="finite", m=3))
    for _ in range(200):
        acc, *factors = (f27.from_coeff(rng.randrange(27)) for _ in range(rng.randint(2, 4)))
        sign = rng.choice((1, -1))
        plain = acc + prod(factors) if sign > 0 else acc - prod(factors)
        assert acc.add_product(sign, *factors) is plain


def test_squares_equal_the_general_product():
    """A support passed as both operands is squared in one pass, to the
    product the general loop forms from two distinct sequences."""
    rng = random.Random(23)
    for p, m in ((2, 1), (2, 3), (3, 1), (3, 3)):
        cf = CoeffField(p, m)
        for _ in range(200):
            lats = {rand_lat(rng, 20): rng.randrange(1, cf.q) for _ in range(rng.randint(1, 14))}
            items = sorted((kpy.exp_key(e, g, p), c) for (e, g), c in lats.items())
            full = kpy.ser_mul(items, list(items), cf.q, cf.addf, cf.mulf, None)
            view = dict(items).items()
            assert kpy.ser_mul(view, view, cf.q, cf.addf, cf.mulf, None) == full
            assert kpy.ser_mul(items, items, cf.q, cf.addf, cf.mulf, None) == full
            (k1, _c1), (k2, _c2) = rng.choice(items), rng.choice(items)
            for bound in (k1 + k2, k1 + k2 + 1, k1 + k2 - 1, 2 * items[0][0]):
                got = kpy.ser_mul(items, items, cf.q, cf.addf, cf.mulf, bound)
                assert got == kpy.ser_mul(items, list(items), cf.q, cf.addf, cf.mulf, bound)
                assert got == kpy.ser_trunc(full, bound)
    # a small grid of exponents, whose many equal pair sums cancel: the
    # square keeps none of its zero sums, bounded or not
    grid = [(e, g) for e in range(3) for g in range(-1, 2)]
    cancelled = 0
    for p, m in ((3, 1), (3, 3)):
        cf = CoeffField(p, m)
        for _ in range(50):
            items = sorted((kpy.exp_key(e, g, p), rng.randrange(1, cf.q)) for e, g in grid)
            sums = {k1 + k2 for k1, _c1 in items for k2, _c2 in items}
            for bound in (None, items[4][0] + items[5][0]):
                got = kpy.ser_mul(items, items, cf.q, cf.addf, cf.mulf, bound)
                assert all(got.values())
                assert got == kpy.ser_mul(items, list(items), cf.q, cf.addf, cf.mulf, bound)
                cancelled += sum(bound is None or k < bound for k in sums) - len(got)
    assert cancelled >= 50


def test_theta_of_a_product_is_the_product_of_theta_images():
    """theta(x y) is theta(x) theta(y) and theta(x^2) is theta(x)^2, term for
    term and precision for precision, support-cap cuts included, so the norm
    and (u, v) may form theta(r)^2 and theta(r) theta(s) as theta-images.
    Over the m = 3 coefficient fields theta also moves the coefficients."""
    rng = random.Random(24)
    seen = {"cut": 0, "inexact": 0, "moved": 0}
    for char, m in ((2, 1), (3, 1), (2, 3), (3, 3)):
        for cap in (64, 8):
            f = TitsField(FieldCfg(char=char, mode="hahn", m=m, support_cap=cap))
            for _ in range(100):
                x, y = mixed_component(f, rng), mixed_component(f, rng)
                xy, sq = x * y, x * x
                assert xy.theta() == x.theta() * y.theta()
                assert sq.theta() == x.theta() * x.theta()
                seen["cut"] += (len(xy.terms) == cap) + (len(sq.terms) == cap)
                seen["inexact"] += sq.prec is not None
                seen["moved"] += any(f.coeff.thetaf[c] != c for c in xy.terms.values())
    assert min(seen.values()) >= 10, seen


def test_omega_negates_the_inverse_norm_once():
    """x (-y) is -(x y), so omega's coordinates v (-1/N), u (-1/N) and
    t (-1/N) are the negated products -(v/N), -(u/N) and -(t/N)."""
    rng = random.Random(25)
    elems = finite_elems(TElem, f3())[1:]
    for cap in (64, 8):
        for char in (2, 3):
            f = hahn(char, support_cap=cap)
            for _ in range(100):
                x, y = mixed_component(f, rng), mixed_component(f, rng)
                assert x * -y == -(x * y)
        elems += parity_draws(TElem, hahn(3, support_cap=cap), rng, 60)
    for a in elems:

        def negated_products(a=a):
            ninv = a.norm().inv()
            u, v = a._uv(a._shared())
            return -(v * ninv), -(u * ninv), -(a.t * ninv)

        assert outcome(lambda: TElem.COORDS(a.omega())) == outcome(negated_products)
