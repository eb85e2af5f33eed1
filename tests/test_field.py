import random
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import _kernel_py as kpy
from srlab.errors import ConfigError, InsufficientPrecisionError, ParseError, ResourceBoundError
from srlab.field import CoeffField, FieldCfg, TitsField
from srlab.scalar import INFINITY, ExtVal, QuadExt


def hahn(char=3, **kw):
    return TitsField(FieldCfg(char=char, mode="hahn", m=1, **kw))


def finite(char, m):
    return TitsField(FieldCfg(char=char, mode="finite", m=m))


def test_twist_squares_to_frobenius_everywhere():
    for p, m in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (3, 5)):
        cf = CoeffField(p, m)
        for x in range(cf.q):
            assert cf.theta(cf.theta(x)) == cf.frobf[x]
            for y in range(cf.q):
                assert cf.theta(cf.mul(x, y)) == cf.mul(cf.theta(x), cf.theta(y))


def test_generator_order():
    cf = CoeffField(3, 3)
    seen = set()
    x = 1
    for _ in range(cf.q - 1):
        seen.add(x)
        x = cf.mul(x, cf.generator)
    assert len(seen) == cf.q - 1


def _has_low_degree_factor(mod, p):
    """True when some monic polynomial of degree 1..m//2 divides mod, by trial division."""
    m = len(mod) - 1
    for d in range(1, m // 2 + 1):
        for k in range(p**d):
            div = [(k // p**i) % p for i in range(d)] + [1]
            rem = list(mod)
            for top in range(m, d - 1, -1):
                c = rem[top]
                for i in range(d + 1):
                    rem[top - d + i] = (rem[top - d + i] - c * div[i]) % p
            if not any(rem):
                return True
    return False


@pytest.mark.parametrize("p, m", [(2, 3), (3, 3), (2, 5)])
def test_coeff_field_accepts_exactly_irreducible_moduli(p, m):
    accepted = 0
    for k in range(p**m):
        mod = tuple((k // p**i) % p for i in range(m)) + (1,)
        if _has_low_degree_factor(mod, p):
            with pytest.raises(ConfigError, match="modulus is reducible"):
                CoeffField(p, m, mod)
        else:
            cf = CoeffField(p, m, mod)
            assert sorted(cf.exp) == list(range(1, cf.q))
            accepted += 1
    assert accepted > 0


def test_bad_modulus_rejected():
    with pytest.raises(ConfigError):
        CoeffField(2, 3, (1, 0, 0, 1))  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(ConfigError):
        CoeffField(3, 2)  # even extension degree has no twist
    with pytest.raises(ConfigError):
        CoeffField(5, 1)


def test_finite_mode_arithmetic():
    f = finite(2, 3)
    a = f.from_coeff(3)
    b = f.from_coeff(5)
    assert (a + b + a + b).is_zero()
    assert (a * a.inv()).agrees(f.one())
    assert a.theta().theta().agrees(a.frob())


def test_monomial_and_val():
    f = hahn()
    exp = QuadExt(Fraction(3, 2), Fraction(-1, 2), 3)
    m = f.monomial(exp, 2)
    assert m.val() == ExtVal.of(exp)
    assert f.zero().val() == INFINITY
    assert (m * m).val() == ExtVal.of(exp + exp)


def test_lattice_roundtrip():
    f = hahn()
    exp = QuadExt(Fraction(-5, 2), 2, 3)
    assert f.unlat(f.lat(exp)) == exp
    with pytest.raises(ConfigError):
        f.lat(QuadExt(Fraction(1, 3)))  # not on the exponent lattice


def test_parse_and_emit():
    f = hahn()
    a = f.parse("1*t^(1/2) + 2*t^(-3/2+1r3)")
    assert f.parse(a.emit()).agrees(a)
    assert a.val() == ExtVal.of(QuadExt(Fraction(-3, 2), 1, 3))
    with pytest.raises(ParseError):
        f.parse("1*t^(1/2) + ")
    with pytest.raises(ParseError):
        f.parse("3*t^(0)")  # coefficient outside the prime field


def test_parse_extension_coeffs():
    f = TitsField(FieldCfg(char=3, mode="hahn", m=3))
    a = f.parse("g^5*t^(0) + g*t^(1)")
    assert f.parse(a.emit()).agrees(a)


def test_addition_cancels_exactly():
    f = hahn()
    a = f.monomial(0, 1) + f.monomial(1, 2)
    b = f.monomial(0, 2) + f.monomial(1, 1)
    assert (a + b).is_zero()
    # parsed elements carry a precision stamp, so the same cancellation
    # is not certifiable there
    pa = f.parse("1*t^(0) + 2*t^(1)")
    pb = f.parse("2*t^(0) + 1*t^(1)")
    with pytest.raises(InsufficientPrecisionError):
        (pa + pb).is_zero()


def test_theta_on_exponents():
    f = hahn()
    m = f.monomial(QuadExt(1, 2, 3))
    # theta multiplies the exponent by sqrt(3)
    assert m.theta().val() == ExtVal.of(QuadExt(6, 1, 3))
    a = f.parse("1*t^(0) + 1*t^(1/2)")
    assert a.theta().theta().agrees(a.frob())


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 3), (3, 3), (3, 5)])
def test_finite_results_are_interned(p, m):
    f = finite(p, m)
    cf, e = f.coeff, f.elems
    assert len(e) == cf.q and all(x.k == k for k, x in enumerate(e))
    assert f.zero() is e[0] and f.one() is e[1]
    for x in range(cf.q):
        a = f.from_coeff(x)
        assert a is e[x]
        assert f.parse(a.emit()) is a
        assert -a is e[cf.negf[x]]
        assert a.theta() is e[cf.thetaf[x]]
        assert a.frob() is e[cf.frobf[x]]
        assert a.twisted_pow(2, 1) is e[cf.twisted_pow(x, 2, 1)]
        assert a**3 is e[cf.twisted_pow(x, 3, 0)]
        if x:
            assert a.inv() is e[cf.invf[x]]
            assert a**-2 is e[cf.twisted_pow(x, -2, 0)]
        for b in e:
            y = b.k
            assert a + b is e[cf.addf[x * cf.q + y]]
            assert a - b is e[cf.addf[x * cf.q + cf.negf[y]]]
            assert a * b is e[cf.mulf[x * cf.q + y]]
            if y:
                assert a / b is e[cf.mulf[x * cf.q + cf.invf[y]]]


def test_distinct_fields_do_not_mix():
    f, g = finite(3, 3), finite(3, 3)
    a, b = f.from_coeff(5), g.from_coeff(5)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: a / b,
        lambda: a.agrees(b),
    ):
        with pytest.raises(ValueError, match="different fields"):
            op()
    assert hahn().elems is None


def test_twisted_pow():
    f = hahn()
    a = f.parse("1*t^(1) + 2*t^(3/2)")
    assert a.twisted_pow(1, 1).agrees(a * a.theta())
    assert a.twisted_pow(2, 0).agrees(a * a)
    assert a.twisted_pow(0, 0).agrees(f.one())


def test_inverse_monomial_exact():
    f = hahn()
    m = f.monomial(QuadExt(Fraction(5, 2), -1, 3), 2)
    inv = m.inv()
    assert inv.prec is None
    assert (m * inv).agrees(f.one())


def test_inverse_series_certified():
    f = hahn()
    a = f.parse("1*t^(0) + 1*t^(1/2) + 2*t^(3)")
    inv = a.inv()
    assert inv.prec is not None
    prod = a * inv
    assert prod.agrees(f.one())
    assert not prod.is_zero()


def test_inverse_needs_certified_lead():
    f = hahn()
    with pytest.raises(ZeroDivisionError):
        f.zero().inv()
    # exact cancellation below a finite precision leaves nothing certified
    inv = f.parse("1*t^(0) + 1*t^(1/2) + 2*t^(1)").inv()
    empty = inv - inv
    with pytest.raises(InsufficientPrecisionError):
        empty.inv()


def test_support_cap_lowers_precision_honestly():
    tight = hahn(support_cap=8)
    wide = hahn(support_cap=256)
    a = tight.parse("1*t^(0) + 1*t^(1/2) + 2*t^(2/2) + 1*t^(3/2)")
    b = wide.parse("1*t^(0) + 1*t^(1/2) + 2*t^(2/2) + 1*t^(3/2)")
    ia, ib = a.inv(), b.inv()
    assert ia.prec is not None and ib.prec is not None
    assert tight.unlat(ia.prec) < wide.unlat(ib.prec)
    assert (a * ia).agrees(tight.one())


def test_agrees_below_common_precision():
    f = hahn(precision=5)
    a = f.parse("1*t^(0) + 1*t^(1/2) + 2*t^(1)")
    inv = a.inv()
    other = inv + f.monomial(QuadExt(100))  # far beyond certified range
    assert inv.agrees(other)
    assert inv.agrees(inv + f.monomial(QuadExt(0)) - f.monomial(QuadExt(0)))


def test_is_zero_raises_when_uncertifiable():
    f = hahn()
    a = f.parse("1*t^(0) + 1*t^(1/2) + 2*t^(1)")
    residue = a * a.inv() - f.one()
    with pytest.raises(InsufficientPrecisionError):
        residue.is_zero()


@settings(max_examples=60)
@given(st.integers(-8, 8), st.integers(-3, 3), st.integers(1, 2), st.integers(-8, 8), st.integers(-3, 3), st.integers(1, 2))
def test_monomial_products_commute(e1, f1, c1, e2, f2, c2):
    f = hahn()
    a = f.monomial(f.unlat((e1, f1)), c1)
    b = f.monomial(f.unlat((e2, f2)), c2)
    assert (a * b).agrees(b * a)
    assert (a * b).val() == a.val() + b.val()


def sqrt_convergents(p, limit):
    """Continued-fraction convergents h/k of sqrt(p) (p not a square) with
    k below limit."""
    a0 = isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    out = []
    while k < limit:
        out.append((h, k))
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return out


def key_sign(x, y, p):
    kx, ky = kpy.lat_key(*x, p), kpy.lat_key(*y, p)
    return (kx > ky) - (kx < ky)


def test_exact_key_order_matches_lat_cmp():
    rng = random.Random(12)
    for p in (2, 3):
        for span in (10, 10**4, kpy.KEY_LIMIT - 1):
            for _ in range(2000):
                x = (rng.randint(-span, span), rng.randint(-span, span))
                y = (rng.randint(-span, span), rng.randint(-span, span))
                assert key_sign(x, y, p) == kpy.lat_cmp(*x, *y, p)


def test_irr_sign_big_ints():
    big = 10**40
    for p in (2, 3):
        for b in (big, big + 1, 7 * big + 3):
            # floor(b*sqrt(p)); b*sqrt(p) is irrational, so never equal to an integer
            root = isqrt(p * b * b)
            for a in (root - 1, root, root + 1, root + 2):
                # a < 0 < b side: -a + b*sqrt(p) > 0 exactly when a <= root
                assert kpy.irr_sign(-a, b, p) == (1 if a <= root else -1), (a, b, p)
                # mirrored a > 0 > b side: a - b*sqrt(p) > 0 exactly when a > root
                assert kpy.irr_sign(a, -b, p) == (1 if a > root else -1), (a, b, p)
        assert kpy.irr_sign(big, -big, p) == -1
        assert kpy.irr_sign(-big + 1, big, p) == 1


def test_exact_key_order_on_near_ties():
    assert (1393, 985) in sqrt_convergents(2, kpy.KEY_LIMIT)
    assert (1351, 780) in sqrt_convergents(3, kpy.KEY_LIMIT)
    for p in (2, 3):
        convergents = [(h, k) for h, k in sqrt_convergents(p, kpy.KEY_LIMIT) if h < kpy.KEY_LIMIT]
        # h - k*sqrt(p) is within 1/k of zero, alternating in sign
        near = [(h, -k) for h, k in convergents] + [(-h, k) for h, k in convergents]
        near += [(0, 0), (1, 0), (-1, 0)]
        for x in near:
            for y in near:
                assert key_sign(x, y, p) == kpy.lat_cmp(*x, *y, p), (x, y, p)
        terms = {x: 1 for x in near}
        got = [lat for lat, _ in kpy.ser_sorted(terms, p)]
        assert got == sorted(near, key=cmp_to_key(lambda a, b: kpy.lat_cmp(*a, *b, p)))
        assert kpy.ser_min(terms, p) == got[0]


def test_exact_key_guard_raises_past_its_limit():
    top = kpy.KEY_LIMIT - 1
    assert kpy.lat_key(top, -top, 3) < kpy.lat_key(top, 0, 3) < kpy.lat_key(top, top, 3)
    for lat in ((kpy.KEY_LIMIT, 0), (0, -kpy.KEY_LIMIT), (-kpy.KEY_LIMIT, 1)):
        with pytest.raises(ResourceBoundError):
            kpy.lat_key(*lat, 2)
    cf = CoeffField(3, 1)
    with pytest.raises(ResourceBoundError):
        kpy.ser_mul({(kpy.KEY_LIMIT, 0): 1}, {(0, 0): 1}, 3, cf.addf, cf.mulf, (10, 0), 3)


def test_exact_key_is_the_floor():
    rng = random.Random(13)
    for p in (2, 3):
        # f*sqrt(p)*2^KEY_BITS closest to an integer: the hardest floors
        near = [(0, k) for _h, k in sqrt_convergents(p << 2 * kpy.KEY_BITS, kpy.KEY_LIMIT)]
        rand = [(rng.randint(-9999, 9999), rng.randint(-(2**28), 2**28)) for _ in range(500)]
        for e, f in near + [(-e, -f) for e, f in near] + rand:
            y = isqrt(p * f * f << 2 * kpy.KEY_BITS)  # floor(|f| sqrt(p) 2^KEY_BITS)
            floor = y if f >= 0 else -y - 1
            assert kpy.lat_key(e, f, p) == (e << kpy.KEY_BITS) + floor


def test_bounded_product_is_truncated_product():
    rng = random.Random(14)
    for p, m in ((2, 3), (3, 1)):
        cf = CoeffField(p, m)
        for _ in range(300):
            a, b = (
                {(rng.randint(-30, 30), rng.randint(-12, 12)): rng.randrange(1, cf.q) for _ in range(rng.randrange(1, 14))}
                for _ in range(2)
            )
            (e1, f1), (e2, f2) = rng.choice(list(a)), rng.choice(list(b))
            # bounds on a pair sum and next to it exercise the exact tie-break
            for bound in ((e1 + e2, f1 + f2), (e1 + e2 + 1, f1 + f2 - 1), (e1 + e2 - 1, f1 + f2)):
                full = kpy.ser_mul(a, b, cf.q, cf.addf, cf.mulf, None, p)
                got = kpy.ser_mul(a, b, cf.q, cf.addf, cf.mulf, bound, p)
                assert got == kpy.ser_trunc(full, bound, p)
