from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.errors import ParseError, RadicandMismatchError
from srlab.scalar import INFINITY, ExtVal, QuadExt, ext_min, parse_quad


def test_normalization():
    assert QuadExt(Fraction(2, 4)) == QuadExt(Fraction(1, 2))
    assert QuadExt(2, 4, 2) == QuadExt(1, 2, 2) * QuadExt(2)
    assert QuadExt(0, 0, 3) == QuadExt(0)
    assert QuadExt(5, 0, 2).is_rational


def test_sqrt_squares():
    for p in (2, 3):
        r = QuadExt.sqrt(p)
        assert r * r == QuadExt(p)
        assert r.sign() == 1


def test_radicand_mixing():
    x = QuadExt(1, 1, 2)
    y = QuadExt(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        x + y
    # rationals carry no radicand commitment
    assert QuadExt(3, 0, 2) + QuadExt(4, 0, 3) == QuadExt(7)
    assert QuadExt(1) * QuadExt(0, 1, 3) == QuadExt(0, 1, 3)


def test_sign_near_zero():
    # -7 + 4*sqrt(3) is about -0.07
    assert QuadExt(-7, 4, 3).sign() == -1
    # 7 - 4*sqrt(3) is about +0.07
    assert QuadExt(7, -4, 3).sign() == 1
    assert QuadExt(0, 1, 2) > QuadExt(Fraction(7, 5))
    assert QuadExt(0, 1, 2) < QuadExt(Fraction(3, 2))


def test_inverse_roundtrip():
    x = QuadExt(Fraction(3, 7), Fraction(-2, 5), 3)
    assert x * x.inv() == QuadExt(1)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inv()


def test_division_and_sqrt_scaling():
    x = QuadExt(5, 3, 2)
    assert (x / QuadExt(2)) * QuadExt(2) == x


def test_str_roundtrip():
    for x in (
        QuadExt(Fraction(-3, 4)),
        QuadExt(Fraction(1, 2), Fraction(-1, 2), 3),
        QuadExt(0, 1, 2),
        QuadExt(0),
    ):
        assert parse_quad(str(x), radicand=x.p or 3) == x


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_quad("1/2+zr3")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_quad("1/0")
    with pytest.raises(RadicandMismatchError):
        parse_quad("1+1r2", radicand=3)


def test_extval_basics():
    a = ExtVal.of(QuadExt(1))
    b = ExtVal.of(QuadExt(0, 1, 3))
    assert ext_min(a, b) == a
    assert a + b == ExtVal.of(QuadExt(1, 1, 3))
    assert (a + INFINITY).is_infinite
    assert INFINITY > b
    assert ext_min(INFINITY, b) == b
    assert a.scale(QuadExt(2)) == ExtVal.of(QuadExt(2))
    with pytest.raises(ValueError):
        a.scale(QuadExt(-1))
    with pytest.raises(ValueError):
        INFINITY.finite


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(1, 20),
    st.integers(-50, 50),
    st.integers(1, 20),
)
def test_rational_ops_match_fractions(a, b, d, a2, d2):
    x = QuadExt(Fraction(a, d), Fraction(b, d), 2)
    y = QuadExt(Fraction(a2, d2))
    fx = Fraction(a, d)
    assert (x + y) - y == x
    assert (x * y).is_rational == (y == QuadExt(0) or b == 0)
    assert QuadExt(fx) + QuadExt(Fraction(a2, d2)) == QuadExt(fx + Fraction(a2, d2))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_comparison_antisymmetric(a, b, c, d):
    x = QuadExt(a, b, 3)
    y = QuadExt(c, d, 3)
    assert (x < y) == (y > x)
    assert (x == y) == (not (x < y) and not (y < x))


def _reference(x):
    """A value as the pair (rational part, sqrt part) of Fractions."""
    return Fraction(x.a, x.den), Fraction(x.b, x.den)


def _ref_sign(r, s, p):
    """Sign of r + s*sqrt(p) by comparing squares of Fractions."""
    if (r >= 0 and s >= 0) or (r <= 0 and s <= 0):
        return (r + s > 0) - (r + s < 0)
    # opposite signs: the part with the larger square decides
    dominant = r if r * r > p * s * s else s
    return 1 if dominant > 0 else -1


def _assert_canonical(z):
    assert z.den > 0
    assert gcd(z.a, z.b, z.den) == 1
    assert (z.p is None) == (z.b == 0)


_PART = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@given(st.sampled_from((2, 3)), _PART, _PART, _PART, _PART)
def test_quadext_matches_fraction_pair_reference(p, r1, s1, r2, s2):
    s1 = s1 or Fraction(1, 3)
    x = QuadExt(r1, s1, p)
    y = QuadExt(r2, s2, p)
    assert _reference(x) == (r1, s1) and _reference(y) == (r2, s2)
    for z in (x, y):
        _assert_canonical(z)
    n = r2 * r2 - p * s2 * s2
    want = {
        "+": (r1 + r2, s1 + s2),
        "-": (r1 - r2, s1 - s2),
        "*": (r1 * r2 + p * s1 * s2, r1 * s2 + s1 * r2),
    }
    got = {"+": x + y, "-": x - y, "*": x * y}
    if r2 or s2:
        want["/"] = ((r1 * r2 - p * s1 * s2) / n, (s1 * r2 - r1 * s2) / n)
        want["inv"] = (r2 / n, -s2 / n)
        got["/"] = x / y
        got["inv"] = y.inv()
    for op, z in got.items():
        _assert_canonical(z)
        assert _reference(z) == want[op], op
    assert (x < y) == (_ref_sign(r1 - r2, s1 - s2, p) < 0)
    assert x.sign() == _ref_sign(r1, s1, p)
