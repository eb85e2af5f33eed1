from fractions import Fraction

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
