import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.errors import ParseError, RadicandMismatchError
from srlab.scalar import INFINITY, ExtVal, QuadExt, parse_quad, quad_str


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


def test_scalars_combine_only_with_scalars():
    # equal values must hash alike, so a QuadExt is not equal to an int
    assert QuadExt(3) != 3
    assert {3: "x"}.get(QuadExt(3)) is None
    assert ExtVal.of(3) != 3 and ExtVal.of(3) != QuadExt(3)
    for op in (
        lambda: QuadExt(1) + 1,
        lambda: 1 + QuadExt(1),
        lambda: QuadExt(1) - Fraction(1, 2),
        lambda: QuadExt(1) * 2,
        lambda: QuadExt(1) / 2,
        lambda: QuadExt(1) < 2,
    ):
        with pytest.raises(TypeError):
            op()


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


def _fraction_text(a, b, den, p):
    """The text of (a + b*sqrt(p))/den written through Fractions."""

    def part(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    ra = part(Fraction(a, den))
    return ra if b == 0 else f"{ra}+{part(Fraction(b, den))}r{p}"


def test_quad_str_matches_fraction_text():
    rng = random.Random(20)
    for _ in range(4000):
        a = rng.choice((0, rng.randint(-60, 60)))
        b = rng.choice((0, rng.randint(-60, 60)))
        den = rng.choice((1, 2, 3, 6, 12))
        p = rng.choice((2, 3))
        text = quad_str(a, b, den, p)
        assert text == _fraction_text(a, b, den, p)
        x = QuadExt.from_ints(a, b, den, p)
        assert str(x) == text
        assert parse_quad(text) == x
        assert parse_quad(text, radicand=p) == x


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_quad("1/2+zr3")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_quad("1/0")
    with pytest.raises(RadicandMismatchError):
        parse_quad("1+1r2", radicand=3)
    # longer than int() converts by default (4300 digits): decided on the text
    for text, pos in (("1" * 5000, 0), (" 1/2+1/" + "1" * 5000 + "r3", 7)):
        with pytest.raises(ParseError, match="integer has more than") as exc:
            parse_quad(text)
        assert exc.value.pos == pos
    assert parse_quad("-" + "0" * 5000 + "3/2") == QuadExt(Fraction(-3, 2))


@pytest.mark.parametrize(
    "text, pos, message",
    [
        # text that is not n[/d][+n[/d]rP] fails where it stops following it
        ("1/2+zr3", 4, None),
        ("-/2", 1, None),
        ("1/", 2, None),
        ("1+1", 3, None),
        ("1+1r", 4, None),
        ("1/2+1/3r3x", 9, None),
        ("+", 1, None),
        ("1r3", 1, None),
        ("1/-2", 2, None),
        ("1+1/r3", 4, None),
        ("", 0, None),
        # a rule fails at the part it rejects
        ("1+1r5", 4, "radicand must be 2 or 3"),
        ("1/0", 2, "zero denominator"),
        ("1/2+1/0r3", 6, "zero denominator"),
    ],
)
def test_parse_quad_error_table(text, pos, message):
    with pytest.raises(ParseError) as exc:
        parse_quad(text)
    assert type(exc.value) is ParseError
    assert exc.value.pos == pos
    if message is not None:
        assert str(exc.value).startswith(message)


def test_parse_quad_reads_ascii_digits_only():
    # literals are read in ASCII digits; int() alone also reads other scripts' digits
    with pytest.raises(ParseError) as exc:
        parse_quad("1+\u0661r3")
    assert exc.value.pos == 2
    with pytest.raises(ParseError) as exc:
        parse_quad("\u0663/2")
    assert exc.value.pos == 0


def test_extval_basics():
    a = ExtVal.of(QuadExt(1))
    b = ExtVal.of(QuadExt(0, 1, 3))
    assert min(a, b) == a
    assert a + b == ExtVal.of(QuadExt(1, 1, 3))
    assert (a + INFINITY).is_infinite
    assert INFINITY > b
    assert min(INFINITY, b) == b
    assert a.scale(QuadExt(2)) == ExtVal.of(QuadExt(2))
    with pytest.raises(ValueError):
        a.scale(QuadExt(-1))
    with pytest.raises(ValueError):
        INFINITY.finite


def test_extval_rejects_other_types():
    one = ExtVal.of(1)
    for op in (
        lambda: one + QuadExt(1),
        lambda: one - QuadExt(1),
        lambda: one + 1,
        lambda: one < 2,
        lambda: one >= QuadExt(2),
        lambda: INFINITY < QuadExt(2),
        lambda: one.scale(2),
        lambda: INFINITY.scale(Fraction(1, 2)),
    ):
        with pytest.raises(TypeError, match="ExtVal"):
            op()


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


def _scale_factors() -> dict[int, list[QuadExt]]:
    """Every positive factor the valuation layer scales a value by, per radicand:
    the B2/G2/F4 interval coefficients, the norm-valuation constants of S and
    T, 1/sqrt(p), 1/2 and 2."""
    from srlab.roots import get_system

    out: dict[int, set] = {2: set(), 3: set()}
    for kind, p in (("B2", 2), ("F4", 2), ("G2", 3)):
        system = get_system(kind)
        for i in range(system.count):
            for j in range(system.count):
                if i != j and j != system.negate_idx(i):
                    for _, pc, qc in system.interval(i, j):
                        out[p].update((pc, qc))
    out[2].update((QuadExt(2, 1, 2), QuadExt(0, 1, 2), QuadExt(0, Fraction(1, 2), 2)))
    out[3].update((QuadExt(4, 2, 3), QuadExt(1, 1, 3), QuadExt(0, Fraction(1, 3), 3)))
    for p in out:
        out[p].update((QuadExt(2), QuadExt(Fraction(1, 2))))
    return {p: sorted(cs, key=str) for p, cs in out.items()}


_FACTORS = _scale_factors()
_NEAR_LIMIT = 1 << 29
_COORD = st.one_of(
    st.integers(-80, 80),
    st.integers(_NEAR_LIMIT - 40, _NEAR_LIMIT + 40),
    st.integers(-_NEAR_LIMIT - 40, -_NEAR_LIMIT + 40),
)
_RAW = st.tuples(_COORD, _COORD, st.integers(1, 72))


@given(
    st.sampled_from((2, 3)),
    _RAW,
    _RAW,
    st.lists(st.integers(0, 1000), max_size=4),
    st.lists(st.integers(0, 1000), max_size=4),
)
def test_extval_matches_quadext_arithmetic(p, raw1, raw2, chain1, chain2):
    """ExtVal on unnormalised ints against the same steps done in QuadExt."""
    factors = _FACTORS[p]
    values = []
    for (e, f, den), chain in ((raw1, chain1), (raw2, chain2)):
        x, q = ExtVal.from_ints(e, f, den, p), QuadExt.from_ints(e, f, den, p)
        for k in chain:
            c = factors[k % len(factors)]
            x, q = x.scale(c), q * c
        values.append((x, q))
    (x, qx), (y, qy) = values
    for v, q in values:
        assert v.finite == q and str(v) == str(q)
        assert v == ExtVal(q) and hash(v) == hash(ExtVal(q))
    for got, want in ((x + y, qx + qy), (x - y, qx - qy), (-x, -qx)):
        assert got.finite == want and str(got) == str(want)
        assert hash(got) == hash(ExtVal(want))
    assert (x < y) == (qx < qy) and (y < x) == (qy < qx)
    assert (x == y) == (qx == qy) and (x <= y) == (qx <= qy)
    assert min(x, y) == ExtVal(min(qx, qy))
    assert x < INFINITY and not INFINITY < x and x + INFINITY == INFINITY


@given(_RAW, _RAW)
def test_extval_refuses_to_mix_radicands(raw2, raw3):
    (e2, f2, d2), (e3, f3, d3) = raw2, raw3
    x = ExtVal.from_ints(e2, f2 or 1, d2, 2)
    y = ExtVal.from_ints(e3, f3 or 1, d3, 3)
    for op in (
        lambda: x + y,
        lambda: y - x,
        lambda: x < y,
        lambda: x.scale(QuadExt(1, 1, 3)),
        lambda: y.scale(QuadExt(0, 1, 2)),
    ):
        with pytest.raises(RadicandMismatchError):
            op()
    assert x != y
    # a part without sqrt names no radicand, as in QuadExt
    z = ExtVal.from_ints(e3, 0, d3, 3)
    assert (x + z).finite == QuadExt.from_ints(e2, f2 or 1, d2, 2) + QuadExt.from_ints(e3, 0, d3, None)
