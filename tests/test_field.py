import random
from fractions import Fraction
from functools import cache, cmp_to_key, reduce
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import _kernel_py as kpy
from srlab import field
from srlab.errors import (
    ConfigError,
    DivisionByZeroError,
    InsufficientPrecisionError,
    ParseError,
    RadicandMismatchError,
    ResourceBoundError,
    SrlabError,
)
from srlab.field import CoeffField, FieldCfg, SeriesElem, TitsField
from srlab.samplers import rand_lat, rand_monomial, rand_short
from srlab.scalar import INFINITY, ExtVal, QuadExt, irr_sign, parse_quad, quad_str
from srlab.suites import RunConfig, run_suite


def hahn(char=3, **kw):
    return TitsField(FieldCfg(char=char, mode="hahn", m=1, **kw))


def finite(char, m):
    return TitsField(FieldCfg(char=char, mode="finite", m=m))


def test_twist_squares_to_frobenius_everywhere():
    for p, m in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (3, 5)):
        cf = CoeffField(p, m)
        for x in range(cf.q):
            assert cf.theta(cf.theta(x)) == reduce(cf.mul, [x] * p)
            for y in range(cf.q):
                assert cf.theta(cf.mul(x, y)) == cf.mul(cf.theta(x), cf.theta(y))


def test_generator_order():
    """The generator is x: index p for m > 1, and x = -1 = p - 1 for m = 1."""
    for p, m in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (3, 5)):
        cf = CoeffField(p, m)
        g = cf.exp[1 % (cf.q - 1)]  # exp[0] = 1 in F2
        assert g == (p if m > 1 else p - 1)
        seen = set()
        x = 1
        for _ in range(cf.q - 1):
            seen.add(x)
            x = cf.mul(x, g)
        assert x == 1
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


@pytest.mark.parametrize("p, m", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (3, 5)])
def test_coeff_field_walk_certifies_its_modulus(p, m):
    """Each table modulus is irreducible, and x's walk visits every nonzero index."""
    mod = field._MODULI[p, m]
    assert not _has_low_degree_factor(mod, p)
    cf = CoeffField(p, m)
    assert sorted(cf.exp) == list(range(1, cf.q))


@pytest.mark.parametrize(
    "p, mod, irreducible",
    [
        (2, (1, 0, 0, 1), False),  # x^3 + 1 = (x + 1)(x^2 + x + 1)
        (3, (2, 0, 1, 1), True),  # x^3 + x^2 + 2: x has order 13, not 26
    ],
)
def test_coeff_field_rejects_a_non_primitive_modulus(monkeypatch, p, mod, irreducible):
    assert _has_low_degree_factor(mod, p) is not irreducible
    monkeypatch.setitem(field._MODULI, (p, 3), mod)
    with pytest.raises(ConfigError, match="modulus is not primitive"):
        CoeffField(p, 3)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 3), (3, 3), (2, 5), (3, 5)])
def test_coeff_tables_are_digit_polynomial_arithmetic(p, m):
    """Index k is the polynomial with base-p digits of k, and the tables are
    sums, negatives and products of those polynomials modulo the modulus."""
    cf = CoeffField(p, m)
    q, mod = cf.q, field._MODULI[p, m]
    digits = [[(k // p**i) % p for i in range(m)] for k in range(q)]
    index = {tuple(d): k for k, d in enumerate(digits)}

    def mulmod(a, b):
        out = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        for d in range(2 * m - 2, m - 1, -1):
            out[d - m:d] = [c - out[d] * r for c, r in zip(out[d - m:d], mod)]
        return tuple(c % p for c in out[:m])

    for x, dx in enumerate(digits):
        assert cf.negf[x] == index[tuple(-a % p for a in dx)]
        sums = [tuple((a + b) % p for a, b in zip(dx, dy)) for dy in digits]
        assert cf.addf[x * q:x * q + q] == [index[s] for s in sums]
        assert cf.mulf[x * q:x * q + q] == [index[mulmod(dx, dy)] for dy in digits]


def test_bad_modulus_rejected():
    with pytest.raises(ConfigError, match="supported"):
        CoeffField(3, 2)  # even extension degree has no twist
    with pytest.raises(ConfigError, match="supported"):
        CoeffField(5, 1)
    with pytest.raises(ConfigError, match="supported"):
        CoeffField(2, 7)  # beyond the table of moduli


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"mode": "padic"}, "mode must be 'finite' or 'hahn', got 'padic'"),
        ({"denom": 0}, "exponent denominator must be positive, got 0"),
        ({"denom": -3}, "exponent denominator must be positive, got -3"),
        ({"precision": 0}, "precision must be positive, got 0"),
        ({"support_cap": 7}, "support cap must be at least 8, got 7"),
        ({"precision": 2**28},
         "precision * denom must be below the exact order key's limit 2^29, got 536870912"),
        ({"precision": 2**28 - 1}, None),
        # the rules are checked in this order, so the first broken one is named
        ({"mode": "padic", "denom": 0}, "mode must be 'finite' or 'hahn', got 'padic'"),
        ({"denom": 0, "precision": 0, "support_cap": 0},
         "exponent denominator must be positive, got 0"),
        ({"precision": -1, "support_cap": 0}, "precision must be positive, got -1"),
        ({"support_cap": 0, "precision": 2**29}, "support cap must be at least 8, got 0"),
        ({"mode": "finite", "m": 3, "support_cap": 5}, "support cap must be at least 8, got 5"),
    ],
    ids=["mode", "denom-zero", "denom-negative", "precision-zero", "support-cap-seven",
         "key-limit", "below-key-limit", "mode-first", "denom-first", "precision-first",
         "support-cap-first", "finite-mode-too"],
)
def test_field_settings_rules(settings, message):
    """Each rule on a field's settings raises ConfigError with its message."""
    cfg = FieldCfg(char=3, **settings)
    if message is None:
        assert TitsField(cfg).prec_span == cfg.precision * cfg.denom
        return
    with pytest.raises(ConfigError) as err:
        TitsField(cfg)
    assert str(err.value) == message


def test_finite_mode_arithmetic():
    f = finite(2, 3)
    a = f.from_coeff(3)
    b = f.from_coeff(5)
    assert (a + b + a + b).is_zero()
    assert (a * a.inv()).agrees(f.one())
    assert a.theta().theta().agrees(a ** f.p)


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
    # off the exponent lattice, lat raises the message parse reports for the
    # same exponent in text
    for text in ("1/3", "1/2+1/3r3"):
        with pytest.raises(ConfigError) as lat_error:
            f.lat(parse_quad(text))
        with pytest.raises(ParseError) as parse_error:
            f.parse(f"1*t^({text})")
        assert type(lat_error.value) is ConfigError
        assert str(lat_error.value) == f"exponent {text} is not a multiple of 1/2"
        assert str(parse_error.value) == f"{lat_error.value} (at position 5)"


def test_parse_and_emit():
    f = hahn()
    a = f.parse("1*t^(1/2) + 2*t^(-3/2+1r3)")
    assert f.parse(a.emit()).agrees(a)
    assert a.val() == ExtVal.of(QuadExt(Fraction(-3, 2), 1, 3))
    with pytest.raises(ParseError):
        f.parse("1*t^(1/2) + ")
    with pytest.raises(ParseError):
        f.parse("3*t^(0)")  # coefficient outside the prime field


def test_emitted_text_is_pinned():
    # F8 series: generator-power coefficients and irrational exponents
    f8 = TitsField(FieldCfg(char=2, mode="hahn", m=3, denom=2))
    g = f8.coeff.exp
    x = (
        f8.monomial(QuadExt(1, 1, 2), g[1])
        + f8.monomial(QuadExt(Fraction(1, 2), Fraction(-1, 2), 2), g[3])
        + f8.monomial(QuadExt(0, 1, 2), g[6])
        + f8.monomial(QuadExt(Fraction(-3, 2)), 1)
        + f8.monomial(QuadExt(Fraction(5, 2), -2, 2), g[5])
    )
    assert x.emit() == (
        "1*t^(-3/2)+g^5*t^(5/2+-2r2)+g^3*t^(1/2+-1/2r2)+g^6*t^(0+1r2)+g*t^(1+1r2)"
    )
    assert f8.parse(x.emit()).agrees(x)
    # denom 6: each part of an exponent prints in lowest terms, so the
    # lattice pair (3, 0), which is 3/6, prints 1/2
    f6 = hahn(denom=6)
    y = f6.zero()
    for lat, c in (((3, 0), 1), ((2, 3), 2), ((-4, 0), 2), ((6, -6), 1), ((0, 2), 1)):
        y = y + f6.monomial(f6.unlat(lat), c)
    assert y.emit() == "1*t^(1+-1r3)+2*t^(-2/3)+1*t^(1/2)+1*t^(0+1/3r3)+2*t^(1/3+1/2r3)"
    assert f6.parse(y.emit()).agrees(y)


@pytest.mark.parametrize(
    "text, pos, message",
    [
        ("1*t^(1/0)", 7, "zero denominator"),
        ("1*t^(0) + g*t^(1/0)", 17, "zero denominator"),
        ("1*t^(1/2+1/3r5)", 13, "radicand must be 2 or 3"),
        ("1*t^(0) +  g*t^( 1/2+1/3r5)", 25, "radicand must be 2 or 3"),
        # longer than int() converts by default (4300 digits): decided on the text
        pytest.param("1*t^(" + "1" * 5000 + ")", 5, "integer has more than", id="long-numerator"),
        pytest.param("1*t^(1/" + "1" * 5000 + ")", 7, "integer has more than", id="long-denominator"),
        pytest.param(
            "1*t^(0) + 1*t^(1+1/" + "1" * 5000 + "r2)", 19, "integer has more than",
            id="long-sqrt-denominator",
        ),
    ],
)
def test_malformed_exponent_error_position(text, pos, message):
    f8 = TitsField(FieldCfg(char=2, mode="hahn", m=3, denom=2))
    with pytest.raises(ParseError) as exc:
        f8.parse(text)
    assert exc.value.pos == pos
    assert str(exc.value).startswith(message)


_TERM_SHAPE = "term must look like coef*t^(exponent)"


@pytest.mark.parametrize(
    "char, m, text, error, pos, message",
    [
        # text with nothing but blanks is no literal
        (3, 1, "", ParseError, 0, "empty element literal"),
        (3, 1, "   ", ParseError, 0, "empty element literal"),
        # text the term pattern cannot read fails at its term's start
        (3, 1, "1*t^(1/2) + ", ParseError, 11, _TERM_SHAPE),
        (3, 1, "1*t(0)", ParseError, 0, _TERM_SHAPE),
        (3, 1, "1*t^(0) + 2*t^(1", ParseError, 10, _TERM_SHAPE),
        (3, 1, "1*t^(0))", ParseError, 0, _TERM_SHAPE),
        (3, 1, "1*t^(0)  +   2*t^(x)", ParseError, 13, _TERM_SHAPE),
        (3, 1, "1*t^(0) + -1*t^(1)", ParseError, 10, _TERM_SHAPE),
        (3, 1, "1*t^(1/)", ParseError, 0, _TERM_SHAPE),
        (3, 1, "1*t^(0+1r23)", ParseError, 0, _TERM_SHAPE),
        (3, 1, "1_0*t^(0)", ParseError, 0, _TERM_SHAPE),
        (3, 1, "1*t^(\u0663)", ParseError, 0, _TERM_SHAPE),
        (2, 3, "g^ 5*t^(0)", ParseError, 0, _TERM_SHAPE),
        (2, 3, "1*t^(0) + g^x*t^(1)", ParseError, 10, _TERM_SHAPE),
        # a rule of the field fails at the part it rejects
        (3, 1, "3*t^(0)", ParseError, 0, "prime-subfield coefficient must be in 0..2"),
        (3, 1, "1*t^(0) + 12*t^(1)", ParseError, 10, "prime-subfield coefficient"),
        (2, 3, "1*t^(0) + 2*t^(1)", ParseError, 10, "prime-subfield coefficient must be in 0..1"),
        (3, 1, "1*t^(0) + g*t^(1)", ParseError, 10, "generator literal needs an extension field"),
        (3, 1, "g^2*t^(1)", ParseError, 0, "generator literal needs an extension field"),
        (3, 1, "1*t^(1+1/0r3)", ParseError, 9, "zero denominator"),
        (3, 1, "1*t^(1+1r5)", ParseError, 9, "radicand must be 2 or 3"),
        (3, 1, "1*t^(1/3)", ParseError, 5, "exponent 1/3 is not a multiple of 1/2"),
        (3, 1, "2*t^(0) + 1*t^( 1/2+1/3r3)", ParseError, 16, "exponent 1/2+1/3r3 is not"),
        (3, 1, "1*t^(1+1r2)", RadicandMismatchError, None, "value written over sqrt(2)"),
        (2, 3, "1*t^(0) + g*t^(1+1r3)", RadicandMismatchError, None, "value written over sqrt(3)"),
    ],
)
def test_malformed_literal_error_type_and_position(char, m, text, error, pos, message):
    f = TitsField(FieldCfg(char=char, mode="hahn", m=m))
    with pytest.raises(error) as exc:
        f.parse(text)
    assert type(exc.value) is error
    assert getattr(exc.value, "pos", None) == pos
    assert str(exc.value).startswith(message)


def test_exponent_over_the_other_radicand_is_a_radicand_mismatch():
    # the rule parse and parse_quad apply to text, applied to a QuadExt
    with pytest.raises(RadicandMismatchError, match=r"^value written over sqrt\(2\) in a sqrt\(3\)"):
        hahn().monomial(QuadExt(0, 1, 2))


def test_radicand_of_a_zero_part_is_not_checked():
    # as in parse_quad, a part 0*sqrt(P) names no radicand to mismatch
    f = hahn()
    assert f.parse("1*t^(1+0r2)").agrees(f.monomial(1, 1))


@pytest.mark.parametrize(
    "m, text, pos, message",
    [
        (1, "3", 0, "prime-subfield coefficient must be in 0..2"),
        (1, " 7 ", 0, "prime-subfield coefficient must be in 0..2"),
        (1, "g", 0, "generator literal needs an extension field"),
        (1, "g^2", 0, "generator literal needs an extension field"),
        (1, "", 0, "coefficient must be a digit, g or g^k"),
        (1, "+1", 0, "coefficient must be a digit, g or g^k"),
        (1, "-0", 0, "coefficient must be a digit, g or g^k"),
        (1, "1*t^(0)", 0, "coefficient must be a digit, g or g^k"),
        (3, "g^ 5", 0, "coefficient must be a digit, g or g^k"),
        (3, "g^1_0", 0, "coefficient must be a digit, g or g^k"),
        pytest.param(3, "g^" + "1" * 5000, 2, "integer has more than", id="long-generator-power"),
    ],
)
def test_finite_coefficient_errors(m, text, pos, message):
    with pytest.raises(ParseError) as exc:
        finite(3, m).parse(text)
    assert exc.value.pos == pos
    assert str(exc.value).startswith(message)


def test_long_coefficient_digits_fail_as_parse_errors():
    # longer than int() converts by default (4300 digits)
    digits = "1" * 5000
    f3 = finite(3, 1)
    for f, text, pos in (
        (f3, digits, 0),
        (hahn(), f"1*t^(0) + {digits}*t^(1)", 10),
    ):
        with pytest.raises(ParseError) as exc:
            f.parse(text)
        assert exc.value.pos == pos
        assert str(exc.value).startswith("prime-subfield coefficient must be in 0..2")
    assert f3.parse("0" * 5000 + "2") is f3.elems[2]


def test_finite_coefficients_parse():
    f27 = finite(3, 3)
    g = f27.coeff.exp
    assert f27.parse(" g^5 ") is f27.elems[g[5]]
    assert f27.parse("g^-1") is f27.elems[g[25]]
    assert f27.parse("g^+27") is f27.elems[g[1]]
    assert f27.parse("02") is f27.elems[2]


@pytest.mark.parametrize("char", [2, 3])
@pytest.mark.parametrize("denom", [1, 2, 6])
def test_round_trip_stamps_the_precision(char, denom):
    # F8 and F27: every nonzero coefficient once, on exponents with both
    # lattice parts
    f = TitsField(FieldCfg(char=char, mode="hahn", m=3, denom=denom, precision=30))
    x = f.zero()
    for c in range(1, f.q):
        x = x + f.monomial(f.unlat((c - 9, c % 3 - 1)), c)
    text = x.emit()
    y = f.parse(text)
    assert y.terms == x.terms
    assert y.emit() == text
    assert repr(y).endswith(" +O(t^(30))>")
    assert repr(f.parse("0")) == "<0 +O(t^(30))>"


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


def test_parsed_terms_at_one_exponent_sum_and_may_cancel():
    # 1 + 2 = 0 in characteristic 3, so the two terms leave the parsed zero
    f = hahn()
    assert f.parse("1*t^(1)+2*t^(1)") == f.parse("0")
    assert f.parse("1*t^(1)+1*t^(1)") == f.parse("2*t^(1)")


def test_finite_field_refuses_what_it_cannot_hold():
    f = finite(3, 1)
    with pytest.raises(DivisionByZeroError, match="inverse of zero coefficient"):
        f.zero().inv()
    with pytest.raises(DivisionByZeroError, match="inverse of zero coefficient"):
        f.zero() ** -1
    with pytest.raises(ValueError, match="coefficient index out of range: 3"):
        f.from_coeff(f.q)
    with pytest.raises(ConfigError, match="monomials exist only in hahn mode"):
        f.monomial(0)


def test_theta_on_exponents():
    f = hahn()
    m = f.monomial(QuadExt(1, 2, 3))
    # theta multiplies the exponent by sqrt(3)
    assert m.theta().val() == ExtVal.of(QuadExt(6, 1, 3))
    a = f.parse("1*t^(0) + 1*t^(1/2)")
    assert a.theta().theta().agrees(a ** f.p)


def test_twist_ring_map_check_sees_a_theta_that_does_not_square_to_frobenius(monkeypatch):
    """With theta patched to the identity, theta is still a ring map, but its
    square is no longer a -> a^p, and exactly the two series checks of that
    claim fail."""
    monkeypatch.setattr(SeriesElem, "theta", lambda self: self)
    checks = run_suite("field", RunConfig(samples=5))["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == [
        "hahn-char2-twist-ring-map",
        "hahn-char3-twist-ring-map",
    ]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 3), (2, 5), (3, 3), (3, 5)])
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
        assert a**p is e[reduce(cf.mul, [x] * p)]
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
            factors = (b, e[(x + y) % cf.q], e[(x * y + 1) % cf.q])
            for n in (1, 2, 3):
                k = reduce(cf.mul, [c.k for c in factors[:n]])
                assert a.add_product(1, *factors[:n]) is e[cf.addf[x * cf.q + k]]
                assert a.add_product(-1, *factors[:n]) is e[cf.addf[x * cf.q + cf.negf[k]]]


def test_distinct_fields_do_not_mix():
    f, g = finite(3, 3), finite(3, 3)
    x = hahn().monomial(QuadExt(1), 1)
    for a, b in ((f.from_coeff(5), g.from_coeff(5)), (f.from_coeff(5), x), (x, f.from_coeff(5))):
        for op in (
            lambda: a + b,
            lambda: a - b,
            lambda: a * b,
            lambda: a / b,
            lambda: a.agrees(b),
            lambda: a.add_product(1, a, b),
            lambda: a.add_product(1, b),
            lambda: b.add_product(-1, a, a),
        ):
            with pytest.raises(ValueError, match="different fields"):
                op()
    assert hahn().elems is None


def test_field_suite_builds_no_finite_elements(monkeypatch):
    """The field suite checks the coefficient tables themselves, so it
    builds no finite field's elements (nor their table rows)."""
    built = []
    init = field.FiniteElem.__init__

    def counted(self, f, k):
        built.append(k)
        init(self, f, k)

    monkeypatch.setattr(field.FiniteElem, "__init__", counted)
    assert run_suite("field", RunConfig(samples=5))["checks"]
    assert built == []


@pytest.mark.parametrize("char", [2, 3])
def test_monomial_at_is_monomial_from_the_pair(char):
    """A draw through the lattice pair is the element the exponent route
    builds, and it leaves the random stream where that route leaves it."""
    f = hahn(char)
    old_rng, new_rng = random.Random(char), random.Random(char)
    for _ in range(2000):
        a = f.monomial(f.unlat(rand_lat(old_rng)), old_rng.randrange(1, f.q))
        b = rand_monomial(f, new_rng)
        assert (a.terms, a.prec, a._span, a._low) == (b.terms, b.prec, b._span, b._low)
    assert old_rng.getstate() == new_rng.getstate()
    assert f.monomial_at((3, -1), 0).agrees(f.zero())


def test_twisted_pow():
    f = hahn()
    a = f.parse("1*t^(1) + 2*t^(3/2)")
    assert a.twisted_pow(1, 1).agrees(a * a.theta())
    assert a.twisted_pow(2, 0).agrees(a * a)
    assert a.twisted_pow(0, 0).agrees(f.one())


def frobenius_draws(f, rng):
    """Exact elements: zero, one, monomials, random sums, and sums on an
    arithmetic progression of exponents, whose products by themselves have
    cross terms that meet and cancel (in (1 + t + t^2)^2, say)."""

    def mono(lat):
        return f.monomial(f.unlat(lat), rng.randrange(1, f.q))

    draws = [f.zero(), f.one(), sum((f.monomial(k) for k in range(3)), f.zero())]
    for _ in range(40):
        draws.append(mono(rand_lat(rng, 20)))
        draws.append(sum((mono(rand_lat(rng, 20)) for _ in range(rng.randint(2, 12))), f.zero()))
    for _ in range(20):
        (e, g), (de, dg) = rand_lat(rng, 20), rand_lat(rng, 3)
        n = rng.randint(2, 8)
        draws.append(sum((mono((e + k * de, g + k * dg)) for k in range(n)), f.zero()))
    assert all(a.prec is None for a in draws)
    return draws


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 3), (3, 3)])
def test_exact_pth_power_is_the_product(p, m):
    """An exact a ** p maps each term c t^g to c^p t^(pg): the element that
    p - 1 general products form, with the same span and least exponent.
    Over F_p every c^p is c, so only m = 3 sees the coefficient map."""
    f = TitsField(FieldCfg(char=p, mode="hahn", m=m))
    rng = random.Random(29 + p + m)
    for a in frobenius_draws(f, rng):
        copy = a + f.zero()  # a distinct element, so `*` takes the general loop
        product = reduce(lambda x, y: x * y, [a] + [copy] * (p - 1))
        power = a**p
        assert power == product
        assert power._span == product._span
        assert power.val() == product.val()
        assert power._low in (None, kpy.ser_min(power.terms, p))


def test_inexact_powers_keep_the_product():
    """An inexact x ** e is the left-to-right product, in terms and
    precision, including where the support cap cuts it."""
    rng = random.Random(31)
    for p in (2, 3):
        for f in (hahn(char=p), hahn(char=p, support_cap=8)):
            for a in frobenius_draws(f, rng)[1:]:
                x = f.parse(a.emit())
                assert x.prec is not None
                want = x * x
                assert x**2 == want
                assert x**3 == want * x


def test_exact_pth_power_forms_no_product(monkeypatch):
    calls = []
    ser_mul = kpy.ser_mul
    monkeypatch.setattr(kpy, "ser_mul", lambda *args: calls.append(1) or ser_mul(*args))
    for p in (2, 3):
        f = hahn(char=p)
        exact = f.monomial(0) + f.monomial(Fraction(1, 2), p - 1) + f.monomial(3)
        inexact = f.parse(exact.emit())
        calls.clear()
        exact**p
        assert calls == []
        inexact**p
        assert len(calls) == p - 1


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


def test_single_term_inverse_is_certified_below_prec_less_twice_its_exponent():
    """t^6 + O(t^40) inverts to t^-6 + O(t^28), and a field of precision 80
    and support cap 256 agrees below 28; it has a term at 33, so a claim of
    O(t^34) would disagree."""

    def z(f):
        x = f.monomial(6) + f.monomial(45)
        y = f.parse("1*t^(1)")
        return ((x + y) - y).inv()

    f, wide = hahn(), hahn(precision=80, support_cap=256)
    got, ref = z(f), z(wide)
    assert got.prec == f.prec_key - 2 * kpy.exp_key(2 * 6, 0, 3)
    assert f.unlat(f.unkey(got.prec)) == QuadExt(40 - 2 * 6)
    assert got.terms == kpy.ser_trunc(ref.terms, got.prec) == {kpy.exp_key(-12, 0, 3): 1}
    assert kpy.exp_key(2 * 33, 0, 3) in ref.terms


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
    assert tight.unlat(tight.unkey(ia.prec)) < wide.unlat(wide.unkey(ib.prec))
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
    kx, ky = kpy.exp_key(*x, p), kpy.exp_key(*y, p)
    return (kx > ky) - (kx < ky)


def lat_sign(x, y, p):
    return irr_sign(x[0] - y[0], x[1] - y[1], p)


def key_terms(lats, p):
    return {kpy.exp_key(e, f, p): c for (e, f), c in lats.items()}


def test_exact_key_order_matches_irr_sign():
    rng = random.Random(12)
    for p in (2, 3):
        for span in (10, 10**4, kpy.KEY_LIMIT - 1):
            for _ in range(2000):
                x = (rng.randint(-span, span), rng.randint(-span, span))
                y = (rng.randint(-span, span), rng.randint(-span, span))
                assert key_sign(x, y, p) == lat_sign(x, y, p)


def test_irr_sign_big_ints():
    big = 10**40
    for p in (2, 3):
        for b in (big, big + 1, 7 * big + 3):
            # floor(b*sqrt(p)); b*sqrt(p) is irrational, so never equal to an integer
            root = isqrt(p * b * b)
            for a in (root - 1, root, root + 1, root + 2):
                # a < 0 < b side: -a + b*sqrt(p) > 0 exactly when a <= root
                assert irr_sign(-a, b, p) == (1 if a <= root else -1), (a, b, p)
                # mirrored a > 0 > b side: a - b*sqrt(p) > 0 exactly when a > root
                assert irr_sign(a, -b, p) == (1 if a > root else -1), (a, b, p)
        assert irr_sign(big, -big, p) == -1
        assert irr_sign(-big + 1, big, p) == 1


def near_ties(p):
    """Exponents h - k*sqrt(p) within 1/k of zero, alternating in sign, from
    the convergents of sqrt(p) below the key limit, and their negatives."""
    convergents = [(h, k) for h, k in sqrt_convergents(p, kpy.KEY_LIMIT) if h < kpy.KEY_LIMIT]
    return [(h, -k) for h, k in convergents] + [(-h, k) for h, k in convergents]


def test_exact_key_order_on_near_ties():
    assert (1393, 985) in sqrt_convergents(2, kpy.KEY_LIMIT)
    assert (1351, 780) in sqrt_convergents(3, kpy.KEY_LIMIT)
    for p in (2, 3):
        near = near_ties(p) + [(0, 0), (1, 0), (-1, 0)]
        for x in near:
            for y in near:
                assert key_sign(x, y, p) == lat_sign(x, y, p), (x, y, p)
        terms = key_terms({x: 1 for x in near}, p)
        got = [kpy.key_lat(k, p) for k in sorted(terms)]
        assert got == sorted(near, key=cmp_to_key(lambda a, b: lat_sign(a, b, p)))
        assert kpy.ser_min(terms, p) == got[0]


def test_exact_key_guard_raises_past_its_limit():
    top = kpy.KEY_LIMIT - 1
    assert kpy.exp_key(top, -top, 3) < kpy.exp_key(top, 0, 3) < kpy.exp_key(top, top, 3)
    f = hahn(denom=1)
    for lat in ((kpy.KEY_LIMIT, 0), (0, -kpy.KEY_LIMIT), (-kpy.KEY_LIMIT, 1)):
        with pytest.raises(ResourceBoundError):
            kpy.lat_span(*lat)
        with pytest.raises(ResourceBoundError):
            f.monomial(f.unlat(lat))
    # a bounded product whose factor lies one step below the limit and whose
    # other factor carries it to the limit
    edge = f.monomial(f.unlat((top, 0)))
    inexact = f.parse("1*t^(1) + 1*t^(2)")
    assert inexact.prec is not None
    with pytest.raises(ResourceBoundError):
        edge * inexact


def test_exact_key_is_linear_and_decodes():
    rng = random.Random(13)
    for p in (2, 3):
        root = isqrt(p << 128)  # floor(sqrt(p) * 2^64)
        # f*sqrt(p) closest to an integer: the hardest orders
        near = [(0, k) for _h, k in sqrt_convergents(p << 2 * 32, kpy.KEY_LIMIT)]
        rand = [(rng.randint(-9999, 9999), rng.randint(-(2**28), 2**28)) for _ in range(500)]
        lats = near + near_ties(p) + [(-e, -f) for e, f in near] + rand
        for e, f in lats:
            k = kpy.exp_key(e, f, p)
            assert k == ((e * 2**64 + f * root) << 32) + f
            assert kpy.key_lat(k, p) == (e, f)
        for _ in range(2000):
            (e1, f1), (e2, f2) = rng.choice(lats), rng.choice(lats)
            k = kpy.exp_key(e1, f1, p) + kpy.exp_key(e2, f2, p)
            assert k == kpy.exp_key(e1 + e2, f1 + f2, p)
            assert kpy.key_lat(k, p) == (e1 + e2, f1 + f2)


def test_products_and_theta_raise_exactly_at_the_key_limit():
    top = kpy.KEY_LIMIT - 1
    for p in (2, 3):
        f = hahn(char=p, denom=1)

        def mono(e, g):
            return f.monomial(f.unlat((e, g)))

        # exact product: one step below the limit passes, the limit raises
        assert (mono(top - 1, 0) * mono(1, -3)).val() == ExtVal.of(f.unlat((top, -3)))
        with pytest.raises(ResourceBoundError):
            mono(top, 0) * mono(1, 0)
        with pytest.raises(ResourceBoundError):
            (mono(0, -top) + mono(0, 1)) * mono(3, -1)
        # spans that add past the limit while the exponents stay below it
        assert (mono(top, 5) * mono(-top, 5)).val() == ExtVal.of(f.unlat((0, 10)))
        wide = mono(top, 0) + mono(-top, 1)
        assert len((wide * mono(0, 1)).terms) == 2
        # bounded product (precision 40): the precision is an exponent too
        inexact = f.parse("1*t^(1) + 1*t^(2)")
        assert f.unkey((mono(top - 40, 0) * inexact).prec) == (top, 0)
        with pytest.raises(ResourceBoundError):
            mono(top - 39, 0) * inexact
        with pytest.raises(ResourceBoundError):
            mono(top, 0) * inexact
        # a bounded sum of products: the product of the first factors is
        # formed below 40 less the least exponents of the later factors, and
        # that bound is an exponent too, though the plain sum stays in range
        one, lo = mono(0, 0), 40 - top
        assert (inexact.add_product(1, one, one, mono(lo, 0))).val() == ExtVal.of(f.unlat((lo, 0)))
        with pytest.raises(ResourceBoundError):
            inexact.add_product(1, one, one, mono(lo - 1, 0))
        assert (inexact + one * one * mono(lo - 1, 0)).terms
        # checked also where the partial product's own precision is lower
        assert inexact.add_product(1, inexact, one, mono(lo, 0)).terms
        with pytest.raises(ResourceBoundError):
            inexact.add_product(1, inexact, one, mono(lo - 1, 0))
        g = top // 2
        assert inexact.add_product(-1, one, one, mono(-g, 0), mono(lo + g, 0)).terms
        with pytest.raises(ResourceBoundError):
            inexact.add_product(-1, one, one, mono(-g, 0), mono(lo + g - 1, 0))
        # theta maps (e, f) to (p*f, e)
        g = top // p
        assert mono(5, g).theta().val() == ExtVal.of(f.unlat((p * g, 5)))
        assert (mono(5, g) + mono(-top, 0)).theta().terms
        with pytest.raises(ResourceBoundError):
            mono(0, g + 1).theta()
        with pytest.raises(ResourceBoundError):
            (mono(1, 0) + mono(0, -g - 1)).theta()
        # an exact p-th power maps (e, f) to (p*e, p*f) and raises where the
        # p - 1 products raise
        assert (mono(g, 0) ** p).val() == ExtVal.of(f.unlat((p * g, 0)))
        assert ((mono(-1, -g) + mono(5, 0)) ** p).val() == ExtVal.of(f.unlat((-p, -p * g)))
        for x in (mono(g + 1, 0), mono(0, -g - 1), mono(1, 0) + mono(-g - 1, 2)):
            with pytest.raises(ResourceBoundError):
                x**p
            with pytest.raises(ResourceBoundError):
                reduce(lambda y, z: y * z, [x] * p)
        # one-term inexact inverse: t^e + O(t^(e + 40)) inverts to
        # t^-e + O(t^(40 - e)), so its precision moves to prec - 2e
        one = f.parse("1*t^(0)")
        assert f.unkey((mono(40 - top, 0) * one).inv().prec) == (top, 0)
        with pytest.raises(ResourceBoundError):
            (mono(40 - kpy.KEY_LIMIT, 0) * one).inv()
        # multi-term inverse: 1/(t^e + t^(e + 1)) is t^-e (1 - t + t^2 - ...)
        # cut at the field's precision 40, with precision 40 - e
        assert f.unkey((mono(40 - top, 0) + mono(41 - top, 0)).inv().prec) == (top, 0)
        with pytest.raises(ResourceBoundError):
            (mono(40 - kpy.KEY_LIMIT, 0) + mono(41 - kpy.KEY_LIMIT, 0)).inv()


def test_inverse_checks_its_working_bound_at_the_key_limit():
    # 1/x for x = t^g (1 + t + t^2) + O(t^prec) is first cut below
    # prec - g = 2^29 + 10, past the key limit, though every exponent of x
    # and of the result, which the support cap of 8 cuts lower, lies below it
    g, prec = -(2**28), 2**28 + 10
    f = hahn(denom=1, precision=prec, support_cap=8)
    x = f.parse(f"1*t^({g}) + 1*t^({g + 1}) + 1*t^({g + 2})")
    assert len(x.terms) == 3 and f.unkey(x.prec) == (prec, 0)
    with pytest.raises(ResourceBoundError, match=r"^lattice exponent \(536870922, 0\) "):
        x.inv()


def test_support_cap_cut_is_checked_at_the_key_limit():
    # 71 terms at precision (8, 0); the product's top term (2^29, -1) lies
    # below its precision (2^29 - 1, 0) and past the key limit, and the
    # support cap of 64 would cut it away
    f = hahn(denom=1, precision=8)
    b = f.parse("+".join(f"1*t^(-{k})" for k in range(1, 71)) + "+1*t^(9+-1r3)")
    assert len(b.terms) == 71 and f.unkey(b.prec) == (8, 0)
    a = f.monomial(f.unlat((kpy.KEY_LIMIT - 1 - 8, 0)))
    with pytest.raises(ResourceBoundError):
        a * b


def test_carried_least_exponent_is_the_support_minimum():
    rng = random.Random(16)
    for p in (2, 3):
        f = hahn(char=p, denom=1)

        def mono():
            lat = (rng.randint(-10**6, 10**6), rng.randint(-10**5, 10**5))
            return f.monomial(f.unlat(lat), rng.randrange(1, f.q))

        for _ in range(300):
            x = mono()
            for y in (x, x * mono(), x.theta(), -x, x.inv(), (x * mono()).theta().inv()):
                assert y._low is not None
                assert y._low == kpy.ser_min(y.terms, p)


def test_theta_keeps_the_order_of_a_support():
    rng = random.Random(15)
    for p in (2, 3):
        thetaf = list(range(p))
        for _ in range(300):
            lats = {(rng.randint(-999, 999), rng.randint(-300, 300)): 1 for _ in range(12)}
            lats.update({x: 1 for x in rng.sample(near_ties(p), 4)})
            terms = key_terms(lats, p)
            image = kpy.ser_theta(terms, p, thetaf)
            # theta of the support in its key order is the image in its key order
            assert [kpy.key_theta(k, p) for k in sorted(terms)] == sorted(image)
            assert sorted(image) == [kpy.exp_key(p * g, e, p) for e, g in map(
                lambda k: kpy.key_lat(k, p), sorted(terms))]


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
            ia, ib = sorted(key_terms(a, p).items()), sorted(key_terms(b, p).items())
            # bounds on a pair sum and next to it exercise the exact tie-break
            for bound in ((e1 + e2, f1 + f2), (e1 + e2 + 1, f1 + f2 - 1), (e1 + e2 - 1, f1 + f2)):
                kb = kpy.exp_key(*bound, p)
                full = kpy.ser_mul(ia, ib, cf.q, cf.addf, cf.mulf, None)
                got = kpy.ser_mul(ia, ib, cf.q, cf.addf, cf.mulf, kb)
                assert got == kpy.ser_trunc(full, kb)


def delete_on_zero_product(ta, tb, q, addf, mulf, bound):
    """The bounded product as a loop that deletes a key whose sum cancels."""
    out = {}
    if not ta or not tb:
        return out
    for k1, c1 in ta:
        lim = bound - k1
        if tb[0][0] >= lim:
            break
        for k2, c2 in tb:
            if k2 >= lim:
                break
            k = k1 + k2
            s = addf[out.get(k, 0) * q + mulf[c1 * q + c2]]
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def test_bounded_product_equals_the_delete_on_zero_loop():
    """The bounded product accumulates and drops zero sums at the end; it
    forms the support of the loop that deletes each cancelled key at once."""
    rng = random.Random(27)
    cancelled = 0
    for p, m in ((2, 1), (3, 1), (2, 3), (3, 3)):
        cf = CoeffField(p, m)
        for _ in range(200):
            # a small grid of exponents, so pair sums meet and cancel often
            a, b = (
                {(rng.randint(0, 6), rng.randint(-1, 1)): rng.randrange(1, cf.q) for _ in range(rng.randrange(1, 12))}
                for _ in range(2)
            )
            ia, ib = sorted(key_terms(a, p).items()), sorted(key_terms(b, p).items())
            sums = {ka + kb for ka, _ca in ia for kb, _cb in ib}
            for kb in (max(sums) + 1, rng.choice(sorted(sums)), kpy.exp_key(rng.randint(0, 12), 0, p)):
                got = kpy.ser_mul(ia, ib, cf.q, cf.addf, cf.mulf, kb)
                assert got == delete_on_zero_product(ia, ib, cf.q, cf.addf, cf.mulf, kb)
                assert all(got.values())
                cancelled += len({k for k in sums if k < kb} - got.keys())
    assert cancelled >= 200, cancelled


def series_draws(f, rng, n):
    """Exact sums of up to six terms, some past the field's precision;
    geometric-series inverses (cut at the support cap when they have more
    terms) and their products with exact terms; inexact-empty differences;
    and sums whose terms cancel: (x + y) - y for an inexact y."""
    out = []
    for k in range(n):
        exact = f.zero()
        for _ in range(rng.randint(1, 6)):
            exact = exact + f.monomial_at((rng.randint(-20, 100), rng.randint(-6, 6)), rng.randrange(1, f.q))
        y = rand_short(f, rng, 3)
        if len(y.terms) > 1:
            y = y.inv()
        kind = k % 5
        if kind == 0:
            out.append(exact)
        elif kind == 1:
            out.append(y)
        elif kind == 2:
            out.append(y * rand_short(f, rng, 2))
        elif kind == 3:
            out.append(y - y)
        else:
            out.append((exact + y) - y)
    return out


def raised(fn):
    """fn()'s value, or the type of the srlab error it raised."""
    try:
        return fn()
    except SrlabError as exc:
        return type(exc)


def geometric_inverse(x):
    """x^-1 by the geometric series with every sum cut at the working bound
    rel, and both the sum and the power cut again when the support cap
    lowers rel."""
    f = x.field
    if len(x.terms) < 2:
        return x.inv()
    q, coeff, cap = f.q, f.coeff, f.cfg.support_cap
    addf, mulf = coeff.addf, coeff.mulf
    items = sorted(x.terms.items())
    g, c = items[0]
    cinv = coeff.invf[c]
    neg_x = [(k - g, coeff.negf[mulf[cc * q + cinv]]) for k, cc in items[1:]]
    rel = f.prec_key if x.prec is None else x.prec - g
    acc, power = {0: 1}, dict(neg_x)
    while power:
        acc = kpy.ser_trunc(kpy.ser_add(acc, power, q, addf), rel)
        if len(acc) > cap:
            rel = sorted(acc)[cap]
            acc = kpy.ser_trunc(acc, rel)
            power = kpy.ser_trunc(power, rel)
        power = kpy.ser_mul(sorted(power.items()), neg_x, q, addf, mulf, rel)
    return SeriesElem(f, {k - g: mulf[cc * q + cinv] for k, cc in acc.items()}, rel - g)


def test_inverse_equals_the_geometric_loop_that_cuts_every_sum():
    """inv, which cuts its running sum only at the support cap, gives the
    terms and precision of the loop that cuts every sum, on exact, inexact,
    inexact-empty, cancelling and support-cap-8 inputs, and on exact ones
    with terms past the field's precision."""
    rng = random.Random(28)
    seen = {"past": 0, "cut": 0, "empty": 0}
    for char in (2, 3):
        for cap in (64, 8):
            f = hahn(char, support_cap=cap)
            for x in series_draws(f, rng, 100):
                got = raised(x.inv)
                assert got == raised(lambda: geometric_inverse(x))
                seen["past"] += x.prec is None and max(x.terms, default=0) >= f.prec_key
                seen["cut"] += isinstance(got, SeriesElem) and len(got.terms) == cap
                seen["empty"] += got is InsufficientPrecisionError
    assert min(seen.values()) >= 10, seen


def test_sum_is_the_sum_cut_at_the_lesser_precision():
    """x + y truncates only the operand less precise than the sum, and is
    ser_add's sum cut at the lesser precision, then at the support cap."""
    rng = random.Random(29)
    for char in (2, 3):
        for cap in (64, 8):
            f = hahn(char, support_cap=cap)
            draws = series_draws(f, rng, 60)
            for x, y in zip(draws, rng.sample(draws, len(draws))):
                precs = [p for p in (x.prec, y.prec) if p is not None]
                prec = min(precs, default=None)
                terms = kpy.ser_add(x.terms, y.terms, f.q, f.coeff.addf)
                if prec is not None:
                    terms = kpy.ser_trunc(terms, prec)
                assert x + y == x._capped(terms, prec, 0)


# lattice coordinates: small ones (zero and negative parts) and ones up to
# the key limit
TEXT_COORD = st.one_of(st.integers(-3, 3), st.integers(-(kpy.KEY_LIMIT - 1), kpy.KEY_LIMIT - 1))


@cache
def text_field(char, m, denom):
    # the largest precision the key limit allows, so parse keeps the terms
    return TitsField(FieldCfg(
        char=char, mode="hahn", m=m, denom=denom, precision=(kpy.KEY_LIMIT - 1) // denom
    ))


def reference_text(f, lats):
    """Element text written term by term through quad_str, in increasing
    exponent order."""
    if not lats:
        return "0"
    order = sorted(lats, key=cmp_to_key(lambda x, y: lat_sign(x, y, f.p)))
    return "+".join(f"{f.coeff_names[lats[x]]}*t^({quad_str(*x, f.D, f.p)})" for x in order)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 4, 6]),
    st.sampled_from([2, 3]),
    st.sampled_from([1, 3]),
    st.lists(st.tuples(TEXT_COORD, TEXT_COORD, st.integers(1, 26)), max_size=16),
)
def test_emit_matches_the_term_by_term_text(denom, char, m, draws):
    f = text_field(char, m, denom)
    lats = {}
    for e, g, c in draws:
        # an exponent at or past the precision is negated to lie below it
        if irr_sign(e - f.prec_span, g, f.p) >= 0:
            e, g = -e, -g
        lats[(e, g)] = (c - 1) % (f.q - 1) + 1
    x = f.zero()
    for lat, c in lats.items():
        x = x + f.monomial(f.unlat(lat), c)
    text = x.emit()
    assert text == reference_text(f, lats)
    assert f.parse(text).terms == x.terms


def test_text_tables_stay_bounded():
    """A field that writes more distinct exponent parts than its text
    tables hold clears them when full, and writes the same text."""
    f = hahn(denom=1, precision=10**6)
    limit = type(f.e_text).LIMIT
    lats = {(e, e % 7 - 3 + 7 * (e // 7 % 3)): 1 for e in range(-limit, limit + 100)}
    for part in range(0, len(lats), 1000):
        chunk = dict(list(lats.items())[part:part + 1000])
        x = f.zero()
        for lat in chunk:
            x = x + f.monomial(f.unlat(lat))
        assert x.emit() == reference_text(f, chunk)
        assert len(f.e_text) <= limit and len(f.f_text) <= limit
    assert len(f.e_text) < limit


def test_capped_product_text_matches_a_fresh_element():
    f = hahn()
    a = f.parse("+".join(f"{1 + k % 2}*t^({k}/2+{k % 5 - 2}r3)" for k in range(40)))
    x = a * a
    assert len(x.terms) == f.cfg.support_cap and x._items == sorted(x.terms.items())
    fresh = SeriesElem(f, dict(x.terms), x.prec)
    lats = {f.unkey(k): c for k, c in x.terms.items()}
    assert fresh.emit() == x.emit() == reference_text(f, lats)
    # emit sorts bare keys and keeps no sorted copy of the support
    assert not hasattr(fresh, "_items")
