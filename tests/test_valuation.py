import random
import re
from fractions import Fraction

import pytest

from srlab import valuation
from srlab.errors import InsufficientPrecisionError, ResourceBoundError, UnsupportedAngleError
from srlab.field import FieldCfg, SeriesElem, TitsField
from srlab.samplers import biased_component, finite_elems, rand_short
from srlab.groups import TElem
from srlab.scalar import INFINITY, ExtVal, QuadExt
from srlab.valuation import (
    LatticeOrderValuation,
    PhiAssignment,
    TAdicValuation,
    Valuation,
    ambient_system,
    check_double_reflection,
    check_embedding_hom,
    check_embedding_rho,
    check_rho_invariance,
    check_unique_valuation,
    check_v1,
    check_v2_pair,
    check_v3,
    collect,
    commutator_factors,
    embedding_word,
    m_sigma_conj,
    nu_from_center,
    ree_word,
    resolve_assignment,
    solve_suzuki_word,
    torus_conj,
    word_rho,
    words_agree,
)


def hahn(char):
    return TitsField(FieldCfg(char=char, mode="hahn", m=1))


def g2():
    return ambient_system("G")


def b2():
    return ambient_system("B")


def test_commutator_trivial_for_narrow_angles():
    f = hahn(3)
    sys2 = g2()
    s = f.monomial(QuadExt(1), 1)
    t = f.monomial(QuadExt(2), 1)
    i = sys2.position_root(1)
    j = sys2.position_root(2)
    assert commutator_factors("G", sys2, i, s, j, t) == []


def test_commutator_opposite_raises():
    f = hahn(3)
    sys2 = g2()
    s = f.monomial(QuadExt(1), 1)
    i = sys2.position_root(1)
    with pytest.raises(UnsupportedAngleError):
        commutator_factors("G", sys2, i, s, sys2.negate_idx(i), s)


def test_hexagon_full_relation():
    """The extreme positive pair produces the four middle factors with the
    printed parameters."""
    f = hahn(3)
    sys2 = g2()
    s = f.monomial(QuadExt(1), 1)
    t = f.monomial(QuadExt(0, 1, 3), 1)
    i1 = sys2.position_root(1)
    i6 = sys2.position_root(6)
    got = collect("G", sys2, [(6, t), (1, s)])
    want = [
        (1, s),
        (2, s.theta() * t),
        (3, s * s * t.theta()),
        (4, s.theta() * t * t),
        (5, -(s * t.theta())),
        (6, t),
    ]
    assert words_agree(got, want)


# Factors of [x_i(s), x_j(t)] in G2 for s = t^1 and t = t^(1/2), every
# ordered pair of roots that are neither equal nor opposite; pairs not listed
# commute.  Each parameter is s^E(p) t^E(q) up to the printed signs, which
# show as the coefficient 2 = -1 on the pairs (10, 2) and (10, 3), that is
# word positions (1, 5) and (1, 6).
_G2_COMMUTATORS = {
    (0, 4): [(2, '1*t^(3/2)')],
    (0, 5): [(1, '1*t^(1/2+1r3)'), (2, '1*t^(2+1/2r3)'), (3, '1*t^(1+1r3)'), (4, '1*t^(1+1/2r3)')],
    (0, 7): [(11, '1*t^(1/2+1r3)'), (10, '1*t^(2+1/2r3)'), (9, '1*t^(1+1r3)'), (8, '1*t^(1+1/2r3)')],
    (0, 8): [(10, '1*t^(3/2)')],
    (1, 5): [(3, '1*t^(3/2)')],
    (1, 6): [(2, '1*t^(1/2+1r3)'), (3, '1*t^(2+1/2r3)'), (4, '1*t^(1+1r3)'), (5, '1*t^(1+1/2r3)')],
    (1, 8): [(0, '1*t^(1/2+1r3)'), (11, '1*t^(2+1/2r3)'), (10, '1*t^(1+1r3)'), (9, '1*t^(1+1/2r3)')],
    (1, 9): [(11, '1*t^(3/2)')],
    (2, 6): [(4, '1*t^(3/2)')],
    (2, 7): [(3, '1*t^(1/2+1r3)'), (4, '1*t^(2+1/2r3)'), (5, '1*t^(1+1r3)'), (6, '1*t^(1+1/2r3)')],
    (2, 9): [(1, '1*t^(1/2+1r3)'), (0, '1*t^(2+1/2r3)'), (11, '1*t^(1+1r3)'), (10, '1*t^(1+1/2r3)')],
    (2, 10): [(0, '1*t^(3/2)')],
    (3, 7): [(5, '1*t^(3/2)')],
    (3, 8): [(4, '1*t^(1/2+1r3)'), (5, '1*t^(2+1/2r3)'), (6, '1*t^(1+1r3)'), (7, '1*t^(1+1/2r3)')],
    (3, 10): [(2, '1*t^(1/2+1r3)'), (1, '1*t^(2+1/2r3)'), (0, '1*t^(1+1r3)'), (11, '1*t^(1+1/2r3)')],
    (3, 11): [(1, '1*t^(3/2)')],
    (4, 0): [(2, '1*t^(3/2)')],
    (4, 8): [(6, '1*t^(3/2)')],
    (4, 9): [(5, '1*t^(1/2+1r3)'), (6, '1*t^(2+1/2r3)'), (7, '1*t^(1+1r3)'), (8, '1*t^(1+1/2r3)')],
    (4, 11): [(3, '1*t^(1/2+1r3)'), (2, '1*t^(2+1/2r3)'), (1, '1*t^(1+1r3)'), (0, '1*t^(1+1/2r3)')],
    (5, 0): [(4, '1*t^(1/2+1r3)'), (3, '1*t^(2+1/2r3)'), (2, '1*t^(1+1r3)'), (1, '1*t^(1+1/2r3)')],
    (5, 1): [(3, '1*t^(3/2)')],
    (5, 9): [(7, '1*t^(3/2)')],
    (5, 10): [(6, '1*t^(1/2+1r3)'), (7, '1*t^(2+1/2r3)'), (8, '1*t^(1+1r3)'), (9, '1*t^(1+1/2r3)')],
    (6, 1): [(5, '1*t^(1/2+1r3)'), (4, '1*t^(2+1/2r3)'), (3, '1*t^(1+1r3)'), (2, '1*t^(1+1/2r3)')],
    (6, 2): [(4, '1*t^(3/2)')],
    (6, 10): [(8, '1*t^(3/2)')],
    (6, 11): [(7, '1*t^(1/2+1r3)'), (8, '1*t^(2+1/2r3)'), (9, '1*t^(1+1r3)'), (10, '1*t^(1+1/2r3)')],
    (7, 0): [(8, '1*t^(1/2+1r3)'), (9, '1*t^(2+1/2r3)'), (10, '1*t^(1+1r3)'), (11, '1*t^(1+1/2r3)')],
    (7, 2): [(6, '1*t^(1/2+1r3)'), (5, '1*t^(2+1/2r3)'), (4, '1*t^(1+1r3)'), (3, '1*t^(1+1/2r3)')],
    (7, 3): [(5, '1*t^(3/2)')],
    (7, 11): [(9, '1*t^(3/2)')],
    (8, 0): [(10, '1*t^(3/2)')],
    (8, 1): [(9, '1*t^(1/2+1r3)'), (10, '1*t^(2+1/2r3)'), (11, '1*t^(1+1r3)'), (0, '1*t^(1+1/2r3)')],
    (8, 3): [(7, '1*t^(1/2+1r3)'), (6, '1*t^(2+1/2r3)'), (5, '1*t^(1+1r3)'), (4, '1*t^(1+1/2r3)')],
    (8, 4): [(6, '1*t^(3/2)')],
    (9, 1): [(11, '1*t^(3/2)')],
    (9, 2): [(10, '1*t^(1/2+1r3)'), (11, '1*t^(2+1/2r3)'), (0, '1*t^(1+1r3)'), (1, '1*t^(1+1/2r3)')],
    (9, 4): [(8, '1*t^(1/2+1r3)'), (7, '1*t^(2+1/2r3)'), (6, '1*t^(1+1r3)'), (5, '1*t^(1+1/2r3)')],
    (9, 5): [(7, '1*t^(3/2)')],
    (10, 2): [(0, '2*t^(3/2)')],
    (10, 3): [(11, '2*t^(1/2+1r3)'), (0, '2*t^(2+1/2r3)'), (1, '1*t^(1+1r3)'), (2, '1*t^(1+1/2r3)')],
    (10, 5): [(9, '1*t^(1/2+1r3)'), (8, '1*t^(2+1/2r3)'), (7, '1*t^(1+1r3)'), (6, '1*t^(1+1/2r3)')],
    (10, 6): [(8, '1*t^(3/2)')],
    (11, 3): [(1, '1*t^(3/2)')],
    (11, 4): [(0, '1*t^(1/2+1r3)'), (1, '1*t^(2+1/2r3)'), (2, '1*t^(1+1r3)'), (3, '1*t^(1+1/2r3)')],
    (11, 6): [(10, '1*t^(1/2+1r3)'), (9, '1*t^(2+1/2r3)'), (8, '1*t^(1+1r3)'), (7, '1*t^(1+1/2r3)')],
    (11, 7): [(9, '1*t^(3/2)')],
}


def test_g2_commutator_signs_pinned():
    f = hahn(3)
    sys2 = g2()
    s = f.monomial(QuadExt(1), 1)
    t = f.monomial(QuadExt(Fraction(1, 2)), 1)
    seen = 0
    for i in range(sys2.count):
        for j in range(sys2.count):
            if i == j or sys2.angle_deg(i, j) == 180:
                continue
            seen += 1
            got = [(k, c.emit()) for k, c in commutator_factors("G", sys2, i, s, j, t)]
            assert got == _G2_COMMUTATORS.get((i, j), []), (i, j)
    assert seen == 120


def test_square_full_relation():
    f = hahn(2)
    sys4 = b2()
    s = f.monomial(QuadExt(1), 1)
    t = f.monomial(QuadExt(0, 1, 2), 1)
    got = collect("B", sys4, [(4, t), (1, s)])
    want = [
        (1, s),
        (2, s.theta() * t),
        (3, s * t.theta()),
        (4, t),
    ]
    assert words_agree(got, want)


def test_collect_merges_and_drops():
    f = hahn(3)
    sys2 = g2()
    a = f.monomial(QuadExt(0), 1)
    b = f.monomial(QuadExt(0), 2)
    assert collect("G", sys2, [(2, a), (2, b)]) == []
    m = f.monomial(QuadExt(1), 1)
    got = collect("G", sys2, [(3, m), (3, m)])
    assert len(got) == 1 and got[0][0] == 3 and got[0][1].agrees(m + m)


def test_collect_confluent_over_shuffles():
    f = hahn(3)
    sys2 = g2()
    rng = random.Random(17)
    factors = [
        (pos, f.monomial(f.unlat((rng.randint(-2, 2), rng.randint(-1, 1))), rng.randrange(1, 3)))
        for pos in (5, 2, 6, 1, 3)
    ]
    base = collect("G", sys2, factors)
    for _ in range(6):
        shuffled = factors[:]
        rng.shuffle(shuffled)
        # collecting any shuffle of commuting-prefix variants must agree
        got = collect("G", sys2, shuffled)
        alt = collect("G", sys2, got)
        assert words_agree(alt, got)
    assert words_agree(collect("G", sys2, base), base)


def test_collect_fuel_bounds_the_swaps(monkeypatch):
    """A reversed G2 word needs dozens of merge and swap steps: it runs out
    of a small fuel and collects to ascending positions under the default."""
    f = hahn(3)
    sys2 = g2()
    word = [(pos, f.monomial(QuadExt(pos), 1)) for pos in (6, 5, 4, 3, 2, 1)]
    with monkeypatch.context() as patch:
        patch.setattr(valuation, "COLLECT_FUEL", 10)
        with pytest.raises(ResourceBoundError, match="collection fuel exhausted"):
            collect("G", sys2, word)
    positions = [pos for pos, _ in collect("G", sys2, word)]
    assert positions == sorted(set(positions)) and positions[0] == 1


def test_torus_reflection_shift():
    f = hahn(3)
    sys2 = g2()
    nu = TAdicValuation()
    phi = PhiAssignment("G", sys2, nu, twisted_class=1)
    alpha = sys2.position_root(1)
    u = f.monomial(QuadExt(1), 1)
    g = f.monomial(QuadExt(2), 2)
    image, gp = m_sigma_conj("G", sys2, alpha, u, alpha, g)
    assert image == sys2.negate_idx(alpha) or image == alpha
    # shift at the mirror root itself equals -2 phi(u)
    res = check_v3(phi, alpha, alpha, u, [g, f.monomial(QuadExt(-1), 1)])
    assert res.ok
    assert res.data["constant"] == str(-(phi.phi(alpha, u).finite * QuadExt(2)))


def test_double_reflection_positive_shift():
    f = hahn(3)
    sys2 = g2()
    phi = PhiAssignment("G", sys2, TAdicValuation(), twisted_class=1)
    alpha = sys2.position_root(1)
    u = f.monomial(QuadExt(3), 1)
    w = f.one()
    gs = [f.monomial(QuadExt(k), 1) for k in (-1, 0, 2)]
    res = check_double_reflection(phi, alpha, u, w, gs)
    assert res.ok
    assert res.data["shift"] == str(phi.phi(alpha, u).finite * QuadExt(2))


def test_v1_v2_both_cases():
    for case, char in (("B", 2), ("G", 3)):
        f = hahn(char)
        system = ambient_system(case)
        rng = random.Random(23)
        phi = PhiAssignment(case, system, TAdicValuation(), twisted_class=1)
        pairs = [
            (
                f.monomial(f.unlat((rng.randint(-3, 3), rng.randint(-1, 1))), rng.randrange(1, char)),
                f.monomial(f.unlat((rng.randint(-3, 3), rng.randint(-1, 1))), rng.randrange(1, char)),
            )
            for _ in range(30)
        ] + [(f.zero(), f.one())]
        for idx in range(system.count):
            assert check_v1(phi, idx, pairs).ok
        for i in range(system.count):
            for j in range(system.count):
                if i == j or system.angle_deg(i, j) == 180 or not system.interval(i, j):
                    continue
                assert check_v2_pair(phi, i, j, pairs[:20]).ok


class ConstantZero(Valuation):
    def of(self, x):
        return ExtVal.of(0)


class NegatedOrder(Valuation):
    def of(self, x):
        return -x.val()


class LeadingCoefficient(Valuation):
    """The index of the lowest term's coefficient: 1 at s = 1, 2 at -s."""

    def of(self, x):
        return ExtVal.of(x.terms[min(x.terms)]) if x.terms else INFINITY


@pytest.mark.parametrize("nu, detail", [
    (NegatedOrder(), r"phi\(s\+t\) < min at root {}: .*"),
    (LeadingCoefficient(), r"phi\(-s\) != phi\(s\) at root {}: .*"),
    (ConstantZero(), r"phi\(identity\) is finite"),
], ids=["sum", "negation", "identity"])
def test_v1_sees_each_broken_axiom(nu, detail):
    """Each of check_v1's three failing returns, on every root of case G, from
    the one pair (s, b - s) with s = 1 and b = t: in char 3, -s != s, so the
    leading coefficient tells them apart."""
    f, system = hahn(3), g2()
    s, b = f.one(), f.monomial(QuadExt(1), 1)
    pairs = [(s, b - s)]
    broken = PhiAssignment("G", system, nu, twisted_class=1)
    sound = PhiAssignment("G", system, TAdicValuation(), twisted_class=1)
    for idx in range(system.count):
        res = check_v1(broken, idx, pairs)
        assert not res.ok
        assert re.fullmatch(detail.format(idx), res.detail)
        assert check_v1(sound, idx, pairs).ok


def rand_monomial(f, rng):
    return f.monomial(f.unlat((rng.randint(-3, 3), rng.randint(-1, 1))), rng.randrange(1, f.q))


def resolve(case, f, nu, rng, npairs, nsamples):
    def sample_pairs():
        return [(rand_monomial(f, rng), rand_monomial(f, rng)) for _ in range(nsamples)]

    return resolve_assignment(case, nu, sample_pairs, ambient_system(case).interval_pairs()[:npairs])


def test_both_assignments_pass_containment():
    """For a theta-compatible valuation the two class-to-rule assignments are
    one function: theta multiplies exponents by sqrt(3), so the twisted rule
    nu(theta x)/sqrt(3) equals the direct rule nu(x).  Resolution therefore
    reports both as passing."""
    passes = resolve("G", hahn(3), TAdicValuation(), random.Random(5), 12, 20)
    assert passes[0] and passes[1]
    assert next(tc for tc, ok in passes.items() if ok) == 0
    assert sum(passes.values()) != 1


@pytest.mark.parametrize("case, char", [("G", 3), ("B", 2)])
def test_containment_sees_a_wrong_weight(monkeypatch, case, char):
    """With interval coefficient 1 read as a square, some commutator factor
    undercuts its bound, and the failure names the drawn pair it saw; with
    the table restored every pair passes again."""
    f, system = hahn(char), ambient_system(case)
    phi = PhiAssignment(case, system, TAdicValuation(), twisted_class=1)
    rng = random.Random(1)
    pairs = [(rand_monomial(f, rng), rand_monomial(f, rng)) for _ in range(20)]

    def results():
        return [check_v2_pair(phi, i, j, pairs) for i, j in system.interval_pairs()]

    valuation._factor_recipe.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setitem(valuation._WEIGHT_EXP[char], QuadExt(1), (2, 0))
            failed = [r for r in results() if not r.ok]
    finally:
        valuation._factor_recipe.cache_clear()
    assert failed
    for r in failed:
        assert re.fullmatch(r"factor at root \d+ of pair \(\d+,\d+\) undercuts its bound", r.detail)
        s, t = f.parse(r.data["s"]), f.parse(r.data["t"])
        assert any(s.agrees(a) and t.agrees(b) for a, b in pairs)
    assert all(r.ok for r in results())


def twisted_draws(f, rng):
    """Series elements from the suites' samplers, exact and inexact (an
    inverse and its products), plus an exact zero."""
    xs = [biased_component(f, rng) for _ in range(40)] + [rand_short(f, rng, 3) for _ in range(20)]
    inexact = [rand_short(f, rng, 2).inv() for _ in range(10)]
    inexact += [a * b for a, b in zip(inexact, xs)]
    assert any(x.prec is not None and x.terms for x in inexact)
    return xs + inexact + [f.zero()]


@pytest.mark.parametrize("char", [2, 3])
def test_t_adic_twisted_rule_skips_theta(char):
    """Under the t-adic valuation nu(theta x)/sqrt(p) is nu(x): the direct
    answer agrees with the theta route on series draws, on exact and
    inexact zero and on finite elements, and an uncertified zero raises on
    both routes."""
    nu = TAdicValuation()
    f = hahn(char)
    finite_field = TitsField(FieldCfg(char=char, mode="finite", m=3))
    for x in twisted_draws(f, random.Random(char)) + finite_field.elems:
        assert nu.of_twisted(x) == valuation.Valuation.of_twisted(nu, x) == nu.of(x)
    uncertified = f.parse("0")
    assert not uncertified.terms and uncertified.prec is not None
    for route in (nu.of_twisted, lambda x: valuation.Valuation.of_twisted(nu, x)):
        with pytest.raises(InsufficientPrecisionError):
            route(uncertified)


def test_t_adic_phi_reads_no_theta(monkeypatch):
    """The t-adic phi on a twisted root answers from the parameter itself."""
    f = hahn(3)
    system = g2()
    phi = PhiAssignment("G", system, TAdicValuation(), twisted_class=1)
    root = next(k for k in range(system.count) if system.length_class(k) == 1)

    def no_theta(self):
        raise AssertionError("theta applied")

    monkeypatch.setattr(SeriesElem, "theta", no_theta)
    u = f.monomial(QuadExt(1, 2, 3), 2) + f.one()
    assert phi.phi(root, u) == ExtVal.of(0)
    assert phi.phi(root, f.monomial(QuadExt(Fraction(3, 2), -1, 3), 1)) == ExtVal.of(
        QuadExt(Fraction(3, 2), -1, 3)
    )


def test_unique_valuation_under_t_adic():
    for case, char in (("B", 2), ("G", 3)):
        f = hahn(char)
        rng = random.Random(41)
        nu = TAdicValuation()
        passes = resolve(case, f, nu, rng, 16, 10)
        params = [rand_monomial(f, rng) for _ in range(15)] + [
            f.monomial(QuadExt(1), 1) + f.monomial(QuadExt(0, 1, char), 1) + f.one()
        ]
        check = check_unique_valuation(case, nu, passes, params)
        assert check.ok, check.detail
        assert check.data["survivors"] == [0, 1]


def test_unique_valuation_fails_when_survivors_differ():
    """Re-embedding sqrt(3) as 2*sqrt(3) breaks theta-compatibility: both
    assignments still pass the containment bound, but they are different
    valuations, and the check names a root and a parameter where they part."""
    f = hahn(3)
    nu = LatticeOrderValuation(QuadExt(0, 2, 3))
    rng = random.Random(41)
    passes = resolve("G", f, nu, rng, 16, 10)
    assert passes == {0: True, 1: True}
    params = [f.one(), f.monomial(QuadExt(0, 1, 3), 2)]
    check = check_unique_valuation("G", nu, passes, params)
    assert not check.ok
    assert check.data["survivors"] == [0, 1]
    root, param = check.data["root"], check.data["param"]
    assert param == str(params[1])
    phis = [PhiAssignment("G", g2(), nu, tc) for tc in (0, 1)]
    assert phis[0].phi(root, params[1]) != phis[1].phi(root, params[1])
    assert [str(phi.phi(root, params[1])) for phi in phis] == check.data["phi"]


def test_unique_valuation_needs_a_survivor():
    check = check_unique_valuation("G", TAdicValuation(), {0: False, 1: False}, [hahn(3).one()])
    assert not check.ok
    assert check.data["survivors"] == []


def test_skew_order_breaks_flip_invariance():
    f = hahn(3)
    system = g2()
    params = [f.monomial(QuadExt(k), 1 + (k % 2)) for k in range(1, 6)]
    good = PhiAssignment("G", system, TAdicValuation(), twisted_class=1)
    assert check_rho_invariance(good, params).ok
    skew = PhiAssignment("G", system, LatticeOrderValuation(QuadExt(0, 2, 3)), twisted_class=1)
    assert not check_rho_invariance(skew, params).ok


def test_skew_order_needs_an_exact_element():
    """The re-embedded order sees only the terms below an element's precision,
    and the unseen tail can undercut them, so a truncated element raises."""
    f = hahn(3)
    nu = LatticeOrderValuation(QuadExt(0, 2, 3))
    a = TElem(f.monomial(QuadExt(1), 1), f.monomial(QuadExt(0, 1, 3), 2), f.one())
    assert nu.of(a.norm()) == ExtVal.of(0)
    assert nu.of(f.monomial(QuadExt(1, -1, 3), 2)) == ExtVal.of(QuadExt(1, -2, 3))
    truncated = a.omega().norm()
    assert truncated.prec is not None
    with pytest.raises(InsufficientPrecisionError):
        nu.of(truncated)


def test_moufang_phi_round_trip():
    f = hahn(3)
    nu = TAdicValuation()
    for exp in (QuadExt(0), QuadExt(2), QuadExt(0, 1, 3), QuadExt(-3, 1, 3)):
        t = f.monomial(exp, 1)
        assert nu_from_center("G", nu, t) == ExtVal.of(exp)
    f2 = hahn(2)
    for exp in (QuadExt(0), QuadExt(1), QuadExt(0, -1, 2)):
        t = f2.monomial(exp, 1)
        assert nu_from_center("B", nu, t) == ExtVal.of(exp)


def test_ree_word_shape():
    f = TitsField(FieldCfg(char=3, mode="finite", m=1))
    a = TElem(f.from_coeff(1), f.from_coeff(2), f.from_coeff(2))
    word = embedding_word("G", a)
    assert [pos for pos, _ in word] == [1, 2, 3, 4, 5, 6]
    flipped = word_rho(g2(), word)
    assert [pos for pos, _ in flipped] == [6, 5, 4, 3, 2, 1]
    # zero factors are dropped
    b = TElem(f.from_coeff(1), f.from_coeff(2), f.from_coeff(1))
    assert [pos for pos, _ in embedding_word("G", b)] == [1, 2, 5, 6]


def test_uncertified_zero_factors_raise():
    """A word parameter that is zero only below its precision is undecided:
    collecting it or building a word from it raises instead of dropping it."""
    f = hahn(3)
    x, one = f.parse("1*t^(1)"), f.one()
    assert x.prec is not None
    with pytest.raises(InsufficientPrecisionError):
        collect("G", g2(), [(1, x - x), (2, one)])
    with pytest.raises(InsufficientPrecisionError):
        ree_word(TElem(x - x, one, one))
    alpha = g2().position_root(1)
    with pytest.raises(InsufficientPrecisionError):
        m_sigma_conj("G", g2(), alpha, x - x, alpha, one)


def test_embedding_hom_finite_sample():
    f = TitsField(FieldCfg(char=3, mode="finite", m=3))
    rng = random.Random(2)
    elems = [
        TElem(f.from_coeff(rng.randrange(27)), f.from_coeff(rng.randrange(27)), f.from_coeff(rng.randrange(27)))
        for _ in range(12)
    ]
    for a in elems:
        assert check_embedding_rho("G", a).ok
        for b in elems[:6]:
            assert check_embedding_hom("G", a, b).ok


def test_word_checks_see_a_wrong_ree_word_factor(monkeypatch):
    """With the position-3 factor of the Ree word negated, 324 of the 729 F3
    pairs fail the homomorphism check and 18 of the 27 elements fail the flip
    check, each with its detail; with the word restored all of them pass."""
    t_all = finite_elems(TElem, TitsField(FieldCfg(char=3, mode="finite", m=1)))

    def results():
        hom = [check_embedding_hom("G", a, b) for a in t_all for b in t_all]
        return hom, [check_embedding_rho("G", a) for a in t_all]

    inner = valuation.ree_word
    with monkeypatch.context() as m:
        m.setattr(valuation, "ree_word", lambda a: [
            (pos, -c if pos == 3 else c) for pos, c in inner(a)
        ])
        hom, rho = results()
    hom_failed = [r for r in hom if not r.ok]
    rho_failed = [r for r in rho if not r.ok]
    assert (len(hom_failed), len(rho_failed)) == (324, 18)
    assert {r.detail for r in hom_failed} == {"word of a product differs from product of words"}
    assert {r.detail for r in rho_failed} == {"embedded word is not flip-invariant"}
    hom, rho = results()
    assert all(r.ok for r in hom + rho)


def test_suzuki_recipe_unique():
    assert solve_suzuki_word() == (((1, 1), (1, 0)),)


def test_suzuki_word_checks():
    f = TitsField(FieldCfg(char=2, mode="finite", m=3))
    rng = random.Random(8)
    from srlab.groups import SElem

    elems = [
        SElem(f.from_coeff(rng.randrange(8)), f.from_coeff(rng.randrange(8)))
        for _ in range(10)
    ]
    for a in elems:
        assert check_embedding_rho("B", a).ok
        for b in elems[:5]:
            assert check_embedding_hom("B", a, b).ok


# (case, m) of the finite fields the word checks below run over
F3_G, F27_G, F8_B = ("G", 1), ("G", 3), ("B", 3)


def rand_word(f, system, rng, length):
    """`length` factors on random positive positions, with nonzero parameters."""
    return [
        (rng.randint(1, system.n), f.from_coeff(rng.randrange(1, f.q))) for _ in range(length)
    ]


def finite_case(case, m):
    system = ambient_system(case)
    return TitsField(FieldCfg(char=valuation.case_char(case), mode="finite", m=m)), system


def torus_image(case, system, alpha, u, word):
    """Each factor of `word` conjugated by the torus element h_alpha(u)."""
    out = []
    for pos, t in word:
        root, t = torus_conj(case, system, alpha, u, system.position_root(pos), t)
        out.append((system.root_position(root), t))
    return out


def torus_mismatches(case, m, words=300, seed=5):
    """Words whose collection does not commute with conjugation by h_alpha(u),
    for a uniform root alpha and a nonzero u per word."""
    f, system = finite_case(case, m)
    rng = random.Random(seed)
    bad = 0
    for _ in range(words):
        word = rand_word(f, system, rng, 4)
        alpha, u = rng.randrange(system.count), f.from_coeff(rng.randrange(1, f.q))
        got = collect(case, system, torus_image(case, system, alpha, u, word))
        want = torus_image(case, system, alpha, u, collect(case, system, word))
        bad += not words_agree(got, want)
    return bad


@pytest.mark.parametrize("case_m", [F27_G, F8_B], ids=["G", "B"])
def test_torus_conjugation_commutes_with_collection(case_m):
    assert torus_mismatches(*case_m) == 0


@pytest.mark.parametrize(
    "p, angle, wrong",
    [(3, 150, (0, -1)), (3, 30, (0, 1)), (3, 120, (-1, 0)), (2, 135, (0, -1))],
    ids=["G-150", "G-30", "G-120", "B-135"],
)
def test_torus_check_sees_a_wrong_weight(monkeypatch, p, angle, wrong):
    monkeypatch.setitem(valuation._TORUS_EXP[p], angle, wrong)
    assert torus_mismatches(*(F27_G if p == 3 else F8_B)) > 0


def associativity_failures(case, m, triples, seed=11):
    """Triples of collected 3-factor words a, b, c whose two bracketings
    collect(collect(a + b) + c) and collect(a + collect(b + c)) disagree."""
    f, system = finite_case(case, m)
    rng = random.Random(seed)
    bad = 0
    for _ in range(triples):
        a, b, c = (collect(case, system, rand_word(f, system, rng, 3)) for _ in range(3))
        left = collect(case, system, collect(case, system, a + b) + c)
        right = collect(case, system, a + collect(case, system, b + c))
        bad += not words_agree(left, right)
    return bad


@pytest.mark.parametrize("case_m, triples", [(F3_G, 1000), (F8_B, 300)], ids=["G", "B"])
def test_collection_is_associative(case_m, triples):
    assert associativity_failures(*case_m, triples) == 0


def test_associativity_sees_each_flipped_printed_sign(monkeypatch):
    for key, sign in valuation._G2_PRINTED_SIGNS.items():
        valuation._factor_recipe.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setitem(valuation._G2_PRINTED_SIGNS, key, -sign)
                assert associativity_failures(*F3_G, 1000) > 0, key
        finally:
            valuation._factor_recipe.cache_clear()
