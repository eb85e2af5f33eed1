from fractions import Fraction

import pytest

from srlab.errors import UnsupportedAngleError
from srlab.roots import FoldedSystem, QuadExt, angle_from_gram, dot, get_system
from srlab.suites import RunConfig, run_suite

KINDS = ("A1", "B2", "G2", "F4")

_ONE = QuadExt(1)
_HALF = QuadExt(Fraction(1, 2))
_HALF_R2 = QuadExt(0, Fraction(1, 2), 2)
_HALF_R3 = QuadExt(0, Fraction(1, 2), 3)


# --- reference: the tables recomputed from the exact unit vectors ---


def ref_angle(c):
    """Angle in degrees for an exact cosine between two roots."""
    table = {_ONE: 0, _HALF_R3: 30, _HALF_R2: 45, _HALF: 60, QuadExt(0): 90}
    for cos, angle in table.items():
        if c == cos:
            return angle
        if c == -cos:
            return 180 - angle
    raise UnsupportedAngleError(f"no root-system angle has cosine {c}")


def ref_index(system, v):
    (idx,) = [k for k in range(system.count) if system.unit(k) == v]
    return idx


def ref_gram(system):
    """The exact dot products of all pairs of unit vectors."""
    units = [system.unit(k) for k in range(system.count)]
    return [[dot(u, v) for v in units] for u in units]


def ref_reflect(system, gram, mirror, idx):
    r, v = system.unit(mirror), system.unit(idx)
    two_d = QuadExt(2) * gram[idx][mirror]
    return ref_index(system, tuple(x - two_d * y for x, y in zip(v, r)))


def ref_solve(m, v):
    """Exact solution x of m x = v by Gauss-Jordan elimination."""
    n = len(m)
    a = [list(row) + [b] for row, b in zip(m, v)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inv()
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


def ref_involution(system):
    """Rank 2: root k goes to root 1 - k.  F4: the linear map reversing the
    simple roots (0, c, -c, 0), (0, 0, c, -c), e_4, (1, -1, -1, -1)/2."""
    if system.kind != "F4":
        return [(1 - k) % system.count for k in range(system.count)]
    c, h, z = _HALF_R2, _HALF, QuadExt(0)
    simple = [(z, c, -c, z), (z, z, c, -c), (z, z, z, _ONE), (h, -h, -h, -h)]
    cols = [[simple[j][i] for j in range(4)] for i in range(4)]
    out = []
    for k in range(system.count):
        coords = ref_solve(cols, system.unit(k))
        img = [z] * 4
        for coef, col in zip(coords, reversed(simple)):
            img = [x + coef * y for x, y in zip(img, col)]
        out.append(ref_index(system, tuple(img)))
    return out


def ref_interval(system, gram, i, j):
    ui, uj = system.unit(i), system.unit(j)
    c = gram[i][j]
    inv_denom = (_ONE - c * c).inv()
    out = []
    for k in range(system.count):
        if k in (i, j):
            continue
        uk = system.unit(k)
        di, dj = gram[k][i], gram[k][j]
        p = (di - dj * c) * inv_denom
        q = (dj - di * c) * inv_denom
        if p.sign() <= 0 or q.sign() <= 0:
            continue
        if tuple(p * x + q * y for x, y in zip(ui, uj)) != uk:
            continue
        out.append((k, p, q))
    out.sort(key=lambda t: gram[t[0]][i], reverse=True)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_tables_match_exact_unit_vectors(kind):
    system = get_system(kind)
    n = system.count
    gram = ref_gram(system)
    for i in range(n):
        assert gram[i][i] == _ONE
        neg = tuple(-x for x in system.unit(i))
        assert system.negate_idx(i) == ref_index(system, neg)
    assert [system.chamber_involution_idx(k) for k in range(n)] == ref_involution(system)
    for i in range(n):
        for j in range(n):
            c = gram[i][j]
            assert system.angle_deg(i, j) == ref_angle(c)
            assert system.reflect_idx(i, j) == ref_reflect(system, gram, i, j)
            if c * c == _ONE:
                with pytest.raises(ValueError):
                    system.interval(i, j)
                continue
            got = system.interval(i, j)
            want = ref_interval(system, gram, i, j)
            assert [k for k, _, _ in got] == [k for k, _, _ in want]
            for (_, p, q), (_, rp, rq) in zip(got, want):
                assert (p.a, p.b, p.den, p.p) == (rp.a, rp.b, rp.den, rp.p)
                assert (q.a, q.b, q.den, q.p) == (rq.a, rq.b, rq.den, rq.p)


def test_rank2_unit_vectors():
    # root k of a rank-2 system sits at angle k*pi/n
    b2, g2 = get_system("B2"), get_system("G2")
    assert b2.unit(0) == (_ONE, QuadExt(0))
    assert b2.unit(1) == (_HALF_R2, _HALF_R2)
    assert g2.unit(1) == (_HALF_R3, _HALF)
    for system in (get_system("A1"), b2, g2):
        for k in range(system.count):
            assert system.angle_deg(0, k) == min(k, system.count - k) * 180 // system.n
            assert system.unit(k)[1].sign() >= 0 or k > system.n


def test_angle_lookup():
    assert angle_from_gram(0, 2, 6) == 90
    # G2 hexagonal coordinates: (1, 0) and (-2, 1) under [[2, 1], [1, 2]]
    assert angle_from_gram(-3, 2, 6) == 150
    assert angle_from_gram(-4, 8, 8) == 120
    with pytest.raises(UnsupportedAngleError):
        angle_from_gram(1, 3, 3)
    with pytest.raises(UnsupportedAngleError):
        angle_from_gram(1, 1, 7)


def test_b2_reflection_examples():
    b2 = get_system("B2")
    # the mirror root is sent to its negative
    assert b2.reflect_idx(0, 0) == 4
    # perpendicular roots are fixed
    assert b2.reflect_idx(0, 2) == 2
    assert b2.reflect_idx(2, 0) == 0


def test_reflection_weyl_properties():
    for kind in KINDS:
        system = get_system(kind)
        for i in range(system.count):
            assert system.reflect_idx(i, i) == system.negate_idx(i)
            for j in range(system.count):
                k = system.reflect_idx(i, j)
                assert system.reflect_idx(i, k) == j
                assert system.length_class(k) == system.length_class(j)
                if system.angle_deg(i, j) == 90:
                    assert k == j


def test_negation_units():
    for kind in ("B2", "G2", "F4"):
        system = get_system(kind)
        for i in range(system.count):
            assert system.unit(system.negate_idx(i)) == tuple(-x for x in system.unit(i))


def test_chamber_involution_swaps_classes():
    for kind in ("B2", "G2", "F4"):
        system = get_system(kind)
        for i in range(system.count):
            ti = system.chamber_involution_idx(i)
            assert system.chamber_involution_idx(ti) == i
            assert system.length_class(ti) != system.length_class(i)


def test_involution_preserves_angles():
    for kind in ("G2", "F4"):
        system = get_system(kind)
        tau = system.chamber_involution_idx
        for i in range(system.count):
            for j in range(system.count):
                assert system.angle_deg(tau(i), tau(j)) == system.angle_deg(i, j)


def test_b2_interval():
    b2 = get_system("B2")
    assert b2.angle_deg(0, 3) == 135
    got = b2.interval(0, 3)
    r2 = QuadExt.sqrt(2)
    assert [(b2.angle_deg(0, k), p, q) for k, p, q in got] == [
        (45, r2, QuadExt(1)),
        (90, QuadExt(1), r2),
    ]


def test_g2_interval():
    g2 = get_system("G2")
    assert g2.angle_deg(0, 5) == 150
    got = g2.interval(0, 5)
    r3 = QuadExt.sqrt(3)
    assert [(g2.angle_deg(0, k), p, q) for k, p, q in got] == [
        (30, r3, QuadExt(1)),
        (60, QuadExt(2), r3),
        (90, r3, QuadExt(2)),
        (120, QuadExt(1), r3),
    ]


def test_interval_empty_for_adjacent():
    g2 = get_system("G2")
    assert g2.interval(0, 1) == []


def test_interval_pairs():
    for kind, want in (("B2", 32), ("G2", 96), ("F4", 960)):
        system = get_system(kind)
        pairs = system.interval_pairs()
        assert len(pairs) == want
        assert pairs == sorted(pairs)
        for i in range(system.count):
            for j in range(system.count):
                if i != j and system.angle_deg(i, j) != 180:
                    assert ((i, j) in pairs) == bool(system.interval(i, j))


def test_position_maps():
    for kind in ("B2", "G2"):
        system = get_system(kind)
        seen = set()
        for pos in range(1, system.n + 1):
            idx = system.position_root(pos)
            assert system.root_position(idx) == pos
            seen.add(idx)
        assert len(seen) == system.n


def test_f4_shape():
    f4 = get_system("F4")
    assert f4.count == 48
    for cls in (0, 1):
        assert sum(1 for i in range(48) if f4.length_class(i) == cls) == 24
    for i in range(48):
        assert dot(f4.unit(i), f4.unit(i)) == QuadExt(1)


def test_fold_counts():
    assert get_system("B2").fold().count == 2
    assert get_system("G2").fold().count == 2
    assert get_system("F4").fold().count == 16


def test_f4_fold_geometry():
    folded = get_system("F4").fold()
    want = QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
    for k in range(folded.count):
        assert folded.cos2_between(k, (k + 1) % folded.count) == want
    mults = [folded.multiplicity(k) for k in range(folded.count)]
    assert sorted(set(mults)) == [2, 4]
    for k in range(folded.count):
        assert mults[k] != mults[(k + 1) % folded.count]
    assert sum(mults) == 48


@pytest.mark.parametrize("kind", ["B2", "G2", "F4"])
def test_fold_order_does_not_depend_on_discovery_order(kind):
    """The rays are sorted by angle, so handing them over in reverse gives
    the same rays, projection and multiplicities."""
    system = get_system(kind)
    f = system.fold()
    rev = FoldedSystem(
        system, f.rays[::-1], {root: f.count - 1 - r for root, r in f.projection.items()}
    )
    assert rev.rays == f.rays
    assert rev.projection == f.projection
    assert rev.multiplicities == f.multiplicities


def test_fold_preimages_partition():
    for kind in ("B2", "G2", "F4"):
        system = get_system(kind)
        folded = system.fold()
        all_idx = sorted(i for k in range(folded.count) for i in folded.preimages(k))
        assert all_idx == list(range(system.count))


def test_folded_reflection_involutive():
    folded = get_system("F4").fold()
    for i in range(folded.count):
        for j in range(folded.count):
            assert folded.reflect_idx(i, folded.reflect_idx(i, j)) == j


def test_folding_check_sees_a_reflection_map_that_is_not_the_reflection(monkeypatch):
    """(2m + 3 - i) mod c is an involution in i, but on the 16 rays of F4 it
    is not the reflection s_m; on the two rays of B2 and G2 it is."""
    def fault(self, m, i):
        return (2 * m + 3 - i) % self.count

    monkeypatch.setattr(FoldedSystem, "reflect_idx", fault)
    checks = run_suite("folding", RunConfig(samples=5))["checks"]
    assert [c["name"] for c in checks if not c["ok"]] == ["folded-reflections-involutive"]
