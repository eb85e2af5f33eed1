"""Named check suites behind the command line runner.

Each suite draws from its own deterministic random stream (derived from
the run seed and the suite name), builds its fields and samples, and states
each exact check, stat and timing on the `SuiteReport` it is handed;
`run_suite` turns that report into the suite's JSON-safe payload.  Sample
counts follow the documented defaults unless the run configuration
overrides them.
"""

from __future__ import annotations

import hashlib
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ConfigError
from .field import FieldCfg, FieldElem, TitsField
from .groups import (
    SElem,
    TElem,
    h_action_S,
    h_action_T,
    val_norm_exact_S,
    val_norm_exact_T,
)
from .moufang import enumerate_group, rho_scalar_check
from .report import CheckResult, SuiteReport
from .roots import FoldedSystem, get_system
from .samplers import (
    cayley_table,
    finite_elem,
    finite_elems,
    finite_index,
    lat_mul_quad,
    rand_elem,
    rand_lat,
    rand_monomial,
    rand_quad,
    rand_short,
    tie_samples_t,
)
from .scalar import INFINITY, ExtVal, QuadExt, ext_min, parse_quad
from .valuation import (
    LatticeOrderValuation,
    PhiAssignment,
    TAdicValuation,
    ambient_system,
    check_double_reflection,
    check_embedding_hom,
    check_embedding_rho,
    check_rho_invariance,
    check_v1,
    check_v2_pair,
    check_v3,
    nu_from_center,
    resolve_assignment,
    solve_suzuki_word,
)

@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by all suites; None keeps a suite's documented default.

    The series settings `precision`, `denom` and `support_cap` default to
    `FieldCfg`'s, which owns them.
    """

    case: str = "G"
    samples: int | None = None
    seed: int = 0
    precision: int = FieldCfg.precision
    denom: int = FieldCfg.denom
    support_cap: int = FieldCfg.support_cap
    timings: bool = False

    def hahn_field(self, char: int) -> TitsField:
        """The series field of characteristic `char` under this run's settings."""
        cfg = FieldCfg(char, denom=self.denom, precision=self.precision, support_cap=self.support_cap)
        return TitsField(cfg)


def suite_seed(seed: int, suite: str) -> int:
    digest = hashlib.sha256(f"{seed}:{suite}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- scalars ---


def _suite_scalars(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    n = cfg.samples or 200
    for p in (None, 2, 3):
        ok_ring = True
        ok_ord = True
        ok_inv = True
        for _ in range(n):
            x, y, z = (rand_quad(rng, p) for _ in range(3))
            if (x + y) * z != x * z + y * z or x * y != y * x:
                ok_ring = False
            if (x + y) + z != x + (y + z):
                ok_ring = False
            d = x - y
            if (d.sign() > 0) != (x > y) or (d.sign() == 0) != (x == y):
                ok_ord = False
            if x != QuadExt(0) and (x * x.inv()) != QuadExt(1):
                ok_inv = False
        tag = "rational" if p is None else f"sqrt{p}"
        rep.check(f"ring-laws-{tag}", ok_ring)
        rep.check(f"ordering-vs-sign-{tag}", ok_ord)
        rep.check(f"inverse-roundtrip-{tag}", ok_inv)
    for p in (2, 3):
        r = QuadExt.sqrt(p)
        rep.check(f"sqrt{p}-squares", r * r == QuadExt(p))
        ok_parse = True
        for _ in range(max(1, n // 2)):
            q = rand_quad(rng, p)
            if parse_quad(str(q), radicand=p) != q:
                ok_parse = False
        rep.check(f"parse-roundtrip-sqrt{p}", ok_parse)
    ok_ext = True
    vals = [ExtVal.of(rand_quad(rng, 3)) for _ in range(20)] + [INFINITY]
    for a in vals:
        for b in vals:
            if ext_min(a, b) != ext_min(b, a):
                ok_ext = False
            if (a + b).is_infinite != (a.is_infinite or b.is_infinite):
                ok_ext = False
    rep.check("extended-min-and-infinity", ok_ext)


# --- roots ---

_B2_INTERVAL = [(45, "0+1r2", "1"), (90, "1", "0+1r2")]
_G2_INTERVAL = [
    (30, "0+1r3", "1"),
    (60, "2", "0+1r3"),
    (90, "0+1r3", "2"),
    (120, "1", "0+1r3"),
]


def _interval_shape(system, i: int, j: int) -> list[tuple[int, str, str]]:
    return [
        (system.angle_deg(i, k), str(pc), str(qc)) for k, pc, qc in system.interval(i, j)
    ]


def _suite_roots(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    for kind in ("A1", "B2", "G2", "F4"):
        system = get_system(kind)
        ok_reflect = True
        ok_perp = True
        ok_invol = True
        for i in range(system.count):
            if system.reflect_idx(i, i) != system.negate_idx(i):
                ok_reflect = False
            for j in range(system.count):
                if system.angle_deg(i, j) == 90 and system.reflect_idx(i, j) != j:
                    ok_perp = False
                if system.reflect_idx(i, system.reflect_idx(i, j)) != j:
                    ok_invol = False
        rep.check(f"{kind}-reflection-negates-mirror", ok_reflect)
        rep.check(f"{kind}-reflection-fixes-perpendicular", ok_perp)
        rep.check(f"{kind}-reflection-involutive", ok_invol)
        ok_tau = True
        swaps = 0
        for i in range(system.count):
            ti = system.chamber_involution_idx(i)
            if system.chamber_involution_idx(ti) != i:
                ok_tau = False
            if kind != "A1" and system.length_class(ti) != system.length_class(i):
                swaps += 1
        want_swaps = 0 if kind == "A1" else system.count
        rep.check(f"{kind}-involution-swaps-length-classes", ok_tau and swaps == want_swaps)
    b2 = get_system("B2")
    i, j = 0, 3
    assert b2.angle_deg(i, j) == 135
    rep.check("B2-interval-coefficients", _interval_shape(b2, i, j) == _B2_INTERVAL)
    g2 = get_system("G2")
    i, j = 0, 5
    assert g2.angle_deg(i, j) == 150
    rep.check("G2-interval-coefficients", _interval_shape(g2, i, j) == _G2_INTERVAL)
    ok_pos = True
    for kind in ("B2", "G2"):
        system = get_system(kind)
        for pos in range(1, system.n + 1):
            if system.root_position(system.position_root(pos)) != pos:
                ok_pos = False
    rep.check("position-map-roundtrip", ok_pos)
    f4 = get_system("F4")
    per_class = [sum(1 for i in range(48) if f4.length_class(i) == c) for c in (0, 1)]
    rep.check("F4-root-counts", per_class == [24, 24])


# --- folding ---


def _suite_folding(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    t0 = time.perf_counter()
    folded: dict[str, FoldedSystem] = {k: get_system(k).fold() for k in ("B2", "G2", "F4")}
    rep.timing["fold_seconds"] = round(time.perf_counter() - t0, 4)
    counts = {k: f.count for k, f in folded.items()}
    rep.stats["direction_counts"] = counts
    rep.check("B2-direction-count", counts["B2"] == 2)
    rep.check("G2-direction-count", counts["G2"] == 2)
    rep.check("F4-direction-count", counts["F4"] == 16)
    f4f = folded["F4"]
    want = QuadExt(Fraction(1, 2), Fraction(1, 4), 2)
    ok_cos = all(
        f4f.cos2_between(k, (k + 1) % f4f.count) == want for k in range(f4f.count)
    )
    rep.check("F4-consecutive-cos2", ok_cos)
    mults = [f4f.multiplicity(k) for k in range(f4f.count)]
    ok_mult = sorted(set(mults)) == [2, 4] and all(
        mults[k] != mults[(k + 1) % f4f.count] for k in range(f4f.count)
    )
    rep.check("F4-multiplicities-alternate", ok_mult)
    ok_pre = all(
        sum(len(f.preimages(k)) for k in range(f.count)) == get_system(kind).count
        for kind, f in folded.items()
    )
    rep.check("preimages-partition-roots", ok_pre)
    ok_refl = True
    for f in folded.values():
        for i in range(f.count):
            for j in range(f.count):
                if f.reflect_idx(i, f.reflect_idx(i, j)) != j:
                    ok_refl = False
    rep.check("folded-reflections-involutive", ok_refl)


# --- field ---


def _suite_field(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    for char, m in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (3, 5)):
        field = TitsField(FieldCfg(char=char, mode="finite", m=m))
        cf = field.coeff
        ok_theta = all(cf.theta(cf.theta(x)) == cf.frobf[x] for x in range(field.q))
        ok_mul = all(
            cf.theta(cf.mul(x, y)) == cf.mul(cf.theta(x), cf.theta(y))
            for x in range(field.q)
            for y in range(field.q)
        )
        rep.check(f"F{field.q}-twist-squares-to-frobenius", ok_theta)
        rep.check(f"F{field.q}-twist-multiplicative", ok_mul)
    n = cfg.samples or 120
    for char in (2, 3):
        field = cfg.hahn_field(char)
        ok_ring = True
        ok_inv = True
        ok_theta = True
        ok_val = True
        ok_parse = True
        for _ in range(n):
            a = rand_short(field, rng, terms=rng.randint(1, 3))
            b = rand_short(field, rng, terms=rng.randint(1, 2))
            c = rand_monomial(field, rng)
            if not ((a + b) * c).agrees(a * c + b * c):
                ok_ring = False
            if not (a * b).agrees(b * a):
                ok_ring = False
            if not (a * a.inv()).agrees(field.one()):
                ok_inv = False
            if not (a * b).theta().agrees(a.theta() * b.theta()):
                ok_theta = False
            if not a.theta().theta().agrees(a.frob()):
                ok_theta = False
            if (a * b).val() != a.val() + b.val():
                ok_val = False
            if not field.parse(a.emit()).agrees(a):
                ok_parse = False
        tag = f"hahn-char{char}"
        rep.check(f"{tag}-ring-laws", ok_ring)
        rep.check(f"{tag}-inverse-roundtrip", ok_inv)
        rep.check(f"{tag}-twist-ring-map", ok_theta)
        rep.check(f"{tag}-valuation-additive", ok_val)
        rep.check(f"{tag}-parse-roundtrip", ok_parse)


# --- groups ---


def _group_laws(elems: list[TElem] | list[SElem], m: list[list[int]]) -> bool:
    """Associativity and inverses of a whole finite group on its Cayley table m."""
    ok = all(
        m[mij] == [row[k] for k in m[j]]  # (a b) c == a (b c) for every c
        for row in m
        for j, mij in enumerate(row)
    )
    return ok and all(row[finite_index(a.inverse())] == 0 for a, row in zip(elems, m))


def _omega_table(elems: list[TElem]) -> tuple[bool, bool]:
    """Whether omega(omega(a)) == a for every a but the identity, on one table
    of omega images, and whether N(a) is zero exactly at the identity, with
    every other norm taken from the pass that builds the table."""
    identity = elems[0]
    anisotropic = identity.norm().is_zero() == identity.is_identity()
    w = [0]
    for a in elems[1:]:
        n, image = a.norm_and_omega()
        anisotropic = anisotropic and n.is_zero() == a.is_identity()
        w.append(finite_index(image))
    for i in range(1, len(w)):
        if w[w[i]] != i:  # an image at the identity fails too, as w[0] = 0
            return False, anisotropic
    return True, anisotropic


def _suite_groups(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    f2 = TitsField(FieldCfg(char=2, mode="finite", m=1))
    s_all = finite_elems(SElem, f2)
    rep.check("S-F2-group-laws", _group_laws(s_all, cayley_table(s_all)))

    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    t_all = finite_elems(TElem, f3)
    m = cayley_table(t_all)
    cz = finite_index(TElem.center(f3.one()))
    ok = _group_laws(t_all, m) and all(row[cz] == m[cz][i] for i, row in enumerate(m))
    rep.check("T-F3-group-laws-and-center", ok)

    t0 = time.perf_counter()
    involutive, anisotropic3 = _omega_table(t_all)
    rep.check("omega-squared-F3", involutive)
    f27 = TitsField(FieldCfg(char=3, mode="finite", m=3))
    involutive, anisotropic27 = _omega_table(finite_elems(TElem, f27))
    rep.check("omega-squared-F27", involutive)
    rep.timing["omega_finite_seconds"] = round(time.perf_counter() - t0, 3)

    n = cfg.samples or 1000
    hf = cfg.hahn_field(3)
    t0 = time.perf_counter()
    ok = True
    for _ in range(n):
        a = rand_elem(TElem, hf, rng)
        if not a.omega().omega().agrees(a):
            ok = False
            break
    rep.check("omega-squared-hahn", ok)
    rep.timing["omega_hahn_seconds"] = round(time.perf_counter() - t0, 3)
    rep.stats["omega_hahn_samples"] = n

    rep.check("T-norm-anisotropic", anisotropic3 and anisotropic27)
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    ok = all(a.norm().is_zero() == a.is_identity() for a in finite_elems(SElem, f8))
    rep.check("S-norm-anisotropic", ok)

    for tag, cls, field, action in (
        ("T", TElem, hf, h_action_T),
        ("S", SElem, cfg.hahn_field(2), h_action_S),
    ):
        ok = True
        for _ in range(40):
            act = action(rand_elem(cls, field, rng))
            if act is None:  # the norm of h is zero
                continue
            x, y = rand_elem(cls, field, rng), rand_elem(cls, field, rng)
            if not act(x * y).agrees(act(x) * act(y)):
                ok = False
        rep.check(f"{tag}-scaling-action-automorphism", ok)


# --- appendix ---


def _suite_appendix(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    hf2 = cfg.hahn_field(2)
    n_pre = (cfg.samples or 1000) * 10
    ok = True
    ties = 0
    for k in range(n_pre):
        if k % 10 == 0:  # engineered collision of the two norm levels
            gs = rand_lat(rng, 4)
            gt = lat_mul_quad(gs, 1, 1, 2)
            a = SElem(hf2.monomial(hf2.unlat(gs)), hf2.monomial(hf2.unlat(gt)))
            ties += 1
        else:
            a = SElem(rand_monomial(hf2, rng), rand_monomial(hf2, rng))
        if a.norm().val() != val_norm_exact_S(a):
            ok = False
            break
    rep.check("S-norm-level-prevalidation", ok)
    rep.stats["s_prevalidation_samples"] = n_pre
    rep.stats["s_prevalidation_ties"] = ties

    hf3 = cfg.hahn_field(3)
    n = cfg.samples or 1000
    tie_count = max(50, min(60, n // 2)) if n >= 50 else n
    samples = tie_samples_t(hf3, rng, tie_count)
    while len(samples) < n:
        samples.append(rand_elem(TElem, hf3, rng))
    ok = True
    for a in samples:
        if a.norm().val() != val_norm_exact_T(a):
            ok = False
            break
    rep.check("T-norm-level-formula", ok)
    rep.stats["t_formula_samples"] = len(samples)
    rep.stats["t_formula_ties"] = tie_count

    n_pairs = cfg.samples or 1000
    for tag, cls, field in (("T", TElem, hf3), ("S", SElem, hf2)):
        ok = True
        for _ in range(n_pairs):
            a, b = rand_elem(cls, field, rng), rand_elem(cls, field, rng)
            if (a * b).norm().val() < ext_min(a.norm().val(), b.norm().val()):
                ok = False
                break
        rep.check(f"{tag}-norm-level-ultrametric", ok)
    rep.stats["ultrametric_pairs"] = n_pairs


# --- valuation axioms ---


def _suite_valuation_axioms(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    n = cfg.samples or 100

    fields = {"B": cfg.hahn_field(2), "G": cfg.hahn_field(3)}
    for case in ("B", "G"):
        field = fields[case]
        system = ambient_system(case)
        nu = TAdicValuation()
        phi = PhiAssignment(case, system, nu, twisted_class=1)
        pairs = [
            (rand_short(field, rng, rng.randint(1, 2)), rand_short(field, rng, 1))
            for _ in range(n)
        ] + [(field.zero(), field.one())]
        ok = all(check_v1(phi, idx, pairs).ok for idx in range(system.count))
        rep.check(f"{case}-one-root-valuation", ok)

        def sample_pairs(field: TitsField = field) -> list[tuple[FieldElem, FieldElem]]:
            return [
                (rand_monomial(field, rng), rand_monomial(field, rng))
                for _ in range(n)
            ]

        pair_list = system.interval_pairs()
        res = resolve_assignment(case, nu, sample_pairs, pair_list)
        rep.check(
            f"{case}-containment-all-pairs",
            CheckResult(
                res.chosen is not None,
                data={"passes": res.passes, "exactly_one": res.exactly_one},
            ),
        )
        rep.stats[f"{case}_interval_pairs"] = len(pair_list)
        rep.stats[f"{case}_assignment_passes"] = {str(k): v for k, v in res.passes.items()}

    f4 = ambient_system("F")
    field = fields["B"]
    nu = TAdicValuation()
    phi4 = PhiAssignment("F", f4, nu, twisted_class=1)
    all_pairs = f4.interval_pairs()
    chosen = [all_pairs[rng.randrange(len(all_pairs))] for _ in range(100)]
    ok = True
    for i, j in chosen:
        res = check_v2_pair(
            phi4, i, j, [(rand_monomial(field, rng), rand_monomial(field, rng)) for _ in range(n)]
        )
        if not res:
            ok = False
            break
    rep.check("F-containment-sampled-pairs", ok)
    rep.stats["F_pairs_checked"] = len(chosen)

    for case in ("B", "G"):
        field = fields[case]
        system = ambient_system(case)
        phi = PhiAssignment(case, system, TAdicValuation(), twisted_class=1)
        ok_const = True
        ok_self = True
        for alpha_pos in range(1, system.n + 1):
            alpha = system.position_root(alpha_pos)
            for beta_pos in range(1, system.n + 1):
                beta = system.position_root(beta_pos)
                u = rand_monomial(field, rng)
                g_params = [rand_monomial(field, rng) for _ in range(20)]
                res = check_v3(phi, alpha, beta, u, g_params)
                if not res:
                    ok_const = False
                if beta == alpha and not res:
                    ok_self = False
        rep.check(f"{case}-conjugation-shift-constant", ok_const)
        rep.check(f"{case}-self-shift-minus-twice", ok_self)

        alpha = system.position_root(1)
        w = field.one()
        u = rand_monomial(field, rng)
        res = check_double_reflection(
            phi, alpha, u, w, [rand_monomial(field, rng) for _ in range(20)]
        )
        rep.check(f"{case}-double-reflection-shift", res)

    g_field = fields["G"]
    system = ambient_system("G")
    params = [rand_monomial(g_field, rng) for _ in range(30)]
    phi = PhiAssignment("G", system, TAdicValuation(), twisted_class=1)
    rep.check("G-flip-invariance-tadic", check_rho_invariance(phi, params))
    skew = PhiAssignment(
        "G", system, LatticeOrderValuation(QuadExt(0, 2, 3)), twisted_class=1
    )
    res = check_rho_invariance(skew, params)
    rep.check("G-flip-breaks-for-skew-order", not res.ok)


# --- embedding ---


def _suite_embedding(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    t_all = finite_elems(TElem, f3)
    ok = all(check_embedding_hom("G", a, b).ok for a in t_all for b in t_all)
    rep.check("G-word-homomorphism-F3", ok)
    ok = all(check_embedding_rho("G", a).ok for a in t_all)
    rep.check("G-word-flip-invariance-F3", ok)

    hf3 = cfg.hahn_field(3)
    n = max(1, (cfg.samples or 1000) // 5)  # never pass on zero pairs
    ok = True
    for _ in range(n):
        a, b = rand_elem(TElem, hf3, rng), rand_elem(TElem, hf3, rng)
        if not check_embedding_hom("G", a, b).ok:
            ok = False
            break
    rep.check("G-word-homomorphism-hahn", ok)
    rep.stats["g_hahn_pairs"] = n
    ok = all(check_embedding_rho("G", rand_elem(TElem, hf3, rng)).ok for _ in range(50))
    rep.check("G-word-flip-invariance-hahn", ok)

    winners = solve_suzuki_word()
    if len(winners) != 1:
        rep.check("B-word-recipe-resolved", CheckResult(
            False, "expected a unique word recipe", {"found": len(winners), "winners": winners}
        ))
        # the word checks of case B need that recipe
        for name in ("B-word-homomorphism-F2", "B-word-checks-F8", "B-word-checks-hahn"):
            rep.check(name, CheckResult(False, "no unique word recipe"))
        return
    ((lam, mu),) = winners
    rep.check("B-word-recipe-resolved", CheckResult(True, data={"c2": str(lam), "c3": str(mu)}))
    f2 = TitsField(FieldCfg(char=2, mode="finite", m=1))
    s_all = finite_elems(SElem, f2)
    ok = all(check_embedding_hom("B", a, b).ok for a in s_all for b in s_all)
    rep.check("B-word-homomorphism-F2", ok)
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    s8 = finite_elems(SElem, f8)
    pick = [s8[rng.randrange(len(s8))] for _ in range(100)]
    ok = all(
        check_embedding_hom("B", a, b).ok
        for a, b in zip(pick[::2], pick[1::2])
    )
    ok = ok and all(check_embedding_rho("B", a).ok for a in pick[:50])
    rep.check("B-word-checks-F8", ok)
    hf2 = cfg.hahn_field(2)
    ok = True
    for _ in range(100):
        a, b = rand_elem(SElem, hf2, rng), rand_elem(SElem, hf2, rng)
        if not check_embedding_hom("B", a, b).ok or not check_embedding_rho("B", a).ok:
            ok = False
            break
    rep.check("B-word-checks-hahn", ok)


# --- moufang ---


def _suite_moufang(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    t0 = time.perf_counter()
    g = enumerate_group(f3)
    rep.timing["enumerate_seconds"] = round(time.perf_counter() - t0, 3)
    rep.stats["group"] = asdict(g)
    rep.check(
        "finite-group-shape",
        g.order == 1512
        and g.npoints == 28
        and g.transitivity == 2
        and g.point_stab == 54
        and g.two_point_stab == 2,
    )

    f27 = TitsField(FieldCfg(char=3, mode="finite", m=3))
    order = f27.q**3
    sample = [finite_elem(TElem, f27, rng.randrange(1, order)) for _ in range(30)]
    ok = all(
        rho_scalar_check(finite_elem(TElem, f27, rng.randrange(1, order)), sample).ok
        for _ in range(10)
    )
    rep.check("scaling-map-diagonal-F27", ok)
    rep.check("unit-scaling-identity-F27", rho_scalar_check(TElem.center(f27.one()), sample).ok)

    # In series mode a general point drives the certified range to zero
    # after two norm inversions, so the diagonal shape is spot checked on
    # single-slot points under a central scaling element; general position
    # is covered by the finite-field checks above.
    hf3 = cfg.hahn_field(3)
    hs = []
    for _ in range(9):
        comps = [hf3.zero(), hf3.zero(), hf3.zero()]
        comps[rng.randrange(3)] = hf3.monomial(
            hf3.unlat((rng.randint(-2, 2), rng.randint(-1, 1))), rng.randrange(1, 3)
        )
        hs.append(TElem(*comps))
    ok = True
    for _ in range(6):
        c = hf3.monomial(
            hf3.unlat((rng.randint(-2, 2), rng.randint(-1, 1))), rng.randrange(1, 3)
        )
        a = TElem(hf3.zero(), hf3.zero(), c)
        if not rho_scalar_check(a, hs).ok:
            ok = False
    rep.check("scaling-map-diagonal-hahn", ok)

    n = cfg.samples or 100
    nu = TAdicValuation()
    for case, field, count in (("G", hf3, n), ("B", cfg.hahn_field(2), max(1, n // 2))):
        ok = True
        for _ in range(count):
            t = rand_monomial(field, rng)
            if nu_from_center(case, nu, t) != nu.of(t):
                ok = False
                break
        rep.check(f"{case}-round-trip-on-monomials", ok)

    system = ambient_system("G")
    phi = PhiAssignment("G", system, nu, twisted_class=1)
    params = [rand_monomial(hf3, rng) for _ in range(30)]
    rep.check("flip-invariance-positive-direction", check_rho_invariance(phi, params))


_SUITES: dict[str, Callable[[RunConfig, random.Random, SuiteReport], None]] = {
    "scalars": _suite_scalars,
    "roots": _suite_roots,
    "folding": _suite_folding,
    "field": _suite_field,
    "groups": _suite_groups,
    "appendix": _suite_appendix,
    "valuation-axioms": _suite_valuation_axioms,
    "embedding": _suite_embedding,
    "moufang": _suite_moufang,
}
SUITE_NAMES = list(_SUITES)


def run_suite(name: str, cfg: RunConfig) -> dict:
    if name not in _SUITES:
        raise ConfigError(f"unknown suite: {name}")
    rng = random.Random(suite_seed(cfg.seed, name))
    rep = SuiteReport()
    t0 = time.perf_counter()
    _SUITES[name](cfg, rng, rep)
    payload = rep.payload()
    payload["timing"] = rep.timing
    payload["seconds"] = round(time.perf_counter() - t0, 3)
    return payload


def run_all(
    cfg: RunConfig, names: Sequence[str] | None = None, jobs: int = 1
) -> dict:
    chosen = list(names) if names else list(SUITE_NAMES)
    for name in chosen:
        if name not in _SUITES:
            raise ConfigError(f"unknown suite: {name}")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda s: run_suite(s, cfg), chosen))
    else:
        results = [run_suite(name, cfg) for name in chosen]
    suites = dict(zip(chosen, results))
    timing: dict[str, dict] = {}
    for name, payload in suites.items():
        entry = {"seconds": payload.pop("seconds")}
        entry.update(payload.pop("timing"))
        timing[name] = entry
    out = {
        "seed": cfg.seed,
        "config": {
            "case": cfg.case,
            "samples": cfg.samples,
            "precision": cfg.precision,
            "denom": cfg.denom,
            "support_cap": cfg.support_cap,
        },
        "suites": suites,
        "ok": all(payload["ok"] for payload in suites.values()),
    }
    if cfg.timings:
        out["timings"] = timing
    return out
