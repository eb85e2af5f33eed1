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
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .errors import ConfigError
from .field import _MODULI, CoeffField, FieldCfg, FieldElem, TitsField
from .groups import SElem, TElem, h_action, val_norm_exact
from .moufang import enumerate_group, rho_scalar_check
from .record import Record, set_field
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
from .scalar import INFINITY, ExtVal, QuadExt, parse_quad
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

class RunConfig(Record):
    """Knobs shared by all suites; None keeps a suite's documented default.

    Every series field a suite builds takes `FieldCfg`'s settings, which the
    report's config block states.
    """

    case: str = "G"
    samples: int | None = None
    seed: int = 0
    timings: bool = False

    def __init__(
        self,
        case: str = case,
        samples: int | None = samples,
        seed: int = seed,
        timings: bool = timings,
    ) -> None:
        set_field(self, "case", case)
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)
        set_field(self, "timings", timings)


def suite_seed(seed: int, suite: str) -> int:
    digest = hashlib.sha256(f"{seed}:{suite}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- scalars ---


def _suite_scalars(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    n = cfg.samples or 200
    for p in (None, 2, 3):
        draws = [tuple(rand_quad(rng, p) for _ in range(3)) for _ in range(n)]
        tag = "rational" if p is None else f"sqrt{p}"
        rep.check(f"ring-laws-{tag}", all(
            (x + y) * z == x * z + y * z and x * y == y * x and (x + y) + z == x + (y + z)
            for x, y, z in draws
        ))
        rep.check(f"ordering-vs-sign-{tag}", all(
            ((x - y).sign() > 0) == (x > y) and ((x - y).sign() == 0) == (x == y)
            for x, y, _ in draws
        ))
        rep.check(f"inverse-roundtrip-{tag}", all(
            x == QuadExt(0) or x * x.inv() == QuadExt(1) for x, _, _ in draws
        ))
    for p in (2, 3):
        r = QuadExt.sqrt(p)
        rep.check(f"sqrt{p}-squares", r * r == QuadExt(p))
        draws = [rand_quad(rng, p) for _ in range(max(1, n // 2))]
        rep.check(f"parse-roundtrip-sqrt{p}", all(
            parse_quad(str(q), radicand=p) == q for q in draws
        ))
    vals = [ExtVal.of(rand_quad(rng, 3)) for _ in range(20)] + [INFINITY]
    rep.check("extended-min-and-infinity", all(
        min(a, b) == min(b, a) and (a + b).is_infinite == (a.is_infinite or b.is_infinite)
        for a in vals
        for b in vals
    ))


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
        idx = range(system.count)
        reflect, tau = system.reflect_idx, system.chamber_involution_idx
        rep.check(f"{kind}-reflection-negates-mirror", all(
            reflect(i, i) == system.negate_idx(i) for i in idx
        ))
        rep.check(f"{kind}-reflection-fixes-perpendicular", all(
            reflect(i, j) == j for i in idx for j in idx if system.angle_deg(i, j) == 90
        ))
        rep.check(f"{kind}-reflection-involutive", all(
            reflect(i, reflect(i, j)) == j for i in idx for j in idx
        ))
        length = system.length_class
        rep.check(f"{kind}-involution-swaps-length-classes", all(
            tau(tau(i)) == i and (kind == "A1" or length(tau(i)) != length(i)) for i in idx
        ))
    b2 = get_system("B2")
    i, j = 0, 3
    assert b2.angle_deg(i, j) == 135
    rep.check("B2-interval-coefficients", _interval_shape(b2, i, j) == _B2_INTERVAL)
    g2 = get_system("G2")
    i, j = 0, 5
    assert g2.angle_deg(i, j) == 150
    rep.check("G2-interval-coefficients", _interval_shape(g2, i, j) == _G2_INTERVAL)
    rep.check("position-map-roundtrip", all(
        system.root_position(system.position_root(pos)) == pos
        for system in map(get_system, ("B2", "G2"))
        for pos in range(1, system.n + 1)
    ))
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
    rep.check("F4-consecutive-cos2", all(
        f4f.cos2_between(k, (k + 1) % f4f.count) == want for k in range(f4f.count)
    ))
    mults = [f4f.multiplicity(k) for k in range(f4f.count)]
    rep.check("F4-multiplicities-alternate", sorted(set(mults)) == [2, 4] and all(
        mults[k] != mults[(k + 1) % f4f.count] for k in range(f4f.count)
    ))
    rep.check("preimages-partition-roots", all(
        sum(len(f.preimages(k)) for k in range(f.count)) == get_system(kind).count
        for kind, f in folded.items()
    ))
    # reflect_idx(m, .) is an involution, and it is the reflection
    # s_m(w) = w - 2 (w.w_m)/(w_m.w_m) w_m on the rays: s_m(w_i) points along
    # ray k = reflect_idx(m, i) when its product d with w_k is positive and
    # d^2 = |s_m(w_i)|^2 |w_k|^2, where |s_m(w_i)|^2 = |w_i|^2.  The fold's
    # Gram matrix holds every product this reads.
    def reflects(f: FoldedSystem, m: int, i: int) -> bool:
        k, gram = f.reflect_idx(m, i), f.gram
        gm, gi = gram[m], gram[i]
        d = gi[k] - (gi[m] + gi[m]) / gm[m] * gm[k]
        return d.sign() > 0 and d * d == gi[i] * gram[k][k]

    rep.check("folded-reflections-involutive", all(
        f.reflect_idx(m, f.reflect_idx(m, i)) == i and reflects(f, m, i)
        for f in folded.values()
        for m in range(f.count)
        for i in range(f.count)
    ))


# --- field ---


def _suite_field(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    for char, m in _MODULI:
        cf = CoeffField(char, m)
        xs = range(cf.q)
        rep.check(f"F{cf.q}-twist-squares-to-frobenius", all(
            cf.theta(cf.theta(x)) == reduce(cf.mul, [x] * char) for x in xs
        ))
        rep.check(f"F{cf.q}-twist-multiplicative", all(
            cf.theta(cf.mul(x, y)) == cf.mul(cf.theta(x), cf.theta(y)) for x in xs for y in xs
        ))
    n = cfg.samples or 120
    for char in (2, 3):
        field = TitsField(FieldCfg(char=char))
        draws = [
            (
                rand_short(field, rng, terms=rng.randint(1, 3)),
                rand_short(field, rng, terms=rng.randint(1, 2)),
                rand_monomial(field, rng),
            )
            for _ in range(n)
        ]
        tag = f"hahn-char{char}"
        rep.check(f"{tag}-ring-laws", all(
            ((a + b) * c).agrees(a * c + b * c) and (a * b).agrees(b * a) for a, b, c in draws
        ))
        rep.check(f"{tag}-inverse-roundtrip", all(
            (a * a.inv()).agrees(field.one()) for a, _, _ in draws
        ))
        # theta is a ring map whose square is the Frobenius a -> a^p
        rep.check(f"{tag}-twist-ring-map", all(
            (a * b).theta().agrees(a.theta() * b.theta()) and a.theta().theta().agrees(a ** field.p)
            for a, b, _ in draws
        ))
        rep.check(f"{tag}-valuation-additive", all(
            (a * b).val() == a.val() + b.val() for a, b, _ in draws
        ))
        rep.check(f"{tag}-parse-roundtrip", all(
            field.parse(a.emit()).agrees(a) for a, _, _ in draws
        ))


# --- groups ---


def _group_laws(elems: list[TElem] | list[SElem], m: list[list[int]]) -> bool:
    """Associativity and inverses of a whole finite group on its Cayley table m."""
    return all(
        m[mij] == [row[k] for k in m[j]]  # (a b) c == a (b c) for every c
        for row in m
        for j, mij in enumerate(row)
    ) and all(row[finite_index(a.inverse())] == 0 for a, row in zip(elems, m))


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
    # an image at the identity fails too, as w[0] = 0
    return all(w[w[i]] == i for i in range(1, len(w))), anisotropic


def _suite_groups(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    f2 = TitsField(FieldCfg(char=2, mode="finite", m=1))
    s_all = finite_elems(SElem, f2)
    rep.check("S-F2-group-laws", _group_laws(s_all, cayley_table(s_all)))

    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    t_all = finite_elems(TElem, f3)
    m = cayley_table(t_all)
    cz = finite_index(TElem.center(f3.one()))
    rep.check("T-F3-group-laws-and-center", _group_laws(t_all, m) and all(
        row[cz] == m[cz][i] for i, row in enumerate(m)
    ))

    t0 = time.perf_counter()
    involutive, anisotropic3 = _omega_table(t_all)
    rep.check("omega-squared-F3", involutive)
    f27 = TitsField(FieldCfg(char=3, mode="finite", m=3))
    involutive, anisotropic27 = _omega_table(finite_elems(TElem, f27))
    rep.check("omega-squared-F27", involutive)
    rep.timing["omega_finite_seconds"] = round(time.perf_counter() - t0, 3)

    n = cfg.samples or 1000
    hf = TitsField(FieldCfg(char=3))
    t0 = time.perf_counter()
    ks = iter(range(n))
    draws = (rand_elem(TElem, hf, rng) for _ in ks)
    rep.check("omega-squared-hahn", all(a.omega().omega().agrees(a) for a in draws))
    rep.timing["omega_hahn_seconds"] = round(time.perf_counter() - t0, 3)
    # the samples drawn: a failing check stops drawing, and next(ks) is the count drawn
    rep.stats["omega_hahn_samples"] = next(ks, n)

    rep.check("T-norm-anisotropic", anisotropic3 and anisotropic27)
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    rep.check("S-norm-anisotropic", all(
        a.norm().is_zero() == a.is_identity() for a in finite_elems(SElem, f8)
    ))

    for tag, cls, field in (("T", TElem, hf), ("S", SElem, TitsField(FieldCfg(char=2)))):
        acts = (h_action(rand_elem(cls, field, rng)) for _ in range(40))
        # x and y are drawn only for an h of nonzero norm
        draws = [
            (act, rand_elem(cls, field, rng), rand_elem(cls, field, rng))
            for act in acts
            if act is not None
        ]
        rep.check(f"{tag}-scaling-action-automorphism", all(
            act(x * y).agrees(act(x) * act(y)) for act, x, y in draws
        ))


# --- appendix ---


def _suite_appendix(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    hf2 = TitsField(FieldCfg(char=2))
    n_pre = (cfg.samples or 1000) * 10
    ks = iter(range(n_pre))
    # every tenth draw is an engineered collision of the two norm levels
    draws = (
        SElem(rand_monomial(hf2, rng), rand_monomial(hf2, rng))
        if k % 10
        else SElem(
            hf2.monomial_at(gs := rand_lat(rng, 4)),
            hf2.monomial_at(lat_mul_quad(gs, 1, 1, 2)),
        )
        for k in ks
    )
    rep.check("S-norm-level-prevalidation", all(a.norm().val() == val_norm_exact(a) for a in draws))
    # the samples and ties drawn: a failing check stops drawing, and next(ks)
    # is the count drawn
    drawn = next(ks, n_pre)
    rep.stats["s_prevalidation_samples"] = drawn
    rep.stats["s_prevalidation_ties"] = len(range(0, drawn, 10))

    hf3 = TitsField(FieldCfg(char=3))
    n = cfg.samples or 1000
    tie_count = max(50, min(60, n // 2)) if n >= 50 else n
    samples = tie_samples_t(hf3, rng, tie_count)
    samples += [rand_elem(TElem, hf3, rng) for _ in range(n - len(samples))]
    rep.check("T-norm-level-formula", all(a.norm().val() == val_norm_exact(a) for a in samples))
    rep.stats["t_formula_samples"] = len(samples)
    rep.stats["t_formula_ties"] = tie_count

    n_pairs = cfg.samples or 1000
    drawn = n_pairs
    for tag, cls, field in (("T", TElem, hf3), ("S", SElem, hf2)):
        ks = iter(range(n_pairs))
        draws = ((rand_elem(cls, field, rng), rand_elem(cls, field, rng)) for _ in ks)
        rep.check(f"{tag}-norm-level-ultrametric", all(
            not (a * b).norm().val() < min(a.norm().val(), b.norm().val()) for a, b in draws
        ))
        drawn = min(drawn, next(ks, n_pairs))
    # the pairs drawn by the check that drew fewer
    rep.stats["ultrametric_pairs"] = drawn


# --- valuation axioms ---


def _suite_valuation_axioms(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    n = cfg.samples or 100

    fields = {"B": TitsField(FieldCfg(char=2)), "G": TitsField(FieldCfg(char=3))}
    nu = TAdicValuation()
    phis = {case: PhiAssignment(case, ambient_system(case), nu, twisted_class=1) for case in fields}
    for case, phi in phis.items():
        field, system = fields[case], phi.system
        pairs = [
            (rand_short(field, rng, rng.randint(1, 2)), rand_short(field, rng, 1))
            for _ in range(n)
        ] + [(field.zero(), field.one())]
        rep.check(f"{case}-one-root-valuation", all(
            check_v1(phi, idx, pairs).ok for idx in range(system.count)
        ))

        def sample_pairs(field: TitsField = field) -> list[tuple[FieldElem, FieldElem]]:
            return [
                (rand_monomial(field, rng), rand_monomial(field, rng))
                for _ in range(n)
            ]

        pair_list = system.interval_pairs()
        passes = resolve_assignment(case, nu, sample_pairs, pair_list)
        rep.check(
            f"{case}-containment-all-pairs",
            CheckResult(
                any(passes.values()),
                data={"passes": passes, "exactly_one": sum(passes.values()) == 1},
            ),
        )
        rep.stats[f"{case}_interval_pairs"] = len(pair_list)
        rep.stats[f"{case}_assignment_passes"] = {str(k): v for k, v in passes.items()}

    f4 = ambient_system("F")
    field = fields["B"]
    phi4 = PhiAssignment("F", f4, nu, twisted_class=1)
    all_pairs = f4.interval_pairs()
    chosen = [all_pairs[rng.randrange(len(all_pairs))] for _ in range(100)]
    draws = (
        (i, j, [(rand_monomial(field, rng), rand_monomial(field, rng)) for _ in range(n)])
        for i, j in chosen
    )
    rep.check("F-containment-sampled-pairs", all(
        check_v2_pair(phi4, i, j, params) for i, j, params in draws
    ))
    rep.stats["F_pairs_checked"] = len(chosen)

    for case, phi in phis.items():
        field, system = fields[case], phi.system
        roots = [system.position_root(pos) for pos in range(1, system.n + 1)]
        draws = [
            (alpha, beta, rand_monomial(field, rng), [rand_monomial(field, rng) for _ in range(20)])
            for alpha in roots
            for beta in roots
        ]
        results = [
            (beta == alpha, check_v3(phi, alpha, beta, u, g_params).ok)
            for alpha, beta, u, g_params in draws
        ]
        rep.check(f"{case}-conjugation-shift-constant", all(ok for _, ok in results))
        rep.check(f"{case}-self-shift-minus-twice", all(ok for diagonal, ok in results if diagonal))

        alpha = system.position_root(1)
        w = field.one()
        u = rand_monomial(field, rng)
        res = check_double_reflection(
            phi, alpha, u, w, [rand_monomial(field, rng) for _ in range(20)]
        )
        rep.check(f"{case}-double-reflection-shift", res)

    params = [rand_monomial(fields["G"], rng) for _ in range(30)]
    rep.check("G-flip-invariance-tadic", check_rho_invariance(phis["G"], params))
    skew = PhiAssignment(
        "G", phis["G"].system, LatticeOrderValuation(QuadExt(0, 2, 3)), twisted_class=1
    )
    res = check_rho_invariance(skew, params)
    rep.check("G-flip-breaks-for-skew-order", not res.ok)


# --- embedding ---


def _suite_embedding(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    t_all = finite_elems(TElem, f3)
    rep.check("G-word-homomorphism-F3", all(
        check_embedding_hom("G", a, b).ok for a in t_all for b in t_all
    ))
    rep.check("G-word-flip-invariance-F3", all(check_embedding_rho("G", a).ok for a in t_all))

    hf3 = TitsField(FieldCfg(char=3))
    n = max(1, (cfg.samples or 1000) // 5)  # never pass on zero pairs
    ks = iter(range(n))
    draws = ((rand_elem(TElem, hf3, rng), rand_elem(TElem, hf3, rng)) for _ in ks)
    rep.check("G-word-homomorphism-hahn", all(check_embedding_hom("G", a, b).ok for a, b in draws))
    rep.stats["g_hahn_pairs"] = next(ks, n)  # the pairs drawn
    draws = (rand_elem(TElem, hf3, rng) for _ in range(50))
    rep.check("G-word-flip-invariance-hahn", all(check_embedding_rho("G", a).ok for a in draws))

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
    rep.check("B-word-homomorphism-F2", all(
        check_embedding_hom("B", a, b).ok for a in s_all for b in s_all
    ))
    f8 = TitsField(FieldCfg(char=2, mode="finite", m=3))
    s8 = finite_elems(SElem, f8)
    pick = [s8[rng.randrange(len(s8))] for _ in range(100)]
    rep.check("B-word-checks-F8", all(
        check_embedding_hom("B", a, b).ok for a, b in zip(pick[::2], pick[1::2])
    ) and all(check_embedding_rho("B", a).ok for a in pick[:50]))
    hf2 = TitsField(FieldCfg(char=2))
    draws = ((rand_elem(SElem, hf2, rng), rand_elem(SElem, hf2, rng)) for _ in range(100))
    rep.check("B-word-checks-hahn", all(
        check_embedding_hom("B", a, b).ok and check_embedding_rho("B", a).ok for a, b in draws
    ))


# --- moufang ---


def _suite_moufang(cfg: RunConfig, rng: random.Random, rep: SuiteReport) -> None:
    f3 = TitsField(FieldCfg(char=3, mode="finite", m=1))
    t0 = time.perf_counter()
    g = enumerate_group(f3)
    rep.timing["enumerate_seconds"] = round(time.perf_counter() - t0, 3)
    rep.stats["group"] = dict(vars(g))
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
    draws = (finite_elem(TElem, f27, rng.randrange(1, order)) for _ in range(10))
    rep.check("scaling-map-diagonal-F27", all(rho_scalar_check(a, sample).ok for a in draws))
    rep.check("unit-scaling-identity-F27", rho_scalar_check(TElem.center(f27.one()), sample).ok)

    # In series mode a general point drives the certified range to zero
    # after two norm inversions, so the diagonal shape is spot checked on
    # single-slot points under a central scaling element; general position
    # is covered by the finite-field checks above.
    hf3 = TitsField(FieldCfg(char=3))
    hs = []
    for _ in range(9):
        comps = [hf3.zero(), hf3.zero(), hf3.zero()]
        comps[rng.randrange(3)] = hf3.monomial_at(
            (rng.randint(-2, 2), rng.randint(-1, 1)), rng.randrange(1, 3)
        )
        hs.append(TElem(*comps))
    draws = [
        hf3.monomial_at((rng.randint(-2, 2), rng.randint(-1, 1)), rng.randrange(1, 3))
        for _ in range(6)
    ]
    rep.check("scaling-map-diagonal-hahn", all(
        rho_scalar_check(TElem.center(c), hs).ok for c in draws
    ))

    n = cfg.samples or 100
    nu = TAdicValuation()
    for case, field, count in (("G", hf3, n), ("B", TitsField(FieldCfg(char=2)), max(1, n // 2))):
        draws = (rand_monomial(field, rng) for _ in range(count))
        rep.check(f"{case}-round-trip-on-monomials", all(
            nu_from_center(case, nu, t) == nu.of(t) for t in draws
        ))

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


def run_all(cfg: RunConfig, names: Sequence[str] | None = None) -> dict:
    chosen = list(names) if names else list(SUITE_NAMES)
    for name in chosen:
        if name not in _SUITES:
            raise ConfigError(f"unknown suite: {name}")
    suites: dict[str, dict] = {}
    timing: dict[str, dict] = {}
    for name in chosen:
        payload = run_suite(name, cfg)
        timing[name] = {"seconds": payload.pop("seconds"), **payload.pop("timing")}
        suites[name] = payload
    out = {
        "seed": cfg.seed,
        "config": {
            "case": cfg.case,
            "samples": cfg.samples,
            "precision": FieldCfg.precision,
            "denom": FieldCfg.denom,
            "support_cap": FieldCfg.support_cap,
        },
        "suites": suites,
        "ok": all(payload["ok"] for payload in suites.values()),
    }
    if cfg.timings:
        out["timings"] = timing
    return out
