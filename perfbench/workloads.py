"""The four benchmark workloads, built from srlab's public API only.

Each workload has three phases.  `setup` imports what it needs and builds
its fields and root systems; its cost is the benchmark's set-up time.
`inputs` draws the batch from the workload seed and is not timed.  `run`
is the timed phase: one closed loop that starts a sample only after the
previous one has finished, with a host speed probe tick before each sample
(perfbench/probe.py).  Every sample checks its own exact property and
contributes its emitted output to the batch digest.

No underscore name of srlab is imported, so moving the suite samplers or
reworking the kernel cannot break the benchmark.  srlab names are imported
where they are used, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from typing import Callable

# What one workload's timed phase returns: the clock readings at the start
# and end of the batch, one (start, end, ok) triple per sample, and the
# digest of the outputs.
BatchResult = tuple[float, float, list[tuple[float, float, bool]], str]


class Workload:
    """A named workload: set-up, seeded inputs and a timed batch."""

    name = ""
    # Whether the host speed probe runs on a timer (long samples) rather
    # than between samples (perfbench/probe.py).
    periodic_probe = False

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def sample(self, x) -> tuple[bool, str]:
        """Run one sample: its exact property and its emitted output."""
        raise NotImplementedError

    def run(self, inputs: list, on_sample: Callable[[int], None],
            tick: Callable[[], None]) -> BatchResult:
        from srlab.errors import SrlabError

        clock = time.perf_counter
        digest = hashlib.sha256()
        samples: list[tuple[float, float, bool]] = []
        t_start = clock()
        for k, x in enumerate(inputs):
            on_sample(k)
            tick()
            t0 = clock()
            try:
                ok, out = self.sample(x)
            except SrlabError as exc:
                ok, out = False, f"error {type(exc).__name__}"
            samples.append((t0, clock(), ok))
            digest.update(out.encode())
            digest.update(b"\n")
        return t_start, clock(), samples, digest.hexdigest()


# --- element samplers (the suites' law, from public constructors) ---


def monomial(field, rng: random.Random, e_span: int = 6, f_span: int = 2):
    exp = field.unlat((rng.randint(-e_span, e_span), rng.randint(-f_span, f_span)))
    return field.monomial(exp, rng.randrange(1, field.q))


def series(field, rng: random.Random, nterms: int, e_span: int, f_span: int):
    """A certified series with exactly `nterms` distinct exponents."""
    exps: set[tuple[int, int]] = set()
    while len(exps) < nterms:
        exps.add((rng.randint(-e_span, e_span), rng.randint(-f_span, f_span)))
    out = field.zero()
    for lat in sorted(exps):
        out = out + field.monomial(field.unlat(lat), rng.randrange(1, field.q))
    return out


def component(field, rng: random.Random, roll: float | None = None):
    """Mostly monomials, some 2-term sums, some zero."""
    if roll is None:
        roll = rng.random()
    if roll < 0.10:
        return field.zero()
    if roll < 0.80:
        return monomial(field, rng)
    out = monomial(field, rng) + monomial(field, rng)
    return out if out.is_nonzero() else field.one()


def random_t(field, rng: random.Random, rolls: tuple | None = None):
    from srlab.groups import TElem

    rolls = rolls or (None, None, None)
    a = TElem(*(component(field, rng, roll) for roll in rolls))
    return TElem.center(field.one()) if a.is_identity() else a


def stratified_rolls(rng: random.Random, n: int) -> list[float]:
    """n draws of the component law's roll with its exact shares in every
    batch: one roll per stratum of width 1/n, in random order."""
    rolls = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(rolls)
    return rolls


def random_s(field, rng: random.Random):
    from srlab.groups import SElem

    a = SElem(component(field, rng), component(field, rng))
    return SElem.center(field.one()) if a.is_identity() else a


def emit_all(*elems) -> str:
    return "|".join(x.emit() for x in elems)


# --- omega-series ---


class OmegaSeries(Workload):
    """T element round trips a.omega().omega() over the char-3 series field."""

    name = "omega-series"
    batch = 400

    def setup(self) -> None:
        from srlab.field import FieldCfg, TitsField

        self.field = TitsField(FieldCfg(char=3, mode="hahn"))

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        rolls = [stratified_rolls(rng, self.batch) for _ in range(3)]
        return [random_t(self.field, rng, slot) for slot in zip(*rolls)]

    def sample(self, a) -> tuple[bool, str]:
        w = a.omega()
        return w.omega().agrees(a), emit_all(w.r, w.s, w.t)


# --- exact-series ---


class ExactSeries(Workload):
    """Exact ring laws on certified series with 1-16 terms over a wide span."""

    name = "exact-series"
    batch = 4000
    e_span = 60
    f_span = 20

    def setup(self) -> None:
        from srlab.field import FieldCfg, TitsField

        self.fields = [TitsField(FieldCfg(char=p, mode="hahn")) for p in (2, 3)]

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        out = []
        for _ in range(self.batch):
            field = self.fields[rng.randrange(2)]
            a, b, c = (
                series(field, rng, rng.randint(1, 16), self.e_span, self.f_span)
                for _ in range(3)
            )
            out.append((field, a, b, c))
        return out

    def sample(self, x) -> tuple[bool, str]:
        field, a, b, c = x
        ab = a * b
        lhs = (a + b) * c
        ok = (
            ab.agrees(b * a)
            and lhs.agrees(a * c + b * c)
            and ab.theta().agrees(a.theta() * b.theta())
            and a.theta().theta().agrees(a**field.p)
            and ab.val() == a.val() + b.val()
            and field.parse(a.emit()).agrees(a)
        )
        return ok, emit_all(ab, lhs)


# --- valuation-roots ---


class ValuationRoots(Workload):
    """Containment bound (V2) on every ordered non-opposite root pair of
    B2, G2 and F4 under both class-to-rule assignments, mixed with word
    embedding homomorphism checks on random S and T elements."""

    name = "valuation-roots"
    params_per_pair = 2
    embed_every = 24

    def setup(self) -> None:
        from srlab.field import FieldCfg, TitsField
        from srlab.valuation import PhiAssignment, TAdicValuation, ambient_system

        fields = {p: TitsField(FieldCfg(char=p, mode="hahn")) for p in (2, 3)}
        nu = TAdicValuation()
        self.cases = []
        for case, p in (("B", 2), ("G", 3), ("F", 2)):
            system = ambient_system(case)
            phis = [PhiAssignment(case, system, nu, tc) for tc in (0, 1)]
            self.cases.append((case, fields[p], system, phis))
        self.fields = fields

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        out: list = []
        for case, field, system, phis in self.cases:
            for i in range(system.count):
                for j in range(system.count):
                    if i == j or j == system.negate_idx(i):
                        continue
                    params = [
                        (monomial(field, rng), monomial(field, rng))
                        for _ in range(self.params_per_pair)
                    ]
                    out.append(("pair", case, phis, i, j, params))
                    if len(out) % self.embed_every == 0:
                        if rng.randrange(2):
                            f = self.fields[3]
                            pair = (random_t(f, rng), random_t(f, rng))
                            out.append(("embed", "G") + pair)
                        else:
                            f = self.fields[2]
                            pair = (random_s(f, rng), random_s(f, rng))
                            out.append(("embed", "B") + pair)
        return out

    def sample(self, x) -> tuple[bool, str]:
        from srlab.valuation import check_embedding_hom, check_v2_pair

        if x[0] == "embed":
            _, case, a, b = x
            ok = check_embedding_hom(case, a, b).ok
            return ok, f"embed {case} {int(ok)}"
        _, case, phis, i, j, params = x
        passes = [check_v2_pair(phi, i, j, params).ok for phi in phis]
        return all(passes), f"{case} {i} {j} " + "".join(str(int(v)) for v in passes)


# --- srlab-run ---


class SrlabRun(Workload):
    """The whole command line run: all nine suites, one job, fixed samples.

    One sample is one suite, timed around `srlab.suites.run_suite`, which
    `run_all` looks up in its module on every call.  The digest covers the
    report bytes, which are the bytes `srlab run` writes for the same
    arguments.
    """

    name = "srlab-run"
    samples_flag = 5
    periodic_probe = True

    def setup(self) -> None:
        import srlab.cli

        self.main = srlab.cli.main

    def inputs(self, seed: int) -> list:
        return [seed]

    def argv(self, seed: int, out_path: str) -> list[str]:
        argv = ["run", "--seed", str(seed), "--samples", str(self.samples_flag)]
        return argv + ["--jobs", "1", "--out", out_path]

    def run(self, inputs: list, on_sample: Callable[[int], None],
            tick: Callable[[], None]) -> BatchResult:
        import srlab.suites

        (seed,) = inputs
        out_path = os.path.join(os.environ["PERFBENCH_TMP"], f"report-{os.getpid()}.json")
        clock = time.perf_counter
        inner = srlab.suites.run_suite
        spans: dict[str, tuple[float, float]] = {}

        def timed_suite(name, cfg):
            on_sample(len(spans))
            t0 = clock()
            try:
                return inner(name, cfg)
            finally:
                spans[name] = (t0, clock())

        srlab.suites.run_suite = timed_suite
        try:
            t_start = clock()
            code = self.main(self.argv(seed, out_path))
            t_end = clock()
        finally:
            srlab.suites.run_suite = inner
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
        report = json.loads(text)
        samples = [
            (*spans[name], code == 0 and payload["ok"])
            for name, payload in report["suites"].items()
        ]
        return t_start, t_end, samples, hashlib.sha256(text.encode()).hexdigest()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (OmegaSeries, ExactSeries, ValuationRoots, SrlabRun)
}
