"""Per-layer tracing of srlab, installed from outside the library.

`install` replaces public functions and methods of each layer with timing
wrappers in the running process; nothing under srlab changes.  Every wrapped
call pushes a frame on one stack, so a call's self time is its duration
minus the time its wrapped children cover.  Calls of the coarse layers are
also kept as spans (name, start, end, parent span, sample id) in memory and
written out after the batch; the hot scalar operations, millions of calls
per batch, only aggregate their count and self time in place.  Layer times
are raw clock seconds, not scaled by the host speed probe; on srlab-run the
periodic probes (about 1% of the run) fall inside whatever span is open.

Which end-to-end metric each layer should move, and on which workload:

  kernel     omega-series wall_s and sample latency; must not worsen exact-series
  field      omega-series and exact-series wall_s
  groups     omega-series wall_s; the finite-field part of srlab-run
  scalar     valuation-roots wall_s
  roots      valuation-roots wall_s and sample_ms_p95; setup_s if the work
             moves into construction
  valuation  valuation-roots and srlab-run wall_s
  moufang    srlab-run wall_s
  suites     srlab-run wall_s (suites also covers cli and report)
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable

# Fixed here rather than read from srlab, so the metric names stay the ones
# BENCHMARK.json lists.
SUITE_NAMES = (
    "scalars",
    "roots",
    "folding",
    "field",
    "groups",
    "appendix",
    "valuation-axioms",
    "embedding",
    "moufang",
)

# QuadExt and ExtVal construction, arithmetic and comparisons.
SCALAR_OPS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inv", "sign",
    "scale", "scale_sqrtp", "div_sqrtp", "min_with",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)

# After-call hooks receive (args, result, seconds) and bump work counts.
Hook = Callable[[tuple, object, float], None]


class Tracer:
    """Frame stack, per-name aggregates, extra counts and the span store."""

    def __init__(self, span_limit: int = 300_000) -> None:
        self.stack: list[list[float]] = []
        self.span_ids: list[int] = []
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_limit = span_limit
        self.next_id = 0
        self.dropped = 0
        self.sample = -1
        self.absent: list[str] = []
        self.origin = time.perf_counter()

    def set_sample(self, k: int) -> None:
        self.sample = k

    def wrap(self, name: str, fn: Callable, after: Hook | None = None,
             before: Callable[[tuple], None] | None = None) -> Callable:
        """Wrapper that aggregates self time and keeps one span per call."""
        stack, span_ids, spans = self.stack, self.span_ids, self.spans
        stat = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self.next_id
            self.next_id = sid + 1
            parent = span_ids[-1] if span_ids else -1
            frame = [0.0]
            stack.append(frame)
            span_ids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_ids.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < self.span_limit:
                    spans.append((sid, name, t0, t1, parent, self.sample))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result, dur)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap_hot(self, name: str, fn: Callable) -> Callable:
        """Wrapper that only aggregates count and self time (no span)."""
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write(self, path: str) -> None:
        """Write the kept spans as JSON, times in ns from tracer start."""
        origin = self.origin
        rows = [
            [sid, name, round((t0 - origin) * 1e9), round((t1 - origin) * 1e9), parent, sample]
            for sid, name, t0, t1, parent, sample in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["id", "name", "start_ns", "end_ns", "parent", "sample"],
                    "spans": rows,
                    "dropped": self.dropped,
                    "absent": self.absent,
                },
                fh,
            )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the aggregates and counts."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        c = self.counts

        def share(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out["kernel.ser_mul.pairs"] = c["ser_mul.pairs"]
        out["kernel.ser_mul.bounded_share"] = share("ser_mul.bounded", "ser_mul.calls")
        out["kernel.ser_mul.yield"] = share("ser_mul.terms_out", "ser_mul.pairs")
        out["kernel.ser_trunc.kept_ratio"] = share("ser_trunc.kept", "ser_trunc.terms_in")
        out["kernel.ser_min.terms"] = c["ser_min.terms"]
        out["field.mul.at_cap_share"] = share("mul.at_cap", "mul.series")
        out["field.inv.at_cap_share"] = share("inv.at_cap", "inv.series")
        out["roots.interval.cold_calls"] = c["interval.cold_calls"]
        out["roots.interval.cold_s"] = c["interval.cold_s"]
        out["roots.build_s"] = c["build_s"]
        out["valuation.collect.factors_in"] = c["collect.factors_in"]
        out["valuation.collect.factors_out"] = c["collect.factors_out"]
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.s"] = c[f"suite.{suite}.s"]
        return out


def _patch_function(tracer: Tracer, modules: list, module, attr: str, name: str,
                    after: Hook | None = None,
                    before: Callable[[tuple], None] | None = None) -> None:
    """Wrap a module function, also where other srlab modules imported it."""
    fn = getattr(module, attr, None)
    if fn is None:
        tracer.absent.append(name)
        return
    wrapped = tracer.wrap(name, fn, after, before)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str,
                  after: Hook | None = None, hot: bool = False) -> None:
    """Wrap a method on the class and on every subclass that overrides it."""
    owners = []
    todo = [cls]
    while todo:
        c = todo.pop()
        if attr in vars(c):
            owners.append(c)
        todo.extend(c.__subclasses__())
    if not owners:
        tracer.absent.append(name)
        return
    for owner in owners:
        fn = vars(owner)[attr]
        wrapped = tracer.wrap_hot(name, fn) if hot else tracer.wrap(name, fn, after)
        setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions in the running process."""
    import srlab.cli
    import srlab.core
    import srlab.field
    import srlab.groups
    import srlab.moufang
    import srlab.report
    import srlab.roots
    import srlab.scalar
    import srlab.suites
    import srlab.valuation

    modules = [
        srlab.cli, srlab.field, srlab.groups, srlab.moufang, srlab.report,
        srlab.roots, srlab.scalar, srlab.suites, srlab.valuation,
    ]
    c = tracer.counts

    # kernel
    def ser_mul_done(args, result, dur):
        c["ser_mul.calls"] += 1
        c["ser_mul.pairs"] += len(args[0]) * len(args[1])
        c["ser_mul.bounded"] += args[5] is not None
        c["ser_mul.terms_out"] += len(result)

    def ser_trunc_done(args, result, dur):
        c["ser_trunc.terms_in"] += len(args[0])
        c["ser_trunc.kept"] += len(result)

    def ser_min_done(args, result, dur):
        c["ser_min.terms"] += len(args[0])

    kernel = srlab.core.kernel
    for attr, after in (
        ("ser_mul", ser_mul_done),
        ("ser_trunc", ser_trunc_done),
        ("ser_min", ser_min_done),
        ("ser_add", None),
    ):
        _patch_function(tracer, [kernel], kernel, attr, f"kernel.{attr}", after)

    # field
    def at_cap(tag: str) -> Hook:
        def done(args, result, dur):
            if result.terms is not None:
                c[f"{tag}.series"] += 1
                c[f"{tag}.at_cap"] += len(result.terms) >= result.field.cfg.support_cap
        return done

    FieldElem = srlab.field.FieldElem
    for attr, name, after in (
        ("__mul__", "field.mul", at_cap("mul")),
        ("__add__", "field.add", None),
        ("inv", "field.inv", at_cap("inv")),
        ("theta", "field.theta", None),
        ("agrees", "field.agrees", None),
        ("emit", "field.emit", None),
    ):
        _patch_method(tracer, FieldElem, attr, name, after)
    _patch_method(tracer, srlab.field.TitsField, "parse", "field.parse")

    # groups
    _patch_method(tracer, srlab.groups.TElem, "norm", "groups.TElem.norm")
    _patch_method(tracer, srlab.groups.SElem, "norm", "groups.SElem.norm")
    _patch_method(tracer, srlab.groups.TElem, "omega", "groups.TElem.omega")
    _patch_method(tracer, srlab.groups.TElem, "__mul__", "groups.TElem.mul")

    # scalar
    for cls, name in ((srlab.scalar.QuadExt, "scalar.quad"), (srlab.scalar.ExtVal, "scalar.extval")):
        for attr in SCALAR_OPS:
            if attr in vars(cls):
                _patch_method(tracer, cls, attr, name, hot=True)

    # roots
    seen_pairs: set = set()
    seen_kinds: set = set()

    def interval_done(args, result, dur):
        key = (id(args[0]), args[1], args[2])
        if key not in seen_pairs:
            seen_pairs.add(key)
            c["interval.cold_calls"] += 1
            c["interval.cold_s"] += dur

    def get_system_done(args, result, dur):
        if args[0] not in seen_kinds:
            seen_kinds.add(args[0])
            c["build_s"] += dur

    RootSystem = srlab.roots.RootSystem
    _patch_method(tracer, RootSystem, "interval", "roots.interval", interval_done)
    _patch_method(tracer, RootSystem, "angle_deg", "roots.angle_deg")
    _patch_function(tracer, modules, srlab.roots, "get_system", "roots.get_system", get_system_done)

    # valuation
    def collect_done(args, result, dur):
        c["collect.factors_in"] += len(args[2])
        c["collect.factors_out"] += len(result)

    val = srlab.valuation
    _patch_function(tracer, modules, val, "check_v2_pair", "valuation.check_v2_pair")
    _patch_function(tracer, modules, val, "commutator_factors", "valuation.commutator_factors")
    _patch_function(tracer, modules, val, "collect", "valuation.collect", collect_done)
    _patch_function(tracer, modules, val, "check_embedding_hom", "valuation.check_embedding_hom")
    _patch_method(tracer, val.PhiAssignment, "phi", "valuation.phi")

    # moufang
    _patch_function(tracer, modules, srlab.moufang, "enumerate_group", "moufang.enumerate_group")
    _patch_function(tracer, modules, srlab.moufang, "rho_scalar_check", "moufang.rho_scalar_check")

    # suites (with cli and report): one sample per suite
    def run_suite_start(args):
        tracer.set_sample(c["suite.runs"])
        c["suite.runs"] += 1

    def run_suite_done(args, result, dur):
        c[f"suite.{args[0]}.s"] += dur

    _patch_function(tracer, modules, srlab.suites, "run_suite", "suites.run_suite",
                    run_suite_done, run_suite_start)
    _patch_function(tracer, modules, srlab.report, "render_report", "suites.render_report")
