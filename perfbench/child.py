"""One repetition of a workload, in a fresh process started by run.py.

    python3 perfbench/child.py WORKLOAD SEED MODE [TRACE_OUT]

MODE is `setup` (set up, then exit), `plain` (the timed batch) or `traced`
(the timed batch with the layer wrappers installed first).  The child prints
its result as one JSON line at the end, including the clock reading when
set-up was done, from which the parent times set-up from process start.

The batch runs under a host speed probe (perfbench/probe.py): `wall_s`
and the latencies are seconds at the probe's reference speed, and the raw
wall time and the mean slowness are reported next to them.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from probe import Probe
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]()
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload.setup()
    ready_at = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"ready_at": ready_at}))
        return 0

    import srlab

    inputs = workload.inputs(seed)
    on_sample = tracer.set_sample if tracer else (lambda k: None)
    probe = Probe(periodic=workload.periodic_probe)
    probe.start()
    try:
        t_start, t_end, samples, digest = workload.run(inputs, on_sample, probe.tick)
    finally:
        probe.stop()
    result = {
        "ready_at": ready_at,
        "wall_s": probe.scaled(t_start, t_end),
        "raw_wall_s": t_end - t_start,
        "slowness": probe.mean_slowness(),
        "latencies": [probe.scaled(t0, t1) for t0, t1, _ in samples],
        "oks": [ok for _, _, ok in samples],
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": srlab.BACKEND,
        "srlab_file": srlab.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if len(argv) > 3:
            tracer.write(argv[3])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
