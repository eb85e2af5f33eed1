"""srlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh Python process (perfbench/child.py) that imports srlab from `src/`,
sets up, draws its inputs from the seed and times one fixed batch as a
closed loop: one client, one thread, one process.  Repetitions continue
while another one still fits in the measuring time; at least one always
runs.  Set-up is also timed in extra set-up-only processes.  Times and
memory are medians over the processes that measured them; the latency
percentiles are taken over the pooled samples of the plain repetitions.

Times are seconds at a fixed reference speed of the host (perfbench/probe.py):
the shared host's own speed drifts by up to 1.6x, so each stretch of
measured time is divided by the slowness a fixed pure-Python probe loop
shows next to it.  The run record keeps the raw clock readings as well.

With --trace 0 the last line holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics: a traced repetition
(wrappers from perfbench/tracer.py) alternates with a plain one, and the
spans of the last traced one are written to perfbench/traces/.

A sample fails when its exact property is false or it raises an
SrlabError.  All repetitions must emit the same digest, and so must the
committed reference in perfbench/reference.json for seeds listed there;
a mismatch fails every sample of that repetition.  The lines before the
last one are the run record: machine, backend, commit, and each metric's
median and quartiles with its sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROCESSES = 15
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
SETUP_RESERVE_S = 10.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Starts child processes one at a time and collects what they report."""

    def __init__(self, workload: str, seed: int, tmp: str) -> None:
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.env["PERFBENCH_TMP"] = tmp
        # Set-up is timed with warm bytecode, cached inside the run's own
        # directory whatever the caller's environment says.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")

    def child(self, mode: str, deadline: float, trace_out: str | None = None) -> dict:
        """Run one child to its end and return its result line."""
        argv = [sys.executable, os.path.join(HERE, "child.py"), self.workload, str(self.seed), mode]
        if trace_out:
            argv.append(trace_out)
        # The parent idles while the child sets up, so probing right before
        # the start gives the host's speed during set-up.
        slowness = probe.slowness(SETUP_PROBES)
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child of {self.workload} ran past the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child of {self.workload} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
        result["raw_setup_s"] = result["ready_at"] - started
        result["setup_s"] = result["raw_setup_s"] / slowness
        if "srlab_file" in result and not os.path.realpath(result["srlab_file"]).startswith(
            os.path.realpath(SRC) + os.sep
        ):
            raise BenchError(f"srlab was imported from {result['srlab_file']}, not from {SRC}")
        return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tmp = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        runner = Runner(workload, seed, tmp)
        runner.child("setup", deadline)  # fills the bytecode cache; not counted
        trace_out = None
        if trace:
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            trace_out = os.path.join(HERE, "traces", f"{workload}-seed{seed}.json")
        plain: list[dict] = []
        traced: list[dict] = []
        durations: list[float] = []
        t_begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if trace and len(traced) < len(plain):
                traced.append(runner.child("traced", deadline, trace_out))
            else:
                plain.append(runner.child("plain", deadline))
            durations.append(time.perf_counter() - t0)
            if trace and not traced:
                continue
            now = time.perf_counter()
            next_one = statistics.median(durations)
            if now + next_one > min(t_begin + seconds, deadline - SETUP_RESERVE_S):
                break
        setups = list(plain)
        while len(setups) < SETUP_PROCESSES:
            setups.append(runner.child("setup", deadline))
        return {"plain": plain, "traced": traced, "setups": setups}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def summarize(workload: str, seed: int, trace: bool, runs: dict, spec: dict) -> tuple[dict, dict]:
    plain, traced, setups = runs["plain"], runs["traced"], runs["setups"]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {}).get(str(seed))
    expected = reference or plain[0]["digest"]
    attempted = failed = 0
    for rep in plain + traced:
        oks = rep["oks"]
        attempted += len(oks)
        if rep["digest"] != expected:
            failed += len(oks)
        else:
            failed += sum(1 for ok in oks if not ok)

    latencies_ms = [lat * 1e3 for rep in plain for lat in rep["latencies"]]
    values: dict[str, list[float]] = {
        "setup_s": [rep["setup_s"] for rep in setups],
        "wall_s": [rep["wall_s"] for rep in plain],
        "sample_ms_p95": [nearest_rank(latencies_ms, 0.95)],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
    }
    absent: list[str] = []
    if trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_ratio":
                ratio = statistics.median(r["wall_s"] for r in traced) / statistics.median(
                    values["wall_s"]
                )
                values[name] = [ratio]
            elif name in traced[0]["layers"]:
                values[name] = [rep["layers"][name] for rep in traced]
            else:
                values[name] = [0]
                absent.append(name)
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in chosen if m["name"] not in values]
    if missing:
        raise BenchError(f"no measurement for {missing}")

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": plain[0]["backend"],
        "commit": git_commit(),
        "processes": {"plain": len(plain), "traced": len(traced), "setup": len(setups)},
        # The median latency is recorded but not gated: on srlab-run it is one
        # half-second suite, which swings with the host's speed.
        "samples": {"per_batch": len(plain[0]["oks"]), "timed": len(latencies_ms),
                    "p50_ms": nearest_rank(latencies_ms, 0.50)},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest": plain[0]["digest"],
        "reference": "none" if reference is None else (
            "match" if all(r["digest"] == reference for r in plain + traced) else "mismatch"
        ),
        # What the clock read, before scaling to the probe's reference speed.
        "raw": {
            "wall_s": statistics.median(rep["raw_wall_s"] for rep in plain),
            "setup_s": statistics.median(rep["raw_setup_s"] for rep in setups),
            "slowness": statistics.median(rep["slowness"] for rep in plain),
        },
        "metrics": {},
    }
    if trace:
        record["absent"] = sorted(set(absent) | set(traced[0]["absent"]))
        record["spans_kept"] = traced[-1]["spans"]
        record["spans_dropped"] = traced[-1]["spans_dropped"]
    result_metrics = {}
    for metric in chosen:
        name, unit = metric["name"], metric["unit"]
        vals = values[name]
        q1, med, q3 = quartiles(vals)
        record["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": unit}
        result_metrics[name] = {"value": med, "unit": unit}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "srlab", "__init__.py")):
        print(f"perfbench: no srlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        record, result = summarize(args.workload, args.seed, bool(args.trace), runs, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples = record["samples"]
    print(f"# {args.workload} seed {args.seed}: {record['processes']} processes, "
          f"{samples['timed']} timed samples (p50 {samples['p50_ms']:.6g} ms), "
          f"fail_ratio {record['fail_ratio']} ({record['failed']}/{record['attempted']}), "
          f"reference {record['reference']}; raw wall {record['raw']['wall_s']:.6g} s, "
          f"raw setup {record['raw']['setup_s']:.6g} s, slowness {record['raw']['slowness']:.4g}")
    for name, m in record["metrics"].items():
        print(f"#   {name:36s} {m['median']:.6g} {m['unit']}  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
