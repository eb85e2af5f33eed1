"""Record the benchmark baseline and the reference digests.

    python3 perfbench/baseline.py runs [--workloads A,B] [--seeds 0-9] [--trace]
    python3 perfbench/baseline.py references [--workloads A,B] [--seeds 0-19]

`runs` calls run.py once per workload and seed, one run at a time, and
prints each metric's median, quartiles and spread (interquartile range over
median) across the runs.  The summary is merged into perfbench/baseline.json
under the workload, the trace mode and the seeds.

`references` writes perfbench/reference.json.  The srlab-run digest is the
SHA-256 of the report file that `srlab run` itself writes for the same
arguments; the other digests come from one plain repetition of the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import quartiles  # noqa: E402
from workloads import SrlabRun  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def cmd_runs(workloads: list[str], seeds: list[int], trace: bool) -> int:
    spec = bench_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    path = os.path.join(HERE, "baseline.json")
    baseline = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    worst = 0
    for workload in workloads:
        records, values = [], {}
        for seed in seeds:
            record, result = one_run(workload, seed, spec["run_seconds"], trace)
            records.append(record)
            if not result["correct"]:
                worst = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} reference {record['reference']}",
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals, "unit": records[0]["metrics"][name]["unit"]}
            if not trace:
                print(f"  {name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.3f} (bound {bounds.get(name)})", flush=True)
        first = records[0]
        mode = "traced" if trace else "untraced"
        baseline.setdefault(workload, {})[f"{mode} seeds {seeds[0]}-{seeds[-1]}"] = {
            "commit": first["commit"], "nproc": first["nproc"], "python": first["python"],
            "backend": first["backend"], "run_seconds": spec["run_seconds"], "seeds": seeds,
            "samples": first["samples"], "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records), "metrics": summary,
            "raw": {key: [r["raw"][key] for r in records] for key in first["raw"]},
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return worst


def reference_digest(workload: str, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    tmp = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        if workload == SrlabRun.name:
            out_path = os.path.join(tmp, "report.json")
            argv = SrlabRun().argv(seed, out_path)
            subprocess.run([sys.executable, "-m", "srlab.cli", *argv], cwd=ROOT, env=env,
                           capture_output=True, check=True)
            with open(out_path, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
        env["PERFBENCH_TMP"] = tmp
        out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), workload,
                              str(seed), "plain"], cwd=ROOT, env=env, capture_output=True,
                             text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not all(result["oks"]):
            raise SystemExit(f"{workload} seed {seed} has failing samples")
        return result["digest"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cmd_references(workloads: list[str], seeds: list[int]) -> int:
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    jobs = [(w, s) for w in workloads for s in seeds]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        digests = list(pool.map(lambda job: reference_digest(*job), jobs))
    for (workload, seed), digest in zip(jobs, digests):
        reference.setdefault(workload, {})[str(seed)] = digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(jobs)} digests to {path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("runs", "references"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench_spec()["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.command == "runs":
        return cmd_runs(workloads, seed_list(args.seeds), args.trace)
    return cmd_references(workloads, seed_list(args.seeds))


if __name__ == "__main__":
    sys.exit(main())
