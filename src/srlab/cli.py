"""Command line entry point.

Subcommands: `run` executes named check suites and emits a JSON report,
`fold` prints the folded direction data of an ambient system, `enumerate`
closes the rank-one group over F3 and prints its shape.  A run is set by its
flags alone, over the defaults of `suites.RunConfig`.  Reports are
deterministic for a fixed seed; timing data is only attached on request.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .errors import ConfigError, SrlabError
from .field import FieldCfg, TitsField
from .moufang import enumerate_group
from .report import render_report
from .roots import get_system
from .suites import SUITE_NAMES, RunConfig, run_all
from .valuation import CASES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run check suites and emit a JSON report")
    run.add_argument("--suite", action="append", choices=SUITE_NAMES, help="suite to run (repeatable; default all)")
    run.add_argument(
        "--case", choices=tuple(CASES), default=RunConfig.case,
        help=f"ambient case (default {RunConfig.case}); no suite reads it yet: it is only"
        " echoed into the report's config block",
    )
    run.add_argument("--samples", type=int, help="override documented sample counts")
    run.add_argument(
        "--seed", type=int, default=RunConfig.seed, help=f"run seed (default {RunConfig.seed})"
    )
    run.add_argument("--out", help="write the report to this path instead of stdout")
    # suites run in turn in one thread; the flag is kept, hidden and taking only
    # 1, because the srlab-run workload passes it (perfbench/workloads.py:283)
    run.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    run.add_argument("--timings", action="store_true", help="attach wall-clock timings to the report")

    fold = sub.add_parser("fold", help="print the folded directions of an ambient system")
    fold.add_argument("kind", choices=["B2", "G2", "F4"])
    fold.add_argument("--out", help="write the JSON to this path instead of stdout")

    enum = sub.add_parser("enumerate", help="close the rank-one group over F3 and print its shape")
    enum.add_argument("--out", help="write the JSON to this path instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_out_folder(out: str) -> None:
    """Refuse an output path whose folder is missing before any work is done;
    other write failures show when the output is written."""
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise ConfigError(f"cannot write {out}: {OSError(code, os.strerror(code), out)}")


def _cmd_run(args: argparse.Namespace) -> int:
    """Each setting is its flag, else the default of `RunConfig`; a bad
    setting is refused before any suite runs."""
    if args.jobs not in (None, 1):
        raise ConfigError(f"jobs must be 1, got {args.jobs}")
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"samples must be at least 1, got {args.samples}")
    names = args.suite or []
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"suite {name!r} named twice")
    if args.out:  # an empty --out counts as not given
        _check_out_folder(args.out)
    cfg = RunConfig(case=args.case, samples=args.samples, seed=args.seed, timings=args.timings)
    report = run_all(cfg, names)
    _emit(render_report(report), args.out)
    return 0 if report["ok"] else 1


def _cmd_fold(args: argparse.Namespace) -> int:
    system = get_system(args.kind)
    folded = system.fold()
    payload = {
        "kind": args.kind,
        "folded_kind": folded.kind,
        "directions": folded.count,
        "rays": [[str(c) for c in folded.ray(k)] for k in range(folded.count)],
        "multiplicities": [folded.multiplicity(k) for k in range(folded.count)],
        "consecutive_cos2": [
            str(folded.cos2_between(k, (k + 1) % folded.count))
            for k in range(folded.count)
        ],
    }
    _emit(render_report(payload), args.out)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    """Ree(3) over F3: over F27 and beyond the group outgrows the closure's
    order bound."""
    stats = enumerate_group(TitsField(FieldCfg(char=3, mode="finite", m=1)))
    payload = {"q": 3, **vars(stats)}
    _emit(render_report(payload), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fold":
            return _cmd_fold(args)
        return _cmd_enumerate(args)
    except ConfigError as exc:
        print(f"srlab: {exc}", file=sys.stderr)
        return 2
    except SrlabError as exc:
        print(f"srlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
