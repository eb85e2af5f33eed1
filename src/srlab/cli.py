"""Command line entry point.

Subcommands: `run` executes named check suites and emits a JSON report,
`fold` prints the folded direction data of an ambient system, `enumerate`
closes the finite rank-one group and prints its shape.  Reports are
deterministic for a fixed seed; timing data is only attached on request.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, SrlabError
from .field import FieldCfg, TitsField
from .moufang import enumerate_group
from .report import render_report
from .roots import get_system
from .suites import SUITE_NAMES, RunConfig, run_all

_CONFIG_KEYS = {
    "case",
    "samples",
    "seed",
    "suites",
    "out",
    "jobs",
    "timings",
    "field.denom",
    "field.precision",
    "field.support_cap",
}
_INT_KEYS = {"seed", "samples", "jobs", "field.denom", "field.precision", "field.support_cap"}
_CASES = ("B", "F", "G")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped.

    Each key may appear once, integer keys must hold integers, `timings`
    must be a boolean word, `case` one of B, F, G and `suites` a nonempty
    comma-separated list of suite names.
    """
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice")
        value = value.strip()
        if key in _INT_KEYS:
            try:
                int(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: {key} must be an integer, got {value!r}"
                ) from None
        if key == "timings" and value.lower() not in _BOOLS:
            raise ConfigError(
                f"{path}:{lineno}: timings must be one of {', '.join(_BOOLS)}, got {value!r}"
            )
        if key == "case" and value not in _CASES:
            raise ConfigError(
                f"{path}:{lineno}: case must be one of {', '.join(_CASES)}, got {value!r}"
            )
        if key == "suites":
            names = _suite_list(value)
            if not names:
                raise ConfigError(f"{path}:{lineno}: suites must name at least one suite")
            for name in names:
                if name not in SUITE_NAMES:
                    raise ConfigError(f"{path}:{lineno}: unknown suite {name!r}")
        out[key] = value
    return out


def _suite_list(value: str) -> list[str]:
    return [s.strip() for s in value.split(",") if s.strip()]


def _int_opt(raw: str | None, name: str) -> int | None:
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _count_opt(flag: int | None, file_cfg: dict[str, str], key: str, default: int | None) -> int | None:
    """A count setting: the flag, then the config file, then the default.

    A given value below 1 is rejected rather than replaced by the default.
    """
    value = flag if flag is not None else _int_opt(file_cfg.get(key), key)
    if value is None:
        return default
    if value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run check suites and emit a JSON report")
    run.add_argument("--suite", action="append", choices=SUITE_NAMES, help="suite to run (repeatable; default all)")
    run.add_argument("--case", choices=_CASES, help="ambient case for case-sensitive data (default G)")
    run.add_argument("--samples", type=int, help="override documented sample counts")
    run.add_argument("--seed", type=int, help="run seed (default SRLAB_SEED or 0)")
    run.add_argument("--out", help="write the report to this path instead of stdout")
    run.add_argument("--jobs", type=int, help="worker threads across suites (default 1)")
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--timings", action="store_true", help="attach wall-clock timings to the report")

    fold = sub.add_parser("fold", help="print the folded directions of an ambient system")
    fold.add_argument("kind", choices=["B2", "G2", "F4"])
    fold.add_argument("--out", help="write the JSON to this path instead of stdout")

    enum = sub.add_parser("enumerate", help="close the finite rank-one group and print its shape")
    enum.add_argument("--q", type=int, default=3, help="field size (power of 3, default 3)")
    enum.add_argument("--max-order", type=int, default=500000, help="abort beyond this group order")
    enum.add_argument("--out", help="write the JSON to this path instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    seed = args.seed
    if seed is None:
        seed = _int_opt(file_cfg.get("seed"), "seed")
    if seed is None:
        seed = _int_opt(os.environ.get("SRLAB_SEED"), "SRLAB_SEED")
    if seed is None:
        seed = 0
    samples = _count_opt(args.samples, file_cfg, "samples", None)
    case = args.case or file_cfg.get("case") or "G"
    suites = args.suite
    if not suites and "suites" in file_cfg:
        suites = _suite_list(file_cfg["suites"])
    jobs = _count_opt(args.jobs, file_cfg, "jobs", 1)
    timings = args.timings or _BOOLS[file_cfg.get("timings", "0").lower()]
    out_path = args.out or file_cfg.get("out")
    cfg = RunConfig(
        case=case,
        samples=samples,
        seed=seed,
        precision=_count_opt(None, file_cfg, "field.precision", 40),
        denom=_count_opt(None, file_cfg, "field.denom", 2),
        support_cap=_count_opt(None, file_cfg, "field.support_cap", 64),
        timings=timings,
    )
    report = run_all(cfg, suites, jobs=jobs)
    _emit(render_report(report), out_path)
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
    q = args.q
    m = {3: 1, 27: 3, 243: 5}.get(q)
    if m is None:
        raise ConfigError(f"q must be 3, 27 or 243, got {q}")
    if args.max_order < 1:
        raise ConfigError(f"max-order must be at least 1, got {args.max_order}")
    field = TitsField(FieldCfg(char=3, mode="finite", m=m))
    stats = enumerate_group(field, max_order=args.max_order)
    payload = {
        "q": q,
        "npoints": stats.npoints,
        "order": stats.order,
        "transitivity": stats.transitivity,
        "point_stab": stats.point_stab,
        "two_point_stab": stats.two_point_stab,
    }
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
