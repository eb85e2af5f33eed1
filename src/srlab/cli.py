"""Command line entry point.

Subcommands: `run` executes named check suites and emits a JSON report,
`fold` prints the folded direction data of an ambient system, `enumerate`
closes the finite rank-one group and prints its shape.  Reports are
deterministic for a fixed seed; timing data is only attached on request.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import asdict

from .errors import ConfigError, SrlabError
from .field import FieldCfg, TitsField
from .moufang import enumerate_group
from .report import render_report
from .roots import get_system
from .suites import SUITE_NAMES, RunConfig, run_all
from .valuation import CASES

_COUNT_KEYS = {"samples", "field.denom", "field.precision", "field.support_cap"}
_CONFIG_KEYS = _COUNT_KEYS | {"case", "seed", "suites", "out", "timings"}
_CASES = tuple(CASES)
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

ConfigValue = int | bool | str | list[str]


def parse_config_file(path: str) -> dict[str, ConfigValue]:
    """Flat key=value lines; blank lines and # comments are skipped.

    Each key may appear once.  `seed` holds an integer, the counts hold
    integers at least 1, `timings` a boolean word, `case` one of B, F, G,
    `out` a nonempty path and `suites` a nonempty comma-separated list of
    distinct suite names.  The `field.*` settings must meet the rules of
    `FieldCfg.broken_rule`, so a run rejects them even when it builds no
    series field.  Values come back typed.
    """
    out: dict[str, ConfigValue] = {}
    linenos: dict[str, int] = {}
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
        try:
            out[key] = _config_value(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        linenos[key] = lineno
    settings = {k.removeprefix("field."): v for k, v in out.items() if k.startswith("field.")}
    broken = FieldCfg(char=3, **settings).broken_rule()
    if broken:
        names, message = broken
        lineno = next(linenos[f"field.{n}"] for n in names if n in settings)
        raise ConfigError(f"{path}:{lineno}: {message}")
    return out


def _config_value(key: str, value: str) -> ConfigValue:
    if key == "seed":
        return _int(value, key)
    if key in _COUNT_KEYS:
        return _count(_int(value, key), key)
    if key == "timings":
        if value.lower() not in _BOOLS:
            raise ConfigError(f"timings must be one of {', '.join(_BOOLS)}, got {value!r}")
        return _BOOLS[value.lower()]
    if key == "case" and value not in _CASES:
        raise ConfigError(f"case must be one of {', '.join(_CASES)}, got {value!r}")
    if key == "suites":
        names = [s.strip() for s in value.split(",") if s.strip()]
        if not names:
            raise ConfigError("suites must name at least one suite")
        for name in names:
            if name not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {name!r}")
        return _distinct(names)
    if key == "out" and not value:
        raise ConfigError("out must name a file")
    return value


def _distinct(names: list[str]) -> list[str]:
    """A suite list names each suite at most once."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"suite {name!r} named twice")
    return names


def _int(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _count(value: int | None, name: str) -> int | None:
    """A count setting is rejected below 1 rather than replaced by a default."""
    if value is not None and value < 1:
        raise ConfigError(f"{name} must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srlab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run check suites and emit a JSON report")
    run.add_argument("--suite", action="append", choices=SUITE_NAMES, help="suite to run (repeatable; default all)")
    run.add_argument(
        "--case", choices=_CASES,
        help=f"ambient case (default {RunConfig.case}); no suite reads it yet: it is only"
        " echoed into the report's config block",
    )
    run.add_argument("--samples", type=int, help="override documented sample counts")
    run.add_argument("--seed", type=int, help=f"run seed (default SRLAB_SEED or {RunConfig.seed})")
    run.add_argument("--out", help="write the report to this path instead of stdout")
    # suites run in turn in one thread; the flag is kept, hidden and taking only
    # 1, because the srlab-run workload passes it (perfbench/workloads.py:283)
    run.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--timings", action="store_true", default=None, help="attach wall-clock timings to the report")

    fold = sub.add_parser("fold", help="print the folded directions of an ambient system")
    fold.add_argument("kind", choices=["B2", "G2", "F4"])
    fold.add_argument("--out", help="write the JSON to this path instead of stdout")

    enum = sub.add_parser("enumerate", help="close the finite rank-one group and print its shape")
    enum.add_argument("--q", type=int, default=3, help="field size (power of 3, default 3)")
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
    """Each setting is its flag, then its config file value, then the default
    of `RunConfig`."""
    if args.jobs not in (None, 1):
        raise ConfigError(f"jobs must be 1, got {args.jobs}")
    file_cfg = parse_config_file(args.config) if args.config else {}
    settings = {key.removeprefix("field."): value for key, value in file_cfg.items()}
    flags = {
        "case": args.case,
        "samples": _count(args.samples, "samples"),
        "seed": args.seed,
        "suites": args.suite and _distinct(args.suite),
        "out": args.out or None,  # an empty --out counts as not given
        "timings": args.timings,
    }
    settings.update((key, value) for key, value in flags.items() if value is not None)
    if "seed" not in settings and "SRLAB_SEED" in os.environ:
        settings["seed"] = _int(os.environ["SRLAB_SEED"], "SRLAB_SEED")
    out = settings.pop("out", None)
    if out:
        _check_out_folder(out)
    suites = settings.pop("suites", None)
    report = run_all(RunConfig(**settings), suites)
    _emit(render_report(report), out)
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
    stats = enumerate_group(TitsField(FieldCfg(char=3, mode="finite", m=m)))
    payload = {"q": q, **asdict(stats)}
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
