"""Command line entry point.

Subcommands: ``tune`` runs one experiment from a config file, ``report``
turns run logs into tables (trajectory, cutoff, best-depth), and
``space dump`` prints per-depth node counts of an experiment's space.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import PragmatuneError
from .harness import (
    METHODS,
    configure_logging,
    load_experiment_config,
    run_experiment,
    space_root,
)
from .reports import emit_best_depth, emit_cutoff_counts, emit_trajectory, read_log
from .space import level_counts


def _percent(text: str) -> float:
    """A ``--top-percent`` value: a number in (0, 100]."""
    value = float(text)
    if not 0.0 < value <= 100.0:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, 100]")
    return value


def _depth(text: str) -> int:
    """A ``--max-depth`` value: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _mtime(path: Path) -> int | None:
    """When ``path`` was last written, to tell a fresh output from a stale one."""
    return path.stat().st_mtime_ns if path.exists() else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pragmatune")
    commands = parser.add_subparsers(dest="command", required=True)

    tune = commands.add_parser("tune", help="run one autotuning experiment")
    tune.add_argument("--config", required=True, help="experiment JSON file")
    tune.add_argument("--method", choices=METHODS, help="override the config's method")
    tune.add_argument("--seed", type=int, help="override the config's seed")
    tune.add_argument("--out", help="directory for log.jsonl and summary.json")

    report = commands.add_parser("report", help="tabulate run logs")
    kinds = report.add_subparsers(dest="kind", required=True)
    for kind in ("trajectory", "cutoff", "best-depth"):
        sub = kinds.add_parser(kind)
        sub.add_argument("--log", required=True, nargs="+", help="run log file(s)")
        if kind == "cutoff":
            sub.add_argument(
                "--top-percent",
                type=_percent,
                default=5.0,
                help="pooled tail size in percent (default 5)",
            )

    space_cmd = commands.add_parser("space", help="inspect a search space")
    dump = space_cmd.add_subparsers(dest="kind", required=True).add_parser("dump")
    dump.add_argument("--config", required=True, help="experiment JSON file")
    dump.add_argument("--max-depth", type=_depth, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tune":
            config = load_experiment_config(args.config)
            if args.method:
                config = replace(config, method=args.method)
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.out:
                config = replace(config, out_dir=args.out)
            summary_path = Path(config.out_dir or ".", "summary.json")
            before = _mtime(summary_path)
            try:
                summary = run_experiment(config)
            except KeyboardInterrupt:
                wrote = config.out_dir is not None and _mtime(summary_path) != before
                files = f"{summary_path.with_name('log.jsonl')} and {summary_path}"
                print(f"interrupted; wrote {files if wrote else 'nothing'}", file=sys.stderr)
                return 130
            print(f"method: {summary.method}   seed: {summary.seed}")
            print(f"unique evaluations: {summary.unique_evaluations}")
            print(f"phases: {summary.phases}   wall clock: {summary.wall_clock_s:.3f}s")
            print(f"best h: {summary.best_h:.6g} at depth {summary.best_depth}")
            print(f"best key: {summary.best_key or '(root)'}")
            for line in summary.best_pragmas:
                print(f"  {line}")
            print(f"stopped by: {summary.stop_reason}")
        elif args.command == "report":
            logs = [read_log(p) for p in args.log]
            if args.kind == "trajectory":
                merged = [record for log in logs for record in log]
                sys.stdout.write(emit_trajectory(merged))
            elif args.kind == "cutoff":
                sys.stdout.write(emit_cutoff_counts(logs, args.top_percent / 100.0))
            else:
                sys.stdout.write(emit_best_depth(logs))
        else:
            root = space_root(load_experiment_config(args.config))
            print("depth\tnodes")
            for depth, count in level_counts(root, args.max_depth):
                print(f"{depth}\t{count}")
    except (PragmatuneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
