"""Tabular reports over run logs.

Each emitter is pure text over parsed EvalRecords: a per-evaluation
trajectory, cumulative counts of configurations at or above a pooled
top-percentile cutoff, and the step depth of each method's best find.
All tables are tab-separated with a header row.
"""

from __future__ import annotations

import json
from itertools import accumulate
from pathlib import Path

from .errors import EmptyHistoryError, LogParseError
from .reward import tail_rank
from .session import EvalRecord, record_from_dict


def read_log(path: str | Path) -> list[EvalRecord]:
    """Parse a line-delimited JSON run log.

    Raises LogParseError, naming the file and the line, on the first
    line that is not a well-formed record. Blank lines are skipped.
    """
    records = []
    lines = Path(path).read_text().splitlines()
    try:
        for line in lines:
            if line.strip():
                records.append(record_from_dict(json.loads(line)))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # The failing line is the first non-blank one not yet parsed.
        number = [n for n, line in enumerate(lines, start=1) if line.strip()][len(records)]
        raise LogParseError(f"{path}, line {number}: {type(exc).__name__}: {exc}") from exc
    return records


def write_log(records: list[EvalRecord], path: str | Path) -> None:
    text = "".join(json.dumps(r.to_dict()) + "\n" for r in records)
    Path(path).write_text(text)


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".6g")


def emit_trajectory(records: list[EvalRecord]) -> str:
    """Per-evaluation trajectory with phase boundaries marked."""
    lines = ["index\tdepth\th\tbest_so_far_h\tf\tphase"]
    previous_phase: int | None = None
    for record in records:
        if record.phase != previous_phase:
            if previous_phase is not None:
                lines.append(f"# phase {record.phase}")
            previous_phase = record.phase
        lines.append(
            "\t".join(
                [
                    str(record.iteration),
                    str(record.depth),
                    _fmt(record.h),
                    _fmt(record.best_so_far_h),
                    _fmt(record.f),
                    str(record.phase),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def top_cutoff(values: list[float], fraction: float) -> float:
    """Smallest value of the nearest-rank top ``fraction`` tail."""
    if not values:
        raise EmptyHistoryError("no successful evaluation to pool")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    return ordered[len(ordered) - tail_rank(len(ordered), fraction)]


def _method(log: list[EvalRecord], i: int) -> str:
    """The method a log names in its first record, else ``method<i>``."""
    return log[0].method if log and log[0].method else f"method{i}"


def emit_cutoff_counts(logs: list[list[EvalRecord]], fraction: float = 0.05) -> str:
    """Cumulative per-method counts of configurations at/above the cutoff.

    The cutoff pools successful speedups across all logs. Methods whose
    logs end early repeat their final count.
    """
    pooled = [r.h for log in logs for r in log if r.h is not None]
    cutoff = top_cutoff(pooled, fraction)
    counted = [
        list(accumulate(int(r.h is not None and r.h >= cutoff) for r in log)) for log in logs
    ]
    lines = [f"# cutoff {_fmt(cutoff)} (top {fraction:g} of pooled h)"]
    lines.append("\t".join(["index", *(_method(log, i) for i, log in enumerate(logs))]))
    for index in range(max(map(len, counted), default=0)):
        row = [str(s[min(index, len(s) - 1)] if s else 0) for s in counted]
        lines.append("\t".join([str(index), *row]))
    return "\n".join(lines) + "\n"


def emit_best_depth(logs: list[list[EvalRecord]]) -> str:
    """Step count (depth) of each method's best configuration."""
    lines = ["method\tbest_depth\tbest_h\tkey"]
    for i, log in enumerate(logs):
        best = max((r for r in log if r.h is not None), key=lambda r: r.h, default=None)
        method = _method(log, i)
        if best is None:
            lines.append(f"{method}\t\t\t")
        else:
            lines.append(f"{method}\t{best.depth}\t{_fmt(best.h)}\t{best.key}")
    return "\n".join(lines) + "\n"
