"""Run-to-run spread of the benchmark's metrics across seeds.

Run from the repository root:

    python3 bench/spread.py --runs 10 --out bench/spread.json   # every gated workload
    python3 bench/spread.py --runs 5 --workloads mcts-restart --seconds 10

Each run is ``bench/run.py`` in its own process, one after another, with
seeds counting up from ``--first-seed`` (default 1). For every metric it
prints the median and the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, then every
run's value, and marks end-to-end spreads above a third of the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, RUN_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = {m.name: m.bound for m in END_TO_END}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gated = [w.name for w in WORKLOADS.values() if not w.ungated]
    parser.add_argument("--workloads", nargs="+", default=gated, choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the table as JSON")
    args = parser.parse_args()
    table: dict[str, dict] = {}
    steady = True
    for workload in args.workloads:
        results = [
            run_once(workload, seed, args.seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} runs failed, "
              f"all correct: {all(r['correct'] for r in results)}", flush=True)
        table[workload] = {"runs": args.runs, "failed": failed, "attempted": attempted}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            bound = BOUNDS.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag, steady = "  > bound/3", False
            print(f"  {name:48s} median {median:12.6g}  spread {share:7.2%}{flag}", flush=True)
            print("    " + " ".join(f"{v:.4g}" for v in values))
            table[workload][name] = {"median": median, "spread": share, "values": values}
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
