"""
Running experiments from a config file
======================================

The harness bundles nest, method, seed, budget, and evaluator choice
into one JSON file, runs the search, and writes a replayable JSONL log
plus a summary. The CLI wraps the same calls:

    pragmatune tune --config demos/experiment.json --out /tmp/run
    pragmatune report trajectory --log /tmp/run/log.jsonl
    pragmatune report cutoff --log /tmp/run/log.jsonl other/log.jsonl
    pragmatune space dump --config demos/experiment.json --max-depth 2
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from pragmatune import load_experiment_config, read_log, run_experiment

HERE = Path(__file__).parent

config = load_experiment_config(HERE / "experiment.json")
print(f"method={config.method} seed={config.seed} "
      f"budget={config.budget.max_unique} unique")

with tempfile.TemporaryDirectory() as tmp:
    # Point the run at a scratch directory; it writes log.jsonl (one
    # JSON object per fresh evaluation) and summary.json.
    config = replace(config, out_dir=tmp)
    summary = run_experiment(config)

    print(f"unique evaluations: {summary.unique_evaluations}")
    print(f"phases: {summary.phases}   wall clock: {summary.wall_clock_s:.1f}s (simulated)")
    print(f"best h: {summary.best_h:.4f} at depth {summary.best_depth}")
    for line in summary.best_pragmas:
        print(f"  {line}")

    # The log on disk round-trips into the same records the summary
    # holds, so reports can be rebuilt long after the run.
    replayed = read_log(Path(tmp) / "log.jsonl")
    assert [r.key for r in replayed] == [r.key for r in summary.records]
    print(f"log lines: {len(replayed)} (root baseline + every fresh evaluation)")

    # Identical config + seed means identical logs, byte for byte: the
    # synthetic evaluator is pure and the run's time is simulated.
    with tempfile.TemporaryDirectory() as tmp2:
        run_experiment(replace(config, out_dir=tmp2))
        first = (Path(tmp) / "log.jsonl").read_bytes()
        second = (Path(tmp2) / "log.jsonl").read_bytes()
        assert first == second
        print("reproducibility: two runs, byte-identical logs")
