"""The pragmatune benchmark: four closed-loop tuning workloads.

Run from the repository root:

    python3 bench/run.py --workload mcts-restart --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --manifest     # rewrite BENCHMARK.json from the tables here

One process and one thread issue one evaluation after another; only
``external-gcc`` starts child processes (gcc, then the binary, one at a
time). A workload is repeated in *units*, each a fixed set of
``run_experiment`` calls whose seeds derive from ``--seed`` and the unit
number, for ``--seconds`` of wall time. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` count runs
(a run fails when it raises or fails the output check), and ``metrics``
holds the end-to-end metrics with ``--trace 0`` or the per-layer metrics
with ``--trace 1``. Earlier lines report each run's best speedup, best
depth and log digest, for information only.

The package is imported from ``src/`` beside this directory, never from
an installed copy. Scratch files go to ``.bench_work/`` at the root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import PACKAGE, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_SECONDS = 30
# Set-up is a few tens of milliseconds; its median over this many repeats
# is steady where one reading is not.
SETUP_REPEATS = 15
# Reading logs back and emitting the tables takes milliseconds, so each
# unit times it at least five times and over at least this many records,
# and reports the median.
REPORT_RECORDS = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # experiment file, relative to the repository root
    methods: tuple[str, ...]
    budget: int  # unique evaluations per run
    seeds_per_unit: int  # run seeds per unit; each seed runs every method
    trace_units: int  # units in the traced run; fixed so its counts repeat exactly
    deterministic: bool = True  # synthetic: a log is a pure function of its seed
    needs: str | None = None  # program that must be on PATH
    ungated: str | None = None  # why it is left out of BENCHMARK.json, if it is


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mcts-restart",
            "mcts, 3000 evals on a 3-deep chain with two arrays: ~53 restarts, most time in "
            "space census and apply_transfer, so search-side optimisations show here",
            "bench/workloads/mcts_restart.json",
            ("mcts",),
            budget=3000,
            seeds_per_unit=1,
            trace_units=3,
        ),
        Workload(
            "greedy-deep",
            "gg, 3000 evals on the demo nest: configurations reach depth 8-68, so "
            "SyntheticLandscape.evaluate, child and apply on deep nests dominate; no tree or "
            "transfer",
            "demos/experiment.json",
            ("gg",),
            budget=3000,
            seeds_per_unit=1,
            trace_units=4,
            ungated="about 15% of runs raise RecursionError in loops.apply: gg ignores d_max, "
            "so nests grow to depth 60+, and run times spread with depths from 8 to 68",
        ),
        Workload(
            "compare-300",
            "4 methods x 3 seeds at 300 evals, 12 logs read back into one report: the only "
            "workload of many short runs, so per-run fixed costs, rs and bf show",
            "demos/experiment.json",
            ("mcts", "rs", "bf", "gg"),
            budget=300,
            seeds_per_unit=3,
            trace_units=12,
        ),
        Workload(
            "external-gcc",
            "mcts through evaluate_external with gcc -O2 on a timed matscale kernel: "
            "compile and process start dominate, search is under 1%, so evaluator and "
            "rendering changes show",
            "bench/workloads/external_gcc.json",
            ("mcts",),
            budget=10,
            seeds_per_unit=1,
            trace_units=3,
            deterministic=False,
            needs="gcc",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("evals_per_s", "1/s", "higher", 0.25),
    Metric("step_ms_p50", "ms", "lower", 0.25),
    Metric("step_ms_tail", "ms", "lower", 0.25),
    Metric("eval_ms_p50", "ms", "lower", 0.25),
    Metric("eval_ms_tail", "ms", "lower", 0.25),
    Metric("report_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

# Per-layer span name -> traced target, where they differ.
SPANS = {
    name: name
    for name in (
        "space.child",
        "space.child_count",
        "space.child_transformation",
        "space.child_index",
        "space.random_walk",
        "loops.apply",
        "mcts.select",
        "mcts.expand",
        "mcts.backpropagate",
        "mcts.learn_depth",
        "mcts.apply_transfer",
        "reward.quantile_split",
        "reward.penalty_filter",
        "reward.TargetState.update",
        "evaluators.SyntheticLandscape.evaluate",
        "evaluators.evaluate_external",
        "rendering.pragma_lines",
        "rendering.render_pragmas",
        "harness.load_experiment_config",
        "harness.build_evaluator",
        "harness.run_experiment",
        "reports.write_log",
        "reports.read_log",
        "reports.emit_cutoff_counts",
        "reports.emit_best_depth",
    )
}
SPANS["session.measure"] = "session.SearchSession.measure"
SPANS["session.log"] = "session.SearchSession.log"
CENSUS_SPANS = ("space.child_count", "space.child_transformation", "space.child_index")

PER_LAYER = tuple(
    m
    for name in SPANS
    for m in (Metric(f"{name}.calls", "count", "lower"), Metric(f"{name}.self_ms", "ms", "lower"))
) + (
    Metric("space.census_per_eval", "ratio", "lower"),
    Metric("mcts.phases", "count", "lower"),
    Metric("mcts.transfer_records", "count", "lower"),
    Metric("mcts.iterations_per_eval", "ratio", "lower"),
    Metric("evaluators.cache_hit_ratio", "ratio", "lower"),
    Metric("evaluators.eval_fail_frac", "ratio", "lower"),
    Metric("evaluators.external.overhead_frac", "ratio", "lower"),
    Metric("session.fresh_frac", "ratio", "higher"),
    Metric("trace.evals_per_s_untraced", "1/s", "higher"),
    Metric("trace.evals_per_s_traced", "1/s", "higher"),
)


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values() if not w.ungated
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def sub_seed(seed: int, unit: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{unit}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> int:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if n * (100 - p) >= 1000:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


def block_percentile(samples: list[float], p: int) -> float:
    """The median over consecutive blocks of each block's ``p``-th percentile.

    Blocks are as small as leaves ten samples beyond the percentile (20
    samples for p50, 100 for p90, 1000 for p99). This host switches
    between a fast and a slow state for seconds at a time, so a pooled
    percentile moves with the share of slow time in a run, while the
    median over blocks reads the state most of the run was in.
    """
    blocks = len(samples) // (1000 // (100 - p))
    bounds = [round(i * len(samples) / blocks) for i in range(blocks + 1)]
    return statistics.median(percentile(samples[lo:hi], p) for lo, hi in zip(bounds, bounds[1:]))


class Probe:
    """Two clock reads around every call of the inner (uncached) evaluator.

    Installed over ``harness.build_evaluator`` so every run's evaluator
    is wrapped. A step is the time from the end of one inner call to the
    start of the next within one run: the search time per fresh
    evaluation.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.eval_s: list[float] = []
        self.step_s: list[float] = []
        self.failures = 0
        self.kernel_s = 0.0  # repetitions x measured time of external calls
        self.external_s = 0.0  # wall time of the same calls

    def install(self, harness) -> None:
        build = harness.build_evaluator

        def build_timed(config):
            evaluator, clock = build(config)
            spec = config.evaluator
            repetitions = spec["repetitions"] if spec.get("type") == "external" else 0
            return self._wrap(evaluator, repetitions), clock

        harness.build_evaluator = build_timed

    def _wrap(self, inner, repetitions: int):
        last_end = None

        def timed(config):
            nonlocal last_end
            start = time.perf_counter()
            if last_end is not None:
                self.step_s.append(start - last_end)
            outcome = inner(config)
            last_end = time.perf_counter()
            self.eval_s.append(last_end - start)
            if not outcome.ok:
                self.failures += 1
            elif repetitions:
                self.kernel_s += repetitions * outcome.seconds
                self.external_s += last_end - start
            return outcome

        return timed


@dataclass
class Run:
    """One run_experiment call, reduced to what outlives its output check."""

    method: str
    seed: int
    tuning_s: float = 0.0
    evals: int = 0
    phases: int = 0
    best_h: float = 0.0
    best_depth: int = 0
    log_sha256: str = ""
    problems: list[str] = field(default_factory=list)


@dataclass
class Unit:
    runs: list[Run]
    report_s: float

    @property
    def evals_per_s(self) -> float:
        """Fresh evaluations per second of tuning; runs that raised count neither."""
        seconds = sum(r.tuning_s for r in self.runs)
        return sum(r.evals for r in self.runs) / seconds if seconds else 0.0


class Bench:
    """One workload in one process: set-up, units, output checks."""

    def __init__(self, workload: Workload, seed: int):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        WORK.mkdir(exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.setup_s = [self._setup() for _ in range(SETUP_REPEATS)]
        self.harness = importlib.import_module(f"{PACKAGE}.harness")
        self.reports = importlib.import_module(f"{PACKAGE}.reports")
        self.session = importlib.import_module(f"{PACKAGE}.session")
        self.config = self.harness.load_experiment_config(ROOT / workload.config)
        self.probe = Probe()
        self.probe.install(self.harness)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        self.runs: list[Run] = []

    def _setup(self) -> float:
        """Import, config load, nest parse and evaluator build, from cold modules."""
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        start = time.perf_counter()
        self.setup_body(importlib.import_module(f"{PACKAGE}.harness"))
        return time.perf_counter() - start

    def setup_body(self, harness) -> None:
        config = harness.load_experiment_config(ROOT / self.workload.config)
        harness.load_loop_nest(config.nest_text)
        harness.build_evaluator(config)

    def run_unit(self, unit: int, tracer: Tracer | None = None) -> Unit:
        """Every method at every seed of the unit, the report over their logs, the check.

        With a ``tracer``, the runs and the report are traced; the check is not.
        """
        wl = self.workload
        budget = self.session.Budget(max_unique=wl.budget, max_iterations=100 * wl.budget)
        runs = [
            Run(method, sub_seed(self.seed, unit, index))
            for index in range(wl.seeds_per_unit)
            for method in wl.methods
        ]
        out = self.work / f"unit{unit}"
        summaries, logs = {}, {}
        gc.collect()  # so no unit pays for an earlier unit's garbage
        if tracer is not None:
            tracer.install()
        try:
            for k, run in enumerate(runs):
                config = replace(
                    self.config, method=run.method, seed=run.seed, budget=budget, out_dir=str(out / str(k))
                )
                start = time.perf_counter()
                try:
                    summaries[k] = self.harness.run_experiment(config)
                except Exception:
                    run.problems.append("raised:\n" + traceback.format_exc(limit=3))
                    continue
                run.tuning_s = time.perf_counter() - start
            failures: dict[int, Exception] = {}
            report_s = []
            for _ in range(max(5, REPORT_RECORDS // (len(runs) * wl.budget))):
                start = time.perf_counter()
                for k in summaries:
                    try:
                        logs[k] = self.reports.read_log(out / str(k) / "log.jsonl")
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        failures[k] = exc
                if logs:
                    self.reports.emit_cutoff_counts(list(logs.values()))
                    self.reports.emit_best_depth(list(logs.values()))
                report_s.append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for k, exc in failures.items():
            runs[k].problems.append(f"read_log failed: {exc!r}")
        for k, summary in summaries.items():
            self._check(runs[k], summary, logs.get(k), out / str(k) / "log.jsonl")
        shutil.rmtree(out, ignore_errors=True)
        self.runs.extend(runs)
        return Unit(runs, statistics.median(report_s))

    def _check(self, run: Run, summary, records: list | None, log: Path) -> None:
        """The output check of one run; ``records`` is its log as read back."""
        data = log.read_bytes()
        run.evals, run.phases = summary.unique_evaluations, summary.phases
        run.best_h, run.best_depth = summary.best_h, summary.best_depth
        run.log_sha256 = hashlib.sha256(data).hexdigest()
        if run.evals != self.workload.budget:
            run.problems.append(f"{run.evals} unique evaluations, budget {self.workload.budget}")
        if records is None:
            return
        best = [r.best_so_far_h for r in records]
        if any(b < a for a, b in zip(best, best[1:])):
            run.problems.append("best_so_far_h decreases")
        if [r.to_dict() for r in records] != [r.to_dict() for r in summary.records]:
            run.problems.append("log read back differs from the run's records")
        rewritten = self.work / "roundtrip.jsonl"
        self.reports.write_log(records, rewritten)
        if rewritten.read_bytes() != data:
            run.problems.append("read_log does not round-trip the written log")

    def compare(self, unit: Unit, reference: Unit) -> None:
        """Logs of a deterministic workload must not depend on how a unit ran."""
        if not self.workload.deterministic:
            return
        for run, ref in zip(unit.runs, reference.runs):
            if run.log_sha256 and ref.log_sha256 and run.log_sha256 != ref.log_sha256:
                run.problems.append("log differs from the same seed's other run")

    def quality(self, unit: int, runs: list[Run]) -> None:
        """Search quality, for information only."""
        for run in runs:
            if run.log_sha256:
                print(
                    f"run unit={unit} method={run.method} seed={run.seed} "
                    f"best_h={run.best_h:.6g} best_depth={run.best_depth} "
                    f"log_sha256={run.log_sha256}"
                )


def make_tracer() -> Tracer:
    tracer = Tracer()
    counts = tracer.counts

    def upper(split) -> None:
        counts["transfer_records"] += len(split[1])

    def penalized(kept) -> None:
        counts["transfer_records"] += len(kept)

    observers = {"reward.quantile_split": upper, "reward.penalty_filter": penalized}
    for name, target in SPANS.items():
        tracer.span(name, target, observers.get(name))
    tracer.count("iterations", "session.SearchSession.count_iteration")
    tracer.count("cache_lookups", "evaluators.CachedEvaluator.evaluate")
    return tracer


def timed_run(bench: Bench, seconds: float) -> dict:
    """Untraced units for ``seconds``; the end-to-end metrics."""
    warm = bench.run_unit(0)
    probe = bench.probe
    probe.reset()
    units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    # A tail percentile needs at least a hundred samples.
    while time.perf_counter() < deadline or len(probe.step_s) < 100:
        units.append(bench.run_unit(len(units)))
        bench.quality(len(units) - 1, units[-1].runs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    step_p = tail_percentile(len(probe.step_s))
    eval_p = tail_percentile(len(probe.eval_s))
    print(
        f"{len(units)} units; step_ms_tail is p{step_p} of {len(probe.step_s)} steps; "
        f"eval_ms_tail is p{eval_p} of {len(probe.eval_s)} evaluator calls"
    )
    metrics = {
        "setup_s": statistics.median(bench.setup_s),
        "evals_per_s": statistics.median(u.evals_per_s for u in units),
        "step_ms_p50": 1e3 * block_percentile(probe.step_s, 50),
        "step_ms_tail": 1e3 * block_percentile(probe.step_s, step_p),
        "eval_ms_p50": 1e3 * block_percentile(probe.eval_s, 50),
        "eval_ms_tail": 1e3 * block_percentile(probe.eval_s, eval_p),
        "report_s": statistics.median(u.report_s for u in units),
        "peak_rss_mb": peak_rss_mb,
    }
    bench.compare(units[0], warm)
    if bench.workload.deterministic:
        bench.compare(bench.run_unit(0, make_tracer()), units[0])
    return {m.name: {"value": metrics[m.name], "unit": m.unit} for m in END_TO_END}


def traced_run(bench: Bench) -> dict:
    """Pairs of untraced and traced units; the per-layer metrics.

    The pair count is fixed by the workload, not by time, so that every
    count repeats exactly for a given seed.
    """
    wl = bench.workload
    tracer = make_tracer()
    probe = bench.probe
    bench.run_unit(0)  # warm-up
    tracer.install()
    try:
        bench.setup_body(bench.harness)
    finally:
        tracer.uninstall()
    plain_eps, traced_eps = [], []
    traced_runs: list[Run] = []
    calls = failures = 0
    kernel_s = external_s = 0.0
    for u in range(wl.trace_units):
        plain = bench.run_unit(u)
        probe.reset()
        traced = bench.run_unit(u, tracer)
        calls += len(probe.eval_s)
        failures += probe.failures
        kernel_s += probe.kernel_s
        external_s += probe.external_s
        bench.compare(traced, plain)
        bench.quality(u, traced.runs)
        plain_eps.append(plain.evals_per_s)
        traced_eps.append(traced.evals_per_s)
        traced_runs.extend(traced.runs)
    if tracer.missing:
        print(f"warning: not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    tracer.dump(WORK / "trace" / f"{wl.name}.spans")
    totals = tracer.totals()
    counts = tracer.counts
    fresh = sum(r.evals for r in traced_runs)
    metrics: dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"], metrics[f"{name}.self_ms"] = totals[name]
    metrics.update(
        {
            "space.census_per_eval": sum(totals[n][0] for n in CENSUS_SPANS) / fresh,
            "mcts.phases": sum(r.phases for r in traced_runs),
            "mcts.transfer_records": counts["transfer_records"],
            "mcts.iterations_per_eval": counts["iterations"] / fresh,
            "evaluators.cache_hit_ratio": (counts["cache_lookups"] - calls) / counts["cache_lookups"],
            "evaluators.eval_fail_frac": failures / calls,
            "evaluators.external.overhead_frac": 1 - kernel_s / external_s if external_s else 0.0,
            "session.fresh_frac": fresh / totals["session.measure"][0],
            "trace.evals_per_s_untraced": statistics.median(plain_eps),
            "trace.evals_per_s_traced": statistics.median(traced_eps),
        }
    )
    return {m.name: {"value": metrics[m.name], "unit": m.unit} for m in PER_LAYER}


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in this process; the result object the CLI prints."""
    bench = Bench(workload, seed)
    # Evaluator scratch files and the compiler's temporaries stay in the checkout.
    scratch = str(bench.work)
    try:
        with mock.patch.dict(os.environ, TMPDIR=scratch), mock.patch.object(tempfile, "tempdir", scratch):
            metrics = traced_run(bench) if trace else timed_run(bench, seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = [run for run in bench.runs if run.problems]
    for run in failed:
        print(
            f"output check failed: {run.method} seed {run.seed}: " + "; ".join(run.problems),
            file=sys.stderr,
        )
    return {
        "correct": not failed,
        "attempted": len(bench.runs),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if workload.needs and shutil.which(workload.needs) is None:
        print(f"{workload.name} skipped: {workload.needs} not found on PATH", file=sys.stderr)
        return 3
    print(json.dumps(measure(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
