"""Shared run bookkeeping: budget, the run's time, and the evaluation records.

Every searcher drives a SearchSession: it owns the evaluation cache,
spends the global budget (each ``measure`` is one iteration, refused
once a bound trips), tracks the best configuration, keeps one
EvalRecord per fresh evaluation, each one line of the run log (cache
hits produce nothing), keeps the run's time, and records why the run
stopped. It is the one source of a record's ``phase`` (the last phase
begun, ``phases - 1``) and ``f`` (its reward ``target``, which mcts
sets and the baselines leave None). Ranking the records for history
transfer is left to the searcher that transfers. Searchers return
nothing: the session is the result. The root baseline is measured once
per run and does not consume budget.

A simulated session's time is the sum of its successful fresh
measurements' seconds, so synthetic logs (wall-clock column included)
are byte-identical across repeats; a real one reads the host's clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import RootEvaluationError, check_fields
from .evaluators import CachedEvaluator, CompileFailure, Outcome, RunFailure, Time
from .loops import Configuration
from .rendering import pragma_lines
from .reward import TargetState, speedup


@dataclass(frozen=True)
class Budget:
    """Global stopping rules shared by every search method.

    ``max_unique`` counts unique configurations measured beyond the root
    baseline. ``max_iterations`` (optional) allows n iterations, each a
    ``SearchSession.measure`` that may measure, cache hits included; finite
    spaces need it because a saturated cache spends no unique budget.
    ``max_wall_clock_s`` bounds ``SearchSession.elapsed``, which is in
    simulated seconds on a synthetic run.
    """

    max_unique: int = 1000
    max_wall_clock_s: float = 21600.0
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_unique < 0:
            raise ValueError("max_unique must be >= 0")
        if not self.max_wall_clock_s > 0:
            raise ValueError("max_wall_clock_s must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1 when set")


# The log name of each outcome type; a logged outcome is its name under
# "kind" followed by the outcome's own fields.
OUTCOME_KINDS = {"time": Time, "compile_failure": CompileFailure, "run_failure": RunFailure}
_KIND_NAMES = {cls: kind for kind, cls in OUTCOME_KINDS.items()}


@dataclass(frozen=True)
class EvalRecord:
    """One fresh evaluation: a line of the run log and an entry of the history.

    ``h`` is None exactly on failure. ``config`` feeds history transfer;
    it is not logged, takes no part in equality, and is None on records
    read back from a log.
    """

    iteration: int
    phase: int
    method: str
    key: str
    pragmas: tuple[str, ...]
    outcome: Outcome
    h: float | None
    f: float | None
    best_so_far_h: float
    depth: int
    wall_clock_s: float
    config: Configuration | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.outcome.ok != (self.h is not None):
            raise ValueError("h must be present exactly for successful outcomes")

    def to_dict(self) -> dict:
        """Every field but ``config``, in field order: one line of the run log."""
        doc = vars(self).copy()
        del doc["config"]
        doc["pragmas"] = list(self.pragmas)
        doc["outcome"] = {"kind": _KIND_NAMES[type(self.outcome)], **vars(self.outcome)}
        return doc


def record_from_dict(doc: dict) -> EvalRecord:
    """The record of one log line; an unknown outcome kind raises KeyError."""
    fields = dict(doc["outcome"])
    outcome = OUTCOME_KINDS[fields.pop("kind")](**fields)
    return EvalRecord(
        iteration=doc["iteration"],
        phase=doc["phase"],
        method=doc["method"],
        key=doc["key"],
        pragmas=tuple(doc["pragmas"]),
        outcome=outcome,
        h=doc["h"],
        f=doc.get("f"),
        best_so_far_h=doc["best_so_far_h"],
        depth=doc["depth"],
        wall_clock_s=doc["wall_clock_s"],
    )


class SearchSession:
    """One search run: cache, budget, best-so-far, records, time, and why it stopped."""

    def __init__(
        self, cache: CachedEvaluator, budget: Budget, method: str = "", *, simulated: bool = False
    ):
        self.cache = cache
        self.budget = budget
        self.method = method
        self.simulated = simulated
        self._start = time.monotonic()
        self._measured_s = 0.0  # successful fresh measurements' seconds, summed
        # Key -> record in measurement order, the root first; cache hits
        # look their record up here instead of building a new one.
        self._by_key: dict[str, EvalRecord] = {}
        self.best: EvalRecord | None = None
        self.root_time: float | None = None
        self.iterations = 0
        self.phases = 1  # phases begun: one for a baseline, set per phase by mcts
        # The reward target a searcher sets before the root is measured;
        # every success updates it, and each fresh record logs it as ``f``.
        self.target: TargetState | None = None
        # Why the run ended: a bound (set by ``out_of_budget``),
        # "space_exhausted" (set by the searcher), or "interrupted" or
        # "error" (set by the harness as an exception leaves the search).
        self.stop_reason: str | None = None

    @property
    def records(self) -> list[EvalRecord]:
        """Every fresh evaluation in order, the root first."""
        return list(self._by_key.values())

    @property
    def unique_evaluations(self) -> int:
        """Unique configurations measured beyond the root baseline."""
        return max(0, len(self._by_key) - 1)

    def elapsed(self) -> float:
        """The run's time in seconds: simulated, or real since the session was built."""
        return self._measured_s if self.simulated else time.monotonic() - self._start

    def count_iteration(self) -> None:
        self.iterations += 1

    def out_of_budget(self) -> bool:
        """Whether a bound has tripped; if so, ``stop_reason`` names the first one."""
        if self.unique_evaluations >= self.budget.max_unique:
            self.stop_reason = "unique_budget"
        elif self.elapsed() >= self.budget.max_wall_clock_s:
            self.stop_reason = "wall_clock"
        elif (
            self.budget.max_iterations is not None
            and self.iterations >= self.budget.max_iterations
        ):
            self.stop_reason = "iterations"
        else:
            return False
        return True

    def evaluate_root(self) -> EvalRecord:
        """Measure the empty configuration; its time is the speedup baseline."""
        config = Configuration()
        outcome = self.cache.evaluate(config)
        if not outcome.ok:
            raise RootEvaluationError(f"root configuration failed: {outcome}")
        self.root_time = outcome.seconds
        return self._record(config, outcome, 1.0)

    def measure(self, config: Configuration) -> tuple[EvalRecord, bool] | None:
        """Spend one iteration on ``config``, unless a bound has tripped.

        Returns None, counting nothing, once ``out_of_budget`` is True.
        Otherwise counts the iteration and returns the record and
        whether it is fresh: a configuration seen before costs no
        evaluation and returns the record first measured for its key; an
        unseen one is evaluated through the cache. Every successful
        measurement, repeats included, updates ``target`` when one is set.
        """
        if self.root_time is None:
            raise RootEvaluationError("evaluate_root must run before measure")
        if self.out_of_budget():
            return None
        self.count_iteration()
        record = self._by_key.get(config.key)
        if record is not None:
            if self.target is not None and record.h is not None:
                self.target.update(record.h)
            return record, False
        outcome = self.cache.evaluate(config)
        h = speedup(self.root_time, outcome.seconds) if outcome.ok else None
        return self._record(config, outcome, h), True

    def _record(self, config: Configuration, outcome: Outcome, h: float | None) -> EvalRecord:
        """Keep the record of a fresh evaluation.

        The record's ``phase`` is the last phase begun, its ``f`` the
        target after this evaluation's update (None without a target),
        and ``best_so_far_h`` counts this evaluation.
        """
        self._measured_s += outcome.seconds if outcome.ok else 0.0
        f = None
        if self.target is not None:
            f = self.target.update(h) if h is not None else self.target.f
        improved = self.best is None or (h is not None and h > self.best.h)
        record = EvalRecord(
            iteration=len(self._by_key),
            phase=self.phases - 1,
            method=self.method,
            key=config.key,
            pragmas=tuple(pragma_lines(config)),
            outcome=outcome,
            h=h,
            f=f,
            best_so_far_h=h if improved else self.best.h,
            depth=config.depth,
            wall_clock_s=self.elapsed(),
            config=config,
        )
        self._by_key[record.key] = record
        if improved:
            self.best = record
        return record
