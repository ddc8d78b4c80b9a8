"""Experiment orchestration: config files, method dispatch, persistence.

An experiment file is JSON (``version`` 1) naming the nest description,
the evaluator, the method, the seed, and optional budget/space/reward/
search overrides. A run writes ``log.jsonl`` (one EvalRecord per
line) and ``summary.json`` into the output directory when one is given,
and is byte-reproducible for a fixed config and seed on the synthetic
evaluator.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import logging
import os
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from . import baselines, mcts
from .errors import ExperimentConfigError
from .evaluators import (
    CachedEvaluator,
    ExternalJobSpec,
    SyntheticLandscape,
    evaluate_external,
)
from .loops import LoopNest, load_loop_nest
from .mcts import MctsParams
from .reports import write_log
from .reward import RewardParams
from .session import Budget, EvalRecord, MonotonicClock, SearchSession, SimulatedClock
from .space import SpaceParams

logger = logging.getLogger("pragmatune")

LOG_ENV_VAR = "PRAGMA_MCTS_LOG"


def configure_logging() -> None:
    """Honor the PRAGMA_MCTS_LOG environment variable (debug/info/...)."""
    level = os.environ.get(LOG_ENV_VAR)
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))


def derive_seed(master: int, label: str) -> int:
    """A stable per-component seed split off the master seed."""
    digest = hashlib.sha256(f"{master}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ExperimentConfig:
    nest_text: str
    method: str = "mcts"
    seed: int = 0
    evaluator: dict = field(default_factory=lambda: {"type": "synthetic"})
    budget: Budget = field(default_factory=Budget)
    space: SpaceParams = field(default_factory=SpaceParams)
    reward: RewardParams = field(default_factory=RewardParams)
    search: MctsParams = field(default_factory=MctsParams)
    out_dir: str | None = None

    def mcts_params(self) -> MctsParams:
        return replace(self.search, reward=self.reward, space=self.space)


def _seeded(config: ExperimentConfig, label: str) -> random.Random:
    return random.Random(derive_seed(config.seed, label))


# Method name -> searcher; each fills the session and returns nothing.
METHODS: dict[str, Callable[[SearchSession, LoopNest, ExperimentConfig], None]] = {
    "mcts": lambda session, nest, config: mcts.search(
        session, config.mcts_params(), nest, _seeded(config, "walks"), _seeded(config, "expand")
    ),
    "rs": lambda session, nest, config: baselines.random_search(
        session, nest, config.space, _seeded(config, "search")
    ),
    "bf": lambda session, nest, config: baselines.breadth_first(session, nest, config.space),
    "gg": lambda session, nest, config: baselines.global_greedy(session, nest, config.space),
}


def _take(doc: dict, key: str, cls):
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ExperimentConfigError(f"'{key}' must be an object")
    section = dict(section)
    try:
        if cls is SpaceParams:
            for name in ("tile_sizes", "unroll_factors", "peel_variants"):
                if name in section:
                    section[name] = tuple(section[name])
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ExperimentConfigError(f"bad '{key}' section: {exc}") from exc


def _convert(section: dict, key: str, kind: type, where: str = "") -> None:
    """Convert ``section[key]``, when present, to ``kind`` in place."""
    if key in section:
        try:
            section[key] = kind(section[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ExperimentConfigError(f"'{where}{key}' must be a number: {exc}") from exc


# Numeric evaluator fields: the type each converts to and the range it must lie in.
_EVALUATOR_FIELDS = (
    ("base_time", float, lambda v: v > 0, "> 0"),
    ("failure_rate", float, lambda v: 0 <= v < 1, "in [0, 1)"),
    ("repetitions", int, lambda v: v >= 1, ">= 1"),
    ("timeout_s", float, lambda v: v > 0, "> 0"),
)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment file; paths resolve beside it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentConfigError(f"cannot read experiment file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ExperimentConfigError("experiment file must hold a JSON object")
    if doc.get("version", 1) != 1:
        raise ExperimentConfigError(f"unsupported version {doc.get('version')!r}")
    if "nest" not in doc:
        raise ExperimentConfigError("experiment file needs a 'nest' path")
    if not isinstance(doc["nest"], str) or not isinstance(doc.get("out"), (str, type(None))):
        raise ExperimentConfigError("'nest' and 'out' must be path strings")
    _convert(doc, "seed", int)
    base_dir = path.parent
    nest_path = base_dir / doc["nest"]
    try:
        nest_text = nest_path.read_text()
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read nest file: {exc}") from exc
    method = doc.get("method", "mcts")
    if method not in METHODS:
        raise ExperimentConfigError(f"method must be one of {tuple(METHODS)}, got {method!r}")
    evaluator = doc.get("evaluator", {"type": "synthetic"})
    if not isinstance(evaluator, dict) or evaluator.get("type", "synthetic") not in (
        "synthetic",
        "external",
    ):
        raise ExperimentConfigError("evaluator.type must be 'synthetic' or 'external'")
    evaluator = dict(evaluator)
    for key, kind, in_range, bound in _EVALUATOR_FIELDS:
        _convert(evaluator, key, kind, "evaluator.")
        if key in evaluator and not in_range(evaluator[key]):
            raise ExperimentConfigError(
                f"'evaluator.{key}' must be {bound}, got {evaluator[key]!r}"
            )
    if evaluator.get("type", "synthetic") == "external":
        template_path = evaluator.get("source_template")
        if not template_path:
            raise ExperimentConfigError("external evaluator needs 'source_template'")
        try:
            evaluator["source_template"] = (base_dir / template_path).read_text()
        except OSError as exc:
            raise ExperimentConfigError(f"cannot read source template: {exc}") from exc
        for key in ("compile_cmd", "run_cmd"):
            if not evaluator.get(key):
                raise ExperimentConfigError(f"external evaluator needs '{key}'")
    search = _take(doc, "search", MctsParams)
    for name in ("space", "reward"):
        if name in doc.get("search", {}):
            raise ExperimentConfigError(f"'{name}' is a top-level section, not a 'search' key")
    return ExperimentConfig(
        nest_text=nest_text,
        method=method,
        seed=doc.get("seed", 0),
        evaluator=evaluator,
        budget=_take(doc, "budget", Budget),
        space=_take(doc, "space", SpaceParams),
        reward=_take(doc, "reward", RewardParams),
        search=search,
        out_dir=doc.get("out"),
    )


@dataclass
class ExperimentSummary:
    """What a run produced and why it stopped; ``records`` is the in-memory log."""

    method: str
    seed: int
    best_key: str
    best_h: float
    best_depth: int
    best_pragmas: tuple[str, ...]
    unique_evaluations: int
    wall_clock_s: float
    phases: int
    stop_reason: str
    records: list[EvalRecord] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        """Every field but ``records``, in field order: the ``summary.json`` document."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        doc["best_pragmas"] = list(self.best_pragmas)
        return doc


def build_evaluator(config: ExperimentConfig):
    """The inner evaluator plus the clock matching its determinism."""
    spec = config.evaluator
    kind = spec.get("type", "synthetic")
    if kind == "synthetic":
        landscape = SyntheticLandscape(
            seed=spec.get("seed", derive_seed(config.seed, "landscape")),
            base_time=spec.get("base_time", 1.0),
            failure_rate=spec.get("failure_rate", 0.10),
        )
        return landscape, SimulatedClock()
    job = ExternalJobSpec(
        source_template=spec["source_template"],
        compile_cmd=spec["compile_cmd"],
        run_cmd=spec["run_cmd"],
        repetitions=int(spec.get("repetitions", 5)),
        timeout_s=float(spec.get("timeout_s", 300.0)),
        reject_pattern=spec.get("reject_pattern"),
    )
    return functools.partial(evaluate_external, job=job), MonotonicClock()


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run one method on one nest and return (and optionally persist) results.

    Once the root is measured, the log and summary are written however
    the search ends; an exception leaving it sets the stop reason to
    ``interrupted`` (KeyboardInterrupt) or ``error``, then propagates.

    Cyclic garbage collection is off during the search, then restored:
    a search makes no reference cycles per evaluation, so reference
    counting frees all it drops and the collector would only rescan
    live objects.
    """
    nest = load_loop_nest(config.nest_text)
    evaluator, clock = build_evaluator(config)
    session = SearchSession(
        CachedEvaluator(evaluator), config.budget, clock, method=config.method
    )
    logger.info("run: method=%s seed=%d", config.method, config.seed)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        METHODS[config.method](session, nest, config)
    except BaseException as exc:
        session.stop_reason = "interrupted" if isinstance(exc, KeyboardInterrupt) else "error"
        raise
    finally:
        if gc_was_enabled:
            gc.enable()
        if session.best is not None:
            summary = _summarize(config, session)
    return summary


def _summarize(config: ExperimentConfig, session: SearchSession) -> ExperimentSummary:
    """The run's summary, written with its log when there is an output directory."""
    best, records = session.best, session.records
    summary = ExperimentSummary(
        method=config.method,
        seed=config.seed,
        best_key=best.key,
        best_h=best.h,
        best_depth=best.depth,
        best_pragmas=best.pragmas,
        unique_evaluations=session.unique_evaluations,
        wall_clock_s=session.clock.elapsed(),
        phases=session.phases,
        stop_reason=session.stop_reason,
        records=records,
    )
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_log(records, out / "log.jsonl")
        (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
        logger.info("wrote %s and %s", out / "log.jsonl", out / "summary.json")
    return summary
