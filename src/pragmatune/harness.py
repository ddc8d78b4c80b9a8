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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import baselines, mcts
from .errors import ExperimentConfigError, MissingAnchorError, check_fields, from_json
from .evaluators import (
    CachedEvaluator,
    ExternalJobSpec,
    SyntheticLandscape,
    SyntheticSpec,
    evaluate_external,
)
from .loops import load_loop_nest
from .mcts import MctsParams
from .rendering import template_anchors
from .reports import write_log
from .reward import RewardParams
from .session import Budget, EvalRecord, SearchSession
from .space import SpaceNode, SpaceParams, root_node

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

    def __post_init__(self) -> None:
        check_fields(self)
        if self.method not in METHODS:
            raise ValueError(f"'method' must be one of {tuple(METHODS)}, got {self.method!r}")


def _seeded(config: ExperimentConfig, label: str) -> random.Random:
    return random.Random(derive_seed(config.seed, label))


# Method name -> searcher of a space's root; each fills the session and returns nothing.
METHODS: dict[str, Callable[[SearchSession, SpaceNode, ExperimentConfig], None]] = {
    "mcts": lambda session, root, config: mcts.search(
        session, root, config.reward, config.search,
        _seeded(config, "walks"), _seeded(config, "expand"),
    ),
    "rs": lambda session, root, config: baselines.random_search(
        session, root, _seeded(config, "search")
    ),
    "bf": lambda session, root, config: baselines.breadth_first(session, root),
    "gg": lambda session, root, config: baselines.global_greedy(session, root),
}


# Section name -> the class its object builds; _KEYS is every top-level key.
_SECTIONS = {"budget": Budget, "space": SpaceParams, "reward": RewardParams, "search": MctsParams}
_KEYS = {"version", "nest", "method", "seed", "evaluator", "out", *_SECTIONS}


def _evaluator_spec(section: object) -> SyntheticSpec | ExternalJobSpec:
    """The spec an evaluator section describes; its ``type`` picks the class."""
    kind = section.get("type", "synthetic") if isinstance(section, dict) else None
    if kind not in ("synthetic", "external"):
        raise ExperimentConfigError("'evaluator' must be a 'synthetic' or 'external' object")
    knobs = {k: v for k, v in section.items() if k != "type"}
    cls = SyntheticSpec if kind == "synthetic" else ExternalJobSpec
    return from_json(cls, knobs, "'evaluator' section", ExperimentConfigError)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment file; paths resolve beside it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentConfigError(f"cannot read experiment file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ExperimentConfigError("experiment file must hold a JSON object")
    unknown = sorted(doc.keys() - _KEYS)
    if unknown:
        raise ExperimentConfigError(f"unknown keys: {', '.join(unknown)}")
    if (version := doc.get("version", 1)) != 1 or type(version) is not int:
        raise ExperimentConfigError(f"'version' must be the integer 1, got {version!r}")
    if not isinstance(doc.get("nest"), str) or not isinstance(doc.get("out"), (str, type(None))):
        raise ExperimentConfigError("'nest' and 'out' must be path strings")
    base_dir = path.parent
    try:
        nest_text = (base_dir / doc["nest"]).read_text()
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read nest file: {exc}") from exc
    evaluator = doc.get("evaluator", {"type": "synthetic"})
    spec = _evaluator_spec(evaluator)
    if isinstance(spec, ExternalJobSpec):
        try:
            template = (base_dir / spec.source_template).read_text()
        except OSError as exc:
            raise ExperimentConfigError(f"cannot read source template: {exc}") from exc
        evaluator = {**evaluator, "source_template": template}
    sections = {
        key: from_json(cls, doc.get(key, {}), f"'{key}' section", ExperimentConfigError)
        for key, cls in _SECTIONS.items()
    }
    try:
        return ExperimentConfig(
            nest_text=nest_text,
            method=doc.get("method", "mcts"),
            seed=doc.get("seed", 0),
            evaluator=evaluator,
            out_dir=None if doc.get("out") is None else str(base_dir / doc["out"]),
            **sections,
        )
    except (TypeError, ValueError) as exc:
        raise ExperimentConfigError(str(exc)) from exc


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


def space_root(config: ExperimentConfig) -> SpaceNode:
    """The space a run of ``config`` searches: its nest bounded by its ``space`` params."""
    return root_node(load_loop_nest(config.nest_text), config.space)


def build_evaluator(config: ExperimentConfig):
    """The inner evaluator, and whether its run keeps simulated time (synthetic ones do)."""
    spec = _evaluator_spec(config.evaluator)
    if isinstance(spec, ExternalJobSpec):
        return functools.partial(evaluate_external, job=spec), False
    seed = derive_seed(config.seed, "landscape") if spec.seed is None else spec.seed
    return SyntheticLandscape(seed, spec.base_time, spec.failure_rate), True


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run one method on one nest and return (and optionally persist) results.

    Before the root is measured, an external run's template must anchor
    each transformable loop (MissingAnchorError names those it misses),
    and the output directory, if any, is made: neither fails mid-run.
    Once the root is measured, the log and summary are written however
    the search ends; an exception leaving it sets the stop reason to
    ``interrupted`` (KeyboardInterrupt) or ``error``, then propagates.
    Either way the run ends with one info log line: its stop reason,
    unique evaluations, phases and elapsed time.

    Cyclic garbage collection is off during the search, then restored:
    a search makes no reference cycles per evaluation, so reference
    counting frees all it drops and the collector would only rescan
    live objects.
    """
    root = space_root(config)
    spec = _evaluator_spec(config.evaluator)
    if isinstance(spec, ExternalJobSpec):
        anchors = template_anchors(spec.source_template)
        if missing := [l.id for l in root.nest.walk() if l.transformable and l.id not in anchors]:
            raise MissingAnchorError(f"template has no anchor for loop(s) {', '.join(missing)}")
    evaluator, simulated = build_evaluator(config)
    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    session = SearchSession(
        CachedEvaluator(evaluator), config.budget, config.method, simulated=simulated
    )
    logger.info("run: method=%s seed=%d", config.method, config.seed)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        METHODS[config.method](session, root, config)
    except BaseException as exc:
        session.stop_reason = "interrupted" if isinstance(exc, KeyboardInterrupt) else "error"
        raise
    finally:
        if gc_was_enabled:
            gc.enable()
        if session.best is not None:
            summary = _summarize(config, session)
        logger.info(
            "end: method=%s seed=%d stop_reason=%s unique=%d phases=%d elapsed=%.3fs",
            config.method,
            config.seed,
            session.stop_reason,
            session.unique_evaluations,
            session.phases,
            session.elapsed(),
        )
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
        wall_clock_s=session.elapsed(),
        phases=session.phases,
        stop_reason=session.stop_reason,
        records=records,
    )
    if config.out_dir is not None:
        out = Path(config.out_dir)
        write_log(records, out / "log.jsonl")
        (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
        logger.info("wrote %s and %s", out / "log.jsonl", out / "summary.json")
    return summary
