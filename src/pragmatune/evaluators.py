"""Evaluators: measure a configuration and report an outcome.

Two implementations share one contract (a callable from Configuration
to Outcome): an external compile-and-run pipeline, and a deterministic
synthetic landscape for experiments without a toolchain. ``CachedEvaluator``
wraps either and memoizes by configuration key, failures included.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import shlex
import signal
import statistics
import subprocess
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from .errors import check_fields
from .loops import Configuration, Pack, Tile, pragma_identity
from .rendering import render_pragmas


@dataclass(frozen=True)
class Time:
    """A successful measurement, in seconds."""

    seconds: float
    ok = True


@dataclass(frozen=True)
class CompileFailure:
    reason: str = ""
    ok = False


@dataclass(frozen=True)
class RunFailure:
    reason: str = ""
    ok = False


Outcome = Time | CompileFailure | RunFailure

Evaluator = Callable[[Configuration], Outcome]

# Last float-looking token of a line of program output.
_FLOAT_TOKEN = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@dataclass(frozen=True)
class ExternalJobSpec:
    """How to build and time one variant.

    ``source_template`` is the annotated template text (anchors of the
    form ``/*@loop:<id>*/``). ``compile_cmd`` takes ``{src}`` and
    ``{out}`` placeholders; ``run_cmd`` takes ``{out}``. A compile whose
    output matches ``reject_pattern`` counts as a compile failure even
    on exit 0 (Polly reports transformations it cannot prove safe that
    way rather than failing the build). Building a spec checks it.
    """

    source_template: str
    compile_cmd: str
    run_cmd: str
    repetitions: int = 5
    timeout_s: float = 300.0
    reject_pattern: str | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.repetitions < 1:
            raise ValueError(f"'repetitions' must be >= 1, got {self.repetitions!r}")
        if not self.timeout_s > 0:
            raise ValueError(f"'timeout_s' must be > 0, got {self.timeout_s!r}")
        for name in ("compile_cmd", "run_cmd"):
            try:
                argv = shlex.split(getattr(self, name).format(src="src", out="out"))
            except (LookupError, AttributeError, ValueError) as exc:
                raise ValueError(f"'{name}' may name only {{src}} and {{out}}: {exc!r}") from exc
            if not argv:
                raise ValueError(f"'{name}' is empty")
        try:
            re.compile(self.reject_pattern or "")
        except re.error as exc:
            raise ValueError(f"'reject_pattern' does not compile: {exc}") from exc


@dataclass(frozen=True)
class SyntheticSpec:
    """The synthetic evaluator's knobs; ``seed`` None derives one from the run's seed."""

    seed: int | None = None
    base_time: float = 1.0
    failure_rate: float = 0.10

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.base_time > 0:
            raise ValueError(f"'base_time' must be > 0, got {self.base_time!r}")
        if not 0 <= self.failure_rate < 1:
            raise ValueError(f"'failure_rate' must be in [0, 1), got {self.failure_rate!r}")


def _run(cmd: str, timeout_s: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; a timeout kills the whole group.

    Killing only the direct child would leave its children (a compiler's
    backend, a shell's background job) running. Bytes that are not UTF-8 read as U+FFFD.
    """
    with subprocess.Popen(
        shlex.split(cmd),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        errors="replace",
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout_s)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def evaluate_external(config: Configuration, job: ExternalJobSpec) -> Outcome:
    """Render, compile, run ``repetitions`` times, take the median time.

    Each run must print a time; the last float token on its stdout is
    used. Nonzero exits map to CompileFailure/RunFailure, timeouts and
    unparsable output to RunFailure. The ``{src}`` and ``{out}`` paths
    are shell-quoted, so a temporary directory whose name holds spaces
    still yields one argument each.
    """
    source = render_pragmas(config, job.source_template)
    with tempfile.TemporaryDirectory(prefix="pragmatune-") as tmp:
        src = Path(tmp) / "variant.c"
        src.write_text(source)
        paths = {"src": shlex.quote(str(src)), "out": shlex.quote(str(Path(tmp) / "variant.bin"))}
        try:
            built = _run(job.compile_cmd.format(**paths), job.timeout_s)
        except subprocess.TimeoutExpired:
            return CompileFailure("compile timeout")
        log = built.stdout + built.stderr
        if built.returncode != 0:
            return CompileFailure(log.strip()[-200:])
        if job.reject_pattern and re.search(job.reject_pattern, log):
            return CompileFailure(f"rejected: {job.reject_pattern}")
        times = []
        for _ in range(job.repetitions):
            try:
                ran = _run(job.run_cmd.format(**paths), job.timeout_s)
            except subprocess.TimeoutExpired:
                return RunFailure("run timeout")
            if ran.returncode != 0:
                return RunFailure(ran.stderr.strip()[-200:])
            tokens = _FLOAT_TOKEN.findall(ran.stdout)
            if not tokens:
                return RunFailure("no time on stdout")
            seconds = float(tokens[-1])
            if seconds <= 0:
                return RunFailure(f"non-positive time {seconds}")
            times.append(seconds)
        return Time(statistics.median(times))


class SyntheticLandscape:
    """Deterministic stand-in for compile-and-measure.

    A configuration's time is ``base_time`` times a per-step multiplier
    for every step and a pairwise interaction factor for every step
    pair, both keyed by the step's kind and parameters (loop ids
    ignored) and derived from ``seed`` by hashing, so an outcome is a
    pure function of (seed, configuration key). Explicit ``multipliers``
    and ``interactions`` override the hashed tables; a hashed factor is
    drawn once and kept in the instance's table beside them.

    Failures: a configuration packing after a tile of size >=
    ``pack_conflict_size`` fails to compile, as does a seeded
    ``failure_rate`` share of all non-root configurations. The root
    always succeeds. Default factor ranges straddle 1.0, so landscapes
    contain configurations both faster and slower than the baseline.
    """

    def __init__(
        self,
        seed: int,
        base_time: float = SyntheticSpec.base_time,
        failure_rate: float = SyntheticSpec.failure_rate,
        multipliers: dict[tuple, float] | None = None,
        interactions: dict[frozenset, float] | None = None,
        multiplier_range: tuple[float, float] = (0.5, 1.5),
        interaction_range: tuple[float, float] = (0.9, 1.1),
        pack_conflict_size: int | None = 128,
    ):
        spec = SyntheticSpec(seed, base_time, failure_rate)  # its rules check all three
        self.seed = seed
        self.base_time = spec.base_time
        self.failure_rate = spec.failure_rate
        self.multiplier_range = multiplier_range
        self.interaction_range = interaction_range
        self.pack_conflict_size = pack_conflict_size
        self._multipliers = dict(multipliers or {})
        self._interactions = {frozenset(k): v for k, v in (interactions or {}).items()}

    def _unit(self, *parts: object) -> float:
        digest = hashlib.sha256(f"{self.seed}|{parts!r}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _multiplier(self, identity: tuple) -> float:
        factor = self._multipliers.get(identity)
        if factor is None:
            lo, hi = self.multiplier_range
            factor = self._multipliers[identity] = lo + self._unit("mul", identity) * (hi - lo)
        return factor

    def _interaction(self, a: tuple, b: tuple) -> float:
        pair = frozenset((a, b))
        factor = self._interactions.get(pair)
        if factor is None:
            lo, hi = self.interaction_range
            unit = self._unit("pair", tuple(sorted((a, b), key=repr)))
            factor = self._interactions[pair] = lo + unit * (hi - lo)
        return factor

    def _fails(self, config: Configuration) -> str | None:
        if not config.steps:
            return None
        if self.pack_conflict_size is not None:
            tiled_big = False
            for step in config.steps:
                if isinstance(step, Tile) and step.size >= self.pack_conflict_size:
                    tiled_big = True
                elif isinstance(step, Pack) and tiled_big:
                    return (
                        f"pack after tile size >= {self.pack_conflict_size}"
                    )
        if self._unit("fail", config.key) < self.failure_rate:
            return "rejected by seeded failure rule"
        return None

    def evaluate(self, config: Configuration) -> Outcome:
        reason = self._fails(config)
        if reason is not None:
            return CompileFailure(reason)
        identities = [pragma_identity(s) for s in config.steps]
        seconds = self.base_time
        for identity in identities:
            seconds *= self._multiplier(identity)
        for a, b in combinations(identities, 2):
            seconds *= self._interaction(a, b)
        return Time(seconds)

    __call__ = evaluate


class CachedEvaluator:
    """Memoize an evaluator by configuration key; failures cache too."""

    def __init__(self, inner: Evaluator):
        self._inner = inner
        self._outcomes: dict[str, Outcome] = {}

    def evaluate(self, config: Configuration) -> Outcome:
        key = config.key
        if key not in self._outcomes:
            self._outcomes[key] = self._inner(config)
        return self._outcomes[key]

    __call__ = evaluate
