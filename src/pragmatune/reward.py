"""Speedups, the moving-average reward target, and history quantiles."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from statistics import fmean
from typing import TYPE_CHECKING, Iterable

from .errors import EmptyHistoryError
from .evaluators import Outcome

if TYPE_CHECKING:
    from .session import EvalRecord


@dataclass(frozen=True)
class RewardParams:
    """Reward shaping knobs.

    ``m`` is the moving-average window, ``r_penalty`` the (negative)
    reward for failed configurations, ``alpha`` the tail fraction used
    when transferring history across restarts. With ``monotone_target``
    the target ratchets (f = max(previous f, window mean)); without it
    the window mean is compared against the initial target only.
    """

    m: int = 10
    r_penalty: float = -1.0
    alpha: float = 0.05
    monotone_target: bool = True

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.r_penalty < 0:
            raise ValueError("r_penalty must be negative")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must be in (0, 0.5)")


def speedup(root_time: float, config_time: float) -> float:
    """Baseline time over configuration time; > 1 means faster."""
    if root_time <= 0 or config_time <= 0:
        raise ValueError("times must be positive")
    return root_time / config_time


class TargetState:
    """The speedup target a configuration must beat to earn reward 1.

    Successful speedups enter a window of the last ``m`` values; the
    target is the running maximum of the window mean (monotone mode) or
    the mean clamped below by the initial target. Failures never touch
    the window.
    """

    def __init__(self, params: RewardParams, initial: float = 1.0):
        self.f = initial
        self._initial = initial
        self._recent: deque[float] = deque(maxlen=params.m)
        self._monotone = params.monotone_target

    def update(self, h: float) -> float:
        """Push one successful speedup and return the new target."""
        self._recent.append(h)
        floor = self.f if self._monotone else self._initial
        self.f = max(floor, fmean(self._recent))
        return self.f


def reward(outcome: Outcome, h: float | None, f: float, params: RewardParams) -> float:
    """r_penalty on failure, 1 when the speedup beats the target, else 0."""
    if not outcome.ok:
        return params.r_penalty
    return 1.0 if h > f else 0.0


def tail_rank(n: int, fraction: float) -> int:
    """Nearest-rank tail size: how many records a ``fraction`` tail holds."""
    return max(1, math.ceil(fraction * n))


class RankedHistory:
    """The evaluation records, kept ranked by speedup as they arrive.

    Successes sit in one list ordered by ``(h, arrival)``; failures stay
    in arrival order. A session's arrival order is its records'
    ``iteration``. Both lists hold references only, so ``quantile_split``
    reads ranks and tails instead of sorting the whole history.
    """

    __slots__ = ("ranked", "failed")

    def __init__(self, records: Iterable[EvalRecord] = ()):
        self.ranked: list[tuple[float, int, EvalRecord]] = []
        self.failed: list[tuple[int, EvalRecord]] = []
        for record in records:
            self.add(record)

    def add(self, record: EvalRecord) -> None:
        arrival = len(self.ranked) + len(self.failed)
        if record.h is None:
            self.failed.append((arrival, record))
        else:
            insort(self.ranked, (record.h, arrival, record))


def quantile_split(
    history: RankedHistory, alpha: float
) -> tuple[list[EvalRecord], list[EvalRecord]]:
    """Split history into lower and upper alpha tails by speedup.

    Ranks are nearest-rank over the successful records' h values, with
    symmetric tails of ceil(alpha * n) records each (more under ties).
    Failed records always land in the lower set. Both sets keep arrival
    order. Raises EmptyHistoryError without at least one success.
    """
    ranked = history.ranked
    if not ranked:
        raise EmptyHistoryError("no successful evaluations in history")
    k = tail_rank(len(ranked), alpha)
    # Arrivals are distinct, so a probe never compares two records.
    low_end = bisect_right(ranked, (ranked[k - 1][0], math.inf))
    up_start = bisect_left(ranked, (ranked[len(ranked) - k][0], -1))
    lower = sorted(history.failed + [(a, r) for _, a, r in ranked[:low_end]])
    upper = sorted((a, r) for _, a, r in ranked[up_start:])
    return [r for _, r in lower], [r for _, r in upper]


def penalty_filter(
    lower: list[EvalRecord], upper: list[EvalRecord]
) -> list[EvalRecord]:
    """Lower records sharing no pragma identity with any upper record.

    Identity comparison ignores loop ids. Root records (empty
    configurations) are never penalized. An empty upper set keeps every
    non-root lower record.
    """
    shared: frozenset = frozenset().union(*(r.identities for r in upper)) if upper else frozenset()
    return [
        r
        for r in lower
        if r.config.steps and not (r.identities & shared)
    ]
