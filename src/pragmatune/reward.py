"""Speedups, the moving-average reward target, and history quantiles."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EmptyHistoryError, check_fields
from .evaluators import Outcome
from .loops import pragma_identity

if TYPE_CHECKING:
    from .session import EvalRecord

# (arrival, pragma-identity mask, record, child-index path): see RankedHistory.
HistoryEntry = tuple[int, int, "EvalRecord", tuple[int, ...]]


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
        check_fields(self)
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
    the window. ``params`` are the run's reward knobs, the penalty too.
    """

    def __init__(self, params: RewardParams, initial: float = 1.0):
        self.params = params
        self.f = initial
        self._initial = initial
        self._recent: deque[float] = deque(maxlen=params.m)

    def update(self, h: float) -> float:
        """Push one successful speedup and return the new target."""
        self._recent.append(h)
        floor = self.f if self.params.monotone_target else self._initial
        self.f = max(floor, math.fsum(self._recent) / len(self._recent))
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

    Successes sit in one list of ``(h, arrival)`` pairs in rank order.
    Each record also has a history entry ``(arrival, mask, record,
    path)``: ``mask`` holds one bit per distinct pragma identity of the
    record's steps, bits numbered as the history first meets each
    identity (a root record's mask is 0), and ``path`` is the child-index
    path ``add`` was given with the record. In a search, arrival order is
    the records' ``iteration``. ``add`` computes each record's mask as
    it arrives: only mcts keeps a history, and its next restart splits
    every record it adds.
    """

    __slots__ = ("ranked", "_failed", "_entries", "_bits")

    def __init__(self) -> None:
        self.ranked: list[tuple[float, int]] = []
        self._failed: list[HistoryEntry] = []  # in arrival order
        self._entries: list[HistoryEntry] = []
        self._bits: dict[tuple, int] = {}

    def add(self, record: EvalRecord, path: tuple[int, ...]) -> None:
        """Enter ``record`` with its path.

        Raises AttributeError, entering nothing, for a record without a
        ``config`` (one read back from a log).
        """
        bits, mask = self._bits, 0
        for step in record.config.steps:
            identity = pragma_identity(step)
            bit = bits.get(identity)
            if bit is None:
                bit = bits[identity] = 1 << len(bits)
            mask |= bit
        arrival = len(self._entries)
        entry = (arrival, mask, record, path)
        if record.h is None:
            self._failed.append(entry)
        else:
            insort(self.ranked, (record.h, arrival))
        self._entries.append(entry)

    def entries(self) -> list[HistoryEntry]:
        """Every record's entry, in arrival order."""
        return self._entries


def quantile_split(
    history: RankedHistory, alpha: float
) -> tuple[list[HistoryEntry], list[HistoryEntry]]:
    """Split history into lower and upper alpha tails by speedup.

    Ranks are nearest-rank over the successful records' h values, with
    symmetric tails of ceil(alpha * n) records each (more under ties).
    Failed records always land in the lower set. Both sets are history
    entries in arrival order. Raises EmptyHistoryError without at least
    one success.
    """
    ranked = history.ranked
    if not ranked:
        raise EmptyHistoryError("no successful evaluations in history")
    entries = history.entries()
    k = tail_rank(len(ranked), alpha)
    # Arrivals are distinct, so neither a probe nor a sort compares further.
    low_end = bisect_right(ranked, (ranked[k - 1][0], math.inf))
    up_start = bisect_left(ranked, (ranked[len(ranked) - k][0], -1))
    lower = sorted(history._failed + [entries[a] for _, a in ranked[:low_end]])
    upper = [entries[a] for a in sorted(a for _, a in ranked[up_start:])]
    return lower, upper


def penalty_filter(
    lower: list[HistoryEntry], upper: list[HistoryEntry]
) -> list[HistoryEntry]:
    """Lower entries sharing no pragma identity with any upper entry.

    Identity comparison ignores loop ids. Root records (mask 0) are
    never penalized. An empty upper set keeps every non-root lower
    entry. Reads masks only, never a record.
    """
    shared = 0
    for _, mask, _, _ in upper:
        shared |= mask
    return [entry for entry in lower if entry[1] and not entry[1] & shared]
