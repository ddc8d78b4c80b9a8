"""Baseline searchers: random sampling, breadth-first, global greedy.

Each takes the space as its root node. All three share the session's
budget accounting and evaluation cache with the tree search, measure
the root first, and return nothing: the session holds the records, the
best one, and the stop reason.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Sized

from .session import EvalRecord, SearchSession
from .space import SpaceNode, child, child_count, random_walk


def random_search(session: SearchSession, root: SpaceNode, rng: random.Random) -> None:
    """Uniform random walks of uniform random depth, deduped by the cache.

    A root with no children ends the run as ``space_exhausted``. Any
    other finite space saturates the cache without consuming budget, so
    runs on small spaces should bound Budget.max_iterations.
    """
    session.evaluate_root()
    if child_count(root) == 0:
        session.stop_reason = "space_exhausted"
        return
    while True:
        node = random_walk(root, rng.randint(1, root.params.d_max), rng)
        if session.measure(node.config) is None:
            return


def _expand_all(
    session: SearchSession,
    frontier: Sized,
    pop: Callable[[], SpaceNode],
    push: Callable[[SpaceNode, EvalRecord], None],
) -> None:
    """Pop a node, measure all its children in index order, offer each to ``push``.

    An empty frontier ends the run as ``space_exhausted``.
    """
    while frontier and not session.out_of_budget():
        node = pop()
        for index in range(child_count(node)):
            successor = child(node, index)
            measured = session.measure(successor.config)
            if measured is None:
                return
            push(successor, measured[0])
    if not frontier:
        session.stop_reason = "space_exhausted"


def breadth_first(session: SearchSession, root: SpaceNode) -> None:
    """Level-by-level sweep in child-index order.

    Children of failed configurations are still visited; the tree offers
    no guarantee that a failing prefix makes every extension fail.
    """
    session.evaluate_root()
    queue = deque([root])
    _expand_all(session, queue, queue.popleft, lambda node, _: queue.append(node))


def global_greedy(session: SearchSession, root: SpaceNode) -> None:
    """Expand the best measured configuration anywhere in the tree.

    Pops the highest-h node (ties to insertion order), measures all its
    children, and pushes the successful ones; failures are never pushed,
    so their subtrees are abandoned.
    """
    root_record = session.evaluate_root()
    order = count()
    heap: list[tuple[float, int, SpaceNode]] = [(-root_record.h, next(order), root)]

    def push(node: SpaceNode, record: EvalRecord) -> None:
        if record.h is not None:
            heappush(heap, (-record.h, next(order), node))

    _expand_all(session, heap, lambda: heappop(heap)[2], push)
