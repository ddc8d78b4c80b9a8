"""Monte Carlo tree search over the transformation space.

The driver runs in phases: build a fresh tree, replay the lessons of
the accumulated history onto it (upper-tail paths reinforced, penalized
lower-tail paths discouraged, no evaluations spent), learn a target
depth from random walks, then iterate UCT selection at that depth until
the phase converges or exhausts its per-phase evaluation budget. The
history survives restarts; the tree does not, but the space nodes the
last phase built (and their censuses) are handed to the next tree.

A restart pays for the tails it replays, not for the whole history: the
search keeps its records ranked as they arrive (``RankedHistory``), so
the split reads two ranks, and the penalty filter compares
pragma-identity bitmasks, so a restart reads only the records it
replays. Each history entry carries the child-index path its playout
walked, so transfer builds no space node, and no tree node below the
root: the root keeps the paths pending, and a node hands them down a
level when its children are first read. Within a phase, ``select``
scores children inline and ``expand`` counts to its draw without
building a list. Each phase sends one debug record to the
``pragmatune`` logger. Each knob has one home: ``search`` takes the
run's space (its root node, which carries the ``SpaceParams``) and
``RewardParams`` beside its own ``MctsParams``. ``search`` sets the
session's ``target`` and ``phases``, which stamp each record, and a
playout reads its reward's target and penalty back from the session.
"""

from __future__ import annotations

import logging
import math
import random
import weakref
from dataclasses import dataclass
from itertools import islice

from . import space
from .errors import check_fields
from .reward import (
    RankedHistory,
    RewardParams,
    TargetState,
    penalty_filter,
    quantile_split,
    reward,
)
from .session import EvalRecord, SearchSession

logger = logging.getLogger("pragmatune")

# A phase whose iterations all hit the cache trips neither convergence
# counter, so cap total iterations per phase at a multiple of its
# evaluation budget.
_PHASE_ITERATION_CAP_FACTOR = 20


@dataclass(frozen=True)
class MctsParams:
    """Tree-search knobs only; ``c`` weighs exploration in the UCT score."""

    c: float = 0.1
    per_run_budget: int = 300
    n_walks: int = 10
    no_improve_limit: int = 50
    same_config_limit: int = 10

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.c >= 0:
            raise ValueError("c must be >= 0")
        for name in ("per_run_budget", "n_walks", "no_improve_limit", "same_config_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class _SpaceNodes:
    """A run's root space node and the children built in this phase and the last.

    Keyed by (parent space node, child index), by identity; a tree asks for
    each key once. ``restart`` drops what the ended phase did not ask for.
    ``history`` is the run's history: the root record, then every record a
    playout measured fresh, each with the child-index path it walked.
    """

    __slots__ = ("root", "current", "previous", "history")

    def __init__(self, root: space.SpaceNode):
        self.root = root
        self.current: dict[tuple[space.SpaceNode, int], space.SpaceNode] = {}
        self.previous: dict[tuple[space.SpaceNode, int], space.SpaceNode] = {}
        self.history = RankedHistory()

    def child(self, parent: space.SpaceNode, index: int) -> space.SpaceNode:
        key = (parent, index)
        node = self.previous.get(key) or space.child(parent, index)
        self.current[key] = node
        return node

    def restart(self) -> None:
        self.previous, self.current = self.current, {}


class SearchNode:
    """One tree node: a space node plus visit statistics.

    ``terminal_count`` counts backpropagated paths that ended here, so
    for every node visits == sum(child visits) + terminal_count.

    A node made by ``_get_or_create`` starts as its child index, depth
    and statistics only; ``space`` and ``n_children`` (one census, which
    applies the node's step) are built on first read, so nodes that only
    history transfer touches are never built; ``nodes`` hands out the
    space nodes. ``children`` is built on first read too: a node keeps
    the transferred ``(path, value)`` entries that pass through it
    pending, and its first read hands each to the child it leads to, in
    arrival order. Tree nodes hold no strong parent reference: a child
    reaches its parent through a weak reference, so a dropped tree holds
    no reference cycle and is freed at once.
    """

    __slots__ = (
        "_space",
        "_n_children",
        "_parent",
        "_nodes",
        "index",
        "depth",
        "visits",
        "total_reward",
        "terminal_count",
        "_children",
        "_pending",
        "__weakref__",
    )

    def __init__(
        self,
        space_node: space.SpaceNode | None,
        n_children: int | None,
        nodes: _SpaceNodes | None = None,
        parent: SearchNode | None = None,
        index: int = -1,
    ):
        self._space = space_node
        self._n_children = n_children
        self._nodes = nodes
        self._parent = None if parent is None else weakref.ref(parent)
        self.index = index
        self.depth = 0 if parent is None else parent.depth + 1
        self.visits = 0
        self.total_reward = 0.0
        self.terminal_count = 0
        self._children: dict[int, SearchNode] = {}
        self._pending: list[tuple[tuple[int, ...], float]] = []

    @property
    def children(self) -> dict[int, SearchNode]:
        if self._pending:
            pending, self._pending = self._pending, []
            for entry in pending:
                _get_or_create(self, entry[0][self.depth])._receive(entry)
        return self._children

    def _receive(self, entry: tuple[tuple[int, ...], float]) -> None:
        """Add a transferred ``(path, value)`` here, as a playout along ``path`` would."""
        self.visits += 1
        self.total_reward += entry[1]
        if len(entry[0]) == self.depth:
            self.terminal_count += 1
        else:
            self._pending.append(entry)

    @property
    def space(self) -> space.SpaceNode:
        if self._space is None:
            self._space = self._nodes.child(self._parent().space, self.index)
        return self._space

    @property
    def n_children(self) -> int:
        if self._n_children is None:
            self._n_children = space.child_count(self.space)
        return self._n_children


def select(root: SearchNode, target_depth: int, c: float) -> list[SearchNode]:
    """Descend by best UCT score (ties to the lowest child index).

    Stops at the target depth, at the first node with an unexpanded
    child, or at a dead end. A child scores its mean reward plus
    ``2c * sqrt(2 ln(parent visits) / visits)``, and an unvisited child
    scores infinity; the tests hold the reference definition.
    """
    path = [root]
    node = root
    c2 = 2 * c
    while node.depth < target_depth:
        children = node.children
        if node.n_children == 0 or len(children) < node.n_children:
            break
        two_log = 2 * math.log(max(node.visits, 1))
        best_idx = -1
        best = -math.inf
        for idx, child in children.items():
            v = child.visits
            score = child.total_reward / v + c2 * math.sqrt(two_log / v) if v else math.inf
            if score > best or (score == best and idx < best_idx):
                best, best_idx = score, idx
        node = children[best_idx]
        path.append(node)
    return path


def _get_or_create(node: SearchNode, index: int) -> SearchNode:
    """Child ``index`` of ``node``, created unbuilt on first use."""
    children = node.children
    child = children.get(index)
    if child is None:
        child = children[index] = SearchNode(None, None, node._nodes, node, index)
    return child


def expand(leaf: SearchNode, rng: random.Random) -> SearchNode:
    """Materialize one unexpanded child, chosen uniformly at random.

    Draws r in [0, unexpanded count) and takes the r-th unexpanded index.
    """
    children = leaf.children
    n_children = leaf.n_children
    if len(children) >= n_children:
        raise ValueError("node has no unexpanded children")
    r = rng.randrange(n_children - len(children))
    unexpanded = (i for i in range(n_children) if i not in children)
    return _get_or_create(leaf, next(islice(unexpanded, r, None)))


def backpropagate(path: list[SearchNode], value: float) -> None:
    for node in path:
        node.visits += 1
        node.total_reward += value


def _descend(path: list[SearchNode], depth: int, rng: random.Random) -> None:
    """Extend ``path`` by uniformly drawn children down to ``depth`` or a dead end."""
    node = path[-1]
    while node.depth < depth and node.n_children > 0:
        node = _get_or_create(node, rng.randrange(node.n_children))
        path.append(node)


def _playout(path: list[SearchNode], session: SearchSession) -> tuple[EvalRecord, bool] | None:
    """Measure the path's end, reward it against the session's target, and backpropagate.

    Returns what ``session.measure`` returned; None (out of budget)
    leaves the tree untouched. A fresh record enters the history with its path.
    """
    node = path[-1]
    measured = session.measure(node.space.config)
    if measured is None:
        return None
    record, fresh = measured
    if fresh:
        node._nodes.history.add(record, tuple(n.index for n in path[1:]))
    target = session.target
    backpropagate(path, reward(record.outcome, record.h, target.f, target.params))
    node.terminal_count += 1
    return measured


def learn_depth(
    tree: SearchNode, session: SearchSession, params: MctsParams, rng: random.Random
) -> int:
    """Sample random walks of uniform random depth and pick the best one's.

    Every walk's reward backpropagates along its path. Returns the
    achieved depth of the best-performing walk (ties to the earlier
    walk; 1 when every walk failed).
    """
    best_h: float | None = None
    d_star = 1
    for _ in range(params.n_walks):
        path = [tree]
        _descend(path, rng.randint(1, tree.space.params.d_max), rng)
        measured = _playout(path, session)
        if measured is None:
            break
        h = measured[0].h
        if h is not None and (best_h is None or h > best_h):
            best_h = h
            d_star = max(1, path[-1].depth)
    return d_star


def apply_transfer(
    tree: SearchNode, history: RankedHistory, reward_params: RewardParams
) -> tuple[int, int]:
    """Replay history quantiles onto a fresh tree without evaluating.

    Upper-tail records get +1 along their paths; lower-tail records
    surviving the penalty filter get r_penalty. Each path is the one its
    history entry carries, so no record's steps are read. The root takes
    every value now and keeps the paths pending for ``children`` to hand
    down (``tests/helpers.eager_transfer`` is the reference). Returns
    the upper and penalized counts.
    """
    if not history.ranked:
        return 0, 0
    lower, upper = quantile_split(history, reward_params.alpha)
    penalized = penalty_filter(lower, upper)
    for entries, value in ((upper, 1.0), (penalized, reward_params.r_penalty)):
        for _, _, _, path in entries:
            tree._receive((path, value))
    return len(upper), len(penalized)


def search(
    session: SearchSession,
    root: space.SpaceNode,
    reward_params: RewardParams,
    params: MctsParams,
    rng_walks: random.Random,
    rng_expand: random.Random,
) -> None:
    """Run the full phased search of the space under ``root`` until the global budget is spent.

    The root is measured first and enters the history with the empty
    path; its failure is fatal. A root with no children ends the run as
    ``space_exhausted``. A phase converges when ``no_improve`` counts
    ``no_improve_limit`` fresh playouts since the best last improved, or
    when ``same`` counts ``same_config_limit`` playouts in a row, cache
    hits included, that measured one key.
    """
    session.target = TargetState(reward_params)
    nodes = _SpaceNodes(root)
    nodes.history.add(session.evaluate_root(), ())
    phase = 0
    while not session.out_of_budget():
        session.phases = phase + 1
        nodes.restart()
        tree = SearchNode(nodes.root, None, nodes)
        if tree.n_children == 0:
            session.stop_reason = "space_exhausted"
            return
        upper, penalized = apply_transfer(tree, nodes.history, reward_params)
        evals_before, iterations_before = session.unique_evaluations, session.iterations
        d_star = learn_depth(tree, session, params, rng_walks)
        iteration_cap = session.iterations + params.per_run_budget * _PHASE_ITERATION_CAP_FACTOR
        no_improve = same = 0
        last_key = ended = None
        while ended is None:
            if session.unique_evaluations - evals_before >= params.per_run_budget:
                ended = "per_run_budget"
            elif session.iterations >= iteration_cap:
                ended = "iteration_cap"
            elif session.out_of_budget():
                ended = "global_budget"
            elif no_improve >= params.no_improve_limit:
                ended = "no_improve"
            elif same >= params.same_config_limit:
                ended = "same_config"
            else:
                path = select(tree, d_star, params.c)
                leaf = path[-1]
                if leaf.depth < d_star and len(leaf.children) < leaf.n_children:
                    path.append(expand(leaf, rng_expand))
                _descend(path, d_star, rng_walks)
                measured = _playout(path, session)
                if measured is None:
                    ended = "global_budget"
                    continue
                record, fresh = measured
                if fresh:
                    no_improve = 0 if session.best is record else no_improve + 1
                same = same + 1 if record.key == last_key else 1
                last_key = record.key
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "phase %(phase)d: d*=%(d_star)d, transfer upper=%(upper)d "
                "penalized=%(penalized)d, fresh=%(fresh)d, iterations=%(iterations)d, "
                "ended by %(ended)s",
                {
                    "phase": phase,
                    "d_star": d_star,
                    "upper": upper,
                    "penalized": penalized,
                    "fresh": session.unique_evaluations - evals_before,
                    "iterations": session.iterations - iterations_before,
                    "ended": ended,
                },
            )
        phase += 1
