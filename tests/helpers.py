"""Shared test utilities: enumeration oracle, generators, record factory.

The oracle rebuilds a node's ordered child list from scratch (its own
chain detection, cross products over parameters, validity proven by
applying every candidate) so the sparse index arithmetic in
pragmatune.space is checked against something that cannot share its
bugs. ``uct_score`` is the reference definition of the score
``mcts.select`` computes inline, ``index_path`` the reference for the
path a playout records, ``eager_transfer`` the reference for the tree
``mcts.apply_transfer`` hands down lazily, ``consistent_playouts``
checks the tree's visit identity after every playout of a search,
``scripted_phase_end`` runs a phase on playouts a test writes, and
``first_divergence`` names the first record where two logs part.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from itertools import permutations, zip_longest
from types import SimpleNamespace
from unittest import mock

from pragmatune import mcts, space
from pragmatune.evaluators import CachedEvaluator, SyntheticLandscape
from pragmatune.loops import (
    Configuration,
    Interchange,
    Loop,
    LoopNest,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Unroll,
    apply,
)
from pragmatune.mcts import SearchNode, _SpaceNodes
from pragmatune.rendering import pragma_lines
from pragmatune.reward import RankedHistory, RewardParams, penalty_filter, quantile_split
from pragmatune.session import Budget, EvalRecord, SearchSession
from pragmatune.space import SpaceParams


def oracle_children(nest: LoopNest, params: SpaceParams):
    """Ordered child transformations, built exhaustively.

    Kind order: tile, interchange, parallelize, unroll, reverse, pack.
    Within a kind: loop-id order, then parameter-list order. Every
    candidate is applied once to prove it is legal.
    """
    parents: dict[str, Loop | None] = {}

    def note_parents(loop: Loop, parent: Loop | None) -> None:
        parents[loop.id] = parent
        for child in loop.children:
            note_parents(child, loop)

    for root in nest.roots:
        note_parents(root, None)

    loops = sorted((l for l in nest.walk() if l.transformable), key=lambda l: l.id)

    heads = []
    for loop in loops:
        parent = parents[loop.id]
        if parent is None or not parent.transformable or len(parent.children) != 1:
            heads.append(loop)

    def chain_length(head: Loop) -> int:
        length, cursor = 1, head
        while len(cursor.children) == 1 and cursor.children[0].transformable:
            cursor = cursor.children[0]
            length += 1
        return length

    out = []
    for head in heads:
        for size in params.tile_sizes:
            for peel in params.peel_variants:
                out.append(Tile(head.id, size, peel))
    for head in heads:
        k = chain_length(head)
        if k < 2:
            continue
        if k <= params.max_permutation_depth:
            perms = [p for p in permutations(range(k)) if p != tuple(range(k))]
        else:
            perms = []
            for j in range(k - 1):
                perm = list(range(k))
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                perms.append(tuple(perm))
        out.extend(Interchange(head.id, p) for p in perms)
    for loop in loops:
        out.append(ParallelizeThread(loop.id))
    for loop in loops:
        if loop.unrollable:
            out.append(Unroll(loop.id, None))
            out.extend(Unroll(loop.id, f) for f in params.unroll_factors)
    for loop in loops:
        if loop.reversible:
            out.append(Reverse(loop.id))
    for loop in loops:
        for array in nest.arrays:
            if array not in loop.packed:
                out.append(Pack(loop.id, array))

    for candidate in out:
        apply(nest, candidate)
    return out


def random_nest(rng: random.Random, max_loops: int = 4, max_arrays: int = 2) -> LoopNest:
    """A random small forest with occasional frozen loops."""
    count = rng.randint(1, max_loops)
    labels = list("abcdefgh")[:count]
    children: dict[str, list[str]] = {label: [] for label in labels}
    roots = [labels[0]]
    for index, label in enumerate(labels[1:], start=1):
        if rng.random() < 0.25:
            roots.append(label)
        else:
            children[rng.choice(labels[:index])].append(label)

    def build(label: str) -> Loop:
        return Loop(
            id=label,
            children=tuple(build(c) for c in children[label]),
            transformable=rng.random() > 0.15,
        )

    arrays = tuple(f"A{k}" for k in range(rng.randint(0, max_arrays)))
    return LoopNest(tuple(build(r) for r in roots), arrays)


def random_params(rng: random.Random, d_max: int = 5) -> SpaceParams:
    """Small parameter sets keeping fan-outs test-sized."""
    sizes = tuple(rng.sample([2, 3, 4, 8, 16, 32, 64, 128], rng.randint(1, 2)))
    factors = tuple(rng.sample([2, 4, 8], rng.randint(0, 2)))
    peel = ((False,), (True,), (False, True))[rng.randrange(3)]
    return SpaceParams(
        tile_sizes=sizes, unroll_factors=factors, peel_variants=peel, d_max=d_max
    )


def chain_nest(depth: int, arrays: tuple[str, ...] = ()) -> LoopNest:
    """A perfect chain i0 -> i1 -> ... of the given depth."""
    loop = None
    for index in reversed(range(depth)):
        loop = Loop(id=f"i{index}", children=(loop,) if loop else ())
    return LoopNest((loop,), arrays)


def counting(inner, calls: list):
    """``inner``, appending each configuration key it is asked for to ``calls``."""

    def evaluate(config):
        calls.append(config.key)
        return inner(config)

    return evaluate


def eval_record(config: Configuration, outcome, h, iteration: int, phase: int) -> EvalRecord:
    """A session-style record; the log-only fields follow from the arguments."""
    return EvalRecord(
        iteration=iteration,
        phase=phase,
        method="test",
        key=config.key,
        pragmas=tuple(pragma_lines(config)),
        outcome=outcome,
        h=h,
        f=None,
        best_so_far_h=1.0 if h is None else h,
        depth=config.depth,
        wall_clock_s=0.0,
        config=config,
    )


def first_divergence(log_a, log_b):
    """Where two logs of ``EvalRecord``s first differ: ``(iteration, phase, key)`` from each.

    None when the logs are equal. A log that ends first gives None on its side.
    """
    for a, b in zip_longest(log_a, log_b):
        if a is None or b is None or a.to_dict() != b.to_dict():
            return tuple(None if r is None else (r.iteration, r.phase, r.key) for r in (a, b))
    return None


def entry_records(entries) -> list[EvalRecord]:
    """The records of ``RankedHistory`` entries, in their order."""
    return [entry[2] for entry in entries]


def index_path(root: space.SpaceNode, config: Configuration) -> tuple[int, ...]:
    """Child indices leading from the space's ``root`` to ``config``, by ``child_index``."""
    node, indices = root, []
    for step in config.steps:
        indices.append(space.child_index(node, step))
        node = space.child(node, indices[-1])
    return tuple(indices)


def ranked_history(records, root: space.SpaceNode | None = None) -> RankedHistory:
    """``records`` added in order to a ``RankedHistory``, as ``mcts.search`` adds them.

    Given a space's root, each record's path is its ``index_path``; without
    one every path is ``()``, for splits and filters, which never read paths.
    """
    history = RankedHistory()
    for record in records:
        history.add(record, () if root is None else index_path(root, record.config))
    return history


def make_root(root: space.SpaceNode) -> SearchNode:
    """A fresh search tree over the space under ``root``, as ``mcts.search`` builds one."""
    nodes = _SpaceNodes(root)
    return SearchNode(nodes.root, None, nodes)


def uct_score(child: SearchNode, parent_visits: int, c: float) -> float:
    """Mean reward plus the exploration term; unvisited children win outright.

    The reference definition: ``mcts.select`` computes the same score
    inline, with the same float operations.
    """
    if child.visits == 0:
        return math.inf
    mean_reward = child.total_reward / child.visits
    return mean_reward + 2 * c * math.sqrt(2 * math.log(parent_visits) / child.visits)


def eager_transfer(
    tree: SearchNode, history: RankedHistory, reward_params: RewardParams
) -> tuple[int, int]:
    """Replay every transferred path onto ``tree`` at once, as a playout would.

    The reference definition: ``mcts.apply_transfer`` leaves the paths
    pending at the root and hands them down a level on each node's first
    ``children`` read; once every node is read, the two trees are equal.
    """
    if not history.ranked:
        return 0, 0
    lower, upper = quantile_split(history, reward_params.alpha)
    penalized = penalty_filter(lower, upper)
    for entries, value in ((upper, 1.0), (penalized, reward_params.r_penalty)):
        for _, _, _, indices in entries:
            path = [tree]
            for index in indices:
                path.append(mcts._get_or_create(path[-1], index))
            mcts.backpropagate(path, value)
            path[-1].terminal_count += 1
    return len(upper), len(penalized)


def read_every_node(node: SearchNode) -> None:
    """Read ``children`` all the way down, so every pending path is handed down."""
    for child in node.children.values():
        read_every_node(child)


def assert_consistent(node: SearchNode) -> None:
    """The visit-count identity over a whole subtree: visits == child visits + terminals."""
    child_visits = sum(c.visits for c in node.children.values())
    if node.visits != child_visits + node.terminal_count:
        raise AssertionError(
            f"node {node.space.key!r}: visits {node.visits} != "
            f"children {child_visits} + terminals {node.terminal_count}"
        )
    for child in node.children.values():
        assert_consistent(child)


@contextmanager
def consistent_playouts():
    """Within the block, assert the visit identity of the whole tree after every playout.

    Patches ``mcts._playout``, so the ``learn_depth`` walks are checked
    as well as the main loop. Yields a list that gets one entry per
    playout: whether it measured (False when the budget refused it).
    """
    playout = mcts._playout
    playouts: list[bool] = []

    def checked(path, session):
        measured = playout(path, session)
        assert_consistent(path[0])
        playouts.append(measured is not None)
        return measured

    with mock.patch.object(mcts, "_playout", checked):
        yield playouts


def scripted_phase_end(script, **knobs) -> tuple[str, int]:
    """How ``mcts.search``'s first phase ends, and after how many playouts.

    Each playout measures the next ``(key, fresh, improved)`` of
    ``script``; ``knobs`` are ``MctsParams`` fields, and the depth-learning
    walks are skipped. One fresh, improving playout of a new key follows
    the script, then the iteration budget ends the run, so a phase the
    script does not end ends as ``("global_budget", len(script) + 1)``.
    """
    measured = iter([*script, ("after the script", True, True)])

    def playout(path, session):
        key, fresh, improved = next(measured)
        session.count_iteration()
        record = SimpleNamespace(key=key)
        if improved:
            session.best = record
        return record, fresh

    evaluator = CachedEvaluator(SyntheticLandscape(seed=1))
    session = SearchSession(evaluator, Budget(max_iterations=len(script) + 1), simulated=True)
    params, rngs = mcts.MctsParams(**knobs), (random.Random(1), random.Random(2))
    with mock.patch.object(mcts, "learn_depth", lambda *args: 1), mock.patch.object(
        mcts, "_playout", playout
    ), mock.patch.object(mcts, "logger") as logger:
        root = space.root_node(chain_nest(2), SpaceParams())
        mcts.search(session, root, RewardParams(), params, *rngs)
    first = logger.debug.call_args_list[0].args[1]
    return first["ended"], first["iterations"]
