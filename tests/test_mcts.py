"""Tree search: UCT scoring, phases, depth learning, history transfer."""

import gc
import hashlib
import importlib
import logging
import math
import random
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragmatune import mcts, space
from pragmatune.errors import RootEvaluationError
from pragmatune.harness import ExperimentConfig, load_experiment_config, run_experiment
from pragmatune.evaluators import (
    CachedEvaluator,
    CompileFailure,
    SyntheticLandscape,
    Time,
)
from pragmatune.loops import (
    Configuration,
    Interchange,
    Loop,
    LoopNest,
    Reverse,
    Tile,
    Unroll,
    load_loop_nest,
)
from pragmatune.mcts import (
    MctsParams,
    SearchNode,
    apply_transfer,
    backpropagate,
    expand,
    learn_depth,
    search,
    select,
)
from pragmatune.reward import (
    RankedHistory,
    RewardParams,
    TargetState,
    penalty_filter,
    quantile_split,
)
from pragmatune.session import Budget, SearchSession
from pragmatune.space import SpaceParams, root_node

from helpers import (
    assert_consistent,
    chain_nest,
    consistent_playouts,
    counting,
    eager_transfer,
    eval_record,
    first_divergence,
    make_root,
    random_nest,
    random_params,
    ranked_history,
    read_every_node,
    scripted_phase_end,
    uct_score,
)
from test_pinned_logs import CHAIN3_NEST, DEMO_EXPERIMENT, LONG_DEMO_BUDGET, PINNED_RESTARTS

SMALL_SPACE = SpaceParams(
    tile_sizes=(2, 4), unroll_factors=(2,), peel_variants=(False,), d_max=3
)
DEFAULT_REWARD = RewardParams()


@pytest.fixture
def checked():
    """Every playout of the test checks its tree's visit identity."""
    with consistent_playouts() as playouts:
        yield playouts


def stub_node(visits, total_reward):
    node = SearchNode(None, 0)
    node.visits = visits
    node.total_reward = total_reward
    return node


def make_session(evaluator, max_unique=50, **budget_overrides):
    return SearchSession(
        CachedEvaluator(evaluator),
        Budget(max_unique=max_unique, **budget_overrides),
        method="mcts",
        simulated=True,
    )


def flat_landscape(**kwargs):
    return SyntheticLandscape(
        seed=0,
        failure_rate=0.0,
        multiplier_range=(1.0, 1.0),
        interaction_range=(1.0, 1.0),
        **kwargs,
    )


def depth_rewarding_evaluator(config):
    """Deeper configurations run strictly faster; h = 1 + depth/10."""
    return Time(1.0 / (1.0 + config.depth / 10.0))


MCTS_COUNTS = ("per_run_budget", "n_walks", "no_improve_limit", "same_config_limit")


class TestMctsParams:
    @pytest.mark.parametrize("field", MCTS_COUNTS)
    def test_a_count_below_one_is_rejected_by_name(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            MctsParams(**{field: 0})
        assert getattr(MctsParams(**{field: 1}), field) == 1


class TestUctScore:
    def test_frozen_hand_value(self):
        # mean 0.5, parent visits 8, child visits 2, c = 0.1:
        # 0.5 + 0.2 * sqrt(2 ln 8 / 2)
        child = stub_node(visits=2, total_reward=1.0)
        assert uct_score(child, 8, 0.1) == pytest.approx(
            0.7884053773201767, abs=1e-9
        )

    def test_second_frozen_value(self):
        child = stub_node(visits=1, total_reward=1.0)
        assert uct_score(child, 3, 0.1) == pytest.approx(
            1.2964607614735022, abs=1e-9
        )

    def test_zero_c_is_pure_exploitation(self):
        child = stub_node(visits=4, total_reward=3.0)
        assert uct_score(child, 100, 0.0) == 0.75

    def test_unvisited_child_wins_outright(self):
        assert uct_score(stub_node(0, 0.0), 10, 0.1) == math.inf

    def test_more_parent_visits_raise_the_score(self):
        child = stub_node(visits=2, total_reward=0.0)
        assert uct_score(child, 16, 0.1) > uct_score(child, 8, 0.1)

    def test_more_child_visits_lower_the_exploration_term(self):
        a = stub_node(visits=2, total_reward=0.0)
        b = stub_node(visits=8, total_reward=0.0)
        assert uct_score(a, 16, 0.1) > uct_score(b, 16, 0.1)


def fully_expanded_root():
    tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
    rng = random.Random(0)
    for _ in range(tree.n_children):
        expand(tree, rng)
    return tree


class TestSelect:
    def test_stops_immediately_when_children_unexpanded(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        assert select(tree, 3, 0.1) == [tree]

    def test_ties_break_to_the_lowest_index(self):
        tree = fully_expanded_root()
        for child in tree.children.values():
            child.visits, child.total_reward = 1, 0.0
        tree.visits = tree.n_children
        path = select(tree, 1, 0.1)
        assert len(path) == 2
        assert path[1] is tree.children[0]

    def test_higher_mean_wins(self):
        tree = fully_expanded_root()
        for child in tree.children.values():
            child.visits, child.total_reward = 1, 0.0
        tree.children[3].total_reward = 1.0
        tree.visits = tree.n_children
        path = select(tree, 1, 0.1)
        assert path[1] is tree.children[3]

    def test_stops_at_target_depth(self):
        tree = fully_expanded_root()
        for child in tree.children.values():
            child.visits, child.total_reward = 1, 0.0
        tree.visits = tree.n_children
        assert select(tree, 0, 0.1) == [tree]

    def test_exploration_revisits_the_neglected_child(self):
        tree = fully_expanded_root()
        # children[0] looks best on mean but has been hammered; with a
        # large enough c the rarely tried children[1] must win.
        for index, child in tree.children.items():
            child.visits, child.total_reward = (50, 30.0) if index == 0 else (1, 0.5)
        tree.visits = sum(c.visits for c in tree.children.values())
        assert select(tree, 1, 5.0)[1] is tree.children[1]
        assert select(tree, 1, 0.0)[1] is tree.children[0]


class TestExpand:
    def test_materializes_every_child_exactly_once(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        rng = random.Random(1)
        seen = {expand(tree, rng).space.key for _ in range(tree.n_children)}
        assert len(seen) == tree.n_children
        with pytest.raises(ValueError):
            expand(tree, rng)

    def test_child_stats_start_at_zero(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        child = expand(tree, random.Random(2))
        assert (child.visits, child.total_reward, child.terminal_count) == (0, 0.0, 0)


class TestReferenceEquality:
    """``select`` and ``expand`` agree with their definitions on random inputs."""

    @settings(max_examples=100)
    @given(rng=st.randoms(use_true_random=True), c=st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    def test_select_takes_the_uct_argmax_ties_to_the_lower_index(self, rng, c):
        tree = fully_expanded_root()
        for child in tree.children.values():
            child.visits = rng.randint(1, 6)
            # Whole rewards make equal means, and so tied scores, common.
            child.total_reward = float(rng.randint(-child.visits, child.visits))
        if rng.random() < 0.3:
            tree.children[rng.randrange(tree.n_children)].visits = 0  # wins outright
        tree.visits = rng.choice([0, 1, rng.randint(2, 60)])
        scores = [uct_score(tree.children[i], max(tree.visits, 1), c) for i in range(tree.n_children)]
        expected = max(range(tree.n_children), key=lambda i: (scores[i], -i))
        assert select(tree, 1, c)[1] is tree.children[expected]

    @settings(max_examples=100)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_expand_draws_what_the_list_based_rule_draws(self, data, seed):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        n = tree.n_children
        expanded = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        for index in expanded:
            mcts._get_or_create(tree, index)
        ours, reference = random.Random(seed), random.Random(seed)
        unexpanded = [i for i in range(n) if i not in expanded]
        expected = unexpanded[reference.randrange(len(unexpanded))]
        assert expand(tree, ours) is tree.children[expected]
        assert ours.getstate() == reference.getstate()


class TestBackpropagate:
    def test_adds_along_the_path(self):
        nodes = [stub_node(0, 0.0) for _ in range(3)]
        backpropagate(nodes, -1.0)
        backpropagate(nodes[:2], 1.0)
        assert [n.visits for n in nodes] == [2, 2, 1]
        assert [n.total_reward for n in nodes] == [0.0, 0.0, -1.0]


class TestAssertConsistent:
    def test_accepts_a_consistent_tree(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        child = expand(tree, random.Random(0))
        backpropagate([tree, child], 1.0)
        child.terminal_count += 1
        assert_consistent(tree)

    def test_rejects_an_unbalanced_tree(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        expand(tree, random.Random(0))
        tree.visits = 5
        with pytest.raises(AssertionError, match="visits"):
            assert_consistent(tree)


def stalls(n: int, prefix: str = "k") -> list[tuple[str, bool, bool]]:
    """``n`` fresh playouts of new keys, none of them improving."""
    return [(f"{prefix}{k}", True, False) for k in range(n)]


def repeats(key: str, n: int) -> list[tuple[str, bool, bool]]:
    """``n`` playouts of ``key``: one fresh improvement, then cache hits."""
    return [(key, True, True)] + [(key, False, False)] * (n - 1)


# scripted_phase_end runs the phase loop itself on a written playout
# sequence; a phase the script does not end ends on the global budget
# one playout after it.
class TestConvergence:
    def test_no_improvement_needs_the_full_limit(self):
        assert scripted_phase_end(stalls(49)) == ("global_budget", 50)
        assert scripted_phase_end(stalls(50)) == ("no_improve", 50)

    def test_improvement_resets_the_run(self):
        script = stalls(2, "a") + [("c", True, True)] + stalls(2, "d")
        assert scripted_phase_end(script, no_improve_limit=3) == ("global_budget", 6)
        script += stalls(1, "e")
        assert scripted_phase_end(script, no_improve_limit=3) == ("no_improve", 6)

    def test_same_configuration_needs_the_full_window(self):
        assert scripted_phase_end(repeats("same", 9)) == ("global_budget", 10)
        assert scripted_phase_end(repeats("same", 10)) == ("same_config", 10)

    def test_one_different_key_breaks_the_window(self):
        script = repeats("same", 9) + repeats("other", 9)
        assert scripted_phase_end(script) == ("global_budget", 19)
        script.append(("other", False, False))
        assert scripted_phase_end(script) == ("same_config", 19)

    def test_cache_hits_advance_keys_but_not_the_run(self):
        script = stalls(1, "a") + [("x", False, False)] * 3
        # The key run tripped at the third hit; the stall run stayed at 1.
        assert scripted_phase_end(script, no_improve_limit=2, same_config_limit=3) == (
            "same_config",
            4,
        )

    def test_a_stall_is_tested_before_a_repeat(self):
        both = dict(no_improve_limit=1, same_config_limit=1)
        assert scripted_phase_end(stalls(1), **both) == ("no_improve", 1)


@pytest.mark.usefixtures("checked")
class TestLearnDepth:
    def test_all_ties_pick_the_first_walk(self):
        params = MctsParams()
        session = make_session(flat_landscape())
        session.evaluate_root()
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        session.target = TargetState(DEFAULT_REWARD)
        d_star = learn_depth(tree, session, params, random.Random(5))
        # Every walk backpropagates through the root exactly once.
        assert tree.visits == params.n_walks
        # A walk's first success is fresh, so it is the first successful record.
        first_success = next(r for r in session.records[1:] if r.h is not None)
        assert d_star == max(1, first_success.depth)
        assert_consistent(tree)

    def test_best_walk_sets_the_depth(self):
        params = MctsParams()
        session = make_session(depth_rewarding_evaluator)
        session.evaluate_root()
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        session.target = TargetState(DEFAULT_REWARD)
        d_star = learn_depth(tree, session, params, random.Random(7))
        walked = session.records[1:]  # one record per distinct walk end
        best = max((r for r in walked if r.h is not None), key=lambda r: r.h)
        assert d_star == best.depth
        assert d_star == max(r.depth for r in walked)

    def test_every_walk_failing_falls_back_to_depth_one(self):
        def all_fail(config):
            return Time(1.0) if not config.steps else CompileFailure("no")

        params = MctsParams()
        session = make_session(all_fail)
        session.evaluate_root()
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        session.target = TargetState(DEFAULT_REWARD)
        d_star = learn_depth(tree, session, params, random.Random(3))
        assert d_star == 1
        assert tree.visits == params.n_walks
        assert all(r.h is None for r in session.records[1:])

    def test_budget_stops_the_walks(self):
        params = MctsParams()
        session = make_session(flat_landscape(), max_unique=3)
        session.evaluate_root()
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        session.target = TargetState(DEFAULT_REWARD)
        learn_depth(tree, session, params, random.Random(1))
        assert session.unique_evaluations <= 3
        assert tree.visits <= params.n_walks


def history_from(entries):
    """entries: (steps, h) pairs; h None means a compile failure."""
    out = [eval_record(Configuration(), Time(1.0), 1.0, 0, 0)]
    for k, (steps, h) in enumerate(entries, start=1):
        outcome = Time(1.0 / h) if h is not None else CompileFailure("x")
        out.append(eval_record(Configuration(tuple(steps)), outcome, h, k, 0))
    return out


class TestApplyTransfer:
    def test_upper_tail_reinforced_lower_tail_penalized(self):
        reward_params = RewardParams(alpha=0.05)
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        history = history_from(
            [
                ([Reverse("i0")], 9.0),
                ([Unroll("i0", 2)], 0.5),
            ]
        )
        history = ranked_history(history, root_node(chain_nest(1), SMALL_SPACE))
        assert apply_transfer(tree, history, reward_params) == (1, 1)
        assert_consistent(tree)
        by_key = {c.space.key: c for c in tree.children.values()}
        assert by_key["reverse(i0)"].total_reward == 1.0
        assert by_key["reverse(i0)"].terminal_count == 1
        assert by_key["unroll(i0;2)"].total_reward == reward_params.r_penalty
        assert tree.visits == 2 and tree.total_reward == 0.0

    def test_shared_identity_escapes_the_penalty(self):
        reward_params = RewardParams(alpha=0.05)
        root = root_node(chain_nest(1), SMALL_SPACE)
        tree = make_root(root)
        # The slow record tiles like the fast one, so it is not punished.
        history = history_from(
            [
                ([Unroll("i0", 2), Reverse("i0")], 9.0),
                ([Unroll("i0", 2)], 0.5),
            ]
        )
        apply_transfer(tree, ranked_history(history, root), reward_params)
        by_key = {c.space.key: c for c in tree.children.values()}
        assert by_key["unroll(i0;2)"].total_reward >= 1.0  # prefix of the upper path
        assert all(c.total_reward >= 0.0 for c in tree.children.values())

    def test_root_only_history_touches_only_the_tree_root(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        history = ranked_history(history_from([]), root_node(chain_nest(1), SMALL_SPACE))
        apply_transfer(tree, history, DEFAULT_REWARD)
        assert tree.visits == 1 and tree.children == {}

    def test_no_successes_means_no_transfer(self):
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        failures = [
            eval_record(Configuration((Reverse("i0"),)), CompileFailure("x"), None, 1, 0)
        ]
        history = ranked_history(failures, root_node(chain_nest(1), SMALL_SPACE))
        assert apply_transfer(tree, history, DEFAULT_REWARD) == (0, 0)
        assert tree.visits == 0 and tree.children == {}

    def test_transfer_never_calls_the_evaluator(self):
        calls = []
        session = make_session(counting(flat_landscape(), calls), max_unique=10)
        session.evaluate_root()
        for k, steps in enumerate(([Reverse("i0")], [Unroll("i0", 2)]), start=1):
            session.measure(Configuration(tuple(steps)))
        calls_before = len(calls)
        tree = make_root(root_node(chain_nest(1), SMALL_SPACE))
        history = ranked_history(session.records, root_node(chain_nest(1), SMALL_SPACE))
        apply_transfer(tree, history, DEFAULT_REWARD)
        assert len(calls) == calls_before
        assert tree.visits > 0  # the replayed paths really landed


# Depth-2 and depth-3 records on chain_nest(2); with alpha 0.4 the two
# fastest are reinforced and the two slowest, which share no pragma
# identity with them, are penalized.
DEEP_HISTORY = [
    ([Reverse("i0"), Unroll("i1", 2), Reverse("i1")], 9.0),
    ([Reverse("i0"), Unroll("i1", 2)], 8.0),
    ([Interchange("i0", (1, 0)), Tile("i1", 2)], 0.5),
    ([Tile("i0", 4), Interchange("i0.f", (1, 0, 2, 3))], 0.25),
]


def assert_children_extend_their_parent(node):
    for index, child in node.children.items():
        step = space.child_transformation(node.space, index)
        assert child.space.config == node.space.config.extended(step)
        assert child.depth == node.depth + 1 == child.space.depth
        assert_children_extend_their_parent(child)


class TestLazyTree:
    def test_a_dropped_tree_leaves_no_garbage_cycle(self):
        reward_params = RewardParams(alpha=0.4)
        history = ranked_history(history_from(DEEP_HISTORY), root_node(chain_nest(2), SMALL_SPACE))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            tree = make_root(root_node(chain_nest(2), SMALL_SPACE))
            apply_transfer(tree, history, reward_params)
            rng = random.Random(0)
            for _ in range(3):
                expand(tree, rng).space
            assert_children_extend_their_parent(tree)
            del tree
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_replayed_nodes_build_their_records_prefixes(self):
        reward_params = RewardParams(alpha=0.4)
        history = ranked_history(history_from(DEEP_HISTORY), root_node(chain_nest(2), SMALL_SPACE))
        tree = make_root(root_node(chain_nest(2), SMALL_SPACE))
        # Every non-root record is replayed, from the path its entry carries.
        assert apply_transfer(tree, history, reward_params) == (2, 2)
        for _, _, record, path in history.entries()[1:]:
            node = tree
            for depth, index in enumerate(path, start=1):
                node = node.children[index]
                assert node.space.config == Configuration(record.config.steps[:depth])
            assert node.space.key == record.key
        assert_consistent(tree)
        assert_children_extend_their_parent(tree)

    def test_restart_run_builds_each_node_state_once(self, monkeypatch):
        census_nests = []
        apply_calls = []
        child_index_calls = []
        handed = []

        class CountingCensus(space._Census):
            __slots__ = ()

            def __init__(self, nest, params):
                census_nests.append(nest)  # kept alive, so ids stay unique
                super().__init__(nest, params)

        def counting_apply(nest, step, apply=space.apply):
            apply_calls.append(step)
            return apply(nest, step)

        def counting_child_index(node, step, params, child_index=space.child_index):
            child_index_calls.append(step)
            return child_index(node, step)

        def recording_transfer(tree, history, reward_params, apply_transfer=mcts.apply_transfer):
            lower, upper = quantile_split(history, reward_params.alpha)
            penalized = penalty_filter(lower, upper)
            tails = [(e[3], 1.0) for e in upper]
            tails += [(e[3], reward_params.r_penalty) for e in penalized]
            counts = apply_transfer(tree, history, reward_params)
            # The root keeps every transferred path but its own (the empty one) pending.
            assert tree._pending == [entry for entry in tails if entry[0]]
            assert tree.terminal_count == len(tails) - len(tree._pending)
            handed.extend(path for path, _ in tree._pending)
            return counts

        restarts = []
        census_phases = defaultdict(list)

        def counting_transfer(*args):
            restarts.append(None)
            return recording_transfer(*args)

        def recording_census(node, census=space._census):
            if node.census is None:
                census_phases[node.depth, node.key].append(len(restarts))
            return census(node)

        monkeypatch.setattr(space, "_census", recording_census)
        monkeypatch.setattr(space, "_Census", CountingCensus)
        monkeypatch.setattr(space, "apply", counting_apply)
        monkeypatch.setattr(space, "child_index", counting_child_index)
        monkeypatch.setattr(mcts, "apply_transfer", counting_transfer)

        nest = chain_nest(3, arrays=("A", "B"))
        params = MctsParams(per_run_budget=60, n_walks=10)
        session = make_session(SyntheticLandscape(seed=1), max_unique=600)
        rngs = random.Random(1), random.Random(2)
        search(session, root_node(nest, SpaceParams()), DEFAULT_REWARD, params, *rngs)
        phases = max(r.phase for r in session.records) + 1
        assert phases >= 5

        # One census per built space node: the run builds one root node
        # on the shared root nest, every other node is one apply.
        per_nest = Counter(id(n) for n in census_nests)
        assert per_nest.pop(id(nest)) == 1
        assert set(per_nest.values()) <= {1}
        assert len(census_nests) <= len(apply_calls) + 1
        # A node's nest is built only when its children are counted: one
        # apply per counted non-root node, none for uncounted leaves.
        assert len(apply_calls) == len(census_nests) - 1
        # Every phase reuses the root's children, so a root child's census
        # is built once per run; a deeper node's dies with its tree, so it
        # is built at most once per phase, and some are built again.
        assert len(restarts) == phases
        assert sum(map(len, census_phases.values())) == len(census_nests)
        for (depth, key), built in census_phases.items():
            assert built == sorted(set(built)), key
            assert depth > 1 or len(built) == 1, key
        assert any(len(built) > 1 for (depth, _), built in census_phases.items() if depth > 1)

        # A replayed record's path is the one its history entry carries (the
        # root's is empty): no path is computed, and every later phase reuses it.
        assert child_index_calls == []
        assert len(handed) > 2 * len(set(handed))

    def test_transfer_in_a_search_builds_no_space_node(self, monkeypatch):
        child_index_calls = []
        transfer_censuses = []
        transferring = False

        class CountingCensus(space._Census):
            __slots__ = ()

            def __init__(self, nest, params):
                if transferring:
                    transfer_censuses.append(nest)
                super().__init__(nest, params)

        def tracking_transfer(*args, apply_transfer=mcts.apply_transfer):
            nonlocal transferring
            transferring = True
            try:
                return apply_transfer(*args)
            finally:
                transferring = False

        def counting_child_index(node, step, params, child_index=space.child_index):
            child_index_calls.append(step)
            return child_index(node, step)

        monkeypatch.setattr(space, "_Census", CountingCensus)
        monkeypatch.setattr(space, "child_index", counting_child_index)
        monkeypatch.setattr(mcts, "apply_transfer", tracking_transfer)

        session = make_session(SyntheticLandscape(seed=1), max_unique=600, max_iterations=60000)
        params = MctsParams(per_run_budget=60, n_walks=10)
        nest = load_loop_nest(CHAIN3_NEST)
        rngs = random.Random(1), random.Random(2)
        search(session, root_node(nest, SpaceParams()), DEFAULT_REWARD, params, *rngs)
        assert max(r.phase for r in session.records) >= 4
        assert child_index_calls == []
        assert transfer_censuses == []

    def test_a_root_child_lives_for_the_run_and_a_deeper_node_dies_with_its_tree(self):
        nodes = mcts._SpaceNodes(root_node(chain_nest(2), SMALL_SPACE))
        was_enabled = gc.isenabled()
        gc.disable()  # reference counting alone must free the node
        try:
            tree = SearchNode(nodes.root, None, nodes)
            deep = mcts._get_or_create(mcts._get_or_create(tree, 1), 0)
            kept, dropped = weakref.ref(deep._parent().space), weakref.ref(deep.space)
            del tree, deep
            # The tree is gone, and with it the space node below depth 1.
            assert dropped() is None
            # Later trees get the root child back, built, even after phases
            # that never asked for it.
            for asks in (False, False, True):
                tree = SearchNode(nodes.root, None, nodes)
                assert kept() is not None
                if asks:
                    assert mcts._get_or_create(tree, 1).space is kept()
                    assert mcts._get_or_create(tree, 1).space.census is not None
        finally:
            if was_enabled:
                gc.enable()

    def test_an_ended_tree_is_freed_one_root_subtree_per_main_loop_playout(self, monkeypatch):
        ended = []  # per phase, weakrefs to its tree's root children
        main_loop = Counter()  # per phase, main-loop playouts begun
        playout, transfer = mcts._playout, mcts.apply_transfer

        def freed(phase):
            return sum(ref() is None for ref in ended[phase])

        def spy(path, session):
            phase = session.phases - 1
            if phase and sys._getframe(1).f_code.co_name != "learn_depth":
                main_loop[phase] += 1
                # Before its k-th main-loop playout, a phase has freed k - 1
                # of the ended tree's root subtrees, and at most all of them.
                assert freed(phase - 1) == min(main_loop[phase] - 1, len(ended[phase - 1]))
            measured = playout(path, session)
            # This phase's entry, appended at its first playout.
            ended[phase:] = [[weakref.ref(child) for child in path[0]._children.values()]]
            return measured

        def checking_transfer(tree, *args):
            # A restart frees nothing of the tree that just ended, and finds
            # no tree before it alive.
            assert all(freed(phase) == len(refs) for phase, refs in enumerate(ended[:-1]))
            assert ended == [] or freed(len(ended) - 1) == 0
            return transfer(tree, *args)

        monkeypatch.setattr(mcts, "_playout", spy)
        monkeypatch.setattr(mcts, "apply_transfer", checking_transfer)
        was_enabled = gc.isenabled()
        gc.disable()  # reference counting alone must free the tree
        try:
            session = make_session(SyntheticLandscape(seed=1), max_unique=600)
            params = MctsParams(per_run_budget=30, n_walks=10)
            nest = chain_nest(3, arrays=("A", "B"))
            rngs = random.Random(1), random.Random(2)
            search(session, root_node(nest, SpaceParams()), DEFAULT_REWARD, params, *rngs)
        finally:
            if was_enabled:
                gc.enable()
        assert session.phases == len(ended)
        # Some phase freed all of its ended tree, and some restart freed
        # what a short phase left of one.
        counts = [(main_loop[phase + 1], len(refs)) for phase, refs in enumerate(ended[:-1])]
        assert any(playouts >= children > 1 for playouts, children in counts)
        assert any(playouts < children for playouts, children in counts[:-1])

    @settings(max_examples=40)
    @given(st.randoms(use_true_random=True))
    def test_handed_on_nodes_leave_the_log_unchanged(self, rng):
        nest = random_nest(rng)
        space_params = random_params(rng, d_max=3)
        params = MctsParams(per_run_budget=6, n_walks=3)
        seeds = rng.randrange(2**32), rng.randrange(2**32), rng.randrange(2**32)

        def run():
            session = make_session(
                SyntheticLandscape(seed=seeds[0]), max_unique=30, max_iterations=600
            )
            rngs = random.Random(seeds[1]), random.Random(seeds[2])
            search(session, root_node(nest, space_params), DEFAULT_REWARD, params, *rngs)
            return [r.to_dict() for r in session.records]

        def always_miss(nodes, parent, index):
            return space.child(parent, index)

        handed_on = run()
        with mock.patch.object(mcts._SpaceNodes, "child", always_miss):
            assert run() == handed_on


def count_search_nodes(monkeypatch) -> list:
    """A list that gets one entry per ``SearchNode`` built from now on."""
    built = []
    init = SearchNode.__init__

    def counting_init(node, *args):
        built.append(None)
        init(node, *args)

    monkeypatch.setattr(SearchNode, "__init__", counting_init)
    return built


def random_history(rng, root):
    """The space's root, then records at the ends of random walks, each with its path.

    Outcomes mix failures, tied and untied speedups; a configuration may
    repeat, so paths share prefixes and whole paths recur.
    """
    history = RankedHistory()
    history.add(eval_record(root.config, Time(1.0), 1.0, 0, 0), ())
    for k in range(1, rng.randint(1, 40)):
        node, path = root, []
        for _ in range(rng.randint(1, root.params.d_max)):
            n = space.child_count(node)
            if n == 0:
                break
            path.append(rng.randrange(n))
            node = space.child(node, path[-1])
        h = rng.choice([None, 0.5, 1.0, 2.0, rng.uniform(0.1, 10.0)])
        outcome = CompileFailure("x") if h is None else Time(1.0 / h)
        history.add(eval_record(node.config, outcome, h, k, 0), tuple(path))
    return history


def node_stats(node):
    """A node's depth and statistics, its summed reward bit for bit."""
    return node.depth, node.visits, node.total_reward.hex(), node.terminal_count


def assert_same_tree(lazy, eager):
    """Equal statistics and children at the same indices, in the same order."""
    assert node_stats(lazy) == node_stats(eager)
    assert list(lazy.children) == list(eager.children)
    for index, child in lazy.children.items():
        assert child.index == index
        assert_same_tree(child, eager.children[index])


# Penalties whose sums depend on the order of their additions.
NON_DYADIC_PENALTIES = (-0.1, -0.3, -0.7, -1 / 3, -2.2)


class TestLazyTransfer:
    def test_transfer_builds_no_node_and_a_read_builds_one_level(self, monkeypatch):
        reward_params = RewardParams(alpha=0.4)
        history = ranked_history(history_from(DEEP_HISTORY), root_node(chain_nest(2), SMALL_SPACE))
        tree = make_root(root_node(chain_nest(2), SMALL_SPACE))
        built = count_search_nodes(monkeypatch)
        assert apply_transfer(tree, history, reward_params) == (2, 2)
        assert built == []
        assert (tree.visits, tree.terminal_count) == (4, 0)
        assert tree.total_reward == 2 * 1.0 + 2 * reward_params.r_penalty
        # The first read hands every path down one level, and no further.
        assert len(tree.children) == len(built) == 3
        assert all(child._pending for child in tree.children.values())
        read_every_node(tree)
        assert len(built) == 7  # one node per distinct non-empty path prefix
        assert_consistent(tree)

    def test_a_restart_run_builds_only_the_search_nodes_it_reads(self, monkeypatch):
        built = count_search_nodes(monkeypatch)
        in_transfer = []

        def counting_transfer(*args, apply_transfer=mcts.apply_transfer):
            before = len(built)
            counts = apply_transfer(*args)
            in_transfer.append(len(built) - before)
            return counts

        monkeypatch.setattr(mcts, "apply_transfer", counting_transfer)
        session = make_session(SyntheticLandscape(seed=1), max_unique=600)
        params = MctsParams(per_run_budget=60, n_walks=10)
        nest = chain_nest(3, arrays=("A", "B"))
        rngs = random.Random(1), random.Random(2)
        search(session, root_node(nest, SpaceParams()), DEFAULT_REWARD, params, *rngs)
        assert in_transfer == [0] * session.phases == [0] * 11
        # An eager replay of every path builds 2,288 here, 743 of them in the transfer.
        assert len(built) == 1880

    @settings(max_examples=80, deadline=None)
    @given(
        rng=st.randoms(use_true_random=True),
        r_penalty=st.sampled_from(NON_DYADIC_PENALTIES),
        alpha=st.sampled_from((0.05, 0.2, 0.45)),
    )
    def test_a_fully_read_tree_equals_the_eager_replay(self, rng, r_penalty, alpha):
        nest = random_nest(rng)
        reward_params = RewardParams(alpha=alpha, r_penalty=r_penalty)
        root = root_node(nest, random_params(rng, d_max=4))
        history = random_history(rng, root)
        lazy, eager = make_root(root), make_root(root)
        counts = apply_transfer(lazy, history, reward_params)
        assert counts == eager_transfer(eager, history, reward_params)
        assert_same_tree(lazy, eager)

    @pytest.mark.parametrize("r_penalty", [-1.0, -0.3])
    def test_reading_every_node_after_the_transfer_logs_the_same_records(
        self, monkeypatch, r_penalty
    ):
        def run():
            config = replace(restart_heavy_config(), reward=RewardParams(r_penalty=r_penalty))
            return [r.to_dict() for r in run_experiment(config).records]

        def reading_transfer(tree, history, reward_params, apply_transfer=mcts.apply_transfer):
            assert reward_params.r_penalty == r_penalty
            counts = apply_transfer(tree, history, reward_params)
            read_every_node(tree)
            return counts

        lazy = run()
        monkeypatch.setattr(mcts, "apply_transfer", reading_transfer)
        assert run() == lazy


def search_small(session, nest, walks_seed, expand_seed, **knobs):
    """``search`` over ``SMALL_SPACE`` with the default reward and ``MctsParams(**knobs)``."""
    rngs = random.Random(walks_seed), random.Random(expand_seed)
    search(session, root_node(nest, SMALL_SPACE), DEFAULT_REWARD, MctsParams(**knobs), *rngs)


@pytest.mark.usefixtures("checked")
class TestSearch:
    def test_budget_is_exhausted_exactly(self):
        session = make_session(SyntheticLandscape(seed=21), max_unique=40)
        search_small(session, chain_nest(2), 1, 2)
        assert session.unique_evaluations == 40
        assert len(session.records) == 41  # root plus the budget
        assert session.best.h == max(r.h for r in session.records if r.h is not None)
        assert session.stop_reason == "unique_budget"

    def test_search_is_deterministic(self):
        def run():
            session = make_session(SyntheticLandscape(seed=5), max_unique=30)
            search_small(session, chain_nest(2), 3, 4)
            return [(r.iteration, r.key, r.h) for r in session.records]

        assert run() == run()

    def test_root_failure_is_fatal(self):
        def broken(config):
            return CompileFailure("no baseline")

        session = make_session(broken)
        with pytest.raises(RootEvaluationError):
            search_small(session, chain_nest(1), 0, 0)

    def test_frozen_nest_stops_after_the_root(self):
        nest = LoopNest((Loop("i", transformable=False),))
        session = make_session(flat_landscape())
        search_small(session, nest, 0, 0)
        assert [r.key for r in session.records] == [""]
        assert session.best.h == 1.0
        assert session.stop_reason == "space_exhausted"

    def test_small_phases_restart_and_keep_history(self):
        session = make_session(SyntheticLandscape(seed=8), max_unique=25)
        search_small(session, chain_nest(2), 6, 7, per_run_budget=5, n_walks=2)
        history = session.records
        phases = {r.phase for r in history}
        assert len(phases) >= 3  # root phase plus several restarts
        assert [r.iteration for r in history] == list(range(len(history)))

    def test_invariants_hold_throughout_a_run(self, checked):
        session = make_session(SyntheticLandscape(seed=13), max_unique=30)
        search_small(session, chain_nest(2), 9, 10, per_run_budget=10)
        assert session.unique_evaluations == 30
        # Every counted iteration was a checked playout.
        assert checked.count(True) == session.iterations >= 30


def restart_heavy_config(out_dir=None):
    """The pinned restart-heavy run: chain3 nest, seed 1, 11 phases."""
    return ExperimentConfig(
        nest_text=CHAIN3_NEST,
        method="mcts",
        seed=1,
        budget=Budget(max_unique=600, max_iterations=60000),
        search=MctsParams(per_run_budget=60, n_walks=10),
        out_dir=out_dir,
    )


PHASE_ENDS = {"per_run_budget", "iteration_cap", "global_budget", "no_improve", "same_config"}


class TestRestartHeavyRun:
    def test_each_record_is_masked_once_not_once_per_phase(self, monkeypatch):
        reward_module = importlib.import_module("pragmatune.reward")
        identity = reward_module.pragma_identity
        calls = []
        monkeypatch.setattr(
            reward_module, "pragma_identity", lambda step: calls.append(step) or identity(step)
        )
        summary = run_experiment(restart_heavy_config())
        last = max(r.phase for r in summary.records)
        assert last == 10
        # Every record enters the history once, and its mask is computed
        # there: one identity per step, however many phases split it.
        assert calls == [step for r in summary.records for step in r.config.steps]
        per_phase = sum(r.depth for p in range(last + 1) for r in summary.records if r.phase < p)
        assert len(calls) < per_phase / 3

    def test_first_divergence_names_where_two_penalties_part(self):
        configs = [
            replace(restart_heavy_config(), reward=RewardParams(r_penalty=p)) for p in (-1.0, -0.3)
        ]
        logs = [run_experiment(config).records for config in configs]
        assert first_divergence(*logs) == (
            (170, 2, "tile(i;32;peel)|tile(i.f;8;peel)"),
            (170, 2, "unroll(i;8)|tile(i;4;peel)"),
        )
        assert first_divergence(logs[0], list(logs[0])) is None
        last = logs[1][-1]
        assert first_divergence(logs[1][:-1], logs[1]) == (
            None,
            (last.iteration, last.phase, last.key),
        )

    def test_one_debug_record_per_phase_leaves_the_log_pinned(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="pragmatune")
        summary = run_experiment(restart_heavy_config(str(tmp_path)))
        phases = [
            r.args for r in caplog.records if r.levelno == logging.DEBUG and r.funcName == "search"
        ]
        assert [p["phase"] for p in phases] == list(range(summary.phases)) == list(range(11))
        assert sum(p["fresh"] for p in phases) == summary.unique_evaluations
        assert all(p["iterations"] >= p["fresh"] and p["d_star"] >= 1 for p in phases)
        assert phases[0]["upper"] == 1 and phases[0]["penalized"] == 0  # the root alone
        assert all(p["upper"] >= 1 for p in phases)
        assert {p["ended"] for p in phases} <= PHASE_ENDS
        assert phases[-1]["ended"] == "global_budget"
        log_digest = hashlib.sha256((tmp_path / "log.jsonl").read_bytes()).hexdigest()
        assert log_digest == PINNED_RESTARTS[1][0]


# ROADMAP item 1's repro: one loop, a 15-configuration space.
REPRO_NEST = LoopNest((Loop("i"),))
REPRO_SPACE = SpaceParams(tile_sizes=(2,), unroll_factors=(), peel_variants=(False,), d_max=2)
CHAIN_RUN = (chain_nest(2), SpaceParams(d_max=3), Budget(max_unique=30))
NEVER = 10**6

# One small search per way a phase can end: nest, space, budget, knobs.
PHASE_END_RUNS = {
    "per_run_budget": (*CHAIN_RUN, dict(per_run_budget=5, n_walks=2)),
    "no_improve": (*CHAIN_RUN, dict(no_improve_limit=1)),
    "same_config": (*CHAIN_RUN, dict(same_config_limit=1)),
    "iteration_cap": (
        REPRO_NEST,
        REPRO_SPACE,
        Budget(max_unique=30, max_iterations=2000),
        dict(per_run_budget=20, no_improve_limit=NEVER, same_config_limit=NEVER),
    ),
    "global_budget": (*CHAIN_RUN, {}),
}


def run_phase_end_case(reason: str) -> tuple[SearchSession, MctsParams]:
    """Search ``PHASE_END_RUNS[reason]``; returns the session and the knobs."""
    nest, space_params, budget, knobs = PHASE_END_RUNS[reason]
    session = SearchSession(
        CachedEvaluator(SyntheticLandscape(seed=3)), budget, "mcts", simulated=True
    )
    params = MctsParams(**knobs)
    rngs = random.Random(1), random.Random(2)
    search(session, root_node(nest, space_params), DEFAULT_REWARD, params, *rngs)
    return session, params


def trace_playouts(monkeypatch) -> tuple[Counter, defaultdict]:
    """Spy on ``mcts._playout``, split by caller.

    Returns the count of ``learn_depth`` walks per phase, and per phase
    the main loop's measured playouts, each ``(key, fresh, improved)``;
    ``improved`` means the session's best changed.
    """
    walks, playouts = Counter(), defaultdict(list)
    playout = mcts._playout

    def spy(path, session):
        best, phase = session.best, session.phases - 1
        measured = playout(path, session)
        if measured is not None:
            if sys._getframe(1).f_code.co_name == "learn_depth":
                walks[phase] += 1
            else:
                playouts[phase].append((measured[0].key, measured[1], session.best is not best))
        return measured

    monkeypatch.setattr(mcts, "_playout", spy)
    return walks, playouts


def convergence_point(playouts, no_improve_limit: int, same_config_limit: int):
    """``(count, reason)`` at the first playout that reaches a convergence limit, else None.

    ``no_improve`` counts fresh playouts since the last improving one;
    ``same_config`` holds once the last ``same_config_limit`` keys are one key.
    """
    keys, stalled = [], 0
    for count, (key, fresh, improved) in enumerate(playouts, 1):
        keys.append(key)
        if fresh:
            stalled = 0 if improved else stalled + 1
        if stalled >= no_improve_limit:
            return count, "no_improve"
        if count >= same_config_limit and len(set(keys[-same_config_limit:])) == 1:
            return count, "same_config"
    return None


class TestPhaseEnd:
    @pytest.mark.parametrize("reason", sorted(PHASE_ENDS))
    def test_a_phase_record_names_the_test_that_ended_it(self, caplog, reason):
        caplog.set_level(logging.DEBUG, logger="pragmatune")
        session, params = run_phase_end_case(reason)
        phases = [r.args for r in caplog.records if r.funcName == "search"]
        ended = [p["ended"] for p in phases]
        assert reason in ended and set(ended) <= PHASE_ENDS
        assert sum(p["iterations"] for p in phases) == session.iterations
        if reason == "iteration_cap":
            cap = params.per_run_budget * mcts._PHASE_ITERATION_CAP_FACTOR
            assert all(p["iterations"] >= cap for p in phases[:-1])
        if reason != "per_run_budget":  # that run's last phase fills both budgets at once
            assert ended[-1] == "global_budget"

    @pytest.mark.parametrize("run", [*sorted(PHASE_ENDS), "long_demo"])
    def test_a_phase_converges_at_its_first_playout_past_a_limit(self, monkeypatch, caplog, run):
        caplog.set_level(logging.DEBUG, logger="pragmatune")
        walks, playouts = trace_playouts(monkeypatch)
        if run == "long_demo":  # its phase 5 ends on same_config at the default limit
            config = load_experiment_config(DEMO_EXPERIMENT)
            run_experiment(replace(config, seed=2, budget=LONG_DEMO_BUDGET))
            params = config.search
        else:
            params = run_phase_end_case(run)[1]
        phases = [r.args for r in caplog.records if r.funcName == "search"]
        for p in phases:
            main = playouts[p["phase"]]
            assert p["iterations"] == walks[p["phase"]] + len(main)
            point = convergence_point(main, params.no_improve_limit, params.same_config_limit)
            if p["ended"] in ("no_improve", "same_config"):
                assert point == (len(main), p["ended"])
            else:  # a budget test ended it, no later than a limit was reached
                assert point is None or point[0] == len(main)
        if run == "long_demo":
            assert [p["ended"] for p in phases].count("same_config") == 1

    def test_a_phase_runs_twenty_times_its_evaluation_budget_past_its_walks(self, caplog):
        # On the repro's 15 configurations, phase 1 measures all it can
        # find, then runs on cache hits to the cap.
        caplog.set_level(logging.DEBUG, logger="pragmatune")
        evaluator = CachedEvaluator(SyntheticLandscape(3))
        session = SearchSession(evaluator, Budget(max_iterations=5000), "mcts", simulated=True)
        params = MctsParams(per_run_budget=60)
        rngs = random.Random(1), random.Random(2)
        search(session, root_node(REPRO_NEST, REPRO_SPACE), DEFAULT_REWARD, params, *rngs)
        phase = [r.args for r in caplog.records if r.funcName == "search"][1]
        assert phase["ended"] == "iteration_cap"
        assert phase["iterations"] == params.n_walks + 20 * params.per_run_budget == 1210

    def test_the_summary_counts_a_phase_that_measures_nothing_fresh(self, caplog):
        caplog.set_level(logging.DEBUG, logger="pragmatune")
        config = ExperimentConfig(
            nest_text='{"loops": [{"id": "i"}]}',
            method="mcts",
            seed=1,
            budget=Budget(max_iterations=20000),
            space=REPRO_SPACE,
        )
        summary = run_experiment(config)
        phases = [r.args for r in caplog.records if r.funcName == "search"]
        # Most of the repro's phases find its 15 configurations all measured.
        assert len({r.phase for r in summary.records}) < len(phases)
        assert summary.phases == len(phases)
