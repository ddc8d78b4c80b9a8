"""Random, breadth-first, and greedy baselines on small spaces."""

import random
from pathlib import Path

import pytest

from pragmatune.baselines import breadth_first, global_greedy, random_search
from pragmatune.evaluators import (
    CachedEvaluator,
    CompileFailure,
    SyntheticLandscape,
    Time,
)
from pragmatune.loops import Reverse, Unroll, load_loop_nest
from pragmatune.session import Budget, SearchSession
from pragmatune.space import SpaceParams, child_count, root_node

from helpers import chain_nest

TINY_SPACE = SpaceParams(
    tile_sizes=(2,), unroll_factors=(2,), peel_variants=(False,), d_max=3
)
# Reverse/parallelize/full-unroll combinations only: without tiling no
# new loops appear, so the space is finite even for bf and gg, which
# do not stop at d_max.
FINITE_SPACE = SpaceParams(
    tile_sizes=(), unroll_factors=(), peel_variants=(False,), d_max=9
)


DEMO_NEST_TEXT = (Path(__file__).resolve().parent.parent / "demos" / "matscale_nest.json").read_text()


def make_session(evaluator, **budget):
    return SearchSession(
        CachedEvaluator(evaluator),
        Budget(**budget),
        method="test",
        simulated=True,
    )


class TestRandomSearch:
    def test_respects_the_unique_budget(self):
        session = make_session(SyntheticLandscape(seed=1), max_unique=12)
        root = root_node(chain_nest(2), SpaceParams(d_max=4))
        random_search(session, root, random.Random(0))
        assert session.unique_evaluations == 12
        assert len(session.records) == 13
        assert session.best.h == max(r.h for r in session.records if r.h is not None)
        assert session.stop_reason == "unique_budget"

    def test_iteration_cap_ends_a_saturated_space(self):
        # One transformable loop and only a reverse available: two unique
        # configurations exist beyond the root, so only the iteration cap
        # can end the run.
        params = SpaceParams(
            tile_sizes=(2,), unroll_factors=(), peel_variants=(False,), d_max=2
        )
        session = make_session(
            SyntheticLandscape(seed=2, failure_rate=0.0),
            max_unique=100,
            max_iterations=40,
        )
        random_search(session, root_node(chain_nest(1), params), random.Random(1))
        assert session.iterations == 40
        assert session.unique_evaluations < 40
        assert session.stop_reason == "iterations"

    def test_depths_span_one_to_d_max(self):
        session = make_session(SyntheticLandscape(seed=3, failure_rate=0.0), max_unique=60)
        root = root_node(chain_nest(2, arrays=("A",)), SpaceParams(d_max=3))
        random_search(session, root, random.Random(2))
        depths = {r.config.depth for r in session.records}
        assert depths == {0, 1, 2, 3}


class TestBreadthFirst:
    def test_visits_level_one_in_child_index_order(self):
        level_one = child_count(root_node(chain_nest(1), TINY_SPACE))
        session = make_session(SyntheticLandscape(seed=4), max_unique=level_one)
        breadth_first(session, root_node(chain_nest(1), TINY_SPACE))
        history = session.records
        keys = [r.key for r in history[1:]]
        assert keys == [
            "tile(i0;2;nopeel)",
            "parallelize(i0)",
            "unroll(i0;full)",
            "unroll(i0;2)",
            "reverse(i0)",
        ]
        assert all(
            a.config.depth <= b.config.depth
            for a, b in zip(history[1:], history[2:])
        )

    def test_failed_configurations_still_expand(self):
        def fail_reverse(config):
            if any(isinstance(s, Reverse) for s in config.steps):
                return CompileFailure("no")
            return Time(1.0)

        session = make_session(fail_reverse, max_unique=40)
        breadth_first(session, root_node(chain_nest(1), TINY_SPACE))
        # Children of the failing reverse(i0) node were still measured.
        assert any(
            r.key.startswith("reverse(i0)|") for r in session.records
        )

    def test_exhausts_a_finite_space_and_stops(self):
        session = make_session(
            SyntheticLandscape(seed=6, failure_rate=0.0), max_unique=10_000
        )
        breadth_first(session, root_node(chain_nest(1), FINITE_SPACE))
        history = session.records
        assert session.unique_evaluations < 20
        assert len({r.key for r in history}) == len(history)
        assert session.stop_reason == "space_exhausted"


class TestGlobalGreedy:
    def test_expands_the_best_node_first(self):
        # unroll(i0;2) is made fastest at depth one, so its children are
        # measured before any other depth-two configuration.
        landscape = SyntheticLandscape(
            seed=7,
            failure_rate=0.0,
            multipliers={("unroll", 2): 0.2},
            interaction_range=(1.0, 1.0),
        )
        session = make_session(landscape, max_unique=10)
        global_greedy(session, root_node(chain_nest(1), TINY_SPACE))
        history = session.records
        level_one = [r for r in history if r.config.depth == 1]
        first_deep = next(r for r in history if r.config.depth == 2)
        assert first_deep.config.steps[0] == Unroll("i0", 2)
        assert len(level_one) == 5

    def test_failures_are_abandoned(self):
        def fail_deep_unrolls(config):
            if any(isinstance(s, Unroll) for s in config.steps):
                return CompileFailure("no")
            return Time(1.0 / (1.0 + config.depth))

        session = make_session(fail_deep_unrolls, max_unique=200)
        global_greedy(session, root_node(chain_nest(1), TINY_SPACE))
        unroll_keys = [r.key for r in session.records if "unroll" in r.key]
        # Unroll nodes are measured once as children but never expanded.
        assert unroll_keys
        assert not any("unroll" in k.split("|")[0] and "|" in k for k in unroll_keys)

    def test_budget_is_respected(self):
        session = make_session(SyntheticLandscape(seed=8), max_unique=17)
        global_greedy(session, root_node(chain_nest(2), SpaceParams()))
        assert session.unique_evaluations == 17
        assert len(session.records) == 18
        assert session.stop_reason == "unique_budget"

    def test_exhausts_a_finite_space_and_stops(self):
        session = make_session(
            SyntheticLandscape(seed=6, failure_rate=0.0), max_unique=10_000
        )
        global_greedy(session, root_node(chain_nest(1), FINITE_SPACE))
        assert session.unique_evaluations < 20
        assert session.stop_reason == "space_exhausted"


class TestSharedBehavior:
    def test_all_methods_count_the_root_once(self):
        for runner in (
            lambda s: random_search(s, root_node(chain_nest(1), TINY_SPACE), random.Random(0)),
            lambda s: breadth_first(s, root_node(chain_nest(1), TINY_SPACE)),
            lambda s: global_greedy(s, root_node(chain_nest(1), TINY_SPACE)),
        ):
            session = make_session(
                SyntheticLandscape(seed=9), max_unique=6, max_iterations=50
            )
            runner(session)
            best, history = session.best, session.records
            assert history[0].key == ""
            assert history[0].h == 1.0
            assert [r.iteration for r in history] == list(range(len(history)))
            assert best.h >= 1.0 or all(r.h is None for r in history[1:])

    @pytest.mark.parametrize(
        "search",
        [lambda s, root: random_search(s, root, random.Random(0)), breadth_first, global_greedy],
        ids=["rs", "bf", "gg"],
    )
    def test_a_root_without_children_exhausts_the_space(self, search):
        nest = load_loop_nest('{"loops": [{"id": "i", "transformable": false}]}')
        # The iteration cap only keeps a regression from hanging the suite.
        session = make_session(SyntheticLandscape(seed=1), max_iterations=50)
        search(session, root_node(nest, SpaceParams()))
        assert session.unique_evaluations == 0
        assert session.stop_reason == "space_exhausted"


class TestIterationBudget:
    @pytest.mark.parametrize("search", [breadth_first, global_greedy], ids=["bf", "gg"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_n_iterations_measure_n_fresh_configurations(self, search, n):
        session = make_session(SyntheticLandscape(seed=1), max_unique=100, max_iterations=n)
        search(session, root_node(load_loop_nest(DEMO_NEST_TEXT), SpaceParams()))
        assert session.unique_evaluations == session.iterations == n
        assert session.stop_reason == "iterations"
