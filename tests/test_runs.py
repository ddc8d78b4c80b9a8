"""Properties of whole runs, for every method, over random nests and spaces.

Each example draws a nest and a space (``helpers.random_nest`` and
``random_params``), a method from ``harness.METHODS`` and a small budget,
runs the search on the synthetic landscape, and checks what every run
must satisfy, whichever bound stops it.
"""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragmatune.evaluators import CachedEvaluator, SyntheticLandscape
from pragmatune.harness import METHODS, ExperimentConfig
from pragmatune import mcts
from pragmatune.mcts import MctsParams
from pragmatune.reports import read_log, write_log
from pragmatune.reward import RankedHistory
from pragmatune.session import Budget, SearchSession
from pragmatune.space import SpaceParams, child, child_index, root_node

from helpers import chain_nest, consistent_playouts, random_nest, random_params


@settings(max_examples=120, deadline=None)
@given(
    st.randoms(use_true_random=True),
    st.sampled_from(sorted(METHODS)),
    st.integers(0, 25),
    st.integers(1, 200),
)
def test_every_run_keeps_its_bounds_its_space_and_its_log(rng, method, max_unique, max_iterations):
    nest = random_nest(rng)
    space_params = random_params(rng, d_max=rng.randint(1, 4))
    root = root_node(nest, space_params)
    config = ExperimentConfig(
        nest_text="",
        method=method,
        seed=rng.randrange(2**32),
        space=space_params,
        search=MctsParams(per_run_budget=rng.randint(1, 30), n_walks=rng.randint(1, 10)),
    )
    session = SearchSession(
        CachedEvaluator(SyntheticLandscape(seed=rng.randrange(2**32))),
        Budget(max_unique=max_unique, max_iterations=max_iterations),
        method=method,
        simulated=True,
    )
    space_nodes = []  # mcts: the run's space nodes, which keep its history
    make_nodes = mcts._SpaceNodes
    # mcts: the visit identity after every playout
    with consistent_playouts() as playouts, mock.patch.object(
        mcts, "_SpaceNodes", lambda *args: space_nodes.append(make_nodes(*args)) or space_nodes[-1]
    ):
        METHODS[method](session, root, config)
    records = session.records

    assert session.stop_reason in ("unique_budget", "iterations", "space_exhausted")
    assert session.unique_evaluations <= max_unique
    assert session.iterations <= max_iterations
    if session.stop_reason == "iterations":
        assert session.iterations == max_iterations
    if session.stop_reason == "unique_budget":
        assert session.unique_evaluations == max_unique
    if method == "mcts":
        assert playouts.count(True) == session.iterations

    best = None
    for record in records:
        if record.h is not None and (best is None or record.h > best):
            best = record.h
        assert record.best_so_far_h == best
    assert session.best.h == best

    # The session stamps each record's phase and f: a baseline logs phase
    # 0 and no target; mcts logs its target on every record, from 1.0 at
    # the root, and phases that never go back nor pass the last one begun.
    phases = [record.phase for record in records]
    if method == "mcts":
        assert records[0].phase == 0 and records[0].f == 1.0
        assert all(record.f is not None for record in records)
        assert phases == sorted(phases) and phases[-1] <= session.phases - 1
    else:
        assert set(phases) == {0} and all(record.f is None for record in records)

    # mcts: the history holds the session's records in order, each with
    # the path its playout walked (the root's is empty)
    history = space_nodes[0].history.entries() if space_nodes else None
    if history is not None:
        assert [id(entry[2]) for entry in history] == [id(r) for r in records]
    for record in records:
        node, indices = root, []
        for step in record.config.steps:
            indices.append(child_index(node, step))
            node = child(node, indices[-1])
        assert node.key == record.key
        if history is not None:
            assert history[record.iteration][3] == tuple(indices)

    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "first.jsonl"), Path(directory, "second.jsonl")
        write_log(records, first)
        write_log(read_log(first), second)
        assert read_log(first) == records
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_reused_root_logs_what_a_fresh_root_logs(method):
    # A node's lazy nest and census are pure caches: two runs in a row on
    # one root each log what the same run logs on a fresh root.
    nest = chain_nest(2, arrays=("A",))

    def run(root, seed):
        session = SearchSession(
            CachedEvaluator(SyntheticLandscape(seed=seed)),
            Budget(max_unique=40, max_iterations=4000),
            method=method,
            simulated=True,
        )
        search = MctsParams(per_run_budget=10, n_walks=3)
        config = ExperimentConfig(nest_text="", method=method, seed=seed, search=search)
        METHODS[method](session, root, config)
        return [r.to_dict() for r in session.records]

    fresh = [run(root_node(nest, SpaceParams()), seed) for seed in (1, 2)]
    shared = root_node(nest, SpaceParams())
    assert [run(shared, seed) for seed in (1, 2)] == fresh
    assert shared.census is not None and fresh[0] != fresh[1]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_only_mcts_ranks_its_records(method):
    session = SearchSession(
        CachedEvaluator(SyntheticLandscape(seed=1)),
        Budget(max_unique=40, max_iterations=4000),
        method=method,
        simulated=True,
    )
    config = ExperimentConfig(
        nest_text="", method=method, seed=1, search=MctsParams(per_run_budget=10, n_walks=3)
    )
    adds = []
    add = RankedHistory.add
    with mock.patch.object(
        RankedHistory, "add", lambda history, *args: adds.append(args) or add(history, *args)
    ):
        METHODS[method](session, root_node(chain_nest(2, arrays=("A",)), config.space), config)
    assert session.unique_evaluations == 40
    assert len(adds) == (len(session.records) if method == "mcts" else 0)
