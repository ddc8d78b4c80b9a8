"""Properties of whole runs, for every method, over random nests and spaces.

Each example draws a nest and a space (``helpers.random_nest`` and
``random_params``), a method from ``harness.METHODS`` and a small budget,
runs the search on the synthetic landscape, and checks what every run
must satisfy, whichever bound stops it.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pragmatune.evaluators import CachedEvaluator, SyntheticLandscape
from pragmatune.harness import METHODS, ExperimentConfig
from pragmatune.mcts import MctsParams
from pragmatune.reports import read_log, write_log
from pragmatune.session import Budget, SearchSession, SimulatedClock
from pragmatune.space import child, child_index, root_node

from helpers import consistent_playouts, random_nest, random_params


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
        SimulatedClock(),
        method=method,
    )
    with consistent_playouts() as playouts:  # mcts: the visit identity after every playout
        METHODS[method](session, nest, config)
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

    start = root_node(nest)
    for record in records:
        node = start
        for step in record.config.steps:
            node = child(node, child_index(node, step, space_params), space_params)
        assert node.key == record.key

    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "first.jsonl"), Path(directory, "second.jsonl")
        write_log(records, first)
        write_log(read_log(first), second)
        assert read_log(first) == records
        assert second.read_bytes() == first.read_bytes()
