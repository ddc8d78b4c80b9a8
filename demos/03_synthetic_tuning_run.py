"""
A full tuning run on the synthetic landscape
============================================

The synthetic evaluator hashes (seed, configuration key) into a
deterministic runtime, so search behavior is reproducible end to end
and needs no compiler. This script races the tree search against the
random and breadth-first baselines on one landscape and renders the
three report tables from their logs.
"""

import random

from pragmatune import (
    Budget,
    CachedEvaluator,
    MctsParams,
    RewardParams,
    SearchSession,
    SpaceParams,
    SyntheticLandscape,
    breadth_first,
    emit_best_depth,
    emit_cutoff_counts,
    emit_trajectory,
    load_loop_nest,
    random_search,
    root_node,
    search,
)
from pragmatune.harness import derive_seed
from pathlib import Path

HERE = Path(__file__).parent
MASTER_SEED = 7

# Every searcher takes the space as its root node, which carries the
# SpaceParams; the searchers only read it, so one root serves every run.
root = root_node(load_loop_nest((HERE / "matscale_nest.json").read_text()), SpaceParams())
# On a synthetic run, max_wall_clock_s (unset here) would bound simulated
# seconds, the summed runtimes of the fresh measurements.
budget = Budget(max_unique=200, max_iterations=20_000)


def fresh_session(method):
    # Each method gets its own cache over the same landscape, so they
    # compete on equal footing; a simulated session's time advances by
    # each fresh measurement's runtime, keeping logs deterministic.
    landscape = SyntheticLandscape(seed=derive_seed(MASTER_SEED, "landscape"))
    return SearchSession(CachedEvaluator(landscape), budget, method, simulated=True)


def report(session):
    # A searcher returns nothing; its session holds the result.
    best = session.best
    print(
        f"{session.method:<4} best: h={best.h:.3f} depth={best.config.depth}  {best.key}"
        f"  (stopped by {session.stop_reason})"
    )


mcts_session = fresh_session("mcts")
# The tree search takes the same space as the baselines, plus its own
# reward and tree-search knobs.
search(
    mcts_session,
    root,
    RewardParams(),
    MctsParams(per_run_budget=60),
    random.Random(derive_seed(MASTER_SEED, "walks")),
    random.Random(derive_seed(MASTER_SEED, "expand")),
)
report(mcts_session)

rs_session = fresh_session("rs")
random_search(rs_session, root, random.Random(derive_seed(MASTER_SEED, "search")))
report(rs_session)

bf_session = fresh_session("bf")
breadth_first(bf_session, root)
report(bf_session)

# The trajectory table tracks the incumbent as the run unfolds; phase
# markers show where the tree search restarted from a fresh tree.
print("\n--- mcts trajectory (first 12 lines) ---")
print("\n".join(emit_trajectory(mcts_session.records).splitlines()[:12]))

# The cutoff table counts, per method, how many measured configurations
# fall in the top 5% of the pooled speedups -- a soundness-agnostic way
# to compare search quality.
logs = [mcts_session.records, rs_session.records, bf_session.records]
print("\n--- cutoff counts (last 3 rows) ---")
lines = emit_cutoff_counts(logs, fraction=0.05).splitlines()
print("\n".join(lines[:2] + lines[-3:]))

# And the best-depth table: where in the tree each method's winner sat.
print("\n--- best depth ---")
print(emit_best_depth(logs))
