"""Tree-search autotuning for composable loop-transformation pragmas.

The package models loop nests and the six pragma transformations,
enumerates the induced configuration space sparsely, and searches it
with a restarting Monte Carlo tree search (plus random, breadth-first,
and greedy baselines) against either a real compile-and-run pipeline or
a deterministic synthetic landscape. The names below are the ones the
README and the demos use; everything else is imported from its module.
"""

from .baselines import breadth_first, random_search
from .evaluators import CachedEvaluator, SyntheticLandscape
from .harness import load_experiment_config, run_experiment
from .loops import (
    Configuration,
    Interchange,
    Loop,
    LoopNest,
    ParallelizeThread,
    Tile,
    Unroll,
    apply_all,
    load_loop_nest,
    perfect_nests,
)
from .mcts import MctsParams, search
from .rendering import render_pragmas
from .reports import emit_best_depth, emit_cutoff_counts, emit_trajectory, read_log, write_log
from .reward import RewardParams
from .session import Budget, SearchSession
from .space import (
    SpaceParams,
    child,
    child_count,
    child_index,
    child_transformation,
    level_counts,
    random_walk,
    root_node,
)

__version__ = "0.1.0"
