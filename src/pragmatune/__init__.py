"""Tree-search autotuning for composable loop-transformation pragmas.

The package models loop nests and the six pragma transformations,
enumerates the induced configuration space sparsely, and searches it
with a restarting Monte Carlo tree search (plus random, breadth-first,
and greedy baselines) against either a real compile-and-run pipeline or
a deterministic synthetic landscape.
"""

from .baselines import breadth_first, global_greedy, random_search
from .errors import (
    DuplicateLoopIdError,
    EmptyHistoryError,
    ExperimentConfigError,
    InvalidTargetError,
    LogParseError,
    MissingAnchorError,
    NestParseError,
    PragmatuneError,
    RootEvaluationError,
)
from .evaluators import (
    CachedEvaluator,
    CompileFailure,
    ExternalJobSpec,
    Outcome,
    RunFailure,
    SyntheticLandscape,
    Time,
    evaluate_external,
)
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    load_experiment_config,
    run_experiment,
)
from .loops import (
    Configuration,
    Interchange,
    Loop,
    LoopNest,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Transformation,
    Unroll,
    apply,
    apply_all,
    load_loop_nest,
    perfect_nests,
    pragma_identity,
    step_key,
)
from .mcts import (
    IterationLog,
    MctsParams,
    SearchNode,
    apply_transfer,
    backpropagate,
    detect_convergence,
    expand,
    learn_depth,
    make_root,
    search,
    select,
    uct_score,
)
from .rendering import pragma_clause, pragma_lines, render_pragmas
from .reports import (
    emit_best_depth,
    emit_cutoff_counts,
    emit_trajectory,
    read_log,
    top_cutoff,
    write_log,
)
from .reward import (
    RankedHistory,
    RewardParams,
    TargetState,
    penalty_filter,
    quantile_split,
    reward,
    speedup,
)
from .session import Budget, EvalRecord, SearchSession, SimulatedClock
from .space import (
    SpaceNode,
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
