"""End-to-end acceptance checks, one verdict line each (run ``pytest -s``).

Every check pins its tolerances and time limits; the randomized ones fix
their seeds, so verdicts are reproducible run to run.
"""

import json
import math
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from pragmatune.baselines import breadth_first, global_greedy, random_search
from pragmatune.evaluators import (
    CachedEvaluator,
    CompileFailure,
    ExternalJobSpec,
    RunFailure,
    SyntheticLandscape,
    Time,
    evaluate_external,
)
from pragmatune.harness import ExperimentConfig, derive_seed, run_experiment
from pragmatune.loops import (
    Configuration,
    Loop,
    LoopNest,
    ParallelizeThread,
    Reverse,
    Tile,
    Unroll,
)
from pragmatune.mcts import MctsParams, apply_transfer, search
from pragmatune.rendering import render_pragmas
from pragmatune.reward import (
    RewardParams,
    penalty_filter,
    quantile_split,
    reward,
)
from pragmatune.session import Budget, SearchSession
from pragmatune.space import (
    SpaceParams,
    child,
    child_count,
    child_index,
    child_transformation,
    root_node,
)

from helpers import (
    chain_nest,
    consistent_playouts,
    counting,
    entry_records,
    eval_record,
    make_root,
    oracle_children,
    random_nest,
    random_params,
    ranked_history,
    scripted_phase_end,
    uct_score,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def verdict(number, label):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"\n[acceptance {number:02d}] FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance {number:02d}] PASS  {label}{info['detail']} ({elapsed:.1f}s)")


def stub_node(visits, total_reward):
    from pragmatune.mcts import SearchNode

    node = SearchNode(None, 0)
    node.visits = visits
    node.total_reward = total_reward
    return node


def exhaustive_best_h(root, landscape, depth):
    """Best successful speedup over every configuration to ``depth`` below ``root``."""
    root_seconds = landscape.evaluate(Configuration()).seconds
    best = 0.0
    level = [root]
    for _ in range(depth):
        level = [child(node, i) for node in level for i in range(child_count(node))]
        for node in level:
            outcome = landscape.evaluate(node.config)
            if outcome.ok:
                best = max(best, root_seconds / outcome.seconds)
    return best


def test_criterion_01_uct_and_reward_arithmetic():
    with verdict(1, "UCT scores and reward branches match hand values to 1e-9"):
        # 0.5 + 2*0.1*sqrt(2 ln 8 / 2) and 1.0 + 0.2*sqrt(2 ln 3 / 1).
        assert uct_score(stub_node(2, 1.0), 8, 0.1) == pytest.approx(
            0.7884053773201767, abs=1e-9
        )
        assert uct_score(stub_node(1, 1.0), 3, 0.1) == pytest.approx(
            1.2964607614735022, abs=1e-9
        )
        assert uct_score(stub_node(0, 0.0), 5, 0.1) == math.inf
        assert uct_score(stub_node(4, 3.0), 9, 0.0) == pytest.approx(0.75, abs=1e-9)
        assert MctsParams().c == 0.1

        params = RewardParams()
        assert params.m == 10 and params.r_penalty == -1.0 and params.alpha == 0.05
        table = [
            (CompileFailure("x"), None, 1.0, -1.0),
            (RunFailure("x"), None, 1.0, -1.0),
            (Time(0.5), 2.0, 1.0, 1.0),
            (Time(0.5), 2.0, 2.0, 0.0),  # ties earn nothing
            (Time(2.0), 0.5, 1.0, 0.0),
        ]
        for outcome, h, f, expected in table:
            assert reward(outcome, h, f, params) == expected


def test_criterion_02_golden_pragma_rendering():
    with verdict(2, "rendered templates are byte-identical to the goldens") as info:
        start = time.perf_counter()
        template = (GOLDEN / "scale_template.c").read_text()
        cases = [
            (
                Configuration((Tile("i", 32), ParallelizeThread("i.f"))),
                "tile_parallelize.c",
            ),
            (
                Configuration((Tile("i", 32), Unroll("i.t", 4))),
                "unroll_factor.c",
            ),
        ]
        for config, golden_name in cases:
            rendered = render_pragmas(config, template).encode()
            assert rendered == (GOLDEN / golden_name).read_bytes()
        assert time.perf_counter() - start < 1.0
        info["detail"] = f": {len(cases)} goldens"


def test_criterion_03_enumeration_matches_exhaustive_oracle():
    with verdict(3, "sparse indexing agrees with the oracle on random nests") as info:
        start = time.perf_counter()
        rng = random.Random(990814)
        nodes_checked = 0

        def check(node, depth_left):
            nonlocal nodes_checked
            nodes_checked += 1
            expected = oracle_children(node.nest, node.params)
            assert child_count(node) == len(expected) <= 200
            for i, step in enumerate(expected):
                assert child_transformation(node, i) == step
                assert child_index(node, step) == i
            if depth_left:
                for i in range(len(expected)):
                    check(child(node, i), depth_left - 1)

        for _ in range(10):
            nest = random_nest(rng)
            check(root_node(nest, random_params(rng)), depth_left=2)
        assert time.perf_counter() - start < 30.0
        info["detail"] = f": 10 nests, {nodes_checked} nodes to depth 2"


def test_criterion_04_finds_the_known_global_optimum():
    with verdict(4, "tree search finds the exhaustive optimum on >=18/20 seeds") as info:
        start = time.perf_counter()
        space = SpaceParams(
            tile_sizes=(2, 4), unroll_factors=(2,), peel_variants=(False,), d_max=3
        )
        root = root_node(LoopNest((Loop("i"),)), space)
        # The whole space to depth 3 holds 386 configurations.
        wins = 0
        for master in range(20):
            landscape = SyntheticLandscape(seed=derive_seed(master, "landscape"))
            optimum = exhaustive_best_h(root, landscape, depth=3)
            session = SearchSession(
                CachedEvaluator(landscape),
                Budget(max_unique=500, max_iterations=30_000),
                method="mcts",
                simulated=True,
            )
            params = MctsParams(per_run_budget=40, n_walks=30)
            search(
                session,
                root,
                RewardParams(),
                params,
                random.Random(derive_seed(master, "walks")),
                random.Random(derive_seed(master, "expand")),
            )
            wins += abs(session.best.h - optimum) < 1e-12
        assert wins >= 18
        assert time.perf_counter() - start < 60.0
        info["detail"] = f": {wins}/20 seeds"


def test_criterion_05_beats_random_and_breadth_first():
    with verdict(5, "median best-h: tree search >= random and breadth-first") as info:
        start = time.perf_counter()
        nest = LoopNest((Loop("i", children=(Loop("j"),)),), arrays=("A",))
        root = root_node(nest, SpaceParams())
        bests = {"mcts": [], "rs": [], "bf": [], "gg": []}
        for master in range(20):
            landscape_seed = derive_seed(master, "landscape")

            def fresh_session():
                return SearchSession(
                    CachedEvaluator(SyntheticLandscape(seed=landscape_seed)),
                    Budget(max_unique=300, max_iterations=30_000),
                    method="x",
                    simulated=True,
                )

            session = fresh_session()
            search(
                session,
                root,
                RewardParams(),
                MctsParams(),
                random.Random(derive_seed(master, "walks")),
                random.Random(derive_seed(master, "expand")),
            )
            bests["mcts"].append(session.best.h)
            session = fresh_session()
            random_search(session, root, random.Random(derive_seed(master, "search")))
            bests["rs"].append(session.best.h)
            session = fresh_session()
            breadth_first(session, root)
            bests["bf"].append(session.best.h)
            session = fresh_session()
            global_greedy(session, root)
            bests["gg"].append(session.best.h)
        medians = {m: statistics.median(v) for m, v in bests.items()}
        assert medians["mcts"] >= medians["rs"]
        assert medians["mcts"] >= medians["bf"]
        assert time.perf_counter() - start < 300.0
        info["detail"] = (
            ": medians mcts {mcts:.2f}, rs {rs:.2f}, bf {bf:.2f}"
            " (greedy {gg:.2f}, reported unbounded)".format(**medians)
        )


def test_criterion_06_restart_escapes_a_shallow_optimum():
    with verdict(6, "a later phase improves on the first phase's best") as info:
        start = time.perf_counter()
        nest = LoopNest((Loop("i"),))
        space = SpaceParams(
            tile_sizes=(4,), unroll_factors=(2,), peel_variants=(False,), d_max=3
        )
        # Reversal alone doubles speed (the shallow trap); the three-step
        # tile+unroll+parallelize combination is poor stepwise but its
        # pairwise interactions make it the global optimum:
        # 1 / (0.9^3 * 0.4^3) = 21.4334...
        landscape = SyntheticLandscape(
            seed=0,
            failure_rate=0.0,
            multipliers={
                ("reverse",): 0.5,
                ("tile", 4, False): 0.9,
                ("unroll", 2): 0.9,
                ("parallelize",): 0.9,
                ("unroll", None): 1.3,
            },
            interactions={
                frozenset({("tile", 4, False), ("unroll", 2)}): 0.4,
                frozenset({("tile", 4, False), ("parallelize",)}): 0.4,
                frozenset({("unroll", 2), ("parallelize",)}): 0.4,
            },
        )
        session = SearchSession(
            CachedEvaluator(landscape),
            Budget(max_unique=120, max_iterations=8_000),
            method="mcts",
            simulated=True,
        )
        master = 4  # chosen so phase 0 converges onto the shallow trap
        search(
            session,
            root_node(nest, space),
            RewardParams(),
            MctsParams(per_run_budget=25, n_walks=8),
            random.Random(derive_seed(master, "walks")),
            random.Random(derive_seed(master, "expand")),
        )
        best, history = session.best, session.records
        phases = {r.phase for r in history}
        best_by_phase = {}
        for record in history:
            if record.h is not None:
                best_by_phase[record.phase] = max(
                    best_by_phase.get(record.phase, 0.0), record.h
                )
        later_best = max(v for p, v in best_by_phase.items() if p >= 1)
        assert len(phases) >= 2
        assert best_by_phase[0] == pytest.approx(2.0, rel=1e-12)  # the trap
        assert later_best > best_by_phase[0]
        assert best.h == pytest.approx(21.433470507544582, rel=1e-9)
        assert best.config.depth == 3
        assert next(r.phase for r in history if r.h == best.h) >= 1
        assert time.perf_counter() - start < 30.0
        info["detail"] = (
            f": phase-0 best {best_by_phase[0]:.1f}, later {later_best:.2f}"
        )


def test_criterion_07_convergence_thresholds_are_exact():
    with verdict(7, "phase convergence trips at exactly 50 stalls / 10 repeats"):
        params = MctsParams()
        assert params.no_improve_limit == 50 and params.same_config_limit == 10

        # Each script is one phase's playouts, (key, fresh, improved); a
        # phase the script does not end ends on the budget one playout later.
        stalls = [(f"key{k}", True, False) for k in range(50)]
        assert scripted_phase_end(stalls[:49]) == ("global_budget", 50)
        assert scripted_phase_end(stalls) == ("no_improve", 50)

        same = [("same", True, True)] + [("same", False, False)] * 9
        assert scripted_phase_end(same[:9]) == ("global_budget", 10)
        assert scripted_phase_end(same) == ("same_config", 10)
        assert scripted_phase_end(same[:9] + [("novel", True, True)]) == ("global_budget", 11)

        # Ten cache hits after 49 stalls: the repeats trip, the stalls stay at 49.
        hits = [("hit", False, False)] * 10
        assert scripted_phase_end(stalls[:49] + hits) == ("same_config", 59)


def test_criterion_08_exact_budget_and_reproducible_logs(tmp_path):
    with verdict(8, "a 1000-unique budget is spent exactly, logs byte-identical") as info:
        start = time.perf_counter()
        nest_text = json.dumps(
            {
                "loops": [
                    {"id": "i", "children": [{"id": "j", "children": [{"id": "k"}]}]}
                ],
                "arrays": ["A", "B"],
            }
        )
        logs = []
        for name in ("first", "second"):
            config = ExperimentConfig(
                nest_text=nest_text,
                method="mcts",
                seed=11,
                budget=Budget(max_unique=1000, max_iterations=100_000),
                out_dir=str(tmp_path / name),
            )
            summary = run_experiment(config)
            assert summary.unique_evaluations == 1000
            assert len(summary.records) == 1001  # the root line plus the budget
            logs.append((tmp_path / name / "log.jsonl").read_bytes())
        assert logs[0] == logs[1]
        assert time.perf_counter() - start < 120.0
        info["detail"] = ": 2 runs, 1001 lines each"


def test_criterion_09_history_transfer_without_evaluation():
    with verdict(9, "restart transfer replays quantile tails, zero evaluations") as info:
        reward_params = RewardParams()
        space_params = SpaceParams()  # the default space enumerates all steps used below
        nest = chain_nest(1)

        root_rec = eval_record(Configuration(), Time(1.0), 1.0, 0, 0)
        upper_rec = eval_record(
            Configuration((Tile("i0", 256, True),)), Time(0.05), 20.0, 1, 0
        )
        slow_rec = eval_record(
            Configuration((Reverse("i0"),)), Time(2.0), 0.5, 2, 0
        )
        sizes_peels = [
            (s, p) for s in (2, 3, 4, 5, 8, 16, 32, 64) for p in (False, True)
        ]
        fillers = [
            eval_record(
                Configuration((Tile("i0", size, peel),)),
                Time(1.0 / (2 + k)),
                float(2 + k),
                3 + k,
                0,
            )
            for k, (size, peel) in enumerate(sizes_peels)
        ]
        history = [root_rec, upper_rec, slow_rec] + fillers
        assert len(history) == 19

        lower, upper = quantile_split(ranked_history(history), reward_params.alpha)
        assert [r.h for r in entry_records(lower)] == [0.5]  # single minimum
        assert [r.h for r in entry_records(upper)] == [20.0]  # single maximum

        # With the root as the unique minimum it reaches the lower tail
        # but is exempt from penalties.
        no_slow = [root_rec, upper_rec] + fillers
        lower2, upper2 = quantile_split(ranked_history(no_slow), reward_params.alpha)
        assert lower2 == [(0, 0, root_rec, ())]  # the root's identity mask is empty
        assert penalty_filter(lower2, upper2) == []

        calls = []
        cache = CachedEvaluator(counting(lambda config: Time(1.0), calls))
        root = root_node(nest, space_params)
        tree = make_root(root)
        apply_transfer(tree, ranked_history(history, root), reward_params)
        assert calls == []  # the cache's inner evaluator never ran

        by_key = {c.space.key: c for c in tree.children.values()}
        reinforced = by_key["tile(i0;256;peel)"]
        assert reinforced.visits == 1
        assert reinforced.total_reward == 1.0
        assert reinforced.terminal_count == 1
        penalized = by_key["reverse(i0)"]
        assert penalized.total_reward == reward_params.r_penalty
        assert len(tree.children) == 2
        info["detail"] = ": 19-record history, 2 replayed paths"


def test_criterion_10_randomized_invariants():
    with verdict(10, "randomized invariants hold over >=1000 cases") as info:
        cases = 0
        rng = random.Random(20260401)

        # Reward codomain over random outcomes and targets.
        params = RewardParams()
        for _ in range(400):
            if rng.random() < 0.3:
                outcome, h = CompileFailure("x"), None
            else:
                seconds = rng.uniform(0.01, 10.0)
                outcome, h = Time(seconds), rng.uniform(0.01, 10.0)
            value = reward(outcome, h, rng.uniform(0.5, 5.0), params)
            assert value in (-1.0, 0.0, 1.0)
            assert (value == -1.0) == (h is None)
            cases += 1

        # The monotone target never decreases.
        from pragmatune.reward import TargetState

        for _ in range(30):
            target = TargetState(RewardParams(m=rng.randint(1, 12)))
            previous = target.f
            for _ in range(20):
                target.update(rng.uniform(0.01, 50.0))
                assert target.f >= previous
                previous = target.f
                cases += 1

        # Full searches: per-playout tree consistency (consistent_playouts),
        # unique history keys, monotone best-so-far in the log.
        for seed in (1, 2, 3):
            session = SearchSession(
                CachedEvaluator(SyntheticLandscape(seed=seed)),
                Budget(max_unique=80, max_iterations=5_000),
                method="mcts",
                simulated=True,
            )
            with consistent_playouts() as playouts:
                search(
                    session,
                    root_node(
                        chain_nest(2),
                        SpaceParams(tile_sizes=(2, 8), unroll_factors=(2, 4), d_max=4),
                    ),
                    RewardParams(),
                    MctsParams(per_run_budget=30),
                    random.Random(derive_seed(seed, "walks")),
                    random.Random(derive_seed(seed, "expand")),
                )
            assert playouts.count(True) == session.iterations
            keys = [r.key for r in session.records]
            assert len(set(keys)) == len(keys)
            assert session.unique_evaluations == len(session.records) - 1
            best_seen = 0.0
            for record in session.records:
                assert record.best_so_far_h >= best_seen
                best_seen = record.best_so_far_h
                if record.h is not None:
                    assert record.h <= record.best_so_far_h
                cases += 1
        assert cases >= 1000
        info["detail"] = f": {cases} cases"


def test_criterion_11_external_pipeline_smoke(tmp_path):
    with verdict(11, "external compile-and-run measures medians, maps failures") as info:
        start = time.perf_counter()
        compiler = tmp_path / "cc.py"
        compiler.write_text(
            "import sys\n"
            "text = open(sys.argv[1]).read()\n"
            "if '#pragma clang loop unrolling full' in text:\n"
            "    sys.stderr.write('unsupported transformation')\n"
            "    sys.exit(2)\n"
            "open(sys.argv[2], 'w').write('bin')\n"
        )
        counter = tmp_path / "count"
        runner = tmp_path / "run.py"
        runner.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            f"counter = Path({str(counter)!r})\n"
            "n = int(counter.read_text()) if counter.exists() else 0\n"
            "counter.write_text(str(n + 1))\n"
            "print('time', [0.3, 0.1, 0.5, 0.2, 0.4][n % 5], 's')\n"
        )
        job = ExternalJobSpec(
            source_template=(GOLDEN / "scale_template.c").read_text(),
            compile_cmd=f"python3 {compiler} {{src}} {{out}}",
            run_cmd=f"python3 {runner} {{out}}",
            repetitions=5,
        )
        assert evaluate_external(Configuration(), job) == Time(0.3)
        assert counter.read_text() == "5"

        failed = evaluate_external(Configuration((Unroll("i", None),)), job)
        assert isinstance(failed, CompileFailure)
        assert "unsupported transformation" in failed.reason
        assert time.perf_counter() - start < 30.0
        info["detail"] = ": median of 5 runs = 0.3s, bad build rejected"
