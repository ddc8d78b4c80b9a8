"""Pinned run outputs: the search's observable behaviour, byte for byte.

The digests are the sha256 of ``log.jsonl`` and ``summary.json`` for the
demo experiment under every method and seeds 1-3 on the synthetic
evaluator, and for a restart-heavy mcts run (11 phases, so history
transfer replays onto ten fresh trees). Two runs of the same code matching each other (criterion 8)
cannot catch a refactor that changes behaviour; these digests can. A
change that means to alter the search re-pins them and says so in
CHANGES.md.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from pragmatune.harness import ExperimentConfig, load_experiment_config, run_experiment
from pragmatune.mcts import MctsParams
from pragmatune.session import Budget

DEMO_EXPERIMENT = Path(__file__).resolve().parent.parent / "demos" / "experiment.json"

# (method, seed) -> (sha256 of log.jsonl, sha256 of summary.json)
PINNED = {
    ("mcts", 1): (
        "0837abe50e8429c577bdc089c9bc5b913b091d6ce1eae9faed40ff8e278eeff4",
        "e439535073bb17fc01958ac9be0773cd68e9ba9595278ae9fc600fe559867aa0",
    ),
    ("mcts", 2): (
        "a9ebf469cac1e5fa4b3c2e3295f083117e52633eb6ca48f0e18dc38266dd6082",
        "a37c0478d08237eef22332bb1c672c378c8e42ba3811df5739ff213c75987bd0",
    ),
    ("mcts", 3): (
        "d0931caeaae9e2567dbe3327ff0b079708b0db433118762244e6d2ce50d9f6b3",
        "8d3b7a5b956afddc6dd5bfc023b2d9d53775bdaa82ae439f9cd46306e0e4d7c0",
    ),
    ("rs", 1): (
        "ca61fbef08afe8874b42611d14b6ac541ff7dce165293a9c8872976dbcaa31ce",
        "3c1dd38ee92f6c6ee8a77528ee8f2735c6f135a7d2e7587160c63a49128a5e74",
    ),
    ("rs", 2): (
        "a53fdd8564956ce2ca9f8e159215be26a92ec217e7d6291643be6617ea94b1be",
        "677d6cca569790c55bf6e5f15df6c23e6d5bd84d7e2f259499c74b51fbb5b4bc",
    ),
    ("rs", 3): (
        "e89e942786048fb26e1addd30d4906f6c978497ae88c1599f916d2d5d79d6b43",
        "0dcc5dd2b231a79b6049b9fd5c5cb5604eb2ea291c5b7220462ed1fa85e79d46",
    ),
    ("bf", 1): (
        "56aad923fe941ef13453d122a0a01c8a401faa0a2b760537317f030257a4379e",
        "f229489fa4ef2deb9222a96243f68b57957a3fc2c5489eeee84bc5e0e066ff7a",
    ),
    ("bf", 2): (
        "a4d3ab5a2ea01b1df96b9656c16b49d28625296c96694e77d708d5dec13c18aa",
        "ea1dc2e95fe354d58b66bbe07b9f7afd47a664c918b397013e5116e1ec4b7756",
    ),
    ("bf", 3): (
        "29f10728b65e07640ab561ff5a4537e30ecaa77d20443bcc15775b8fda064107",
        "ff55850314cc92a47f5352fd5cf66cc4a5578e007344976942158d9eeec7ccff",
    ),
    ("gg", 1): (
        "aa01660ebacf9e4f208fbd511322f0d3a46dec8d2f174e430f2d5bbff6c7952f",
        "c1672a555e5009f904344875cc561bc82f963be053ca7a3bb71f22d794bd84bf",
    ),
    ("gg", 2): (
        "0c0a68c379c48d267d56a0c32da0d3e49c86942895c8c4e70684f1ba318c85ba",
        "63d47f0b7e9fd1217f8db7464504c67c6f156feaca8b97f74c1ac3e4d8f1aefe",
    ),
    ("gg", 3): (
        "a8e652e88ce3e477f8587e168c78b7f577c35d141edd46508a30ddabb528efd3",
        "418f1a5a2a5d47aea0ff7cdc1790bcc42f137e676936e678471024d3f8ef2099",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("method,seed", sorted(PINNED))
def test_demo_experiment_outputs_are_pinned(tmp_path, method, seed):
    config = load_experiment_config(DEMO_EXPERIMENT)
    run_experiment(replace(config, method=method, seed=seed, out_dir=str(tmp_path)))
    digests = (sha256(tmp_path / "log.jsonl"), sha256(tmp_path / "summary.json"))
    assert digests == PINNED[(method, seed)]


CHAIN3_NEST = (
    '{"loops":[{"id":"i","children":[{"id":"j","children":[{"id":"k"}]}]}],'
    '"arrays":["A","B"]}'
)

# seed -> (sha256 of log.jsonl, sha256 of summary.json)
PINNED_RESTARTS = {
    1: (
        "999ff6956265d3ef96abd8f81dc40dad7b1ca691e9212e8c947e4ddc61d6e3b2",
        "74d206cb4babc5fd7dda58c095e5fc27f51ab15b5e009f51d3bc5a98d1e9c7a6",
    ),
    2: (
        "a620c9bcd61bf9bf53aff33269012b6ae2b46cbc955cd332738294708dfffd34",
        "196eacde7cc0bb4f4a3a884fb09c51b2198f17c1472459b44f6e38303abfa89d",
    ),
    3: (
        "e375220f859a59fb639c892d2c89942a5987171efc53bbd24969c243b95ad805",
        "cbf0612ca8d0f2a69d45f0928903800ff49c92ef24e4224ac9573c388c6e5a12",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_RESTARTS))
def test_restart_heavy_mcts_outputs_are_pinned(tmp_path, seed):
    config = ExperimentConfig(
        nest_text=CHAIN3_NEST,
        method="mcts",
        seed=seed,
        budget=Budget(max_unique=600, max_iterations=60000),
        search=MctsParams(per_run_budget=60, n_walks=10),
        out_dir=str(tmp_path),
    )
    summary = run_experiment(config)
    assert max(r.phase for r in summary.records) == 10
    digests = (sha256(tmp_path / "log.jsonl"), sha256(tmp_path / "summary.json"))
    assert digests == PINNED_RESTARTS[seed]


BENCH_RESTART = (
    Path(__file__).resolve().parent.parent / "bench" / "workloads" / "mcts_restart.json"
)

# sha256 of log.jsonl for the bench's restart workload at its full budget,
# seed 1: 3000 evaluations over 53 phases, with hundreds of failures and
# tied speedups in the history that every restart splits.
PINNED_BENCH_RESTART_LOG = "55575d03e65b2afea999a7aef2f50a4fa37d67aeb0a7301b86d40f6692d33747"


def test_bench_restart_workload_log_is_pinned(tmp_path):
    config = load_experiment_config(BENCH_RESTART)
    budget = Budget(max_unique=3000, max_iterations=300000)
    summary = run_experiment(replace(config, seed=1, budget=budget, out_dir=str(tmp_path)))
    assert (summary.unique_evaluations, summary.phases) == (3000, 53)
    assert sha256(tmp_path / "log.jsonl") == PINNED_BENCH_RESTART_LOG
