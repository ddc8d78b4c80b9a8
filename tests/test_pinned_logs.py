"""Pinned run outputs: the search's observable behaviour, byte for byte.

The digests are the sha256 of ``log.jsonl`` and ``summary.json`` for the
demo experiment under every method and seeds 1-3 on the synthetic
evaluator, and for a restart-heavy mcts run (11 phases, so history
transfer replays onto ten fresh trees), once with the default penalty and
once with a fractional one, and for one long demo run whose phase
records are pinned too. Two runs of the same code matching each other (criterion 8)
cannot catch a refactor that changes behaviour; these digests can. A
change that means to alter the search re-pins them and says so in
CHANGES.md. Every pinned run ends on its unique-evaluation budget.
"""

import hashlib
import logging
from dataclasses import replace
from pathlib import Path

import pytest

from pragmatune.harness import ExperimentConfig, load_experiment_config, run_experiment
from pragmatune.mcts import MctsParams
from pragmatune.reward import RewardParams
from pragmatune.session import Budget

DEMO_EXPERIMENT = Path(__file__).resolve().parent.parent / "demos" / "experiment.json"

# (method, seed) -> (sha256 of log.jsonl, sha256 of summary.json)
PINNED = {
    ("mcts", 1): (
        "0837abe50e8429c577bdc089c9bc5b913b091d6ce1eae9faed40ff8e278eeff4",
        "f458c972e721f1602ac642c12d11427bab878d176b72524820654e7ad00379a1",
    ),
    ("mcts", 2): (
        "a9ebf469cac1e5fa4b3c2e3295f083117e52633eb6ca48f0e18dc38266dd6082",
        "1a718179f418257693f27726b4ade1713657a6e512c280a65169df9072d619ed",
    ),
    ("mcts", 3): (
        "d0931caeaae9e2567dbe3327ff0b079708b0db433118762244e6d2ce50d9f6b3",
        "ee517659c2c2783062cc20f58347c27ec312249f61ccf628bdc9fa49f64c8a5f",
    ),
    ("rs", 1): (
        "ca61fbef08afe8874b42611d14b6ac541ff7dce165293a9c8872976dbcaa31ce",
        "a3ba6120cc1b1d2f9b8b01e481047e27284bb7eed14204d54bbd7e612a5a0156",
    ),
    ("rs", 2): (
        "a53fdd8564956ce2ca9f8e159215be26a92ec217e7d6291643be6617ea94b1be",
        "5347dd1030812a0624a0b925be5ef6f2904f85818214049e50312ffe207b5106",
    ),
    ("rs", 3): (
        "e89e942786048fb26e1addd30d4906f6c978497ae88c1599f916d2d5d79d6b43",
        "e267c1e6e6b53d0972beea6576d40b20405640b5cbfcbb3992472732ec057996",
    ),
    ("bf", 1): (
        "56aad923fe941ef13453d122a0a01c8a401faa0a2b760537317f030257a4379e",
        "a43682b1ec2117bf06b48e42e1419326528612531b91e177680dc8afea11062b",
    ),
    ("bf", 2): (
        "a4d3ab5a2ea01b1df96b9656c16b49d28625296c96694e77d708d5dec13c18aa",
        "7e9933028a918ba99c7b84cabac3e40ff78d2c879668396bfcf83aa8475fffe0",
    ),
    ("bf", 3): (
        "29f10728b65e07640ab561ff5a4537e30ecaa77d20443bcc15775b8fda064107",
        "8241d90a682fea0e8a9564f3382266219e688c77de9ea5c37e0c80026966c9a9",
    ),
    ("gg", 1): (
        "aa01660ebacf9e4f208fbd511322f0d3a46dec8d2f174e430f2d5bbff6c7952f",
        "c6c1c8e0be92ce6b8fe352b5e541d33d94f2d7b5163456e05e0b1d1c0a52b75d",
    ),
    ("gg", 2): (
        "0c0a68c379c48d267d56a0c32da0d3e49c86942895c8c4e70684f1ba318c85ba",
        "e6a94a54d4e9dc596b5ed78f557ad4d4a4ec94227cd6e78129a2ea94bccc2674",
    ),
    ("gg", 3): (
        "a8e652e88ce3e477f8587e168c78b7f577c35d141edd46508a30ddabb528efd3",
        "9b084ac22930867f1d1e80a98478ed0525845f3477d452f966d3282ccdd7e91d",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("method,seed", sorted(PINNED))
def test_demo_experiment_outputs_are_pinned(tmp_path, method, seed):
    config = load_experiment_config(DEMO_EXPERIMENT)
    summary = run_experiment(replace(config, method=method, seed=seed, out_dir=str(tmp_path)))
    assert summary.stop_reason == "unique_budget"
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
        "ae6b93335be8b14313cfa06de56b9f72346f56abe5b8207b2ca637864584e3fe",
    ),
    2: (
        "a620c9bcd61bf9bf53aff33269012b6ae2b46cbc955cd332738294708dfffd34",
        "ac5cd45aa86f5e5559b68c8853d4d81671494a4f877206d560f6fd2307168510",
    ),
    3: (
        "e375220f859a59fb639c892d2c89942a5987171efc53bbd24969c243b95ad805",
        "6258b4b7e4f48a67ef5a4403d3c552aee19d1f8844ae80cf57d3bfb4b1b46ee6",
    ),
}


def run_restart_heavy(tmp_path, seed, reward=RewardParams()):
    config = ExperimentConfig(
        nest_text=CHAIN3_NEST,
        method="mcts",
        seed=seed,
        budget=Budget(max_unique=600, max_iterations=60000),
        reward=reward,
        search=MctsParams(per_run_budget=60, n_walks=10),
        out_dir=str(tmp_path),
    )
    summary = run_experiment(config)
    assert max(r.phase for r in summary.records) == 10
    assert summary.stop_reason == "unique_budget"
    return sha256(tmp_path / "log.jsonl"), sha256(tmp_path / "summary.json")


@pytest.mark.parametrize("seed", sorted(PINNED_RESTARTS))
def test_restart_heavy_mcts_outputs_are_pinned(tmp_path, seed):
    assert run_restart_heavy(tmp_path, seed) == PINNED_RESTARTS[seed]


# The same runs with a penalty that is not a power of two, so a node's
# summed reward depends on the order of its additions (with the default
# -1.0 every sum is a whole number). On seed 1, seven of the eleven
# phases transfer both upper-tail and penalized records. A penalized
# path's value steers later choices, so each log differs from the default's.
# seed -> (sha256 of log.jsonl, sha256 of summary.json)
PINNED_RESTARTS_FRACTIONAL_PENALTY = {
    1: (
        "8106532f675233814b2a594da3ebca83be0d731eb32a592b86d50d64a7042ae6",
        "cef02cb573955f714563425e4146ca8aa961829f0f3489b6ad0d7e6b324b467c",
    ),
    2: (
        "c20cd9246ccd231fd5d7c9cde596f4f06caa60d93efdb5226ce355f15e54c172",
        "c475c5954c46a4fbad8ca22e0c2701075994d2f73973a4b305e8220025443a63",
    ),
    3: (
        "35b6adde5730f5876b1515baa1f6cd26c078aeb0b9949d7c71a75120d63a2fbb",
        "f173d7645388dc18f8ba5ec1b307cbb7e8f33bb8a55f0e4b39546d70816dae68",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_RESTARTS_FRACTIONAL_PENALTY))
def test_restart_heavy_mcts_with_a_fractional_penalty_is_pinned(tmp_path, seed):
    digests = run_restart_heavy(tmp_path, seed, RewardParams(r_penalty=-0.3))
    assert digests == PINNED_RESTARTS_FRACTIONAL_PENALTY[seed]
    assert digests[0] != PINNED_RESTARTS[seed][0]


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
    assert summary.stop_reason == "unique_budget"
    assert sha256(tmp_path / "log.jsonl") == PINNED_BENCH_RESTART_LOG


# The demo experiment's mcts run on seed 2 at a 3000-evaluation budget
# (53 phases): its phase 5 is the one pinned phase that ends on
# ``same_config`` at the default limit of 10, after 1,189 iterations.
LONG_DEMO_BUDGET = Budget(max_unique=3000, max_iterations=300000)
PINNED_LONG_DEMO = (
    "019e08c0c10dc516e9806f02adf9c1627de30756cfd63d078d124c6020e3ed85",
    "475c818b14f8171b3a369ebe6bf2d4892e86936e00c7fb8577f0661a67ba3a11",
)
# Each phase's debug record: (d_star, fresh, iterations, ended).
PINNED_LONG_DEMO_PHASES = [
    (4, 60, 61, "per_run_budget"), (5, 60, 61, "per_run_budget"), (4, 60, 61, "per_run_budget"),
    (3, 60, 62, "per_run_budget"), (4, 60, 61, "per_run_budget"), (1, 29, 1189, "same_config"),
    (5, 60, 63, "per_run_budget"), (5, 58, 62, "no_improve"), (2, 58, 63, "no_improve"),
    (4, 57, 64, "no_improve"), (2, 59, 66, "no_improve"), (4, 56, 61, "no_improve"),
    (3, 59, 64, "no_improve"), (5, 58, 64, "no_improve"), (3, 59, 63, "no_improve"),
    (3, 58, 60, "no_improve"), (4, 56, 63, "no_improve"), (4, 59, 62, "no_improve"),
    (5, 59, 62, "no_improve"), (3, 59, 64, "no_improve"), (5, 58, 63, "no_improve"),
    (3, 58, 62, "no_improve"), (5, 57, 63, "no_improve"), (4, 58, 64, "no_improve"),
    (3, 59, 62, "no_improve"), (3, 56, 65, "no_improve"), (4, 57, 61, "no_improve"),
    (4, 57, 62, "no_improve"), (5, 59, 62, "no_improve"), (3, 58, 65, "no_improve"),
    (3, 56, 62, "no_improve"), (5, 60, 67, "per_run_budget"), (2, 58, 75, "no_improve"),
    (5, 59, 62, "no_improve"), (3, 54, 61, "no_improve"), (3, 59, 62, "no_improve"),
    (4, 57, 61, "no_improve"), (3, 57, 64, "no_improve"), (4, 58, 63, "no_improve"),
    (4, 57, 62, "no_improve"), (5, 57, 63, "no_improve"), (3, 58, 63, "no_improve"),
    (5, 59, 64, "no_improve"), (3, 57, 62, "no_improve"), (4, 58, 60, "no_improve"),
    (4, 57, 61, "no_improve"), (3, 56, 63, "no_improve"), (5, 55, 64, "no_improve"),
    (4, 58, 62, "no_improve"), (3, 58, 63, "no_improve"), (5, 57, 63, "no_improve"),
    (5, 58, 64, "no_improve"), (5, 16, 20, "global_budget"),
]


def test_long_demo_run_with_a_same_config_phase_is_pinned(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="pragmatune")
    config = load_experiment_config(DEMO_EXPERIMENT)
    config = replace(config, seed=2, budget=LONG_DEMO_BUDGET, out_dir=str(tmp_path))
    summary = run_experiment(config)
    assert (summary.stop_reason, summary.unique_evaluations, summary.phases) == (
        "unique_budget",
        3000,
        53,
    )
    phases = [r.args for r in caplog.records if r.funcName == "search"]
    assert [(p["d_star"], p["fresh"], p["iterations"], p["ended"]) for p in phases] == (
        PINNED_LONG_DEMO_PHASES
    )
    assert (sha256(tmp_path / "log.jsonl"), sha256(tmp_path / "summary.json")) == PINNED_LONG_DEMO
