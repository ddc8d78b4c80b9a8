"""Pinned run outputs: the search's observable behaviour, byte for byte.

The digests are the sha256 of ``log.jsonl`` and ``summary.json`` for the
demo experiment under every method and seeds 1-3 on the synthetic
evaluator. Two runs of the same code matching each other (criterion 8)
cannot catch a refactor that changes behaviour; these digests can. A
change that means to alter the search re-pins them and says so in
CHANGES.md.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from pragmatune.harness import load_experiment_config, run_experiment

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
