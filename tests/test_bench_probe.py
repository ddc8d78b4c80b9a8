"""The benchmark's probe times a run without changing it.

``bench/run.py`` installs ``Probe`` over ``harness.build_evaluator``: it
unpacks the pair that returns (the inner evaluator, and whether the run
keeps simulated time), wraps the evaluator in a timing closure and
passes the flag on. A change to that pair, or to how often the session
calls the inner evaluator, would change what the bench measures or
break its log-equality check; this test names it instead.
"""

import importlib
from dataclasses import replace
from pathlib import Path

from pragmatune import harness
from pragmatune.session import Budget

REPO = Path(__file__).resolve().parent.parent


def test_the_probe_sees_each_fresh_evaluation_and_moves_no_output_byte(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    run = importlib.import_module("run")
    config = replace(
        harness.load_experiment_config(REPO / "demos" / "experiment.json"),
        budget=Budget(max_unique=30, max_iterations=3000),
    )
    harness.run_experiment(replace(config, out_dir=str(tmp_path / "plain")))
    monkeypatch.setattr(harness, "build_evaluator", harness.build_evaluator)  # undo the install
    probe = run.Probe()
    probe.install(harness)
    probed = harness.run_experiment(replace(config, out_dir=str(tmp_path / "probed")))
    for name in ("log.jsonl", "summary.json"):
        assert (tmp_path / "probed" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert len(probe.eval_s) == len(probed.records) == 31  # the root and 30 fresh
    assert len(probe.step_s) == 30
    assert probe.failures == sum(not r.outcome.ok for r in probed.records)
