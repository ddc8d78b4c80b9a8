"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SYNTHETIC = [w.name for w in run.WORKLOADS.values() if w.deterministic]


def tiny(name: str, **sizes) -> run.Workload:
    return replace(run.WORKLOADS[name], **{"budget": 20, "trace_units": 2, **sizes})


@pytest.mark.parametrize("name", SYNTHETIC)
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    result = json.loads(json.dumps(run.measure(tiny(name), seed=1, seconds=0, trace=False)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in run.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", SYNTHETIC)
def test_traced_counts_repeat_exactly(name):
    workload = tiny(name, budget=150)  # past per_run_budget, so mcts restarts
    first, second = (run.measure(workload, seed=3, seconds=0, trace=True) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert [k for k in first["metrics"]] == [m.name for m in run.PER_LAYER]
    exact = [
        m.name
        for m in run.PER_LAYER
        if not m.name.endswith(".self_ms") and not m.name.startswith("trace.")
    ]
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert first["metrics"]["session.measure.calls"]["value"] > 0
    assert first["metrics"]["harness.load_experiment_config.calls"]["value"] == 1


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _lower_last_best(text: str) -> str:
    lines = text.splitlines(keepends=True)
    doc = json.loads(lines[-1])
    doc["best_so_far_h"] = 0.5
    return "".join(lines[:-1]) + json.dumps(doc) + "\n"


def _compact(text: str) -> str:
    """Same records, other bytes: only the round-trip check can see it."""
    return "".join(
        json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in text.splitlines()
    )


def _garble(text: str) -> str:
    return text.replace('"', "'", 1)


@pytest.mark.parametrize("tamper", [_drop_last_line, _lower_last_best, _compact, _garble])
def test_output_check_fails_on_a_tampered_log(tamper):
    bench = run.Bench(tiny("mcts-restart"), seed=1)
    try:
        assert not bench.run_unit(0).runs[0].problems
        original = bench.harness.run_experiment

        def run_and_tamper(config):
            summary = original(config)
            log = Path(config.out_dir) / "log.jsonl"
            log.write_text(tamper(log.read_text()))
            return summary

        bench.harness.run_experiment = run_and_tamper
        assert bench.run_unit(0).runs[0].problems
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")
def test_external_run_traces_the_compile_and_run_path():
    result = run.measure(tiny("external-gcc", budget=3, trace_units=1), seed=1, seconds=0, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["evaluators.evaluate_external.calls"] == 4  # the root plus the budget
    assert metrics["rendering.render_pragmas.calls"] == 4
    assert 0 < metrics["evaluators.external.overhead_frac"] < 1


def test_missing_compiler_skips_the_workload_without_a_result(monkeypatch, capsys):
    monkeypatch.setenv("PATH", "")
    assert run.main(["--workload", "external-gcc"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "skipped: gcc not found" in captured.err


def test_missing_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "mcts-restart"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_is_generated_from_the_tables():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.manifest()
