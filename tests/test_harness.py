"""Experiment files, orchestration, persistence, and the command line."""

import dataclasses
import gc
import json
import logging
import typing
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from pragmatune import harness, mcts
from pragmatune import session as session_module
from pragmatune.cli import main
from pragmatune.errors import ExperimentConfigError, MissingAnchorError, RootEvaluationError
from pragmatune.evaluators import CompileFailure, ExternalJobSpec, SyntheticLandscape, SyntheticSpec
from pragmatune.harness import (
    LOG_ENV_VAR,
    METHODS,
    ExperimentConfig,
    build_evaluator,
    configure_logging,
    derive_seed,
    load_experiment_config,
    run_experiment,
)
from pragmatune.mcts import MctsParams
from pragmatune.reports import read_log, write_log
from pragmatune.reward import RewardParams
from pragmatune.session import Budget
from pragmatune.space import SpaceParams

REPO = Path(__file__).resolve().parent.parent

NEST_DOC = {
    "loops": [{"id": "i", "children": [{"id": "j"}]}],
    "arrays": ["A"],
}


@pytest.fixture
def experiment_dir(tmp_path):
    (tmp_path / "nest.json").write_text(json.dumps(NEST_DOC))
    return tmp_path


def raise_on_call(monkeypatch, k, exc):
    """Make every run's evaluator raise ``exc`` on its call number ``k + 1``.

    The session calls the evaluator once per fresh evaluation, so the
    first ``k`` records, the root first, are measured before it raises.
    """

    def build(config, build=harness.build_evaluator):
        landscape, simulated = build(config)
        calls = 0

        def evaluate(cfg):
            nonlocal calls
            calls += 1
            if calls > k:
                raise exc
            return landscape(cfg)

        return evaluate, simulated

    monkeypatch.setattr(harness, "build_evaluator", build)


def write_experiment(directory, **overrides):
    doc = {
        "version": 1,
        "nest": "nest.json",
        "method": "mcts",
        "seed": 7,
        "evaluator": {"type": "synthetic"},
        "budget": {"max_unique": 40},
        "search": {"per_run_budget": 20, "n_walks": 4},
    }
    doc.update(overrides)
    path = directory / "exp.json"
    path.write_text(json.dumps(doc))
    return path


EXTERNAL = {
    "type": "external",
    "source_template": "kernel.c",
    "compile_cmd": "cc {src} -o {out}",
    "run_cmd": "{out}",
}

# Wrong-typed JSON values for each field annotation: a string for a
# number, true for a count or a float, 2.5 for a count, "no" for a bool,
# and a scalar where a list or an object is expected.
WRONG_VALUES = {
    "int": ["7", True, 2.5],
    "int | None": ["7", True, 2.5],
    "float": ["0.5", True],
    "bool": ["no", 1],
    "str": [5],
    "str | None": [5],
    "tuple[int, ...]": [4, [2.5], [True]],
    "tuple[bool, ...]": [True, ["no"]],
    "dict": [5],
    "Budget": [5],
    "SpaceParams": [5],
    "RewardParams": [5],
    "MctsParams": [5],
}


def wrong_type_cases():
    """An experiment-file override for each wrong value of every field, and the key it names.

    The cases come from each section class's fields, so a field added
    later is covered. The top level's are ExperimentConfig's fields, but
    ``nest_text``, which the file gives as the ``nest`` path.
    """
    sections = [
        ("budget", Budget, {}),
        ("space", SpaceParams, {}),
        ("reward", RewardParams, {}),
        ("search", MctsParams, {}),
        ("evaluator", SyntheticSpec, {"type": "synthetic"}),
        ("evaluator", ExternalJobSpec, EXTERNAL),
    ]
    for key, cls, base in sections:
        for f in dataclasses.fields(cls):
            for value in WRONG_VALUES[f.type]:
                override = {key: {**base, f.name: value}}
                yield pytest.param(override, f.name, id=f"{cls.__name__}.{f.name}={value!r}")
    for f in dataclasses.fields(ExperimentConfig):
        key = "out" if f.name == "out_dir" else f.name
        if key != "nest_text":
            for value in WRONG_VALUES[f.type]:
                yield pytest.param({key: value}, key, id=f"{key}={value!r}")
    # ``version`` is no config field, but a count all the same: 1, not true or 1.0.
    for value in (True, 1.0):
        yield pytest.param({"version": value}, "version", id=f"version={value!r}")


class TestDeriveSeed:
    def test_stable_and_label_separated(self):
        assert derive_seed(7, "walks") == derive_seed(7, "walks")
        assert derive_seed(7, "walks") != derive_seed(7, "expand")
        assert derive_seed(7, "walks") != derive_seed(8, "walks")
        assert 0 <= derive_seed(0, "landscape") < 2**64


class TestLoadExperimentConfig:
    def test_minimal_file_uses_defaults(self, experiment_dir):
        path = experiment_dir / "exp.json"
        path.write_text(json.dumps({"nest": "nest.json"}))
        config = load_experiment_config(path)
        assert config.method == "mcts"
        assert config.seed == 0
        assert config.budget == Budget()
        assert '"id": "i"' in config.nest_text
        assert config.out_dir is None

    def test_sections_override_defaults(self, experiment_dir, monkeypatch):
        path = write_experiment(
            experiment_dir,
            budget={"max_unique": 5, "max_wall_clock_s": 60.0},
            space={"tile_sizes": [4, 8], "d_max": 3},
            reward={"m": 5, "alpha": 0.1},
        )
        config = load_experiment_config(path)
        assert config.budget.max_unique == 5
        assert config.space.tile_sizes == (4, 8)
        assert config.space.d_max == 3
        assert config.reward.m == 5
        assert config.search.per_run_budget == 20
        seen = []

        def spy(session, root, reward, params, *rngs, search=mcts.search):
            seen.append((root.params, reward, params))
            search(session, root, reward, params, *rngs)

        monkeypatch.setattr(mcts, "search", spy)
        run_experiment(config)
        [(space, reward, params)] = seen
        assert params.per_run_budget == 20
        assert space.d_max == 3
        assert reward.m == 5

    def test_rejections(self, experiment_dir):
        cases = [
            {"version": 2, "nest": "nest.json"},
            {"nest": "missing.json"},
            {"nest": "nest.json", "method": "annealing"},
            {"nest": "nest.json", "evaluator": {"type": "quantum"}},
            {"nest": "nest.json", "budget": {"max_unique": -3}},
            {"nest": "nest.json", "budget": {"max_uniq": 3}},
            {"nest": "nest.json", "budget": [1, 2]},
            {"nest": "nest.json", "evaluator": {"type": "external"}},
        ]
        for doc in cases:
            path = experiment_dir / "exp.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ExperimentConfigError):
                load_experiment_config(path)
        with pytest.raises(ExperimentConfigError):
            load_experiment_config(experiment_dir / "nowhere.json")
        (experiment_dir / "exp.json").write_text("[]")
        with pytest.raises(ExperimentConfigError):
            load_experiment_config(experiment_dir / "exp.json")
        with pytest.raises(ExperimentConfigError):
            load_experiment_config(experiment_dir / "nest.json")  # no 'nest' key

    def test_search_may_not_hold_space_or_reward(self, experiment_dir):
        # Each knob has one home: the space and reward knobs are top-level sections.
        for name, section in (("space", {"d_max": 1}), ("reward", {"alpha": 0.9})):
            path = write_experiment(experiment_dir, search={"n_walks": 4, name: section})
            match = f"'search' section: .*unexpected keyword argument '{name}'"
            with pytest.raises(ExperimentConfigError, match=match):
                load_experiment_config(path)

    def test_bad_scalar_fields_are_config_errors(self, experiment_dir):
        (experiment_dir / "kernel.c").write_text("/*@loop:i*/\nfor(;;);\n")
        external = {
            "type": "external",
            "source_template": "kernel.c",
            "compile_cmd": "cc {src} -o {out}",
            "run_cmd": "{out}",
        }
        cases = [
            ({"seed": "abc"}, "'seed'"),
            ({"seed": float("inf")}, "'seed'"),
            ({"nest": 5}, "'nest'"),
            ({"out": 5}, "'out'"),
            ({"evaluator": {"type": "synthetic", "base_time": "x"}}, "section: 'base_time'"),
            ({"evaluator": {"failure_rate": None}}, "section: 'failure_rate'"),
            ({"evaluator": {**external, "repetitions": "many"}}, "section: 'repetitions'"),
            ({"evaluator": {**external, "timeout_s": [60]}}, "section: 'timeout_s'"),
        ]
        for overrides, field in cases:
            path = write_experiment(experiment_dir, **overrides)
            with pytest.raises(ExperimentConfigError, match=field):
                load_experiment_config(path)

    def test_out_of_range_evaluator_fields_are_config_errors(self, experiment_dir):
        (experiment_dir / "kernel.c").write_text("/*@loop:i*/\nfor(;;);\n")
        external = {
            "type": "external",
            "source_template": "kernel.c",
            "compile_cmd": "cc {src} -o {out}",
            "run_cmd": "{out}",
        }
        cases = [
            ({"base_time": -1}, "'base_time' must be > 0"),
            ({"base_time": 0}, "'base_time' must be > 0"),
            ({"base_time": float("nan")}, "'base_time' must be > 0"),
            ({"failure_rate": 1.5}, r"'failure_rate' must be in \[0, 1\)"),
            ({"failure_rate": 1}, r"'failure_rate' must be in \[0, 1\)"),
            ({"failure_rate": -0.1}, r"'failure_rate' must be in \[0, 1\)"),
            ({**external, "repetitions": 0}, "'repetitions' must be >= 1"),
            ({**external, "timeout_s": 0}, "'timeout_s' must be > 0"),
            ({**external, "timeout_s": -5}, "'timeout_s' must be > 0"),
        ]
        for evaluator, message in cases:
            path = write_experiment(experiment_dir, evaluator=evaluator)
            with pytest.raises(ExperimentConfigError, match="bad 'evaluator' section: " + message):
                load_experiment_config(path)
        edges = {**external, "repetitions": 1, "timeout_s": 0.5}
        assert load_experiment_config(write_experiment(experiment_dir, evaluator=edges))

    def test_numeric_fields_load_as_numbers(self, experiment_dir):
        path = write_experiment(
            experiment_dir, seed=12, out="run", evaluator={"base_time": 2, "failure_rate": 0}
        )
        config = load_experiment_config(path)
        assert config.seed == 12 and config.out_dir == str(experiment_dir / "run")
        assert config.evaluator["base_time"] == 2.0
        landscape = build_evaluator(config)[0]
        assert landscape.failure_rate == 0.0 and type(landscape.failure_rate) is float
        assert type(landscape.base_time) is float
        # A string is never read as a number.
        with pytest.raises(ExperimentConfigError, match="'seed' must be int"):
            load_experiment_config(write_experiment(experiment_dir, seed="12"))

    def test_out_resolves_beside_the_file(self, experiment_dir, tmp_path_factory, monkeypatch):
        (experiment_dir / "cfg").mkdir()
        (experiment_dir / "cfg" / "nest.json").write_text(json.dumps(NEST_DOC))
        path = write_experiment(experiment_dir / "cfg", out="run")
        cwd = tmp_path_factory.mktemp("cwd")
        monkeypatch.chdir(cwd)
        run_experiment(load_experiment_config(path))
        assert (experiment_dir / "cfg" / "run" / "log.jsonl").exists()
        assert list(cwd.iterdir()) == []

    def test_external_evaluator_loads_the_template(self, experiment_dir):
        (experiment_dir / "kernel.c").write_text("/*@loop:i*/\nfor(;;);\n")
        path = write_experiment(
            experiment_dir,
            evaluator={
                "type": "external",
                "source_template": "kernel.c",
                "compile_cmd": "cc {src} -o {out}",
                "run_cmd": "{out}",
            },
        )
        config = load_experiment_config(path)
        assert "/*@loop:i*/" in config.evaluator["source_template"]
        evaluator, simulated = build_evaluator(config)
        assert simulated is False  # external runs keep real time
        assert evaluator.keywords["job"].compile_cmd == "cc {src} -o {out}"


def nested_config_classes(cls) -> list[type]:
    """Each dataclass held by a field of ``cls``, or of a dataclass so held, once per field."""
    found = []
    for hint in typing.get_type_hints(cls).values():
        if dataclasses.is_dataclass(hint):
            found += [hint, *nested_config_classes(hint)]
    return found


class TestOneHomePerKnob:
    def test_each_config_class_appears_once_in_the_experiment_config(self):
        homes = Counter(nested_config_classes(ExperimentConfig))
        assert homes == {Budget: 1, SpaceParams: 1, RewardParams: 1, MctsParams: 1}

    @pytest.mark.parametrize(
        "knobs", [{"reward": RewardParams()}, {"space": SpaceParams()}], ids=["reward", "space"]
    )
    def test_the_search_knobs_hold_no_reward_or_space(self, knobs):
        with pytest.raises(TypeError):
            MctsParams(**knobs)
        assert not hasattr(ExperimentConfig, "mcts_params")


class TestBuildEvaluator:
    def test_synthetic_gets_a_simulated_clock(self, experiment_dir):
        config = load_experiment_config(write_experiment(experiment_dir))
        evaluator, simulated = build_evaluator(config)
        assert isinstance(evaluator, SyntheticLandscape)
        assert simulated is True

    def test_landscape_seed_follows_the_master_seed(self, experiment_dir):
        a = build_evaluator(load_experiment_config(write_experiment(experiment_dir, seed=1)))[0]
        b = build_evaluator(load_experiment_config(write_experiment(experiment_dir, seed=2)))[0]
        assert a.seed != b.seed
        explicit = build_evaluator(
            load_experiment_config(
                write_experiment(experiment_dir, evaluator={"type": "synthetic", "seed": 99})
            )
        )[0]
        assert explicit.seed == 99

    @pytest.mark.parametrize("seed", [1.0, True, "x"])
    def test_a_landscape_seed_must_be_an_integer(self, experiment_dir, seed):
        # The landscape hashes its seed's text: 1.0 and true would build
        # other landscapes than 1.
        path = write_experiment(experiment_dir, evaluator={"seed": seed})
        with pytest.raises(ExperimentConfigError, match="'evaluator' section: 'seed' must be"):
            load_experiment_config(path)
        with pytest.raises(TypeError, match="'seed' must be int"):
            SyntheticLandscape(seed=seed)


class TestRunExperiment:
    def test_summary_matches_the_log(self, experiment_dir):
        config = load_experiment_config(write_experiment(experiment_dir))
        summary = run_experiment(config)
        assert summary.method == "mcts" and summary.seed == 7
        assert summary.unique_evaluations == 40
        assert len(summary.records) == 41
        best_h = max(r.h for r in summary.records if r.h is not None)
        assert summary.best_h == best_h
        assert summary.best_key in {r.key for r in summary.records}
        assert summary.phases >= 1
        assert summary.wall_clock_s > 0.0

    def test_each_method_dispatches(self, experiment_dir):
        for method in ("rs", "bf", "gg"):
            config = load_experiment_config(
                write_experiment(
                    experiment_dir,
                    method=method,
                    budget={"max_unique": 10, "max_iterations": 200},
                )
            )
            summary = run_experiment(config)
            assert summary.method == method
            assert all(r.method == method for r in summary.records)

    def test_out_dir_gets_log_and_summary(self, experiment_dir):
        out = experiment_dir / "run"
        config = load_experiment_config(write_experiment(experiment_dir, out=str(out)))
        summary = run_experiment(config)
        log_path = out / "log.jsonl"
        summary_path = out / "summary.json"
        assert log_path.exists() and summary_path.exists()
        assert len(log_path.read_text().splitlines()) == len(summary.records)
        on_disk = json.loads(summary_path.read_text())
        assert on_disk == summary.to_dict()
        assert on_disk["best_key"] == summary.best_key

    def test_cyclic_gc_is_suspended_for_the_search_only(self, experiment_dir, monkeypatch):
        states = []

        def watched(config, build=harness.build_evaluator):
            landscape, simulated = build(config)

            def evaluate(cfg):
                states.append(gc.isenabled())
                return CompileFailure("no baseline") if fail_root else landscape(cfg)

            return evaluate, simulated

        monkeypatch.setattr(harness, "build_evaluator", watched)
        config = load_experiment_config(write_experiment(experiment_dir))
        was_enabled = gc.isenabled()
        try:
            for enabled_before in (True, False):
                for fail_root in (False, True):
                    gc.enable() if enabled_before else gc.disable()
                    states.clear()
                    if fail_root:
                        with pytest.raises(RootEvaluationError):
                            run_experiment(config)
                    else:
                        run_experiment(config)
                    assert states and not any(states)
                    assert gc.isenabled() == enabled_before
        finally:
            gc.enable() if was_enabled else gc.disable()

    @pytest.mark.parametrize("method", ["mcts", "rs", "bf", "gg"])
    def test_a_run_leaves_no_cycles_per_evaluation(self, experiment_dir, method):
        # The collector is off during a search; that is safe only while a
        # run's cyclic garbage does not grow with its budget.
        def cyclic_garbage(budget):
            out = experiment_dir / f"run{budget}"
            path = write_experiment(
                experiment_dir,
                method=method,
                out=str(out),
                budget={"max_unique": budget, "max_iterations": 100 * budget},
            )
            run_experiment(load_experiment_config(path))
            return gc.collect()

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert cyclic_garbage(40) == cyclic_garbage(400)
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize(
        "budget,reason",
        [
            ({"max_unique": 6}, "unique_budget"),
            ({"max_unique": 1000, "max_iterations": 10}, "iterations"),
            ({"max_unique": 1000, "max_wall_clock_s": 3.0}, "wall_clock"),
        ],
    )
    def test_each_bound_names_its_stop_reason(self, experiment_dir, method, budget, reason):
        out = experiment_dir / "run"
        path = write_experiment(experiment_dir, method=method, budget=budget, out=str(out))
        summary = run_experiment(load_experiment_config(path))
        assert summary.stop_reason == reason
        assert json.loads((out / "summary.json").read_text())["stop_reason"] == reason

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize(
        "exc,reason", [(KeyboardInterrupt(), "interrupted"), (OSError("disk gone"), "error")]
    )
    def test_a_search_that_raises_still_writes_what_it_measured(
        self, experiment_dir, monkeypatch, method, exc, reason
    ):
        k = 9
        full_out, out = experiment_dir / "full", experiment_dir / "cut"
        run_experiment(
            load_experiment_config(write_experiment(experiment_dir, method=method, out=str(full_out)))
        )
        raise_on_call(monkeypatch, k, exc)
        config = load_experiment_config(write_experiment(experiment_dir, method=method, out=str(out)))
        with pytest.raises(type(exc)):
            run_experiment(config)
        # The log holds exactly the k records measured before the raise,
        # the same bytes as the uninterrupted run's first k lines.
        data = (out / "log.jsonl").read_bytes()
        full = (full_out / "log.jsonl").read_bytes().splitlines(keepends=True)
        assert data.splitlines(keepends=True) == full[:k]
        records = read_log(out / "log.jsonl")
        assert len(records) == k and records[0].key == ""
        write_log(records, experiment_dir / "again.jsonl")
        assert (experiment_dir / "again.jsonl").read_bytes() == data
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk["stop_reason"] == reason
        assert on_disk["unique_evaluations"] == k - 1

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), OSError("disk gone")])
    def test_a_raise_before_the_root_is_measured_writes_nothing(
        self, experiment_dir, monkeypatch, exc
    ):
        out = experiment_dir / "run"
        raise_on_call(monkeypatch, 0, exc)
        with pytest.raises(type(exc)):
            run_experiment(load_experiment_config(write_experiment(experiment_dir, out=str(out))))
        assert list(out.iterdir()) == []  # made before the search, left empty

    def test_a_failing_root_writes_nothing(self, experiment_dir, monkeypatch):
        out = experiment_dir / "run"
        failing_root = (lambda cfg: CompileFailure("no baseline"), True)
        monkeypatch.setattr(harness, "build_evaluator", lambda config: failing_root)
        with pytest.raises(RootEvaluationError):
            run_experiment(load_experiment_config(write_experiment(experiment_dir, out=str(out))))
        assert list(out.iterdir()) == []

    def test_an_unusable_out_dir_fails_before_any_evaluation(self, experiment_dir, monkeypatch):
        not_a_dir = experiment_dir / "file"
        not_a_dir.write_text("")
        calls = []

        def build(config, build=harness.build_evaluator):
            landscape, simulated = build(config)
            return (lambda cfg: calls.append(cfg) or landscape(cfg)), simulated

        monkeypatch.setattr(harness, "build_evaluator", build)
        path = write_experiment(experiment_dir, out=str(not_a_dir / "run"))
        with pytest.raises(NotADirectoryError):
            run_experiment(load_experiment_config(path))
        assert calls == []

    @staticmethod
    def ijk_external(experiment_dir, k_transformable, **overrides):
        """An i/j/k nest under a template that anchors i and j only."""
        k = {"id": "k", "transformable": k_transformable}
        nest = {"loops": [{"id": "i", "children": [{"id": "j", "children": [k]}]}]}
        (experiment_dir / "ijk.json").write_text(json.dumps(nest))
        (experiment_dir / "kernel.c").write_text(
            "/*@loop:i*/\nfor(;;)\n  /*@loop:j*/\n  for(;;)\n    for(;;);\n"
        )
        evaluator = {**EXTERNAL, "compile_cmd": "true {src} {out}", "run_cmd": "echo 1.0"}
        return write_experiment(
            experiment_dir, nest="ijk.json", method="bf", evaluator=evaluator, **overrides
        )

    def test_a_missing_anchor_fails_before_any_evaluation(self, experiment_dir, monkeypatch):
        calls = []

        def build(config, build=harness.build_evaluator):
            evaluate, simulated = build(config)
            return (lambda cfg: calls.append(cfg) or evaluate(cfg)), simulated

        monkeypatch.setattr(harness, "build_evaluator", build)
        out = experiment_dir / "run"
        path = self.ijk_external(experiment_dir, True, out=str(out))
        with pytest.raises(MissingAnchorError, match=r"loop\(s\) k$"):
            run_experiment(load_experiment_config(path))
        assert calls == []
        assert not out.exists()

    def test_a_frozen_loop_needs_no_anchor(self, experiment_dir):
        budget = {"max_unique": 3}
        path = self.ijk_external(experiment_dir, False, budget=budget)
        summary = run_experiment(load_experiment_config(path))
        assert summary.unique_evaluations == 3 and summary.stop_reason == "unique_budget"

    def test_synthetic_runs_are_byte_reproducible(self, experiment_dir):
        texts = []
        for name in ("a", "b"):
            out = experiment_dir / name
            config = load_experiment_config(write_experiment(experiment_dir, out=str(out)))
            run_experiment(config)
            texts.append((out / "log.jsonl").read_bytes())
        assert texts[0] == texts[1]


class TestRunTime:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_synthetic_time_is_the_running_sum_of_fresh_successes(self, experiment_dir, method):
        budget = {"max_unique": 30, "max_iterations": 3000}
        path = write_experiment(experiment_dir, method=method, budget=budget)
        summary = run_experiment(load_experiment_config(path))
        running = 0.0
        for record in summary.records:
            running += record.outcome.seconds if record.outcome.ok else 0.0
            assert record.wall_clock_s == running  # failures add nothing
        assert any(not r.outcome.ok for r in summary.records)
        assert summary.wall_clock_s == summary.records[-1].wall_clock_s

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_a_real_time_bound_stops_the_run_with_wall_clock(
        self, experiment_dir, monkeypatch, method
    ):
        now = [0.0]
        monkeypatch.setattr(session_module, "time", SimpleNamespace(monotonic=lambda: now[0]))

        def build(config, build=harness.build_evaluator):
            landscape, _ = build(config)

            def evaluate(cfg):
                now[0] += 1.0  # each evaluation takes one second of host time
                return landscape(cfg)

            return evaluate, False

        monkeypatch.setattr(harness, "build_evaluator", build)
        budget = {"max_unique": 1000, "max_wall_clock_s": 5.0, "max_iterations": 10_000}
        path = write_experiment(experiment_dir, method=method, budget=budget)
        summary = run_experiment(load_experiment_config(path))
        assert summary.stop_reason == "wall_clock"
        assert [r.wall_clock_s for r in summary.records] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert summary.wall_clock_s == 5.0


class TestEndOfRunLog:
    @staticmethod
    def messages(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.name == "pragmatune"]

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_ends_with_one_info_line(self, experiment_dir, caplog, method):
        caplog.set_level(logging.INFO, logger="pragmatune")
        out = experiment_dir / "run"
        budget = {"max_unique": 10, "max_iterations": 200}
        path = write_experiment(experiment_dir, method=method, budget=budget, out=str(out))
        summary = run_experiment(load_experiment_config(path))
        lines = self.messages(caplog)
        assert lines[-2].startswith("wrote ")  # after the summary
        assert lines[-1] == (
            f"end: method={method} seed=7 stop_reason={summary.stop_reason} unique=10 "
            f"phases={summary.phases} elapsed={summary.wall_clock_s:.3f}s"
        )
        assert sum(line.startswith("end: ") for line in lines) == 1

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize(
        "exc,reason", [(KeyboardInterrupt(), "interrupted"), (OSError("disk gone"), "error")]
    )
    def test_a_run_that_raises_still_logs_its_end(
        self, experiment_dir, monkeypatch, caplog, method, exc, reason
    ):
        caplog.set_level(logging.INFO, logger="pragmatune")
        raise_on_call(monkeypatch, 4, exc)
        with pytest.raises(type(exc)):
            run_experiment(load_experiment_config(write_experiment(experiment_dir, method=method)))
        end = self.messages(caplog)[-1]
        assert end.startswith(f"end: method={method} seed=7 stop_reason={reason} unique=3 ")


class TestConfigureLogging:
    def test_env_var_sets_the_level(self, monkeypatch):
        root = logging.getLogger()
        saved_level, saved_handlers = root.level, root.handlers[:]
        root.handlers[:] = []
        try:
            monkeypatch.setenv(LOG_ENV_VAR, "debug")
            configure_logging()
            assert root.level == logging.DEBUG
        finally:
            root.handlers[:] = saved_handlers
            root.setLevel(saved_level)

    def test_absent_env_var_changes_nothing(self, monkeypatch):
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        root = logging.getLogger()
        before = root.level
        configure_logging()
        assert root.level == before


class TestCli:
    def test_tune_prints_a_summary_and_writes_logs(self, experiment_dir, capsys):
        out = experiment_dir / "run"
        path = write_experiment(experiment_dir)
        code = main(["tune", "--config", str(path), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "unique evaluations: 40" in printed
        assert "best h:" in printed
        assert "stopped by: unique_budget" in printed
        assert (out / "log.jsonl").exists()

    def test_ctrl_c_names_the_files_written_and_exits_130(
        self, experiment_dir, monkeypatch, capsys
    ):
        out = experiment_dir / "run"
        path = str(write_experiment(experiment_dir))

        def tune(*args):
            try:
                return main(["tune", "--config", path, *args])
            except KeyboardInterrupt:
                pytest.fail("KeyboardInterrupt escaped 'pragmatune tune'")

        raise_on_call(monkeypatch, 5, KeyboardInterrupt())
        assert tune("--out", str(out)) == 130
        captured = capsys.readouterr()
        assert captured.err == f"interrupted; wrote {out / 'log.jsonl'} and {out / 'summary.json'}\n"
        assert captured.out == ""
        assert json.loads((out / "summary.json").read_text())["stop_reason"] == "interrupted"
        assert len((out / "log.jsonl").read_text().splitlines()) == 5
        # Interrupted at the root, the run writes nothing; the files of
        # the earlier run are not reported as this run's.
        raise_on_call(monkeypatch, 0, KeyboardInterrupt())
        for args in (["--out", str(out)], []):
            assert tune(*args) == 130
            assert capsys.readouterr().err == "interrupted; wrote nothing\n"

    def test_tune_overrides_method_and_seed(self, experiment_dir, capsys):
        path = write_experiment(
            experiment_dir, budget={"max_unique": 8, "max_iterations": 100}
        )
        code = main(["tune", "--config", str(path), "--method", "rs", "--seed", "3"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "method: rs   seed: 3" in printed

    def test_report_trajectory(self, experiment_dir, capsys):
        out = experiment_dir / "run"
        main(["tune", "--config", str(write_experiment(experiment_dir)), "--out", str(out)])
        capsys.readouterr()
        code = main(["report", "trajectory", "--log", str(out / "log.jsonl")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index\tdepth\th\tbest_so_far_h\tf\tphase"
        assert len(lines) >= 42

    def test_report_cutoff_and_best_depth(self, experiment_dir, capsys):
        logs = []
        for method in ("mcts", "rs"):
            out = experiment_dir / method
            main(
                [
                    "tune",
                    "--config",
                    str(write_experiment(experiment_dir, budget={"max_unique": 15, "max_iterations": 400})),
                    "--method",
                    method,
                    "--out",
                    str(out),
                ]
            )
            logs.append(str(out / "log.jsonl"))
        capsys.readouterr()
        assert main(["report", "cutoff", "--log", *logs, "--top-percent", "10"]) == 0
        cutoff_out = capsys.readouterr().out
        assert cutoff_out.startswith("# cutoff ")
        assert "index\tmcts\trs" in cutoff_out
        assert main(["report", "best-depth", "--log", *logs]) == 0
        best_out = capsys.readouterr().out
        assert best_out.startswith("method\tbest_depth\tbest_h\tkey")

    def test_space_dump(self, experiment_dir, capsys):
        path = str(write_experiment(experiment_dir))
        assert main(["space", "dump", "--config", path, "--max-depth", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "depth\tnodes"
        assert lines[1] == "0\t1"
        assert lines[2] == "1\t35"

    def test_space_dump_counts_the_space_the_experiment_searches(self, tmp_path, capsys):
        # README's example space; the dump once ignored it and counted
        # the default space (35 nodes at depth 1).
        path = write_experiment(
            tmp_path,
            nest=str(REPO / "demos" / "matscale_nest.json"),
            space={"tile_sizes": [2, 4, 8, 16, 32], "d_max": 5},
        )
        assert main(["space", "dump", "--config", str(path), "--max-depth", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["depth\tnodes", "0\t1", "1\t25"]
        config = load_experiment_config(path)
        assert harness.space_root(config).params == config.space

    @pytest.mark.parametrize("depth", ["-1", "-5", "x"])
    def test_a_negative_or_non_integer_depth_is_a_usage_error(self, experiment_dir, capsys, depth):
        path = str(write_experiment(experiment_dir))
        with pytest.raises(SystemExit) as raised:
            main(["space", "dump", "--config", path, "--max-depth", depth])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-depth" in captured.err
        assert main(["space", "dump", "--config", path, "--max-depth", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["depth\tnodes", "0\t1"]

    def test_bad_scalar_field_exits_with_two(self, experiment_dir, capsys):
        path = write_experiment(experiment_dir, seed="abc")
        assert main(["tune", "--config", str(path)]) == 2
        assert "error: 'seed' must be int" in capsys.readouterr().err

    def test_out_of_range_field_exits_with_two(self, experiment_dir, capsys):
        path = write_experiment(experiment_dir, evaluator={"base_time": -1})
        assert main(["tune", "--config", str(path)]) == 2
        assert "error: bad 'evaluator' section: 'base_time' must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("search", "c"), ("budget", "max_wall_clock_s")])
    def test_a_nan_bound_exits_with_two(self, experiment_dir, capsys, section, key):
        # NaN fails every comparison, so a "reject if below" check lets it through.
        path = write_experiment(experiment_dir, **{section: {key: float("nan")}})
        assert main(["tune", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad '{section}' section: {key} must be")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("space", "d_max", 2.5),
            ("space", "max_permutation_depth", 2.5),
            ("space", "tile_sizes", [2.5]),
            ("space", "unroll_factors", [2.5]),
            ("space", "tile_sizes", [True]),
            ("search", "per_run_budget", 2.5),
            ("search", "n_walks", 2.5),
            ("search", "no_improve_limit", 2.5),
            ("search", "same_config_limit", 2.5),
            ("reward", "m", 2.5),
            ("budget", "max_unique", 2.5),
            ("budget", "max_iterations", 2.5),
        ],
    )
    def test_a_non_integer_count_exits_with_two(self, experiment_dir, capsys, section, key, value):
        path = write_experiment(experiment_dir, **{section: {key: value}})
        assert main(["tune", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad '{section}' section: '{key}' must be ") and "int" in err

    @pytest.mark.parametrize(
        "key", ["per_run_budget", "n_walks", "no_improve_limit", "same_config_limit"]
    )
    def test_a_zero_search_count_exits_with_two(self, experiment_dir, capsys, key):
        path = write_experiment(experiment_dir, search={key: 0})
        assert main(["tune", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: bad 'search' section: {key} must be >= 1\n"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tile_sizes", [2, 2]),
            ("unroll_factors", [4, 4]),
            ("peel_variants", ["no"]),
            ("peel_variants", [0]),
        ],
    )
    def test_a_repeated_or_non_boolean_space_value_exits_with_two(
        self, experiment_dir, capsys, key, value
    ):
        path = write_experiment(experiment_dir, space={key: value})
        assert main(["tune", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: bad 'space' section: ")

    @pytest.mark.parametrize("overrides, name", list(wrong_type_cases()))
    def test_a_wrong_typed_field_exits_with_two(self, experiment_dir, capsys, overrides, name):
        (experiment_dir / "kernel.c").write_text("/*@loop:i*/\nfor(;;);\n")
        path = write_experiment(experiment_dir, **overrides)
        assert main(["tune", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{name}'" in err

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"methd": "rs"}, "methd"),
            ({"evaluator": {"failure_rat": 0.5}}, "failure_rat"),
            ({"evaluator": {**EXTERNAL, "repetition": 3}}, "repetition"),
            pytest.param({"search": {"reward": 5}}, "reward", id="search.reward"),
            pytest.param({"search": {"space": 5}}, "space", id="search.space"),
        ],
    )
    def test_an_unknown_key_exits_with_two(self, experiment_dir, capsys, overrides, name):
        (experiment_dir / "kernel.c").write_text("/*@loop:i*/\nfor(;;);\n")
        path = write_experiment(experiment_dir, **overrides)
        assert main(["tune", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize(
        "config",
        [
            "demos/experiment.json",
            "bench/workloads/mcts_restart.json",
            "bench/workloads/external_gcc.json",
        ],
    )
    def test_every_committed_experiment_file_loads(self, config):
        assert load_experiment_config(REPO / config).evaluator["type"] in ("synthetic", "external")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("compile_cmd", "cc {sr} -o {out}"),
            ("compile_cmd", ""),
            ("run_cmd", "{out} {0}"),
            ("run_cmd", "{out.name}"),
            ("run_cmd", "'{out}"),
            ("reject_pattern", "("),
        ],
    )
    def test_a_broken_command_or_pattern_exits_with_two_at_load(
        self, experiment_dir, capsys, key, value
    ):
        (experiment_dir / "kernel.c").write_text("/*@loop:i*/\nfor(;;);\n")
        path = write_experiment(experiment_dir, evaluator={**EXTERNAL, key: value})
        assert main(["tune", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad 'evaluator' section: '{key}'") and "Traceback" not in err

    @pytest.mark.parametrize(
        "nest, named",
        [
            ({"loops": [{"id": "i", "transformable": "no"}]}, "'transformable'"),
            ({"loops": [{"id": "i", "transformable": 0}]}, "'transformable'"),
            ({"loops": [{"id": "i", "childern": [{"id": "j"}]}]}, "'childern'"),
            ({"loops": [{"id": "i", "transformible": False}]}, "'transformible'"),
            ({"loops": [{"id": "i"}], "array": ["A"]}, "'array'"),
            ({"loops": [{"id": "x)|reverse(y"}]}, "ASCII identifier"),
            ({"loops": [{"id": "i"}], "arrays": ["A;x"]}, "ASCII identifiers"),
        ],
    )
    def test_a_wrong_typed_or_unknown_nest_field_exits_with_two(
        self, experiment_dir, capsys, nest, named
    ):
        (experiment_dir / "nest.json").write_text(json.dumps(nest))
        assert main(["tune", "--config", str(write_experiment(experiment_dir))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["no", 0, 1])
    def test_a_non_boolean_monotone_target_exits_with_two(self, experiment_dir, capsys, value):
        path = write_experiment(experiment_dir, reward={"monotone_target": value})
        assert main(["tune", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad 'reward' section: 'monotone_target' must be bool")

    def test_a_cutoff_over_no_successful_record_exits_with_two(self, experiment_dir, capsys):
        empty = experiment_dir / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "cutoff", "--log", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_report_input_exits_with_two(self, experiment_dir, capsys):
        out = experiment_dir / "run"
        main(["tune", "--config", str(write_experiment(experiment_dir)), "--out", str(out)])
        log = str(out / "log.jsonl")
        for percent in ("0", "-5", "100.5", "nan"):
            with pytest.raises(SystemExit) as raised:
                main(["report", "cutoff", "--log", log, "--top-percent", percent])
            assert raised.value.code == 2
        assert main(["report", "cutoff", "--log", log, "--top-percent", "100"]) == 0
        capsys.readouterr()
        broken = experiment_dir / "broken.jsonl"
        broken.write_text((out / "log.jsonl").read_text() + "not json\n")
        for kind in ("trajectory", "cutoff", "best-depth"):
            assert main(["report", kind, "--log", log, str(broken)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "broken.jsonl, line 42: " in err
            assert "Traceback" not in err

    def test_errors_exit_with_two(self, experiment_dir, capsys):
        assert main(["tune", "--config", str(experiment_dir / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err
        (experiment_dir / "bad.json").write_text("{}")
        bad_nest = write_experiment(experiment_dir, nest="bad.json")
        assert main(["space", "dump", "--config", str(bad_nest), "--max-depth", "1"]) == 2
