"""Session bookkeeping: budget, the run's time, caching, best tracking, records."""

import dataclasses
from types import SimpleNamespace

import pytest

from pragmatune import session as session_module
from pragmatune.errors import RootEvaluationError
from pragmatune.evaluators import (
    CachedEvaluator,
    CompileFailure,
    RunFailure,
    SyntheticLandscape,
    Time,
)
from pragmatune.loops import Configuration, Reverse, Tile, Unroll
from pragmatune.reports import read_log, write_log
from pragmatune.reward import RewardParams, TargetState, quantile_split
from pragmatune.session import (
    Budget,
    EvalRecord,
    SearchSession,
    record_from_dict,
)

from helpers import ranked_history


def cfg(*steps):
    return Configuration(tuple(steps))


def halver(config):
    """Root takes 1s; every other configuration takes 0.5s."""
    return Time(1.0 if not config.steps else 0.5)


def session_with(evaluator, simulated=True, **budget):
    return SearchSession(
        CachedEvaluator(evaluator), Budget(**budget), "test", simulated=simulated
    )


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_unique=-1)
        with pytest.raises(ValueError):
            Budget(max_wall_clock_s=0.0)
        with pytest.raises(ValueError):
            Budget(max_iterations=0)
        assert Budget(max_iterations=None).max_iterations is None


class TestSessionTime:
    def test_simulated_time_is_the_running_sum_of_fresh_successes(self):
        times = {"": 1.5, "reverse(i)": 0.25, "unroll(i;2)": 0.1, "reverse(j)": 0.3}
        session = session_with(lambda c: Time(times[c.key]) if c.key in times else RunFailure())
        session.evaluate_root()
        for step in (Reverse("i"), Tile("i", 8), Reverse("i"), Unroll("i", 2), Reverse("j")):
            session.measure(cfg(step))
        running, expected = 0.0, []
        for key in ["", "reverse(i)", "tile(i;8;nopeel)", "unroll(i;2)", "reverse(j)"]:
            running += times.get(key, 0.0)  # the failed tile adds nothing
            expected.append(running)
        # One record per fresh evaluation (the cache hit on reverse(i)
        # adds neither a record nor time), each the exact running sum.
        assert [r.wall_clock_s for r in session.records] == expected
        assert session.elapsed() == expected[-1]

    def test_real_time_reads_the_host_clock_not_the_measured_seconds(self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(session_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        session = session_with(lambda c: Time(10.0), simulated=False, max_wall_clock_s=5.0)
        root = session.evaluate_root()
        assert root.wall_clock_s == session.elapsed() == 0.0  # 10 s measured, none passed
        now[0] = 103.0
        record, _ = session.measure(cfg(Reverse("i")))
        assert record.wall_clock_s == session.elapsed() == 3.0
        now[0] = 105.0
        assert session.measure(cfg(Unroll("i", 2))) is None
        assert session.stop_reason == "wall_clock"
        assert session.unique_evaluations == 1


class TestEvaluateRoot:
    def test_sets_the_baseline(self):
        session = session_with(lambda c: Time(2.0))
        record = session.evaluate_root()
        assert record.h == 1.0
        assert record.iteration == 0 and record.phase == 0
        assert session.root_time == 2.0
        assert session.unique_evaluations == 0  # the root is free
        assert session.elapsed() == 2.0
        assert session.best is record

    def test_root_failure_raises(self):
        session = session_with(lambda c: RunFailure("crash"))
        with pytest.raises(RootEvaluationError):
            session.evaluate_root()

    def test_measure_before_root_raises(self):
        session = session_with(lambda c: Time(1.0))
        with pytest.raises(RootEvaluationError):
            session.measure(cfg(Reverse("i")))


class TestMeasure:
    def test_fresh_measurement_records_history(self):
        session = session_with(halver)
        session.evaluate_root()
        session.phases = 2  # the record's phase is the last one begun
        record, fresh = session.measure(cfg(Reverse("i")))
        assert fresh
        assert record.h == 2.0
        assert record.iteration == 1 and record.phase == 1
        assert [r.key for r in session.records] == ["", "reverse(i)"]

    def test_cache_hit_is_free_and_recordless(self):
        session = session_with(halver)
        session.evaluate_root()
        session.measure(cfg(Reverse("i")))
        elapsed = session.elapsed()
        first = session.records[-1]
        session.phases = 4
        again, fresh = session.measure(cfg(Reverse("i")))
        assert not fresh
        assert again is first and again.phase == 0  # the first record, not a new one
        assert again.h == 2.0
        assert len(session.records) == 2
        assert session.elapsed() == elapsed
        assert session.unique_evaluations == 1

    def test_failures_enter_history_without_h(self):
        def flaky(config):
            return CompileFailure("no") if config.steps else Time(1.0)

        session = session_with(flaky)
        session.evaluate_root()
        record, _ = session.measure(cfg(Reverse("i")))
        assert record.h is None and record.outcome == CompileFailure("no")
        assert session.elapsed() == 1.0  # failures cost no simulated time
        assert session.best.key == ""

    def test_a_tripped_bound_refuses_cached_and_unseen_alike(self):
        session = session_with(lambda c: Time(1.0), max_unique=1)
        session.evaluate_root()
        assert session.measure(cfg(Reverse("i"))) is not None
        assert session.out_of_budget()
        assert session.measure(cfg(Unroll("i", 2))) is None
        assert session.measure(cfg(Reverse("i"))) is None
        assert session.iterations == 1  # refused calls count nothing
        assert session.stop_reason == "unique_budget"

    def test_each_call_is_one_iteration_and_the_last_may_measure(self):
        session = session_with(halver, max_iterations=3)
        session.evaluate_root()
        assert session.iterations == 0  # the root is free
        session.measure(cfg(Reverse("i")))
        assert not session.measure(cfg(Reverse("i")))[1]  # a hit costs an iteration
        assert session.measure(cfg(Unroll("i", 2)))[1]
        assert session.iterations == 3 and session.unique_evaluations == 2
        assert session.measure(cfg(Reverse("j"))) is None
        assert session.stop_reason == "iterations"

    def test_best_prefers_higher_h_and_keeps_the_first_tie(self):
        times = {"": 1.0, "reverse(i)": 0.5, "unroll(i;2)": 0.5, "reverse(j)": 0.25}
        session = session_with(lambda c: Time(times[c.key]))
        session.evaluate_root()
        session.measure(cfg(Reverse("i")))
        session.measure(cfg(Unroll("i", 2)))  # ties; earlier record stays
        assert session.best.key == "reverse(i)"
        session.measure(cfg(Reverse("j")))
        assert session.best.key == "reverse(j)"
        assert session.best.h == 4.0

    def test_target_moves_on_every_success_cache_hits_included(self):
        session = session_with(halver)
        target = session.target = TargetState(RewardParams(m=10))
        root = session.evaluate_root()
        assert root.f == target.f == 1.0
        record, _ = session.measure(cfg(Reverse("i")))
        assert record.f == target.f == 1.5  # mean of 1.0 and 2.0
        again, fresh = session.measure(cfg(Reverse("i")))
        assert not fresh and again.f == 1.5  # the record keeps its logged f
        assert target.f == pytest.approx(5.0 / 3.0)  # the hit's h entered the window

    def test_failures_leave_the_target_alone(self):
        session = session_with(lambda c: CompileFailure("no") if c.steps else Time(1.0))
        target = session.target = TargetState(RewardParams())
        session.evaluate_root()
        record, _ = session.measure(cfg(Reverse("i")))
        assert record.f == target.f == 1.0

    def test_without_a_target_f_is_not_logged(self):
        session = session_with(halver)
        assert session.target is None
        assert session.evaluate_root().f is None
        record, _ = session.measure(cfg(Reverse("i")))
        assert record.f is None

    def test_best_is_the_logged_record(self):
        session = session_with(halver)
        session.evaluate_root()
        record, _ = session.measure(cfg(Reverse("i")))
        assert session.best is record is session.records[-1]
        assert record.best_so_far_h == 2.0
        assert record.config == cfg(Reverse("i"))


class TestOutOfBudget:
    def test_unique_budget(self):
        session = session_with(SyntheticLandscape(seed=0), max_unique=0)
        session.evaluate_root()
        assert session.out_of_budget()
        assert session.stop_reason == "unique_budget"

    def test_wall_clock_budget(self):
        session = session_with(lambda c: Time(10.0), max_wall_clock_s=5.0)
        session.evaluate_root()
        assert session.out_of_budget()
        assert session.stop_reason == "wall_clock"

    def test_iteration_budget(self):
        session = session_with(lambda c: Time(1.0), max_iterations=2)
        session.evaluate_root()
        session.count_iteration()
        assert not session.out_of_budget()
        assert session.stop_reason is None
        session.count_iteration()
        assert session.out_of_budget()
        assert session.stop_reason == "iterations"


class TestLogging:
    def test_log_lines_carry_run_state(self):
        session = session_with(halver)
        session.target = TargetState(RewardParams())
        session.evaluate_root()
        session.phases = 3
        session.measure(cfg(Tile("i", 32)))
        lines = session.records
        assert [l.key for l in lines] == ["", "tile(i;32;nopeel)"]
        assert lines[0].f == 1.0 and lines[0].phase == 0
        line = lines[-1]
        assert line.method == "test"
        assert line.phase == 2
        assert line.pragmas == ("#pragma clang loop tile sizes(32)",)
        assert line.f == 1.5  # the target after this update: mean of 1.0 and 2.0
        assert line.h == 2.0  # 1.0s baseline over 0.5s
        assert line.best_so_far_h == 2.0
        assert line.depth == 1
        assert line.wall_clock_s == 1.5

    def test_result_record_round_trips_through_dicts(self):
        outcomes = [Time(0.25), CompileFailure("bad"), RunFailure("worse")]
        for outcome in outcomes:
            record = EvalRecord(
                iteration=3,
                phase=1,
                method="mcts",
                key="reverse(i)",
                pragmas=("#pragma clang loop reverse",),
                outcome=outcome,
                h=4.0 if outcome.ok else None,
                f=1.5 if outcome.ok else None,
                best_so_far_h=4.0,
                depth=1,
                wall_clock_s=0.75,
            )
            assert record_from_dict(record.to_dict()) == record

    def test_read_back_records_have_no_config_and_still_compare_equal(self):
        session = session_with(halver)
        session.evaluate_root()
        record, _ = session.measure(cfg(Tile("i", 32)))
        back = record_from_dict(record.to_dict())
        assert back.config is None and record.config is not None
        assert back == record
        assert "config" not in record.to_dict()

    def test_a_log_line_holds_every_field_but_config_in_field_order(self, tmp_path):
        session = session_with(halver)
        session.evaluate_root()
        record, _ = session.measure(cfg(Tile("i", 32)))
        write_log([record], tmp_path / "log.jsonl")
        (back,) = read_log(tmp_path / "log.jsonl")
        names = [f.name for f in dataclasses.fields(EvalRecord) if f.name != "config"]
        assert list(record.to_dict()) == list(back.to_dict()) == names
        assert record.to_dict()["outcome"] == {"kind": "time", "seconds": 0.5}

    def test_a_history_refuses_a_read_back_record(self):
        session = session_with(halver)
        root = session.evaluate_root()
        record, _ = session.measure(cfg(Tile("i", 32)))
        assert quantile_split(ranked_history(session.records), 0.05)  # live records carry configs
        back = record_from_dict(record.to_dict())
        history = ranked_history([root])
        for _ in range(2):  # a failed mask build enters nothing
            with pytest.raises(AttributeError):
                history.add(back, ())
        assert history.entries() == [(0, 0, root, ())] and history.ranked == [(root.h, 0)]
        assert back == record
