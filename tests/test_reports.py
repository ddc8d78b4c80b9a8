"""Log persistence and the three report tables."""

import pytest

from pragmatune.errors import LogParseError, PragmatuneError
from pragmatune.evaluators import CompileFailure, Time
from pragmatune.reports import (
    emit_best_depth,
    emit_cutoff_counts,
    emit_trajectory,
    read_log,
    top_cutoff,
    write_log,
)
from pragmatune.reward import tail_rank
from pragmatune.session import EvalRecord


def make_record(iteration, h, *, phase=0, method="mcts", depth=1, f=None, best=None):
    ok = h is not None
    return EvalRecord(
        iteration=iteration,
        phase=phase,
        method=method,
        key=f"step{iteration}" if iteration else "",
        pragmas=(),
        outcome=Time(1.0 / h) if ok else CompileFailure("x"),
        h=h,
        f=f,
        best_so_far_h=best if best is not None else (h if ok else 1.0),
        depth=depth,
        wall_clock_s=float(iteration),
    )


class TestLogRoundTrip:
    def test_write_then_read(self, tmp_path):
        records = [
            make_record(0, 1.0, depth=0),
            make_record(1, 2.5),
            make_record(2, None),
        ]
        path = tmp_path / "log.jsonl"
        write_log(records, path)
        assert read_log(path) == records

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log([make_record(0, 1.0)], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_log(path)) == 1

    @pytest.mark.parametrize(
        "bad",
        ["not json", '{"iteration": 1}', "[1, 2]", '{"outcome": 3}'],
    )
    def test_a_bad_line_is_named_by_file_and_line(self, tmp_path, bad):
        path = tmp_path / "log.jsonl"
        write_log([make_record(0, 1.0), make_record(1, 2.0)], path)
        lines = path.read_text().splitlines()
        path.write_text(f"{lines[0]}\n\n{bad}\n{lines[1]}\n")
        with pytest.raises(LogParseError, match=r"log\.jsonl, line 3: ") as raised:
            read_log(path)
        # Callers that catch ValueError (or the package's base error) still do.
        assert isinstance(raised.value, ValueError)
        assert isinstance(raised.value, PragmatuneError)


    @pytest.mark.parametrize(
        "h,kind,typo", [(2.0, "time", "tiem"), (None, "compile_failure", "compile_failur")]
    )
    def test_an_unknown_outcome_kind_is_named_by_file_and_line(self, tmp_path, h, kind, typo):
        path = tmp_path / "log.jsonl"
        write_log([make_record(0, 1.0), make_record(1, h)], path)
        first, second = path.read_text().splitlines()
        second = second.replace(f'"kind": "{kind}"', f'"kind": "{typo}"')
        path.write_text(f"{first}\n{second}\n")
        with pytest.raises(LogParseError, match=rf"log\.jsonl, line 2: KeyError: '{typo}'"):
            read_log(path)


class TestTrajectory:
    def test_table_shape_and_phase_markers(self):
        records = [
            make_record(0, 1.0, phase=0, depth=0, f=1.0),
            make_record(1, 1.53846, phase=1, f=1.0, best=1.53846),
            make_record(2, None, phase=1, best=1.53846),
            make_record(3, 2.0, phase=2, f=1.25, best=2.0),
        ]
        lines = emit_trajectory(records).splitlines()
        assert lines[0] == "index\tdepth\th\tbest_so_far_h\tf\tphase"
        assert lines[1] == "0\t0\t1\t1\t1\t0"
        assert lines[2] == "# phase 1"
        assert lines[3] == "1\t1\t1.53846\t1.53846\t1\t1"
        assert lines[4] == "2\t1\t\t1.53846\t\t1"  # failures leave h and f blank
        assert lines[5] == "# phase 2"
        assert lines[6] == "3\t1\t2\t2\t1.25\t2"
        assert len(lines) == 7

    def test_empty_log_yields_header_only(self):
        assert emit_trajectory([]) == "index\tdepth\th\tbest_so_far_h\tf\tphase\n"


class TestTopCutoff:
    def test_hundred_distinct_values_leave_exactly_five(self):
        values = [float(v) for v in range(1, 101)]
        cutoff = top_cutoff(values, 0.05)
        assert cutoff == 96.0
        assert sum(v >= cutoff for v in values) == 5

    def test_single_value(self):
        assert top_cutoff([3.5], 0.05) == 3.5

    def test_the_cutoff_is_the_search_tails_nearest_rank(self):
        for n in range(1, 51):
            values = [float(7 * k % 13) for k in range(n)]  # ties from n = 14 on
            for fraction in (0.05, 0.3, 1.0):
                expected = sorted(values)[-tail_rank(n, fraction)]
                assert top_cutoff(values, fraction) == expected, (n, fraction)

    def test_validation(self):
        with pytest.raises(ValueError):
            top_cutoff([], 0.05)
        with pytest.raises(ValueError):
            top_cutoff([1.0], 0.0)
        with pytest.raises(ValueError):
            top_cutoff([1.0], 1.5)


class TestCutoffCounts:
    def test_cumulative_counts_with_ragged_logs(self):
        log_a = [
            make_record(0, 1.0, method="mcts"),
            make_record(1, 5.0, method="mcts"),
            make_record(2, 3.0, method="mcts"),
        ]
        log_b = [
            make_record(0, 2.0, method="rs"),
            make_record(1, 4.0, method="rs"),
        ]
        lines = emit_cutoff_counts([log_a, log_b], fraction=0.2).splitlines()
        # Pooled h = {1,5,3,2,4}; a 0.2 tail of 5 values keeps only 5.0.
        assert lines[0] == "# cutoff 5 (top 0.2 of pooled h)"
        assert lines[1] == "index\tmcts\trs"
        assert lines[2] == "0\t0\t0"
        assert lines[3] == "1\t1\t0"
        assert lines[4] == "2\t1\t0"  # the shorter rs log repeats its final count

    def test_failures_do_not_pool(self):
        log = [make_record(0, 2.0), make_record(1, None)]
        lines = emit_cutoff_counts([log], fraction=0.4).splitlines()
        assert lines[0].startswith("# cutoff 2")

    def test_unnamed_methods_get_positional_labels(self):
        log = [make_record(0, 2.0, method="")]
        lines = emit_cutoff_counts([log], fraction=0.5).splitlines()
        assert lines[1] == "index\tmethod0"


class TestBestDepth:
    def test_reports_each_logs_best(self):
        log_a = [
            make_record(0, 1.0, method="mcts", depth=0),
            make_record(1, 7.0, method="mcts", depth=3),
            make_record(2, 6.0, method="mcts", depth=5),
        ]
        log_b = [make_record(0, 1.0, method="gg", depth=0)]
        lines = emit_best_depth([log_a, log_b]).splitlines()
        assert lines[0] == "method\tbest_depth\tbest_h\tkey"
        assert lines[1] == "mcts\t3\t7\tstep1"
        assert lines[2] == "gg\t0\t1\t"

    def test_failure_only_log_leaves_blanks(self):
        log = [make_record(1, None, method="bf")]
        lines = emit_best_depth([log]).splitlines()
        assert lines[1] == "bf\t\t\t"
