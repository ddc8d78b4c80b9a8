"""Synthetic landscape determinism, external pipeline, evaluation caching."""

import subprocess
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from pragmatune import evaluators
from pragmatune.evaluators import (
    CachedEvaluator,
    CompileFailure,
    ExternalJobSpec,
    RunFailure,
    SyntheticLandscape,
    Time,
    evaluate_external,
)
from pragmatune.loops import (
    Configuration,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Unroll,
)

from helpers import counting

TEMPLATE = "/*@loop:i*/\nfor (;;) ;\n"


def cfg(*steps):
    return Configuration(tuple(steps))


class TestSyntheticLandscape:
    def test_pure_function_of_seed_and_key(self):
        config = cfg(Tile("i", 32, False), Reverse("i.t"))
        a = SyntheticLandscape(seed=7)(config)
        b = SyntheticLandscape(seed=7)(config)
        assert a == b
        assert isinstance(a, (Time, CompileFailure))

    def test_different_seeds_disagree_somewhere(self):
        configs = [cfg(Unroll("i", f)) for f in (2, 4, 8)] + [cfg(Reverse("i"))]
        a = [SyntheticLandscape(seed=1, failure_rate=0.0)(c) for c in configs]
        b = [SyntheticLandscape(seed=2, failure_rate=0.0)(c) for c in configs]
        assert a != b

    def test_root_always_succeeds(self):
        landscape = SyntheticLandscape(seed=3, failure_rate=0.99, base_time=2.0)
        assert landscape(Configuration()) == Time(2.0)

    def test_explicit_multiplier_override(self):
        landscape = SyntheticLandscape(
            seed=0, failure_rate=0.0, multipliers={("reverse",): 0.25}
        )
        assert landscape(cfg(Reverse("i"))) == Time(0.25)

    def test_multiplicative_composition_with_interaction(self):
        landscape = SyntheticLandscape(
            seed=0,
            failure_rate=0.0,
            multipliers={("reverse",): 0.25, ("parallelize",): 0.5},
            interactions={frozenset({("reverse",), ("parallelize",)}): 2.0},
        )
        outcome = landscape(cfg(Reverse("i"), ParallelizeThread("j")))
        assert outcome == Time(pytest.approx(0.25))

    def test_loop_ids_do_not_matter_for_time(self):
        landscape = SyntheticLandscape(seed=11, failure_rate=0.0)
        assert landscape(cfg(Reverse("a"))) == landscape(cfg(Reverse("zz.t")))

    def test_step_order_does_not_matter_for_time(self):
        landscape = SyntheticLandscape(seed=11, failure_rate=0.0)
        ab = landscape(cfg(Reverse("a"), Unroll("b", 4)))
        ba = landscape(cfg(Unroll("b", 4), Reverse("a")))
        assert ab == ba

    def test_hashed_multipliers_stay_in_range(self):
        landscape = SyntheticLandscape(seed=5, failure_rate=0.0)
        for step in (Reverse("i"), Unroll("i", 2), Tile("i", 8, True)):
            outcome = landscape(cfg(step))
            assert 0.5 <= outcome.seconds <= 1.5

    def test_pack_after_big_tile_fails(self):
        landscape = SyntheticLandscape(seed=1, failure_rate=0.0)
        bad = landscape(cfg(Tile("i", 128, False), Pack("i.t", "A")))
        assert isinstance(bad, CompileFailure)
        assert "pack after tile" in bad.reason
        ok = landscape(cfg(Tile("i", 64, False), Pack("i.t", "A")))
        assert isinstance(ok, Time)
        # Packing before the tile is fine; order is what conflicts.
        assert isinstance(landscape(cfg(Pack("i", "A"), Tile("i", 128, False))), Time)

    def test_pack_conflict_can_be_disabled(self):
        landscape = SyntheticLandscape(seed=1, failure_rate=0.0, pack_conflict_size=None)
        outcome = landscape(cfg(Tile("i", 256, False), Pack("i.t", "A")))
        assert isinstance(outcome, Time)

    def test_seeded_failures_are_deterministic_and_roughly_rated(self):
        landscape = SyntheticLandscape(seed=9, failure_rate=0.5)
        configs = [cfg(Unroll("i", 2), Tile(f"l{k}", 4, False)) for k in range(200)]
        outcomes = [landscape(c) for c in configs]
        again = [SyntheticLandscape(seed=9, failure_rate=0.5)(c) for c in configs]
        assert outcomes == again
        failed = sum(isinstance(o, CompileFailure) for o in outcomes)
        assert 60 <= failed <= 140  # near half, seeded hash is not adversarial

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticLandscape(seed=0, base_time=0.0)
        with pytest.raises(ValueError):
            SyntheticLandscape(seed=0, failure_rate=1.0)


# Configurations that share steps, so a warmed landscape reuses factors.
MIXED = [
    cfg(Reverse("i")),
    cfg(Reverse("i"), Unroll("j", 4)),
    cfg(Unroll("j", 4), Tile("i", 8, True), Reverse("i.t")),
    cfg(ParallelizeThread("i"), Reverse("j"), Unroll("j", 4), Tile("k", 8, True)),
    cfg(Tile("i", 8, True), Pack("i.t", "A"), Reverse("i.f"), Unroll("i.t", 2)),
]


class TestLandscapeMemo:
    def test_warmed_instance_matches_fresh_ones(self):
        for seed in range(5):
            warmed = SyntheticLandscape(seed=seed, failure_rate=0.3)
            for config in MIXED:
                warmed(config)
            for config in reversed(MIXED):
                assert warmed(config) == SyntheticLandscape(seed=seed, failure_rate=0.3)(config)

    def test_explicit_tables_still_win(self):
        multipliers = {("reverse",): 0.25, ("unroll", 4): 3.0}
        interactions = {frozenset({("reverse",), ("unroll", 4)}): 2.0}
        landscape = SyntheticLandscape(
            seed=6, failure_rate=0.0, multipliers=multipliers, interactions=interactions
        )
        plain = SyntheticLandscape(seed=6, failure_rate=0.0)
        for _ in range(2):
            for config in MIXED:
                landscape(config)
            assert landscape(cfg(Reverse("i"), Unroll("j", 4))) == Time(pytest.approx(1.5))
            # Identities without an explicit entry keep their hashed factors.
            assert landscape(cfg(Tile("i", 8, True))) == plain(cfg(Tile("i", 8, True)))
        # The caller's tables are copied, never filled with hashed factors.
        assert multipliers == {("reverse",): 0.25, ("unroll", 4): 3.0}
        assert interactions == {frozenset({("reverse",), ("unroll", 4)}): 2.0}

    def test_instances_with_different_seeds_share_no_factor(self):
        one = SyntheticLandscape(seed=1, failure_rate=0.0)
        two = SyntheticLandscape(seed=2, failure_rate=0.0)
        for config in MIXED:
            one(config)
        for config in MIXED:
            assert two(config) == SyntheticLandscape(seed=2, failure_rate=0.0)(config)
        assert one._multipliers and one._interactions
        assert one._multipliers.keys() == two._multipliers.keys()
        for identity, factor in one._multipliers.items():
            assert two._multipliers[identity] != factor
        for pair, factor in one._interactions.items():
            assert two._interactions[pair] != factor


class TestCachedEvaluator:
    def test_inner_runs_once_per_key(self):
        calls = []
        cache = CachedEvaluator(counting(SyntheticLandscape(seed=4, failure_rate=0.0), calls))
        first = cache(cfg(Reverse("i")))
        second = cache(cfg(Reverse("i")))
        assert first == second
        assert calls == ["reverse(i)"]

    def test_distinct_keys_counted(self):
        calls = []
        cache = CachedEvaluator(counting(SyntheticLandscape(seed=4, failure_rate=0.0), calls))
        cache(Configuration())
        cache(cfg(Reverse("i")))
        cache(cfg(Reverse("j")))  # same identity, different key: still unique
        cache(cfg(Reverse("i")))
        assert calls == ["", "reverse(i)", "reverse(j)"]

    def test_failures_are_cached_too(self):
        calls = []

        def failing(config):
            calls.append(config.key)
            return CompileFailure("nope")

        cache = CachedEvaluator(failing)
        assert cache(cfg(Reverse("i"))) == CompileFailure("nope")
        assert cache(cfg(Reverse("i"))) == CompileFailure("nope")
        assert calls == ["reverse(i)"]

    def test_seen(self):
        calls = []
        cache = CachedEvaluator(counting(SyntheticLandscape(seed=4), calls))
        assert calls == []  # nothing seen yet
        cache(Configuration())
        cache(Configuration())
        assert calls == [""]  # seen once, evaluated once


def write_stub(path, body):
    path.write_text("import sys\n" + textwrap.dedent(body))
    return path


@pytest.fixture
def copy_compiler(tmp_path):
    stub = write_stub(
        tmp_path / "cc.py",
        """
        src, out = sys.argv[1], sys.argv[2]
        open(out, "w").write(open(src).read())
        """,
    )
    return f"python3 {stub} {{src}} {{out}}"


class TestEvaluateExternal:
    def test_median_of_repetitions(self, tmp_path, copy_compiler):
        counter = tmp_path / "count"
        runner = write_stub(
            tmp_path / "run.py",
            f"""
            from pathlib import Path
            counter = Path({str(counter)!r})
            n = int(counter.read_text()) if counter.exists() else 0
            counter.write_text(str(n + 1))
            print("elapsed", [0.3, 0.1, 0.5, 0.2, 0.4][n], "s")
            """,
        )
        job = ExternalJobSpec(
            source_template=TEMPLATE,
            compile_cmd=copy_compiler,
            run_cmd=f"python3 {runner} {{out}}",
            repetitions=5,
        )
        assert evaluate_external(Configuration(), job) == Time(0.3)
        assert counter.read_text() == "5"

    def test_temporary_paths_with_spaces_stay_one_argument(self, tmp_path, monkeypatch, copy_compiler):
        spaced = tmp_path / "tmp dir"
        spaced.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spaced))
        runner = write_stub(
            tmp_path / "run.py",
            """
            assert len(sys.argv) == 2 and " " in sys.argv[1], sys.argv
            assert "loop" in open(sys.argv[1]).read()
            print(0.25)
            """,
        )
        job = ExternalJobSpec(
            source_template=TEMPLATE,
            compile_cmd=copy_compiler,
            run_cmd=f"python3 {runner} {{out}}",
            repetitions=1,
        )
        assert evaluate_external(Configuration(), job) == Time(0.25)

    def test_a_compile_or_a_run_past_the_timeout_is_a_failure(self):
        def job(compile_cmd, run_cmd):
            return ExternalJobSpec(
                source_template=TEMPLATE,
                compile_cmd=compile_cmd,
                run_cmd=run_cmd,
                repetitions=3,
                timeout_s=0.2,
            )

        start = time.monotonic()
        hung_compile, hung_run = job("sleep 5", "python3 -c print(0.5)"), job("sleep 0", "sleep 5")
        assert evaluate_external(Configuration(), hung_compile) == CompileFailure("compile timeout")
        assert evaluate_external(Configuration(), hung_run) == RunFailure("run timeout")
        # One timeout each: the hung run is not repeated.
        assert time.monotonic() - start < 1.5

    @pytest.mark.parametrize(
        "compile_cmd, run_cmd",
        [("printf '\\377'", "printf 0.5"), ("true", "printf '\\377 0.5\\n'")],
    )
    def test_output_that_is_not_utf8_is_still_read(self, compile_cmd, run_cmd):
        # A 0xff byte on a compile's or a run's output once raised
        # UnicodeDecodeError out of the evaluator and ended the run.
        job = ExternalJobSpec(
            source_template=TEMPLATE, compile_cmd=compile_cmd, run_cmd=run_cmd, repetitions=1
        )
        assert evaluate_external(Configuration(), job) == Time(0.5)

    def test_rendered_pragmas_reach_the_compiler(self, tmp_path):
        checker = write_stub(
            tmp_path / "cc.py",
            """
            text = open(sys.argv[1]).read()
            if "#pragma clang loop reverse" not in text:
                sys.exit(3)
            open(sys.argv[2], "w").write("bin")
            """,
        )
        job = ExternalJobSpec(
            source_template=TEMPLATE,
            compile_cmd=f"python3 {checker} {{src}} {{out}}",
            run_cmd="python3 -c print(0.5)",
            repetitions=1,
        )
        assert evaluate_external(cfg(Reverse("i")), job) == Time(0.5)
        assert isinstance(evaluate_external(Configuration(), job), CompileFailure)

    def test_compile_failure_keeps_reason(self, tmp_path):
        failer = write_stub(
            tmp_path / "cc.py",
            """
            sys.stderr.write("bad pragma nesting")
            sys.exit(2)
            """,
        )
        job = ExternalJobSpec(
            source_template=TEMPLATE,
            compile_cmd=f"python3 {failer} {{src}} {{out}}",
            run_cmd="true",
        )
        outcome = evaluate_external(Configuration(), job)
        assert isinstance(outcome, CompileFailure)
        assert "bad pragma nesting" in outcome.reason

    def test_reject_pattern_counts_as_compile_failure(self, tmp_path):
        warner = write_stub(
            tmp_path / "cc.py",
            """
            print("warning: loop not supported by backend")
            open(sys.argv[2], "w").write("bin")
            """,
        )
        job = ExternalJobSpec(
            source_template=TEMPLATE,
            compile_cmd=f"python3 {warner} {{src}} {{out}}",
            run_cmd="python3 -c print(0.5)",
            reject_pattern=r"not supported",
        )
        outcome = evaluate_external(Configuration(), job)
        assert isinstance(outcome, CompileFailure)
        assert "not supported" in outcome.reason

    def test_run_failure_paths(self, tmp_path, copy_compiler):
        def job_with(run_body):
            runner = write_stub(tmp_path / "run.py", run_body)
            return ExternalJobSpec(
                source_template=TEMPLATE,
                compile_cmd=copy_compiler,
                run_cmd=f"python3 {runner} {{out}}",
                repetitions=2,
            )

        crash = evaluate_external(
            Configuration(), job_with("sys.stderr.write('segfault'); sys.exit(1)")
        )
        assert isinstance(crash, RunFailure) and "segfault" in crash.reason

        silent = evaluate_external(Configuration(), job_with("print('no numbers here')"))
        assert silent == RunFailure("no time on stdout")

        negative = evaluate_external(Configuration(), job_with("print(-0.5)"))
        assert isinstance(negative, RunFailure) and "non-positive" in negative.reason

    def test_last_float_token_wins(self, tmp_path, copy_compiler):
        runner = write_stub(
            tmp_path / "run.py",
            """
            print("ran 12 reps, best time=0.125 seconds")
            """,
        )
        job = ExternalJobSpec(
            source_template=TEMPLATE,
            compile_cmd=copy_compiler,
            run_cmd=f"python3 {runner} {{out}}",
            repetitions=1,
        )
        assert evaluate_external(Configuration(), job) == Time(0.125)


def process_alive(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie (exited, not yet reaped) counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process state from /proc")
class TestTimeouts:
    def test_a_timeout_kills_the_whole_process_group(self, tmp_path):
        # Two processes: the shell, and a sleeping grandchild that holds its pipes.
        pidfile = tmp_path / "pid"
        start = time.monotonic()
        with pytest.raises(subprocess.TimeoutExpired):
            evaluators._run(f"sh -c 'sleep 4 & echo $! > {pidfile}; wait'", 0.5)
        assert time.monotonic() - start < 2.0
        grandchild = int(pidfile.read_text())
        deadline = time.monotonic() + 1.0
        while process_alive(grandchild) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not process_alive(grandchild)
