"""Reward shaping: targets, rewards, history quantiles, penalty filtering."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragmatune.errors import EmptyHistoryError
from pragmatune.evaluators import CompileFailure, RunFailure, Time
from pragmatune.loops import (
    Configuration,
    Interchange,
    Pack,
    ParallelizeThread,
    Reverse,
    Tile,
    Unroll,
    pragma_identity,
)
from pragmatune.reward import (
    RankedHistory,
    RewardParams,
    TargetState,
    penalty_filter,
    quantile_split,
    reward,
    speedup,
    tail_rank,
)

from helpers import entry_records, eval_record, ranked_history

# The package exports the ``reward`` function under the module's name.
reward_module = importlib.import_module("pragmatune.reward")


def rec(h, steps=(), iteration=0, phase=1):
    outcome = Time(h) if h is not None else CompileFailure("boom")
    return eval_record(Configuration(tuple(steps)), outcome, h, iteration, phase)


class TestSpeedup:
    def test_measured_example(self):
        assert speedup(0.1897, 0.0272) == pytest.approx(6.974264705882353, rel=1e-12)

    def test_identity(self):
        assert speedup(2.0, 2.0) == 1.0

    def test_requires_positive_times(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, -2.0)


class TestTargetState:
    def test_starts_at_initial(self):
        assert TargetState(RewardParams()).f == 1.0
        assert TargetState(RewardParams(), initial=2.5).f == 2.5

    def test_monotone_floor_holds_under_slow_configs(self):
        target = TargetState(RewardParams(m=3))
        assert target.update(0.5) == 1.0

    def test_window_mean_drives_the_target_up(self):
        target = TargetState(RewardParams(m=3))
        for h in (2.0, 2.0, 2.0):
            target.update(h)
        assert target.f == 2.0

    def test_monotone_target_never_drops(self):
        target = TargetState(RewardParams(m=3))
        for h in (2.0, 2.0, 2.0):
            target.update(h)
        assert target.update(0.5) == 2.0  # window mean 1.5, ratchet holds

    def test_non_monotone_follows_the_window(self):
        target = TargetState(RewardParams(m=3, monotone_target=False))
        for h in (2.0, 2.0, 2.0):
            target.update(h)
        assert target.update(0.5) == pytest.approx(1.5)
        # ... but never below the initial target.
        target2 = TargetState(RewardParams(m=1, monotone_target=False))
        assert target2.update(0.4) == 1.0

    def test_window_evicts_oldest(self):
        target = TargetState(RewardParams(m=2))
        assert [target.update(h) for h in (1.0, 1.0, 5.0, 5.0)] == [
            1.0,
            1.0,
            3.0,
            5.0,
        ]

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=50))
    def test_monotone_target_is_nondecreasing(self, hs):
        target = TargetState(RewardParams(m=10))
        values = [target.update(h) for h in hs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] >= 1.0


class TestReward:
    def test_branches(self):
        params = RewardParams()
        assert reward(CompileFailure("x"), None, 1.0, params) == -1.0
        assert reward(RunFailure("x"), None, 1.0, params) == -1.0
        assert reward(Time(0.5), 2.0, 1.0, params) == 1.0
        assert reward(Time(0.5), 1.0, 1.0, params) == 0.0  # ties earn nothing
        assert reward(Time(2.0), 0.5, 1.0, params) == 0.0

    def test_custom_penalty(self):
        params = RewardParams(r_penalty=-2.5)
        assert reward(CompileFailure("x"), None, 1.0, params) == -2.5

    @given(
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
    )
    def test_codomain(self, h, f):
        value = reward(Time(1.0), h, f, RewardParams())
        assert value in (0.0, 1.0)


class TestRewardParamsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RewardParams(m=0)
        with pytest.raises(ValueError):
            RewardParams(r_penalty=0.0)
        with pytest.raises(ValueError):
            RewardParams(alpha=0.0)
        with pytest.raises(ValueError):
            RewardParams(alpha=0.5)


class TestEvalRecord:
    def test_h_must_match_outcome(self):
        with pytest.raises(ValueError):
            eval_record(Configuration(), Time(1.0), None, 0, 0)
        with pytest.raises(ValueError):
            eval_record(Configuration(), CompileFailure("x"), 1.0, 0, 0)


class TestHistoryMasks:
    def test_masks_ignore_loop_ids(self):
        a = rec(2.0, [Tile("i", 32, False), Reverse("i.t")])
        b = rec(3.0, [Tile("q.f", 32, False), Reverse("zz")])
        c = rec(4.0, [Tile("i", 32, True)])
        root, ea, eb, ec = ranked_history([rec(1.0), a, b, c]).entries()
        assert root[:2] == (0, 0)
        assert ea[1] == eb[1] == 0b11  # one bit per identity, numbered on first sight
        assert ec[1] == 0b100

    def test_an_entry_carries_the_path_it_was_added_with(self):
        root, fast = rec(1.0), rec(2.0, [Reverse("i")], iteration=1)
        history = RankedHistory()
        history.add(root, ())
        history.add(fast, (3,))
        assert history.entries() == [(0, 0, root, ()), (1, 0b1, fast, (3,))]

    def test_each_mask_is_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            reward_module, "pragma_identity", lambda s: calls.append(s) or pragma_identity(s)
        )
        history = ranked_history([rec(1.0), rec(2.0, [Reverse("i"), Unroll("i", 2)])])
        assert len(calls) == 2  # adding computes the mask, one identity per step
        first = history.entries()
        history.add(rec(None, [Reverse("j")], iteration=2), ())
        assert len(calls) == 3
        second = history.entries()
        assert second[:2] == first[:2] and second[2][1] == 0b1  # reverse's bit
        for alpha in (0.05, 0.4):  # a split computes none
            lower, upper = quantile_split(history, alpha)
            penalty_filter(lower, upper)
        assert second[2] in lower and len(calls) == 3


class TestTailRank:
    def test_nearest_rank_values(self):
        assert tail_rank(20, 0.05) == 1
        assert tail_rank(21, 0.05) == 2
        assert tail_rank(100, 0.05) == 5
        assert tail_rank(10, 0.05) == 1
        assert tail_rank(1, 0.3) == 1
        assert tail_rank(40, 0.05) == 2

    @given(st.integers(1, 10_000), st.floats(0.001, 0.499))
    def test_bounds(self, n, fraction):
        k = tail_rank(n, fraction)
        assert 1 <= k <= n


class TestQuantileSplit:
    def test_twenty_distinct_values_give_single_min_and_max(self):
        history = [rec(float(h), [Unroll("i", None)]) for h in range(1, 21)]
        lower, upper = quantile_split(ranked_history(history), 0.05)
        assert [r.h for r in entry_records(lower)] == [1.0]
        assert [r.h for r in entry_records(upper)] == [20.0]
        assert [entry[0] for entry in lower + upper] == [0, 19]

    def test_ties_widen_the_tail(self):
        history = [rec(h, [Reverse("i")]) for h in (1.0, 1.0, 2.0, 3.0)]
        lower, upper = quantile_split(ranked_history(history), 0.25)
        assert [r.h for r in entry_records(lower)] == [1.0, 1.0]
        assert [r.h for r in entry_records(upper)] == [3.0]

    def test_failures_always_in_lower(self):
        history = [rec(None), rec(4.0), rec(1.0), rec(None), rec(2.0), rec(3.0)]
        lower, upper = quantile_split(ranked_history(history), 0.25)
        assert [r.h for r in entry_records(lower)] == [None, 1.0, None]
        assert [r.h for r in entry_records(upper)] == [4.0]
        assert [entry[0] for entry in lower] == [0, 2, 3]

    def test_single_success_lands_in_both_tails(self):
        history = [rec(2.0)]
        lower, upper = quantile_split(ranked_history(history), 0.05)
        assert entry_records(lower) == history and entry_records(upper) == history

    def test_no_success_raises(self):
        with pytest.raises(EmptyHistoryError):
            quantile_split(ranked_history([rec(None), rec(None)]), 0.05)

    @given(
        st.lists(
            st.one_of(st.none(), st.floats(0.01, 100.0)), min_size=1, max_size=60
        ).filter(lambda hs: any(h is not None for h in hs)),
        st.floats(0.01, 0.49),
    )
    def test_tail_properties(self, hs, alpha):
        history = [rec(h) for h in hs]
        lower, upper = quantile_split(ranked_history(history), alpha)
        lower, upper = entry_records(lower), entry_records(upper)
        successes = [r for r in history if r.h is not None]
        best = max(r.h for r in successes)
        worst = min(r.h for r in successes)
        assert all(r in history for r in lower + upper)
        assert worst in {r.h for r in lower}
        assert best in {r.h for r in upper}
        assert all(r.h is None for r in history if r in lower and r.h is None)
        assert {r.key for r in history if r.h is None} <= {r.key for r in lower} or any(
            r.h is None for r in lower
        )
        assert all(r.h is not None for r in upper)


    @settings(max_examples=150)
    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(0.01, 100.0)),
            max_size=80,
        ),
        st.floats(0.01, 0.49),
    )
    def test_equals_the_sort_based_definition(self, hs, alpha):
        # The root (h = 1.0, no steps) comes first, as in a session.
        history = [rec(1.0)] + [rec(h, [Reverse("i")], k) for k, h in enumerate(hs, start=1)]
        lower, upper = quantile_split(ranked_history(history), alpha)
        expected_lower, expected_upper = sorted_split(history, alpha)
        assert [id(r) for r in entry_records(lower)] == [id(r) for r in expected_lower]
        assert [id(r) for r in entry_records(upper)] == [id(r) for r in expected_upper]


def sorted_split(history, alpha):
    """The split's definition: sort every success, then scan the history twice."""
    ordered = sorted(r.h for r in history if r.h is not None)
    k = tail_rank(len(ordered), alpha)
    q_low, q_up = ordered[k - 1], ordered[len(ordered) - k]
    lower = [r for r in history if r.h is None or r.h <= q_low]
    upper = [r for r in history if r.h is not None and r.h >= q_up]
    return lower, upper


def identity_filter(lower, upper):
    """The filter's definition: each record's identity set, read from its config."""

    def identities(record):
        return frozenset(pragma_identity(s) for s in record.config.steps)

    shared = frozenset().union(*(identities(r) for r in upper))
    return [r for r in lower if r.config.steps and not (identities(r) & shared)]


def split_entries(lower, upper):
    """Entries of ``lower`` and ``upper`` records, masked by one history."""
    entries = ranked_history(lower + upper).entries()
    return entries[: len(lower)], entries[len(lower) :]


class TestPenaltyFilter:
    def test_shared_identity_is_dropped_ignoring_loop_ids(self):
        lower = [rec(0.5, [Tile("a", 32, False)])]
        upper = [rec(9.0, [Tile("z.f", 32, False)])]
        assert penalty_filter(*split_entries(lower, upper)) == []

    def test_disjoint_identity_is_kept(self):
        lower = [rec(0.5, [Reverse("a")])]
        upper = [rec(9.0, [Tile("z", 32, False)])]
        assert entry_records(penalty_filter(*split_entries(lower, upper))) == lower

    def test_any_shared_step_drops_the_record(self):
        lower = [rec(0.5, [Reverse("a"), Tile("a", 2, False)])]
        upper = [rec(9.0, [Tile("b", 2, False), Unroll("b.t", 4)])]
        assert penalty_filter(*split_entries(lower, upper)) == []

    def test_root_record_is_never_penalized(self):
        lower = [rec(1.0), rec(0.5, [Reverse("a")])]
        upper = [rec(9.0, [Tile("z", 32, False)])]
        kept = penalty_filter(*split_entries(lower, upper))
        assert [r.key for r in entry_records(kept)] == ["reverse(a)"]

    def test_empty_upper_keeps_all_non_root(self):
        lower = [rec(1.0), rec(0.5, [Reverse("a")]), rec(None, [Tile("a", 4, True)])]
        kept = penalty_filter(*split_entries(lower, []))
        assert [r.key for r in entry_records(kept)] == ["reverse(a)", "tile(a;4;peel)"]


# Steps whose identities repeat on different loop ids, so masks must
# ignore the ids to agree with the identity sets.
STEP_POOL = [
    Tile("i", 32, False),
    Tile("j.t", 32, False),
    Tile("i", 4, True),
    Interchange("i", (1, 0)),
    Interchange("k", (1, 0)),
    ParallelizeThread("j"),
    Unroll("i", 2),
    Unroll("i.t", 2),
    Unroll("j", None),
    Reverse("i"),
    Reverse("k"),
    Pack("i", "A"),
    Pack("j", "A"),
    Pack("j", "B"),
]


class TestMaskedTransferEqualsItsDefinition:
    @settings(max_examples=150)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.none(), st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(0.01, 100.0)
                ),
                st.lists(st.sampled_from(STEP_POOL), min_size=1, max_size=3),
                st.booleans(),
            ),
            max_size=60,
        ),
        st.floats(0.01, 0.49),
    )
    def test_split_and_filter_pick_the_defined_records(self, draws, alpha):
        # The root (h = 1.0, no steps) comes first, as in a session; the
        # history is split again wherever a draw says so, so masks are
        # computed across several calls.
        history = [rec(1.0)]
        ranked = ranked_history(history)
        for k, (h, steps, split_here) in enumerate(draws + [(None, [Reverse("i")], True)], start=1):
            record = rec(h, steps, k)
            history.append(record)
            ranked.add(record, ())
            if not split_here:
                continue
            lower, upper = quantile_split(ranked, alpha)
            expected_lower, expected_upper = sorted_split(history, alpha)
            assert [id(r) for r in entry_records(lower)] == [id(r) for r in expected_lower]
            assert [id(r) for r in entry_records(upper)] == [id(r) for r in expected_upper]
            kept = entry_records(penalty_filter(lower, upper))
            expected = identity_filter(expected_lower, expected_upper)
            assert [id(r) for r in kept] == [id(r) for r in expected]
